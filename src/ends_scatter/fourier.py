"""Distorted Fourier transform and scattering matrix.

Both rest on D^+ = (2 c_right / W, 2 c_left / W) of a mode's outgoing
Jost pair, W its Wronskian and c the boundary coefficient of each Jost
solution on its own end: the averaged large-radius limit of

    xi(r) = sqrt(b) * exp(-i Phi(r)) * u(r),      Phi(r) = int_{r0}^r b.

Averages are taken over dyadic windows [R, 2R]; convergence across
R-doublings (plus one geometric extrapolation) is the acceptance test for
the limit.  Outside the support of a state psi the outgoing resolvent is
(2/W) u_right <u_left, psi> on end 0 and (2/W) u_left <u_right, psi> on
end 1 (bilinear pairings), so F^+(lam) psi is D^+ times the two
pairings; ``oracle.reference_distorted_ft`` checks it by that resolvent.
:func:`distorted_ft` takes the Jost pair and reads the operator, lam and
the sign from it: an incoming pair gives F^-, D^- taken with the
extraction phase sqrt(b) exp(+i Phi).

The scattering matrix at energy lam is block diagonal over angular modes.
Each 2x2 block comes from the connection coefficients (four Wronskians)
of the outgoing and incoming Jost pairs and D^+-.  The incoming pair and
D^- are the conjugates of the outgoing ones, so each mode costs one Jost
march and two boundary limits.  :func:`scattering_sweep` takes S over a
list of energies: each mode's march set-up (nodes and W_m) is built once
for the whole list, each end's extraction windows once per r_lambda (a
memo the CLI's checks share), and each end's extraction phase sqrt(b)
e^{-i Phi}, which depends on the energy but not on the mode, once per
energy for all modes.  Phi is :func:`~ends_scatter.geometry.phase_integral`,
the WKB phase of the comparison dynamics, taken at the window nodes only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .geometry import ManifoldModel, phase_b, phase_integral
from .mode_reduction import ModeOperator, RadialGrid
from .resolvent import JostPair, _wronskian_profile, jost_setups, march_pair
# re-exported: perfbench's harness test reads fourier.jost_pair
from .resolvent import jost_pair as jost_pair

__all__ = [
    "ScatteringData",
    "distorted_ft",
    "scattering_matrix",
    "scattering_sweep",
]


@functools.lru_cache(maxsize=64)
def _extraction_windows(grid: RadialGrid, end: int, r_lam: float):
    """Where a boundary limit on one end is averaged: (nodes, r, windows).
    ``nodes`` indexes the end's nodes by increasing radius r, and each
    window masks, in that order, a dyadic window [R, 2R] with R = max(2
    r_lam, rmax / 16), 2R, ..., that ends on the grid and holds at least
    8 nodes.  No window fits when rmax < 4 r_lam.  Memoized on (grid,
    end, r_lam); the arrays are read-only and the windows a tuple."""
    nodes = np.flatnonzero(grid.end_mask(end, r_min=0.0))
    r = grid.r[nodes]
    order = np.argsort(r)
    nodes, r = nodes[order], r[order]
    windows = []
    R = max(2.0 * r_lam, grid.rmax / 16.0)
    while 2.0 * R <= r[-1] + 1e-9:
        msk = (r >= R) & (r <= 2.0 * R)
        if np.count_nonzero(msk) < 8:
            break
        msk.flags.writeable = False
        windows.append(msk)
        R *= 2.0
    nodes.flags.writeable = r.flags.writeable = False
    return nodes, r, tuple(windows)


def _averaged_limit(xi: np.ndarray, windows):
    """Means of xi over the dyadic windows of ``_extraction_windows``, with
    one geometric extrapolation step: (value, {"doubling_residual"})."""
    if not windows:
        raise ValueError("extraction window empty; increase rmax")
    means = [np.mean(xi[msk]) for msk in windows]

    def _geo_tail(seq):
        # one Aitken-style step for a geometrically converging sequence
        d1, d2 = seq[-2] - seq[-3], seq[-1] - seq[-2]
        if abs(d1) > 0 and abs(d2 / d1) < 0.75:
            q = d2 / d1
            return seq[-1] + d2 * q / (1.0 - q)
        return seq[-1]

    value = means[-1]
    if len(means) >= 3:
        rho = np.abs(means)
        if rho[-1] > 1e-8 * max(1.0, rho.max()):
            # modulus and phase converge at different rates; extrapolate
            # them separately to keep the faster modulus convergence clean
            theta = np.unwrap(np.angle(means))
            value = _geo_tail(list(rho)) * np.exp(1j * _geo_tail(list(theta)))
        else:
            value = _geo_tail(means)
    resid = abs(means[-1] - means[-2]) if len(means) >= 2 else np.inf
    return value, {"doubling_residual": float(resid / max(abs(value), 1e-300))}


def _phase_factors(model: ManifoldModel, grid: RadialGrid, end: int,
                   lam: float, sign: int):
    """The extraction phase sqrt(b) e^{-i sign Phi} on one end at the
    energy lam, at the nodes that some extraction window (at r_lambda of
    lam) holds.  Returns (nodes, windows, factor): those grid nodes by
    increasing r, the masks of ``_extraction_windows`` on them, and the
    factor.  Phi is :func:`~ends_scatter.geometry.phase_integral` at those
    nodes, each radius taken on its own."""
    nodes, r, windows = _extraction_windows(grid, end, model.r_lambda(lam))
    held = np.zeros(r.size, dtype=bool)
    for msk in windows:
        held |= msk
    r = r[held]
    b = np.real(phase_b(model, end, lam, r))
    phi = phase_integral(model, end, lam, r)
    factor = np.sqrt(np.maximum(b, 0.0)) * np.exp(-1j * sign * phi)
    return nodes[held], [msk[held] for msk in windows], factor


def _extract_end(pair: JostPair, end: int, u_line: np.ndarray):
    """Boundary coefficient of one end from a profile ``u_line`` at the
    energy and sign of ``pair``."""
    op = pair.op
    nodes, windows, factor = _phase_factors(op.model, op.grid, end, pair.lam,
                                            pair.sign)
    return _averaged_limit(factor * u_line[nodes], windows)


def _outgoing_coefficients(pair: JostPair, phases):
    """D = (2 c_right / W, 2 c_left / W) of a Jost pair, c the boundary
    coefficient of each Jost solution on its own end, and the diagnostics
    of the two extractions (end 0, end 1): D^+ of an outgoing pair.
    ``phases`` holds each end's (nodes, windows, factor) at the pair's
    energy and sign, as :func:`_phase_factors` gives them."""
    d = np.zeros(2, dtype=complex)
    ends = []
    for end, u in ((0, pair.u_right), (1, pair.u_left)):
        nodes, windows, factor = phases[end]
        c, ediag = _averaged_limit(factor * u[nodes], windows)
        d[end] = 2.0 * c / pair.wronskian
        ends.append(ediag)
    return d, ends


def distorted_ft(pair: JostPair, psis: np.ndarray):
    """F^{sign}(lam) psi for each row of ``psis`` (flat mode-m states on
    the grid of ``pair.op``), lam and sign those of the Jost pair: D times
    the pairings (<u_left, psi>, <u_right, psi>) with the pair, two
    extractions whatever the number of states.  A caller with several
    energies marches them through one set-up (``jost_setups``,
    ``march_pair``).

    Exact for states supported inside the extraction windows' inner
    radius.  Returns (coeffs, diag): coeffs of shape (n_states, 2), one
    column per end; diag["ends"] the doubling residuals of the two
    extractions.
    """
    psis = np.atleast_2d(np.asarray(psis, dtype=complex))
    op = pair.op
    d, ends = _outgoing_coefficients(pair, [
        _phase_factors(op.model, op.grid, end, pair.lam, pair.sign)
        for end in range(2)])
    # end 0 pairs the states with u_left, end 1 with u_right
    pairing = op.grid.dx * (psis @ np.stack((pair.u_left, pair.u_right), axis=1))
    return pairing * d, {"ends": ends}


@dataclass
class ScatteringData:
    """S(lam): one 2x2 block per angular mode (ends x ends)."""

    lam: float
    modes: Tuple[int, ...]
    blocks: np.ndarray  # (n_modes, 2, 2)
    unitarity_defect: float
    diag: dict = field(default_factory=dict)

    def block(self, m: int) -> np.ndarray:
        return self.blocks[self.modes.index(m)]


def _wronskian(a, b) -> complex:
    """Grid mean of the Wronskian of two solutions given as (u, u'), as
    ``JostPair.wronskian`` takes it."""
    return complex(np.mean(_wronskian_profile(*a, *b)))


def _mode_block(pair: JostPair, phases):
    """One mode's 2x2 block of S at the pair's energy, S_m = D^+ C^T
    (D^-)^-1 (see ``scattering_matrix``), and the worst doubling residual
    of its two boundary extractions."""
    # the incoming pair, its Wronskian and D^- are the conjugates of the
    # outgoing ones (see jost_pair)
    w_m = pair.wronskian.conjugate()
    d_p, ends = _outgoing_coefficients(pair, phases)
    d_m = np.conj(d_p)
    left_p = (pair.u_left, pair.du_left)
    right_p = (pair.u_right, pair.du_right)
    left_m = (np.conj(pair.u_left), np.conj(pair.du_left))
    right_m = (np.conj(pair.u_right), np.conj(pair.du_right))
    # coordinates of (u_left^+, u_right^+) in the basis (u_left^-, u_right^-)
    conn = np.array([[_wronskian(left_p, right_m), _wronskian(right_p, right_m)],
                     [_wronskian(left_m, left_p), _wronskian(left_m, right_p)]])
    conn /= w_m
    block = d_p[:, None] * conn.T / d_m[None, :]
    return block, max(e["doubling_residual"] for e in ends)


def scattering_sweep(model: ManifoldModel, grid: RadialGrid,
                     lams: Sequence[float], mmax: int = 0) -> List[ScatteringData]:
    """S(lam) at every energy of ``lams``, in order: bit for bit
    ``scattering_matrix`` at each energy, and the first error that a loop
    of those calls would raise.

    Each mode's march set-up (``jost_setups``) is built once for the
    list, and each energy marches through it, energy by energy and mode
    by mode within an energy.  Each end's extraction phase is taken once
    per energy, after the energy's first march, and serves every mode;
    its windows are memoized per r_lambda.  Each energy's diag holds each
    mode's doubling residual ("per_mode") and unitarity defect
    ("defects"), unjudged; ``unitarity_defect`` is the largest, or NaN.
    """
    lams = [float(lam) for lam in lams]
    modes = tuple(range(mmax + 1))
    setups = jost_setups([ModeOperator(model, grid, m) for m in modes])
    out = []
    for lam in lams:
        blocks = np.zeros((len(modes), 2, 2), dtype=complex)
        per_mode, phases = [], None
        for k, setup in enumerate(setups):
            pair = march_pair(setup, lam, +1)
            if phases is None:
                phases = [_phase_factors(model, grid, end, lam, +1)
                          for end in range(2)]
            blocks[k], residual = _mode_block(pair, phases)
            per_mode.append({"m": modes[k], "doubling_residual": residual})
        defects = [float(np.linalg.norm(b.conj().T @ b - np.eye(2), 2))
                   for b in blocks]
        diag = {"per_mode": per_mode, "defects": defects}
        out.append(ScatteringData(lam, modes, blocks, float(np.max(defects)),
                                  diag))
    return out


def scattering_matrix(model: ManifoldModel, grid: RadialGrid, lam: float,
                      mmax: int = 0) -> ScatteringData:
    """Assemble S(lam) mode block by mode block from the Jost pairs: the
    sweep (``scattering_sweep``) of the one energy lam.

    F^+- psi = D^+- (<u_left^+-, psi>, <u_right^+-, psi>) (see
    ``distorted_ft``).  With C the coordinates of (u_left^+, u_right^+)
    in the basis (u_left^-, u_right^-), F^+ = S_m F^- gives

        S_m = D^+ C^T (D^-)^-1.

    Each mode takes one march, of the outgoing pair, and two boundary
    limits.  The incoming pair is its complex conjugate (see
    ``jost_pair``), so W^- = conj(W^+) and D^- = conj(D^+), with the
    same doubling residuals.

    Blocks for -m equal those for m (rotational symmetry).  The
    unitarity defect max_m ||S_m* S_m - 1|| is reported, not judged; each
    mode's doubling residual is the worst of its two boundary extractions.
    """
    return scattering_sweep(model, grid, [lam], mmax)[0]
