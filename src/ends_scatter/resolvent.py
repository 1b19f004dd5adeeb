"""Limiting resolvent (H_m - lam -+ i0)^-1 via marched Jost solutions.

For each angular mode the reduced operator is a 1-d Schroedinger operator
on the line.  The two Jost solutions are launched at the outer grid ends
with WKB initial data built from the improved phase ``a`` (outgoing for
the +i0 boundary value, incoming for -i0) and marched inward; the
resolvent is then the usual Green kernel

    G(x, y) = 2 u_<(min) u_>(max) / W,   W = u_<' u_> - u_< u_>'.

The march is a fourth-order Magnus scheme on the grid cells (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009).  Each cell's real 2x2
transfer matrix is a closed-form exponential of a traceless matrix, so
it has unit determinant and the Wronskian of the pair is conserved to
roundoff.  One pass of the compiled kernel ``jost_march`` (``_jost.c``)
forms the matrices and marches both solutions, one cell after the other,
writing (u, u') at the grid nodes only.  Breakpoints of the potential
that fall between grid nodes split their cell.

Nothing of the march but its launch data depends on the energy, so the
work splits in two.  :func:`jost_setups` builds, once per mode, the march
nodes and their grid positions (shared by all modes of one model and
grid), W_m at the two Gauss nodes of every cell and W_m at the launch
radii; :func:`march_pair` then marches one energy through them.
:func:`jost_pair` is the two in a row, for callers that take one energy
at a time.  A pair carries its operator, energy and sign, so every
function handed one (:func:`limiting_resolvent`,
``fourier.distorted_ft``, ``oracle.reference_distorted_ft``) reads them
from it and takes no second copy that could disagree, and it stores
nothing derived from them (r_lambda is the model's, the launch radius
the grid end).

Inward marching is the stable direction on both sides (through a
classically forbidden core the physical solution grows towards the core),
so no renormalization sweeps are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import _clib
from .geometry import ManifoldModel, cumulative_trapezoid, phase_a
from .mode_reduction import ModeOperator, RadialGrid, besov_norm

__all__ = ["JostPair", "JostSetup", "jost_pair", "jost_setups", "march_pair",
           "limiting_resolvent", "radiation_residual"]


@dataclass
class JostPair:
    """The two Jost solutions of (H_m - lam) u = 0 on the grid.

    ``u_right`` is launched at x = +rmax (end 0), ``u_left`` at x = -rmax
    (end 1); for ``sign=+1`` both are outgoing, for ``sign=-1`` incoming.
    ``wronskian`` is the grid mean of the Wronskian u_left' u_right -
    u_left u_right', and ``wronskian_drift`` its largest relative
    deviation from that mean over the grid.
    """

    op: ModeOperator
    lam: float
    sign: int
    u_left: np.ndarray
    du_left: np.ndarray
    u_right: np.ndarray
    du_right: np.ndarray
    wronskian: complex
    wronskian_drift: float


def _wronskian_profile(f: np.ndarray, df: np.ndarray, g: np.ndarray,
                       dg: np.ndarray) -> np.ndarray:
    """Wronskian f' g - f g' of two solutions at every node."""
    return df * g - f * dg


# Gauss-Legendre nodes of a unit cell, where W_m is sampled
_GAUSS = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


def _march_nodes(model: ManifoldModel,
                 grid: RadialGrid) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes of the Jost marches and the positions of the grid nodes among
    them: the grid nodes, and every breakpoint that falls strictly between
    two of them, so no Gauss cell straddles a jump of the potential."""
    x = grid.x
    brk = model.breakpoints()
    brk = brk[np.abs(brk) < grid.rmax]
    gap = np.min(np.abs(brk[:, None] - x[None, :]), axis=1)
    nodes = np.sort(np.concatenate((x, brk[gap > 1e-9 * grid.dx])))
    return nodes, np.searchsorted(nodes, x)


def _march(nodes: np.ndarray, w: np.ndarray, lam: float,
           on_grid: np.ndarray, launch: np.ndarray) -> np.ndarray:
    """Both Jost solutions at the nodes ``nodes[on_grid]`` by the compiled
    Magnus march of ``_jost.c``: rows u_left, u_left', u_right, u_right'.

    ``w`` holds W_m at the two Gauss nodes of every cell of ``nodes``,
    shape (cells, 2).  ``launch`` holds (u, u') of the left solution at
    nodes[0], marched up, and of the right one at nodes[-1], marched down,
    shape (2, 2).  The kernel checks no argument: the arrays go through
    ``_clib.pointer``, and the node indices, which the kernel walks in
    order, must increase within the nodes."""
    n = nodes.size
    x_p = _clib.pointer(nodes, "nodes", np.float64, (n,))
    w_p = _clib.pointer(w, "w", np.float64, (n - 1, 2))
    at_p = _clib.pointer(on_grid, "on_grid", np.int64, (on_grid.size,))
    y_p = _clib.pointer(launch, "launch", complex, (2, 2))
    if on_grid.size and not (0 <= on_grid[0] and on_grid[-1] < n
                             and np.all(np.diff(on_grid) > 0)):
        raise ValueError(f"grid indices must increase within [0, {n})")
    mats = np.empty((n - 1, 4))
    out = np.empty((4, on_grid.size), dtype=complex)
    _clib.library().jost_march(n, x_p, w_p, float(lam), y_p, on_grid.size,
                               at_p, mats.ctypes.data, out.ctypes.data)
    return out


def _launch_data(model: ManifoldModel, end: int, lam: float, sign: int,
                 r_launch: float):
    """WKB initial data (u, du/dr) at radius r_launch on the given end:
    u = 1 and the radial log-derivative i*sign*a of the improved phase.
    Only the log-derivative selects the Jost solution; its amplitude and
    phase are a gauge (see ``jost_pair``)."""
    a = complex(phase_a(model, end, lam, np.array([r_launch]), sign=sign)[0])
    return 1.0, 1j * sign * a


@dataclass
class JostSetup:
    """What the Jost marches of one mode share at every energy.

    ``nodes`` are the march nodes of :func:`_march_nodes` and ``on_grid``
    the positions of the grid nodes among them, ``w_gauss`` holds W_m at
    the two Gauss nodes of every cell, shape (cells, 2), and ``w_launch``
    W_m at the launch radius, the grid end ``op.grid.rmax``, of end 0
    (x = +rmax) and of end 1 (x = -rmax).
    """

    op: ModeOperator
    nodes: np.ndarray
    on_grid: np.ndarray
    w_gauss: np.ndarray
    w_launch: np.ndarray


def jost_setups(ops: Sequence[ModeOperator]) -> List[JostSetup]:
    """The energy-independent part of the Jost marches of each operator
    in ``ops``, all on one model and one grid: the march nodes, built
    once and shared, and each mode's W_m at their Gauss nodes and at the
    launch radii, the grid ends.
    """
    if not ops:
        return []
    model, grid = ops[0].model, ops[0].grid
    if any(op.model is not model or op.grid != grid for op in ops):
        raise ValueError("the operators of one set-up share a model and a grid")
    nodes, on_grid = _march_nodes(model, grid)
    xs = (nodes[:-1, None] + np.diff(nodes)[:, None] * _GAUSS).ravel()
    return [JostSetup(op, nodes, on_grid,
                      model.w_mode(op.m, xs).reshape(-1, 2),
                      model.w_mode(op.m, np.array([grid.rmax, -grid.rmax])))
            for op in ops]


def march_pair(setup: JostSetup, lam: float, sign: int = +1) -> JostPair:
    """The Jost pair of ``setup``'s mode at energy lam (> both
    thresholds), marched through the set-up's nodes and W_m.

    The WKB launch needs an open channel, so lam at or below W_m at
    either launch point raises ValueError.  A degenerate pair (Wronskian
    below 1e-8 of the product of the solutions' sizes and the momentum:
    the two solutions are nearly parallel) raises RuntimeError.
    """
    op = setup.op
    model = op.model
    r_launch = op.grid.rmax
    for end in range(2):
        if lam <= model.ends[end].lambda0:
            raise ValueError(f"lam={lam} at or below the threshold of end {end}")
        if lam <= setup.w_launch[end]:
            raise ValueError(f"lam={lam} at or below W_{op.m} = "
                             f"{float(setup.w_launch[end])!r} at the launch radius "
                             f"{r_launch!r} of end {end}: the channel is closed")
    # end 1 launches at x = -r_launch, where d/dx = -d/dr, and end 0 at
    # x = +r_launch
    u1, dudr1 = _launch_data(model, 1, lam, sign, r_launch)
    u0, dudr0 = _launch_data(model, 0, lam, sign, r_launch)
    launch = np.array([[u1, -dudr1], [u0, dudr0]], dtype=complex)
    u_l, du_l, u_r, du_r = _march(setup.nodes, setup.w_gauss, lam,
                                  setup.on_grid, launch)

    w = _wronskian_profile(u_l, du_l, u_r, du_r)
    w0 = complex(np.mean(w))
    drift = float(np.max(np.abs(w - w0)) / max(abs(w0), 1e-300))
    scale = (np.max(np.abs(u_l)) * np.max(np.abs(u_r))
             * np.sqrt(2.0 * (lam - model.lambda_crit)))
    if abs(w0) < 1e-8 * max(scale, 1e-300):
        raise RuntimeError(f"degenerate Jost pair at lam={lam!r}, sign={sign}: "
                           f"Wronskian {abs(w0):.3e} against "
                           f"scale {scale:.3e}")
    return JostPair(op, lam, sign, u_l, du_l, u_r, du_r, w0, drift)


def jost_pair(op: ModeOperator, lam: float, sign: int = +1) -> JostPair:
    """Construct the Jost pair at energy lam (> both thresholds): the
    set-up of :func:`jost_setups` and one :func:`march_pair`, which
    raise as documented there.

    The incoming pair is the complex conjugate of the outgoing one, bit
    for bit: ``jost_pair(op, lam, -1)`` has (u, u') equal to np.conj of
    those of ``jost_pair(op, lam, +1)`` and Wronskian conj(W).  This
    rests on three facts: W_m is real, so every transfer matrix of the
    march is real; the launch data of ``_launch_data`` for sign -1 are the
    conjugates of those for sign +1; and the kernel marches the real and
    imaginary parts of each solution as two separate real recurrences
    through the same matrices, in which a negated launch rounds to the
    negated state at every node.  ``fourier.scattering_sweep`` relies on
    it to march once per mode; a complex potential would break it.

    Each solution is launched with u = 1: its WKB amplitude and phase at
    the launch radius are a gauge.  Rescaling u_left by c_l and u_right
    by c_r scales W by c_l c_r, each boundary coefficient and pairing by
    its own solution's factor, and the Green kernel's u_< u_> by c_l c_r,
    so S, F^+ and R(lam + i0) do not depend on it.
    """
    return march_pair(jost_setups([op])[0], lam, sign)


def limiting_resolvent(pair: JostPair, psi: np.ndarray):
    """phi = (H_m - lam -+ i0)^-1 psi on the grid, from the Jost pair of
    the operator, the energy lam and the sign of the boundary value.

    Returns (phi, diag); diag carries the interior residual
    ||(H - lam) phi - psi|| / ||psi|| measured with the grid stencil away
    from the boundary (the Wronskian and its drift are the pair's).
    """
    op = pair.op
    grid = op.grid
    psi = np.asarray(psi, dtype=complex)
    dx = grid.dx

    # cumulative integrals with Euler-Maclaurin endpoint correction: the
    # integrands are smooth on each side of the Green-kernel diagonal, so
    # correcting the moving endpoint lifts the trapezoid rule to O(dx^4).
    fl = pair.u_left * psi
    fr = pair.u_right * psi
    dfl = np.gradient(fl, dx, edge_order=2)
    dfr = np.gradient(fr, dx, edge_order=2)
    il = cumulative_trapezoid(fl, dx=dx)
    il += dx**2 / 12.0 * (dfl[0] - dfl)
    ir = cumulative_trapezoid(fr[::-1], dx=dx)[::-1]
    ir += dx**2 / 12.0 * (dfr - dfr[-1])
    phi = (2.0 / pair.wronskian) * (pair.u_right * il + pair.u_left * ir)

    return phi, {"interior_residual": _interior_residual(op, pair.lam, phi, psi)}


def _interior_residual(op: ModeOperator, lam: float, phi: np.ndarray,
                       psi: np.ndarray) -> float:
    """||(H - lam) phi - psi|| / ||psi|| with the grid stencil, four nodes
    clear of either boundary."""
    core = slice(4, -4)
    resid = op.apply(phi)[core] - lam * phi[core] - np.asarray(psi)[core]
    return float(op.grid.norm(resid) / max(op.grid.norm(psi), 1e-300))


def _radial_derivative(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    """d phi / dr on each end (d/dx on end 0, -d/dx on end 1), 2nd order."""
    dphi = np.gradient(phi, grid.dx, edge_order=2)
    return np.where(grid.x >= 0, dphi, -dphi)


def _outgoing_defect(op: ModeOperator, lam: float, phi: np.ndarray,
                     sign: int) -> np.ndarray:
    """(A -+ a) phi on both ends: A = -i d/dr, a the improved phase of the
    matching branch."""
    grid = op.grid
    dphi = _radial_derivative(grid, phi)
    defect = np.empty_like(phi)
    for end in range(2):
        mask = grid.end_mask(end)
        a = phase_a(op.model, end, lam, grid.r[mask], sign=sign)
        defect[mask] = -1j * dphi[mask] - sign * a * phi[mask]
    return defect


def radiation_residual(op: ModeOperator, lam: float, phi: np.ndarray,
                       psi: np.ndarray, sign: int = +1) -> dict:
    """Weighted outgoing-defect norm ||r^beta (A -+ a) phi||_{B*}.

    ``A`` is the flat radial momentum -i d/dr; ``a`` the improved phase of
    the matching branch.  The ratio against ||r^beta psi||_B is the
    certified radiation-condition constant at beta = beta_c / 2, below
    beta_c = min(decay constants) / 2, which must be positive (ValueError
    otherwise).

    ``bstar0_relative`` is the B*_0 mass of the unweighted defect on the
    outermost annulus relative to ||phi||_{B*}: the uniqueness
    certificate.  A solution of (H - lam) phi = psi (the interior residual
    of :func:`limiting_resolvent`) whose defect has vanishing B*_0 mass is
    the unique outgoing (resp. incoming) solution.
    """
    grid = op.grid
    if op.model.beta_c <= 0:
        raise ValueError(f"beta_c={op.model.beta_c} must be positive")
    beta = 0.5 * op.model.beta_c
    rb = np.maximum(grid.r, 1.0) ** beta
    defect = _outgoing_defect(op, lam, phi, sign)
    num = besov_norm(grid, rb * defect, "Bstar")
    den = besov_norm(grid, rb * psi, "B")
    b0 = besov_norm(grid, defect, "Bstar0")
    scale = besov_norm(grid, phi, "Bstar")
    return {"defect_bstar": num, "source_b": den,
            "ratio": num / max(den, 1e-300), "beta": beta,
            "bstar0_relative": b0 / max(scale, 1e-300)}
