"""Limiting resolvent (H_m - lam -+ i0)^-1 via marched Jost solutions.

For each angular mode the reduced operator is a 1-d Schroedinger operator
on the line.  The two Jost solutions are launched at the outer grid ends
with WKB initial data built from the improved phase ``a`` (outgoing for
the +i0 boundary value, incoming for -i0) and marched inward; the
resolvent is then the usual Green kernel

    G(x, y) = 2 u_<(min) u_>(max) / W,   W = u_<' u_> - u_< u_>'.

The march is a fourth-order Magnus scheme on the grid cells (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009).  W_m is sampled once, at the
two Gauss nodes of every cell, and each cell's real 2x2 transfer matrix
is a closed-form exponential of a traceless matrix, so it has unit
determinant and the Wronskian of the pair is conserved to roundoff.  A
log-depth prefix product of the transfer matrices gives (u, u') at every
node.  Breakpoints of the potential that fall between grid nodes split
their cell; a launch radius beyond the grid is reached in steps <= dx.

Inward marching is the stable direction on both sides (through a
classically forbidden core the physical solution grows towards the core),
so no renormalization sweeps are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import ManifoldModel, cumulative_trapezoid, phase_a
from .mode_reduction import ModeOperator, RadialGrid, besov_norm

__all__ = ["JostPair", "jost_pair", "limiting_resolvent", "radiation_residual"]


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
    r_lam: float
    wronskian: complex
    wronskian_drift: float


def _wronskian_profile(f: np.ndarray, df: np.ndarray, g: np.ndarray,
                       dg: np.ndarray) -> np.ndarray:
    """Wronskian f' g - f g' of two solutions at every node."""
    return df * g - f * dg


# Gauss-Legendre nodes of a unit cell, where W_m is sampled
_GAUSS = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


def _march_nodes(model: ManifoldModel, grid: RadialGrid,
                 r_launch: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes of the Jost marches and the positions of the grid nodes among
    them.  The grid is extended to +-r_launch in steps <= dx, and every
    breakpoint that falls strictly between two nodes becomes a node, so
    no Gauss cell straddles a jump of the potential."""
    x = grid.x
    pad = r_launch - grid.rmax
    if pad > 0.0:
        k = int(np.ceil(pad / grid.dx * (1.0 - 1e-12)))
        ext = grid.rmax + pad * np.arange(1, k + 1) / k
        nodes = np.concatenate((-ext[::-1], x, ext))
    else:
        nodes = x
    brk = model.breakpoints()
    brk = brk[np.abs(brk) < r_launch]
    gap = np.min(np.abs(brk[:, None] - nodes[None, :]), axis=1)
    nodes = np.sort(np.concatenate((nodes, brk[gap > 1e-9 * grid.dx])))
    return nodes, np.searchsorted(nodes, x)


def _transfer(model: ManifoldModel, m: int, lam: float,
              nodes: np.ndarray) -> np.ndarray:
    """Real 2x2 matrices taking (u, u') across each cell of ``nodes``,
    stacked along the last axis: shape (2, 2, cells).

    Fourth-order Magnus step for y' = [[0, 1], [q, 0]] y, q = 2 (W_m - lam),
    with W_m sampled at the two Gauss nodes of every cell in one call:

        Omega = [[alpha, h], [h qbar, -alpha]],  qbar = (q1 + q2) / 2,
        alpha = (sqrt(3) / 12) h^2 (q1 - q2).

    Omega is traceless, so exp(Omega) = cosh(mu) + sinh(mu) / mu * Omega
    with mu^2 = alpha^2 + h^2 qbar; every matrix has unit determinant.
    """
    h = np.diff(nodes)
    xs = nodes[:-1, None] + h[:, None] * _GAUSS
    q = 2.0 * (model.w_mode(m, xs.ravel()).reshape(-1, 2) - lam)
    qbar = 0.5 * (q[:, 0] + q[:, 1])
    alpha = np.sqrt(3.0) / 12.0 * h**2 * (q[:, 0] - q[:, 1])
    mu2 = alpha**2 + h**2 * qbar
    mu = np.sqrt(np.abs(mu2))
    growing = mu2 > 0.0
    c = np.where(growing, np.cosh(mu), np.cos(mu))
    s = np.ones_like(mu)
    nz = mu > 0.0
    s[nz] = np.where(growing[nz], np.sinh(mu[nz]), np.sin(mu[nz])) / mu[nz]
    return np.array([[c + s * alpha, s * h], [s * h * qbar, c - s * alpha]])


def _inverse(mats: np.ndarray) -> np.ndarray:
    """Inverses of stacked unit-determinant 2x2 matrices (the adjugates)."""
    return np.array([[mats[1, 1], -mats[0, 1]], [-mats[1, 0], mats[0, 0]]])


def _sweep(mats: np.ndarray, y0) -> np.ndarray:
    """States y_k = mats[..., k-1] ... mats[..., 0] y0 for k = 0..cells,
    as rows (u, u').  The prefix products come from a log-depth doubling
    scan over the stacked matrices."""
    prod = mats.copy()
    shift = 1
    while shift < prod.shape[-1]:
        a, b = prod[..., shift:], prod[..., :-shift]
        prod[..., shift:] = a[:, :1] * b[0] + a[:, 1:] * b[1]
        shift *= 2
    y0 = np.asarray(y0, dtype=complex)
    return np.concatenate((y0[:, None], prod[:, 0] * y0[0] + prod[:, 1] * y0[1]),
                          axis=1)


def _launch_data(model: ManifoldModel, end: int, lam: float, sign: int,
                 r_launch: float, r_lam: float):
    """WKB initial data (u, du/dr) at radius r_launch on the given end:
    u = 1 and the radial log-derivative i*sign*a of the improved phase.
    Only the log-derivative selects the Jost solution; its amplitude and
    phase are a gauge (see ``jost_pair``)."""
    a = complex(np.asarray(phase_a(model, end, lam, np.array([r_launch]),
                                   sign=sign, r_lam=r_lam)).ravel()[0])
    return 1.0, 1j * sign * a


def jost_pair(op: ModeOperator, lam: float, sign: int = +1,
              rmax_pad: float = 1.0) -> JostPair:
    """Construct the Jost pair at energy lam (> both thresholds).

    The launch radius is ``rmax_pad * rmax``.  The WKB launch needs an
    open channel, so lam at or below W_m at either launch point raises
    ValueError.  A degenerate pair (Wronskian below 1e-8 of the product
    of the solutions' sizes and the momentum: the two solutions are
    nearly parallel) raises RuntimeError.

    The incoming pair is the complex conjugate of the outgoing one, bit
    for bit: ``jost_pair(op, lam, -1)`` has (u, u') equal to np.conj of
    those of ``jost_pair(op, lam, +1)`` and Wronskian conj(W).  This
    rests on three facts: W_m is real, so every transfer matrix of
    ``_transfer`` and every prefix product of ``_sweep`` is real; the
    launch data of ``_launch_data`` for sign -1 are the conjugates of
    those for sign +1; and real-times-conjugate arithmetic rounds to the
    conjugate of real-times-value.  ``fourier.scattering_matrix`` relies
    on it to march once per mode; a complex potential would break it.

    Each solution is launched with u = 1: its WKB amplitude and phase at
    the launch radius are a gauge.  Rescaling u_left by c_l and u_right
    by c_r scales W by c_l c_r, each boundary coefficient and pairing by
    its own solution's factor, and the Green kernel's u_< u_> by c_l c_r,
    so S, F^+ and R(lam + i0) do not depend on it.
    """
    model = op.model
    grid = op.grid
    r_launch = rmax_pad * grid.rmax
    w_launch = model.w_mode(op.m, np.array([r_launch, -r_launch]))
    for end in range(2):
        if lam <= model.ends[end].lambda0:
            raise ValueError(f"lam={lam} at or below the threshold of end {end}")
        if lam <= w_launch[end]:
            raise ValueError(f"lam={lam} at or below W_{op.m} = "
                             f"{float(w_launch[end])!r} at the launch radius "
                             f"{r_launch!r} of end {end}: the channel is closed")
    r_lam = model.r_lambda(lam)
    nodes, on_grid = _march_nodes(model, grid, r_launch)
    mats = _transfer(model, op.m, lam, nodes)

    # end 0 launches at x = +r_launch and marches towards -x
    u0, dudr = _launch_data(model, 0, lam, sign, r_launch, r_lam)
    u_r, du_r = _sweep(_inverse(mats)[..., ::-1], (u0, dudr))[:, ::-1][:, on_grid]
    # end 1 launches at x = -r_launch; there d/dx = -d/dr
    u0, dudr = _launch_data(model, 1, lam, sign, r_launch, r_lam)
    u_l, du_l = _sweep(mats, (u0, -dudr))[:, on_grid]

    w = _wronskian_profile(u_l, du_l, u_r, du_r)
    w0 = complex(np.mean(w))
    drift = float(np.max(np.abs(w - w0)) / max(abs(w0), 1e-300))
    scale = (np.max(np.abs(u_l)) * np.max(np.abs(u_r))
             * np.sqrt(2.0 * (lam - model.lambda_crit)))
    if abs(w0) < 1e-8 * max(scale, 1e-300):
        raise RuntimeError(f"degenerate Jost pair at lam={lam!r}, sign={sign}: "
                           f"Wronskian {abs(w0):.3e} against "
                           f"scale {scale:.3e}")
    return JostPair(op, lam, sign, u_l, du_l, u_r, du_r, r_lam, w0, drift)


def limiting_resolvent(op: ModeOperator, lam: float, psi: np.ndarray,
                       sign: int = +1, pair: Optional[JostPair] = None):
    """phi = (H_m - lam -+ i0)^-1 psi on the grid.

    Returns (phi, diag); diag carries the Wronskian drift and the
    interior residual ||(H - lam) phi - psi|| / ||psi|| measured with the
    grid stencil away from the boundary.
    """
    grid = op.grid
    psi = np.asarray(psi, dtype=complex)
    if pair is None:
        pair = jost_pair(op, lam, sign)
    w = pair.wronskian
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
    phi = (2.0 / w) * (pair.u_right * il + pair.u_left * ir)

    diag = {
        "wronskian": w,
        "wronskian_drift": pair.wronskian_drift,
        "interior_residual": _interior_residual(op, lam, phi, psi),
        "r_lam": pair.r_lam,
    }
    return phi, diag


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
    r_lam = op.model.r_lambda(lam)
    dphi = _radial_derivative(grid, phi)
    defect = np.empty_like(phi)
    for end in range(2):
        mask = grid.end_mask(end)
        a = phase_a(op.model, end, lam, grid.r[mask], sign=sign, r_lam=r_lam)
        defect[mask] = -1j * dphi[mask] - sign * a * phi[mask]
    return defect


def radiation_residual(op: ModeOperator, lam: float, phi: np.ndarray,
                       psi: np.ndarray, sign: int = +1,
                       beta: Optional[float] = None) -> dict:
    """Weighted outgoing-defect norm ||r^beta (A -+ a) phi||_{B*}.

    ``A`` is the flat radial momentum -i d/dr; ``a`` the improved phase of
    the matching branch.  The ratio against ||r^beta psi||_B is the
    certified radiation-condition constant; beta defaults to beta_c / 2
    (it must stay below beta_c = min(decay exponents) / 2).

    ``bstar0_relative`` is the B*_0 mass of the unweighted defect on the
    outermost annulus relative to ||phi||_{B*}: the uniqueness
    certificate.  A solution of (H - lam) phi = psi (the interior residual
    of :func:`limiting_resolvent`) whose defect has vanishing B*_0 mass is
    the unique outgoing (resp. incoming) solution.
    """
    model = op.model
    grid = op.grid
    if beta is None:
        beta = 0.5 * model.beta_c
    if beta >= model.beta_c:
        raise ValueError(f"beta={beta} must be < beta_c={model.beta_c}")
    rb = np.maximum(grid.r, 1.0) ** beta
    defect = _outgoing_defect(op, lam, phi, sign)
    num = besov_norm(grid, rb * defect, "Bstar")
    den = besov_norm(grid, rb * psi, "B")
    b0 = besov_norm(grid, defect, "Bstar0")
    scale = besov_norm(grid, phi, "Bstar")
    return {"defect_bstar": num, "source_b": den,
            "ratio": num / max(den, 1e-300), "beta": beta,
            "bstar0_relative": b0 / max(scale, 1e-300)}
