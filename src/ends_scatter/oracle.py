"""Independent cross-checks: closed forms and brute-force discretizations.

Everything here except the transform and S-matrix references is
deliberately built *without* the WKB/Jost machinery of the main modules,
so it can serve as an oracle for them:

* plane-wave matching for free-line and square-barrier scattering,
* the free-line outgoing Green kernel,
* a dense symmetric 2-d Hamiltonian on a small truncated (x, theta) grid,
* resolvents at small positive imaginary part by direct banded solves,
* an adaptive DOP853 march of the mode ODE, the reference for the Magnus
  Jost marcher,
* the comparison dynamics summed node by node, the phase of every
  radius its own composite Gauss-Legendre sum, the reference for the
  factored quadrature,
* a Chebyshev polynomial expansion of e^{-itH}, the reference for the
  implicit propagator,
* the distorted Fourier transform as the boundary coefficients of the
  limiting resolvent of the state, the reference for the Jost pairing
  of ``fourier.distorted_ft``,
* the S-matrix by least squares over probe states pushed through both
  signed reference transforms, the reference for the Jost
  connection-coefficient assembly.  Marching both signs, it also checks
  the conjugation by which ``scattering_matrix`` gets the incoming pair.

The last two share the Jost march and the boundary extraction with
``fourier`` and are independent of its pairing and connection algebra.

All functions are deterministic (no RNG, no environment dependence).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dynamics import SpectralProfile, frequency_nodes
from .fourier import _extract_end
from .geometry import ManifoldModel, bump, eta
from .mode_reduction import ModeOperator, RadialGrid
from .resolvent import JostPair, jost_pair, limiting_resolvent

__all__ = [
    "free_green",
    "closed_form_scattering",
    "dense_hamiltonian_2d",
    "embed_mode_state",
    "small_eps_resolvent",
    "reference_march",
    "reference_comparison_state",
    "chebyshev_evolve",
    "reference_distorted_ft",
    "reference_scattering_matrix",
]


def free_green(x, y, lam: float, sign: int = +1):
    """Outgoing (+) / incoming (-) Green kernel of -d^2/dx^2 / 2 on the line:
    G(x, y) = +- i exp(+- i k |x-y|) / k with k = sqrt(2 lam)."""
    k = np.sqrt(2.0 * lam)
    s = 1j * sign
    return s * np.exp(s * k * np.abs(np.asarray(x)[..., None] - np.asarray(y))) / k


def closed_form_scattering(kind: str, lam, v0: float = 0.0, half_width: float = 0.0):
    """Transmission/reflection amplitudes on the free line.

    kind='free':        t = 1, r = 0.
    kind='square_well': barrier/well of height v0 on |x| <= half_width,
                        solved by exact plane-wave matching at the two
                        interfaces (valid above and below the barrier).

    Returns a dict with complex amplitudes ``t``, ``r`` (incidence from
    the left, flux-normalized) and the 2x2 matrix ``s_abs`` of moduli
    [[|r|, |t|], [|t|, |r|]].  Amplitudes are quoted for unit incoming
    plane wave, i.e. the asymptotics  e^{ikx} + r e^{-ikx}  /  t e^{ikx}.
    """
    lam = float(lam)
    k = np.sqrt(2.0 * lam)
    if kind == "free":
        t, r = 1.0 + 0.0j, 0.0j
    elif kind == "square_well":
        a = half_width
        kap = np.sqrt(complex(2.0 * (lam - v0)))
        M = np.zeros((4, 4), dtype=complex)
        b = np.zeros(4, dtype=complex)
        eL, eLm = np.exp(-1j * k * a), np.exp(1j * k * a)
        if abs(kap) * a < 1e-6:
            # grazing energy: the interior basis degenerates to {1, x}
            # unknowns: r, C, D, t for  e^{ikx}+r e^{-ikx} | C + D x | t e^{ikx}
            M[0] = [eLm, -1.0, a, 0.0]
            b[0] = -eL
            M[1] = [-1j * k * eLm, 0.0, -1.0, 0.0]
            b[1] = -1j * k * eL
            M[2] = [0.0, 1.0, a, -eLm]
            M[3] = [0.0, 0.0, 1.0, -1j * k * eLm]
        else:
            # unknowns: r, C, D, t for  e^{ikx}+r e^{-ikx} | C e^{i kap x}+D e^{-i kap x} | t e^{ikx}
            cL, cLm = np.exp(-1j * kap * a), np.exp(1j * kap * a)
            # continuity at x = -a
            M[0] = [eLm, -cL, -cLm, 0.0]
            b[0] = -eL
            M[1] = [-1j * k * eLm, -1j * kap * cL, 1j * kap * cLm, 0.0]
            b[1] = -1j * k * eL
            # continuity at x = +a
            M[2] = [0.0, cLm, cL, -eLm]
            M[3] = [0.0, 1j * kap * cLm, -1j * kap * cL, -1j * k * eLm]
        r_, C, D, t = np.linalg.solve(M, b)
        t, r = t, r_
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    s_abs = np.array([[abs(r), abs(t)], [abs(t), abs(r)]])
    return {"t": t, "r": r, "s_abs": s_abs, "k": k,
            "flux_defect": abs(abs(t) ** 2 + abs(r) ** 2 - 1.0)}


def dense_hamiltonian_2d(model: ManifoldModel, rmax: float, nx: int, ntheta: int):
    """Sparse real-symmetric H on a truncated (x, theta) grid.

    The operator is written in the half-density gauge (u = sqrt(f) psi,
    plain measure dx dtheta):

        H = -1/2 d^2/dx^2 + q_geo(x) + V(x) - 1/(2 f^2) d^2/dtheta^2

    with the 5-point stencil in x (its rows truncated at +-rmax, Dirichlet
    outside: the discretization of ``ModeOperator``) and the periodic
    3-point stencil in theta.  Grid capped at 200 x 64 points.

    Returns (H, x, theta) with H of shape (nx*ntheta, nx*ntheta),
    row-major over (i_x, j_theta).
    """
    if nx > 200 or ntheta > 64:
        raise ValueError("oracle grid capped at 200 x 64")
    import scipy.sparse

    x = np.linspace(-rmax, rmax, nx)
    dx = x[1] - x[0]
    dth = 2.0 * np.pi / ntheta
    theta = dth * np.arange(ntheta)

    w_rad = model.q_geo(x) + model.potential(x)
    inv_2f2 = 0.5 * np.exp(-2.0 * model.g(x))

    # radial part: (-1/2) D2_x  kron  I_theta, D2_x the 5-point stencil
    d2x = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx**2)
    Hx = scipy.sparse.diags(
        [np.full(nx - abs(o), -0.5 * d2x[o + 2]) for o in range(-2, 3)],
        range(-2, 3)) + scipy.sparse.diags(w_rad)
    H = scipy.sparse.kron(Hx, scipy.sparse.identity(ntheta), format="lil")

    # angular part: diag(1/(2 f^2))  kron  (-D2_theta), periodic
    d2 = scipy.sparse.diags(
        [np.full(ntheta - 1, 1.0), np.full(ntheta, -2.0), np.full(ntheta - 1, 1.0)],
        [-1, 0, 1]).tolil()
    d2[0, -1] = 1.0
    d2[-1, 0] = 1.0
    d2 = (d2 / dth**2).tocsr()
    H = H.tocsr() + scipy.sparse.kron(scipy.sparse.diags(inv_2f2), -d2, format="csr")
    return H.tocsr(), x, theta


def embed_mode_state(u: np.ndarray, m: int, theta: np.ndarray) -> np.ndarray:
    """Lift a flat radial mode-m coefficient onto the 2-d oracle grid,
    preserving the L2 normalization (dx dtheta measure)."""
    ang = np.exp(1j * m * theta) / np.sqrt(2.0 * np.pi)
    return np.kron(np.asarray(u, dtype=complex), ang)


def small_eps_resolvent(op: ModeOperator, lam: float, eps: float,
                        psi: np.ndarray) -> np.ndarray:
    """phi = (H_m - lam - i eps)^-1 psi by a direct banded solve (Dirichlet
    truncation; eps in [1e-4, 1e-1] keeps the truncation error below the
    eps -> 0 limiting error)."""
    if not (1e-4 <= eps <= 1e-1):
        raise ValueError("eps outside the supported window [1e-4, 1e-1]")
    import scipy.linalg

    ab = op.banded().astype(complex)
    ab[2] -= lam + 1j * eps
    return scipy.linalg.solve_banded((2, 2), ab, np.asarray(psi, dtype=complex))


def reference_march(model: ManifoldModel, m: int, lam: float, x: np.ndarray, y0):
    """(u, u') of u'' = 2 (W_m - lam) u at the monotone nodes ``x``, from
    y0 = (u, u') at x[0].

    Adaptive DOP853 (rtol 1e-12) that evaluates W_m at every right-hand-side
    call and restarts at each breakpoint of the model, so no step straddles
    a jump.  Returns (u, du) at ``x``.
    """
    from scipy.integrate import solve_ivp

    x = np.asarray(x, dtype=float)
    lo, hi = min(x[0], x[-1]), max(x[0], x[-1])
    pts = [b for b in model.breakpoints() if lo < b < hi]
    stops = sorted({x[0], x[-1], *pts}, reverse=bool(x[-1] < x[0]))

    def rhs(s, y):
        return np.array([y[1], 2.0 * (model.w_mode(m, s) - lam) * y[0]])

    u = np.empty(x.size, dtype=complex)
    du = np.empty(x.size, dtype=complex)
    y = np.asarray(y0, dtype=complex)
    for a, b in zip(stops[:-1], stops[1:]):
        sel = (min(a, b) - 1e-12 <= x) & (x <= max(a, b) + 1e-12)
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-12,
                        atol=1e-14, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference march failed on [{a}, {b}]: {sol.message}")
        u[sel], du[sel] = sol.sol(x[sel])
        y = sol.y[:, -1]
    return u, du


def reference_comparison_state(model: ManifoldModel, h: SpectralProfile,
                               t: float, r: np.ndarray, sign: int = +1,
                               r_lam: Optional[float] = None) -> np.ndarray:
    """U^+-(t) h at the radii ``r`` on the lam nodes of
    ``dynamics.frequency_nodes``: the complex exponential at every
    (lam, r) pair, summed over lam.  The phase int_{r0}^r eta_lambda
    sqrt(2 (lam - q1)) of each radius is its own 16-node Gauss-Legendre
    sum over the panels of length 1/4 from r0 (r_lambda/2 and r_lambda
    among the edges) below it and over the part of its panel up to it:
    independent of the other radii and of ``comparison_state``'s panels.
    """
    prof = model.ends[h.end]
    if r_lam is None:
        r_lam = model.r_lambda(h.lam_lo)
    r = np.asarray(r, dtype=float)
    lam, hv = frequency_nodes(model, h, t, r)
    n = math.ceil(max(np.max(r) - model.r0, 0.0) / 0.25) + 1
    edges = np.union1d(model.r0 + 0.25 * np.arange(n), [0.5 * r_lam, r_lam])
    x, w = np.polynomial.legendre.leggauss(16)
    j = np.maximum(np.searchsorted(edges, r) - 1, 0)    # r in (e_j, e_j+1]
    half = 0.5 * np.append(np.diff(edges), 0.0)
    part = 0.5 * (r - edges[j])
    # the rules of the whole panels (the last one empty) and of each
    # radius's part of its own panel: eta and q1 at their nodes, half-length
    rules = [(eta(s, r_lam), prof.q1(s), d) for s, d in (
        (e[:, None] + d[:, None] * (1.0 + x), d)
        for e, d in ((edges, half), (edges[j], part)))]
    q1 = prof.q1(r)
    acc = np.zeros(r.shape, dtype=complex)
    for lam_i, hv_i in zip(lam, hv):
        if hv_i == 0.0:
            continue
        whole, own = ((e * np.sqrt(np.maximum(2.0 * (lam_i - q), 0.0))) @ w * d
                      for e, q, d in rules)
        phi = np.concatenate(([0.0], np.cumsum(whole)))[j] + own
        acc += (hv_i * np.exp(1j * sign * (phi - t * lam_i))
                * (2.0 * np.abs(lam_i - q1)) ** -0.25)
    return acc * eta(r, r_lam) / (sign * 2.0j * np.pi)


def chebyshev_evolve(op: ModeOperator, psi: np.ndarray, t: float) -> np.ndarray:
    """Spectral Chebyshev expansion of e^{-itH} psi (short times only:
    the polynomial degree grows linearly with |t| * spectral width).

    e^{-itH} = e^{-it mid} sum_k (2 - delta_k0) (-i)^k J_k(t half) T_k(Hn)
    with Hn = (H - mid)/half scaled into [-1, 1]; J_k(-x) = (-1)^k J_k(x)
    makes the same series valid for negative t.
    """
    from scipy.special import jv

    grid = op.grid
    emax = 0.5 * (np.pi / grid.dx) ** 2 + float(np.max(op.w))
    emin = min(float(np.min(op.w)), 0.0)
    half = 0.5 * (emax - emin)
    mid = 0.5 * (emax + emin)
    tau = t * half
    order = int(abs(tau) + 40.0 * (1.0 + abs(tau) ** (1.0 / 3.0)))

    def h_norm(v):
        return (op.apply(v) - mid * v) / half

    coef = jv(np.arange(order + 1), tau)
    tkm1 = np.asarray(psi, dtype=complex)
    tk = h_norm(tkm1)
    acc = coef[0] * tkm1 + 2.0 * (-1j) * coef[1] * tk
    fac = -1j
    for k in range(2, order + 1):
        tkp1 = 2.0 * h_norm(tk) - tkm1
        fac = fac * -1j
        acc = acc + 2.0 * fac * coef[k] * tkp1
        tkm1, tk = tk, tkp1
    return np.exp(-1j * t * mid) * acc


def reference_distorted_ft(op: ModeOperator, lam: float, psi: np.ndarray,
                           sign: int, pair: JostPair):
    """F^+-(lam) psi of one mode-m state: R(lam +- i0) psi from ``pair``
    (of the same sign), then its boundary coefficient on each end.
    Returns (coeffs, ends): one coefficient and one extraction
    diagnostic per end."""
    phi, rdiag = limiting_resolvent(op, lam, psi, sign=sign, pair=pair)
    coeffs = np.zeros(2, dtype=complex)
    ends = []
    for end in range(2):
        coeffs[end], ediag = _extract_end(op.model, op.grid, end, lam, sign,
                                          phi, rdiag["r_lam"])
        ends.append(ediag)
    return coeffs, ends


def _probe_states(grid: RadialGrid, model: ManifoldModel):
    """Two smooth bumps parked on either end just outside the core, the
    over-determined probe family for the least-squares S solve."""
    x = grid.x
    out = []
    for sgn in (1.0, -1.0):
        for p in range(2):
            c = sgn * (model.r0 + 2.0 + 2.5 * p)
            mod = np.exp(1j * 0.4 * (p + 1) * x) if p else 1.0
            out.append(bump(x, center=c, width=1.0) * mod)
    return out


def reference_scattering_matrix(model: ManifoldModel, grid: RadialGrid,
                                lam: float, mmax: int = 0):
    """S(lam) blocks for |m| <= mmax from the probe family: every probe is
    pushed through both signed reference transforms and S_m solves
    F^+ = S_m F^- in the least-squares sense.  Returns (blocks,
    doubling_residuals), the latter the worst over each mode's 16
    boundary extractions.

    Each sign gets its own Jost march and its own extractions, where
    ``fourier.scattering_matrix`` conjugates the outgoing ones, so the
    agreement of the two also checks that conjugation."""
    probes = _probe_states(grid, model)
    blocks = np.zeros((mmax + 1, 2, 2), dtype=complex)
    residuals = []
    for m in range(mmax + 1):
        op = ModeOperator(model, grid, m)
        cols = {+1: np.zeros((2, len(probes)), dtype=complex),
                -1: np.zeros((2, len(probes)), dtype=complex)}
        worst = 0.0
        for sign, c in cols.items():
            pair = jost_pair(op, lam, sign)
            for j, psi in enumerate(probes):
                c[:, j], ends = reference_distorted_ft(op, lam, psi, sign, pair)
                worst = max(worst, *(e["doubling_residual"] for e in ends))
        s_t, *_ = np.linalg.lstsq(cols[-1].T, cols[+1].T, rcond=None)
        blocks[m] = s_t.T
        residuals.append(worst)
    return blocks, residuals
