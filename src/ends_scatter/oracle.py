"""Independent cross-checks: closed forms and brute-force discretizations.

Everything here is deliberately built *without* the WKB/Jost machinery of
the main modules, so it can serve as an oracle for them:

* plane-wave matching for free-line and square-barrier scattering,
* the free-line outgoing Green kernel,
* a dense symmetric 2-d Hamiltonian on a small truncated (x, theta) grid,
* resolvents at small positive imaginary part by direct banded solves,
* an adaptive DOP853 march of the mode ODE, the reference for the Magnus
  Jost marcher,
* the comparison dynamics summed node by node, one phase integral per
  frequency node, the reference for the factored quadrature,
* a Chebyshev polynomial expansion of e^{-itH}, the reference for the
  implicit propagator.

All functions are deterministic (no RNG, no environment dependence).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.special import jv

from .dynamics import SpectralProfile, frequency_nodes
from .geometry import ManifoldModel, phase_integral
from .mode_reduction import ModeOperator, RadialGrid

__all__ = [
    "free_green",
    "closed_form_scattering",
    "dense_hamiltonian_2d",
    "embed_mode_state",
    "small_eps_resolvent",
    "reference_march",
    "reference_comparison_state",
    "chebyshev_evolve",
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

    with a 3-point stencil in x (Dirichlet at +-rmax) and the periodic
    3-point stencil in theta.  Grid capped at 200 x 64 points.

    Returns (H, x, theta) with H of shape (nx*ntheta, nx*ntheta),
    row-major over (i_x, j_theta).
    """
    if nx > 200 or ntheta > 64:
        raise ValueError("oracle grid capped at 200 x 64")
    x = np.linspace(-rmax, rmax, nx)
    dx = x[1] - x[0]
    dth = 2.0 * np.pi / ntheta
    theta = dth * np.arange(ntheta)

    w_rad = model.q_geo(x) + model.potential(x)
    inv_2f2 = 0.5 * np.exp(-2.0 * model.g(x))

    # radial part: (-1/2) D2_x  kron  I_theta
    main = 1.0 / dx**2 + w_rad
    off = -0.5 / dx**2 * np.ones(nx - 1)
    Hx = scipy.sparse.diags([off, main, off], [-1, 0, 1])
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
    ab = op.banded().astype(complex)
    mid = ab.shape[0] // 2
    ab[mid] -= lam + 1j * eps
    l = u = mid
    return scipy.linalg.solve_banded((l, u), ab, np.asarray(psi, dtype=complex))


def reference_march(model: ManifoldModel, m: int, lam: float, x: np.ndarray, y0):
    """(u, u') of u'' = 2 (W_m - lam) u at the monotone nodes ``x``, from
    y0 = (u, u') at x[0].

    Adaptive DOP853 (rtol 1e-12) that evaluates W_m at every right-hand-side
    call and restarts at each breakpoint of the model, so no step straddles
    a jump.  Returns (u, du) at ``x``.
    """
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
                               points_per_cycle: int = 24,
                               r_lam: Optional[float] = None) -> np.ndarray:
    """U^+-(t) h at the radii ``r`` on the lam nodes of
    ``dynamics.frequency_nodes``: one ``phase_integral`` per node and the
    complex exponential at every (lam, r) pair, summed over lam.  Returns
    the values at ``r``.
    """
    prof = model.ends[h.end]
    if r_lam is None:
        r_lam = model.r_lambda(h.lam_lo)
    r = np.asarray(r, dtype=float)
    lam, hv = frequency_nodes(model, h, t, r, points_per_cycle)
    order = np.argsort(r)
    r_sorted = r[order]
    q1 = prof.q1(r_sorted)
    acc = np.zeros(r.shape, dtype=complex)
    for lam_i, hv_i in zip(lam, hv):
        if hv_i == 0.0:
            continue
        phi = phase_integral(model, h.end, lam_i, r_sorted, r_lam=r_lam)
        acc += (hv_i * np.exp(1j * sign * (phi - t * lam_i))
                * (2.0 * np.abs(lam_i - q1)) ** -0.25)
    out = np.empty_like(acc)
    out[order] = acc
    return out * model.cutoffs.eta(r, r_lam) / (sign * 2.0j * np.pi)


def chebyshev_evolve(op: ModeOperator, psi: np.ndarray, t: float) -> np.ndarray:
    """Spectral Chebyshev expansion of e^{-itH} psi (short times only:
    the polynomial degree grows linearly with |t| * spectral width).

    e^{-itH} = e^{-it mid} sum_k (2 - delta_k0) (-i)^k J_k(t half) T_k(Hn)
    with Hn = (H - mid)/half scaled into [-1, 1]; J_k(-x) = (-1)^k J_k(x)
    makes the same series valid for negative t.
    """
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
