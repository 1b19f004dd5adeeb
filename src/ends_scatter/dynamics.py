"""Comparison dynamics on the ends: exact, leading-order and Dollard forms.

A spectral profile h(lam) (one channel = one end and one angular mode)
is propagated by the frequency integral

    U^+-(t) h (r) = (+- 2 pi i)^-1  int_I  e^{-+ i t lam} phi^+-_lam[h(lam)](r) dlam

with phi^+-_lam the WKB eigenfunctions, and by its stationary-phase
leading term

    U_0^+-(t) h (r) = (2 pi)^{-1/2} e^{-+ 3 pi i/4} 1_{Omega_c}
                      e^{+- i K} (d lam_c / d r)^{1/2} h(lam_c),

where lam_c(t, r) is the unique stationary energy and K the eikonal.
U_0 is an exact isometry of the profile norm (change of variables), the
difference U - U_0 decays in t; both facts are acceptance-tested.

Short-range and Dollard comparison dynamics replace lam_c and K by their
free forms (plus, for Dollard, the secular tail integral); the phase
modifier theta(lam) reconciles the two pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .geometry import ManifoldModel, bump, integral_from_r0, phase_integral

__all__ = [
    "SpectralProfile",
    "StationaryField",
    "dynamics_grid",
    "stationary_point",
    "eikonal",
    "hamilton_jacobi_residual",
    "leading_term",
    "comparison_state",
    "shortrange_state",
    "dollard_state",
    "phase_modifier",
    "profile_norm",
    "state_norm",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


# ---------------------------------------------------------------------------
# spectral profiles
# ---------------------------------------------------------------------------

@dataclass
class SpectralProfile:
    """One scattering channel of an asymptotic profile: h(lam) on the
    window [lam_lo, lam_hi], attached to one end and one angular mode.

    Stored as a complex cubic spline; the profile vanishes outside the
    window.  Norm convention: ||h||^2 = (2 pi)^-1 int |h|^2 dlam.
    """

    end: int
    m: int
    lam_lo: float
    lam_hi: float
    _spline: CubicSpline

    @staticmethod
    def from_callable(end: int, m: int, lam_lo: float, lam_hi: float,
                      fn: Callable, nodes: int = 1025) -> "SpectralProfile":
        lam = np.linspace(lam_lo, lam_hi, nodes)
        return SpectralProfile(end, m, lam_lo, lam_hi,
                               CubicSpline(lam, np.asarray(fn(lam), dtype=complex)))

    @staticmethod
    def bump_profile(end: int = 0, m: int = 0, center: float = 0.55,
                     width: float = 0.25, amp: complex = 1.0) -> "SpectralProfile":
        fn = lambda lam: amp * bump(lam, center, width)
        return SpectralProfile.from_callable(end, m, center - width, center + width, fn)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape, dtype=complex)
        inside = (lam > self.lam_lo) & (lam < self.lam_hi)
        out[inside] = self._spline(lam[inside])
        return out

    def modified(self, phase_fn: Callable) -> "SpectralProfile":
        """Profile multiplied by exp(i theta(lam))."""
        fn = lambda lam: self(lam) * np.exp(1j * np.asarray(phase_fn(lam)))
        return SpectralProfile.from_callable(self.end, self.m,
                                             self.lam_lo, self.lam_hi, fn)

    def norm(self, n: int = 8193) -> float:
        lam = np.linspace(self.lam_lo, self.lam_hi, n)
        return float(np.sqrt(np.trapezoid(np.abs(self(lam)) ** 2, lam) / (2.0 * np.pi)))


def profile_norm(profiles: Sequence[SpectralProfile]) -> float:
    return float(np.sqrt(sum(p.norm() ** 2 for p in profiles)))


def state_norm(r: np.ndarray, vals: np.ndarray) -> float:
    """L2(dr) norm of a radial field by the trapezoid rule."""
    return float(np.sqrt(np.trapezoid(np.abs(vals) ** 2, r)))


def dynamics_grid(model: ManifoldModel, t: float, lam_hi: float,
                  lambda0: float = 0.0, dr: float = 0.02,
                  pad: float = 1.25, r1: float = 0.0) -> np.ndarray:
    """Radial grid [r0/2, ...] wide enough to hold the outgoing front at
    time t for energies up to lam_hi, launched from the anchor radius r1."""
    rmax = (max(model.r0, r1) + pad * t * math.sqrt(2.0 * max(lam_hi - lambda0, 0.1))
            + 10.0)
    n = int(math.ceil((rmax - model.r0 / 2.0) / dr))
    return np.linspace(model.r0 / 2.0, rmax, n + 1)


# ---------------------------------------------------------------------------
# stationary energy and eikonal
# ---------------------------------------------------------------------------

@dataclass
class StationaryField:
    """lam_c and its companions on a radial grid at fixed time."""

    t: float
    end: int
    r: np.ndarray
    r1: float
    lam_c: np.ndarray
    dlam_dr: np.ndarray
    mask: np.ndarray          # Omega_c(t) intersected with the solved window
    k1: Optional[np.ndarray] = None
    k_full: Optional[np.ndarray] = None
    diag: dict = field(default_factory=dict)


def _travel_time(model: ManifoldModel, end: int, lam: np.ndarray,
                 r: np.ndarray, r1: float, power: float = -0.5):
    """int_{r1}^r (2(lam - q1))^power ds, vectorized over paired (lam, r)."""
    prof = model.ends[end]
    half = 0.5 * (r - r1)
    mid = 0.5 * (r + r1)
    s = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = (2.0 * (lam[:, None] - prof.q1(s.ravel()).reshape(s.shape))) ** power
    return half * (vals @ _GL_WEIGHTS)


def default_r1(model: ManifoldModel, lam_lo: float) -> float:
    """Anchor radius for the eikonal: the spectral cutoff radius of the
    lowest window energy (r_lambda is non-increasing in lam)."""
    return model.r_lambda(lam_lo)


def stationary_point(model: ManifoldModel, end: int, t: float, r: np.ndarray,
                     lam_lo: float, r1: Optional[float] = None,
                     max_iter: int = 60, rtol: float = 1e-12) -> StationaryField:
    """Solve  int_{r1}^r [2(lam - q1)]^(-1/2) ds = t  for lam per radius.

    The map is strictly decreasing in lam, so a Newton iteration with a
    bisection safeguard converges for every radius in the propagation
    region Omega_c(t) = { r : travel time at lam_lo exceeds t }.
    Residuals are certified against 1e-10 * t.
    """
    prof = model.ends[end]
    lam0 = prof.lambda0
    if r1 is None:
        r1 = default_r1(model, lam_lo)
    r = np.asarray(r, dtype=float)
    mask = r > r1
    rs = r[mask]
    in_cone = np.zeros(r.shape, dtype=bool)
    lam_c = np.full(r.shape, np.nan)
    dlam = np.full(r.shape, np.nan)

    if rs.size:
        cone = _travel_time(model, end, np.full(rs.shape, lam_lo), rs, r1) > t
        rs2 = rs[cone]
        if rs2.size:
            lam = np.maximum(lam0 + (rs2 - r1) ** 2 / (2.0 * t**2), lam_lo)
            lo = np.full(rs2.shape, lam_lo)
            # grow the upper bracket until the travel time drops below t
            hi = np.maximum(2.0 * lam - lam0, lam_lo + 1e-6)
            for _ in range(max_iter):
                need = _travel_time(model, end, hi, rs2, r1) >= t
                if not np.any(need):
                    break
                hi[need] = lam0 + 2.0 * (hi[need] - lam0)
            for _ in range(max_iter):
                T = _travel_time(model, end, lam, rs2, r1)
                F = T - t
                lo = np.where(F > 0, np.maximum(lo, lam), lo)
                hi = np.where(F < 0, np.minimum(hi, lam), hi)
                if np.all(np.abs(F) <= rtol * t):
                    break
                dT = -_travel_time(model, end, lam, rs2, r1, power=-1.5)
                lam_new = lam - F / dT
                bad = (lam_new <= lo) | (lam_new >= hi) | ~np.isfinite(lam_new)
                lam_new[bad] = 0.5 * (lo[bad] + hi[bad])
                lam = lam_new
            T = _travel_time(model, end, lam, rs2, r1)
            b_r = np.sqrt(2.0 * (lam - prof.q1(rs2)))
            denom = _travel_time(model, end, lam, rs2, r1, power=-1.5)
            idx = np.where(mask)[0][cone]
            lam_c[idx] = lam
            dlam[idx] = 1.0 / (b_r * denom)
            in_cone[idx] = True
            resid = float(np.max(np.abs(T - t)))
        else:
            resid = 0.0
    else:
        resid = 0.0

    return StationaryField(
        t=t, end=end, r=r, r1=float(r1), lam_c=lam_c, dlam_dr=dlam,
        mask=in_cone,
        diag={"residual": resid, "residual_ok": resid <= 1e-10 * t,
              "lam_lo": lam_lo})


def eikonal(model: ManifoldModel, sf: StationaryField,
            with_offset: bool = True, r_lam: Optional[float] = None) -> StationaryField:
    """Fill in the eikonal K1 = int_{r1}^r b_{lam_c} - t lam_c and the full
    phase K (referenced at r0 by adding the fixed-energy run-in integral
    over [r0, r1], cutoff included)."""
    end = sf.end
    msk = sf.mask
    k1 = np.full(sf.r.shape, np.nan)
    kf = np.full(sf.r.shape, np.nan)
    if np.any(msk):
        lam = sf.lam_c[msk]
        rs = sf.r[msk]
        # int_{r1}^r b ds with b = (2(lam - q1))^{1/2}
        k1[msk] = _travel_time(model, end, lam, rs, sf.r1, power=0.5) - sf.t * lam
        if with_offset:
            if r_lam is None:
                r_lam = model.r_lambda(float(sf.diag.get("lam_lo", np.min(lam))))
            nodes = np.linspace(model.r0, sf.r1, 257)
            eta = model.cutoffs.eta(nodes, r_lam)
            q1n = model.ends[end].q1(nodes)
            offs = np.empty(lam.shape)
            for i0 in range(0, lam.size, 512):  # chunked for memory
                sl = slice(i0, min(i0 + 512, lam.size))
                vals = eta[None, :] * np.sqrt(np.maximum(
                    2.0 * (lam[sl][:, None] - q1n[None, :]), 0.0))
                offs[sl] = np.trapezoid(vals, nodes, axis=1)
            kf[msk] = k1[msk] + offs
    sf.k1 = k1
    sf.k_full = kf
    return sf


def hamilton_jacobi_residual(model: ManifoldModel, end: int, t: float,
                             r: np.ndarray, lam_lo: float,
                             r1: Optional[float] = None,
                             dt: float = 1e-3, dr: float = 1e-3) -> np.ndarray:
    """|d_t K1 + (d_r K1)^2 / 2 + q1| by central differences of the
    quadrature eikonal.  Also certifies d_t K1 = -lam_c and
    d_r K1 = b_{lam_c} (reported in the array's companion dict)."""
    r = np.asarray(r, dtype=float)
    if r1 is None:
        r1 = default_r1(model, lam_lo)

    def k1_at(tt, rr):
        sf = stationary_point(model, end, tt, rr, lam_lo, r1=r1)
        sf = eikonal(model, sf, with_offset=False)
        return sf.k1

    kp_t = k1_at(t + dt, r)
    km_t = k1_at(t - dt, r)
    kp_r = k1_at(t, r + dr)
    km_r = k1_at(t, r - dr)
    dk_dt = (kp_t - km_t) / (2.0 * dt)
    dk_dr = (kp_r - km_r) / (2.0 * dr)
    q1 = model.ends[end].q1(r)
    return np.abs(dk_dt + 0.5 * dk_dr**2 + q1)


# ---------------------------------------------------------------------------
# comparison states
# ---------------------------------------------------------------------------

def leading_term(model: ManifoldModel, h: SpectralProfile, t: float,
                 r: Optional[np.ndarray] = None, sign: int = +1,
                 dr: float = 0.02) -> Tuple[np.ndarray, np.ndarray, StationaryField]:
    """U_0^+-(t) h on one end: returns (r, values, stationary data)."""
    end = h.end
    r1 = default_r1(model, h.lam_lo)
    if r is None:
        r = dynamics_grid(model, t, h.lam_hi, model.ends[end].lambda0, dr=dr, r1=r1)
    sf = stationary_point(model, end, t, r, h.lam_lo, r1=r1)
    sf = eikonal(model, sf)
    vals = np.zeros(r.shape, dtype=complex)
    msk = sf.mask
    if np.any(msk):
        pref = (2.0 * np.pi) ** -0.5 * np.exp(-sign * 0.75j * np.pi)
        vals[msk] = (pref * np.exp(1j * sign * sf.k_full[msk])
                     * np.sqrt(sf.dlam_dr[msk]) * h(sf.lam_c[msk]))
    return r, vals, sf


def comparison_state(model: ManifoldModel, h: SpectralProfile, t: float,
                     r: Optional[np.ndarray] = None, sign: int = +1,
                     dr: float = 0.02, points_per_cycle: int = 24,
                     r_lam: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """U^+-(t) h by direct frequency quadrature of the WKB eigenfunctions.

    The lam grid resolves every oscillation of the phase
    Phi_lam(r) - t lam with at least ``points_per_cycle`` points.
    """
    end = h.end
    prof = model.ends[end]
    if r_lam is None:
        r_lam = model.r_lambda(h.lam_lo)
    if r is None:
        r = dynamics_grid(model, t, h.lam_hi, prof.lambda0, dr=dr, r1=r_lam)
    span = h.lam_hi - h.lam_lo
    b_hi = math.sqrt(2.0 * (h.lam_hi - prof.lambda0))
    b_lo = math.sqrt(2.0 * max(h.lam_lo - prof.lambda0, 0.0))
    cycles = (t * span + (r[-1] - model.r0) * (b_hi - b_lo)) / (2.0 * np.pi)
    n_lam = max(257, int(points_per_cycle * cycles) + 1)
    lam = np.linspace(h.lam_lo, h.lam_hi, n_lam)
    wts = np.full(n_lam, lam[1] - lam[0])
    wts[[0, -1]] *= 0.5
    hv = h(lam) * wts

    eta_r = model.cutoffs.eta(r, r_lam)
    out = np.zeros(r.shape, dtype=complex)
    q1_r = prof.q1(r)

    # q1 constant on the end => the phase integral separates as b(lam)*E(r)
    probe = prof.q1(np.linspace(model.r0, r[-1], 64))
    separable = float(np.ptp(probe)) < 1e-13
    if separable:
        # E(r) = int_{r0}^r eta_lambda ds
        e_of_r = integral_from_r0(model, r,
                                  lambda s: model.cutoffs.eta(s, r_lam))
        b_lam = np.sqrt(2.0 * (lam - prof.q1(np.array([r[-1]]))[0]))
        for i0 in range(0, n_lam, 512):
            sl = slice(i0, min(i0 + 512, n_lam))
            phase = np.exp(1j * sign * (np.outer(b_lam[sl], e_of_r)
                                        - (t * lam[sl])[:, None]))
            amp = (2.0 * np.abs(lam[sl][:, None] - q1_r[None, :])) ** -0.25
            out += (hv[sl][:, None] * phase * amp).sum(axis=0)
    else:
        order = np.argsort(r)
        r_sorted = r[order]
        for lam_i, hv_i in zip(lam, hv):
            if hv_i == 0.0:
                continue
            phi_acc = phase_integral(model, end, lam_i, r_sorted, r_lam=r_lam)
            phase = np.exp(1j * sign * (phi_acc - t * lam_i))
            amp = (2.0 * np.abs(lam_i - q1_r[order])) ** -0.25
            tmp = np.zeros(r.shape, dtype=complex)
            tmp[order] = hv_i * phase * amp
            out += tmp
    out *= eta_r / (sign * 2.0j * np.pi)
    return r, out


def shortrange_state(model: ManifoldModel, h: SpectralProfile, t: float,
                     r: Optional[np.ndarray] = None, sign: int = +1,
                     dr: float = 0.02) -> Tuple[np.ndarray, np.ndarray]:
    """Free comparison dynamics of the short-range class:

        K_sr = (r - r0)^2 / (2t) - t lam0,
        lam evaluated at lam0 + (r - r0)^2 / (2 t^2).
    """
    return _free_form_state(model, h, t, r, sign, dr, dollard=False)


def dollard_state(model: ManifoldModel, h: SpectralProfile, t: float,
                  r: Optional[np.ndarray] = None, sign: int = +1,
                  dr: float = 0.02) -> Tuple[np.ndarray, np.ndarray]:
    """Dollard dynamics: the short-range form with the secular correction

        K_do = K_sr - (t / (r - r0)) int_{r0}^r (q1 - lam0) ds .
    """
    return _free_form_state(model, h, t, r, sign, dr, dollard=True)


def _free_form_state(model, h, t, r, sign, dr, dollard: bool):
    end = h.end
    prof = model.ends[end]
    lam0 = prof.lambda0
    if r is None:
        r = dynamics_grid(model, t, h.lam_hi, lam0, dr=dr)
    vals = np.zeros(r.shape, dtype=complex)
    msk = r > model.r0
    rr = r[msk] - model.r0
    lam_free = lam0 + rr**2 / (2.0 * t**2)
    k = rr**2 / (2.0 * t) - t * lam0
    if dollard:
        order = np.argsort(r[msk])
        rs = r[msk][order]
        # the secular integral starts at the first node above r0
        acc = cumulative_trapezoid(prof.q1(rs) - lam0, rs, initial=0)
        q_int = np.empty_like(acc)
        q_int[order] = acc
        k = k - (t / rr) * q_int
    pref = (2.0 * np.pi) ** -0.5 * np.exp(-sign * 0.75j * np.pi)
    vals[msk] = pref * np.exp(1j * sign * k) * np.sqrt(rr) / t * h(lam_free)
    return r, vals


# ---------------------------------------------------------------------------
# phase modifiers
# ---------------------------------------------------------------------------

def phase_modifier(model: ManifoldModel, end: int, lam, kind: str = "sr",
                   r_lam: Optional[float] = None, r_tail: float = 1e6,
                   abs_tol: float = 1e-8):
    """theta(lam) = int_{r0}^infty (b_kind - eta b) dr on one end.

    This is the asymptotic phase gap between the free comparison phase
    (b_kind integrated from r0) and the WKB phase used by the leading
    term (eta-cut b integrated from r0).  b_sr uses the threshold energy
    only; b_do adds the first-order tail correction.
    The integral is taken to a large radius on a log-spaced grid and
    closed with a fitted power tail; if the fitted tail fails to be
    integrable (wrong class for this end) a ValueError is raised.
    Vectorized over lam.
    """
    if kind not in ("sr", "do"):
        raise ValueError("kind must be 'sr' or 'do'")
    prof = model.ends[end]
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if r_lam is None:
        r_lam = model.r_lambda(float(lam_arr.min()))
    lam0 = prof.lambda0

    # dense near the core, log-spaced into the tail
    rr = np.concatenate([
        np.linspace(model.r0, 8.0 * r_lam, 2001),
        np.geomspace(8.0 * r_lam, r_tail, 6000)[1:],
    ])
    eta = model.cutoffs.eta(rr, r_lam)
    q1 = prof.q1(rr)
    b_sr = np.sqrt(2.0 * (lam_arr[:, None] - lam0))
    with np.errstate(invalid="ignore"):
        b = np.sqrt(2.0 * (lam_arr[:, None] - q1[None, :]))
    if kind == "sr":
        b_kind = b_sr * np.ones_like(b)
    else:
        b_kind = b_sr - (q1[None, :] - lam0) / b_sr
    integ = np.where(eta[None, :] > 0.0, eta[None, :] * (b_kind - b), 0.0)
    theta = np.trapezoid(integ, rr, axis=1)

    # core correction (1 - eta) b_kind, supported on [r0, r_lam] where the
    # WKB phase is cut off but the free phase is not
    rc = np.linspace(model.r0, r_lam, 2001)
    eta_c = model.cutoffs.eta(rc, r_lam)
    q1_c = prof.q1(rc)
    if kind == "sr":
        bk_c = b_sr * np.ones_like(q1_c)[None, :]
    else:
        bk_c = b_sr - (q1_c[None, :] - lam0) / b_sr
    theta = theta + np.trapezoid((1.0 - eta_c)[None, :] * bk_c, rc, axis=1)

    # close with a power-law tail fitted on the last decade
    tail_mask = rr >= r_tail / 10.0
    tails = np.empty(lam_arr.shape)
    for i in range(lam_arr.size):
        y = np.abs(integ[i][tail_mask])
        if np.max(y) < abs_tol / max(r_tail, 1.0):
            tails[i] = 0.0
            continue
        good = y > 0
        s, logc = np.polyfit(np.log(rr[tail_mask][good]), np.log(y[good]), 1)
        if s >= -1.0:
            raise ValueError(
                f"phase modifier diverges for kind={kind!r} on end {end} "
                f"(fitted tail exponent {s:.3f} >= -1)")
        c = math.exp(logc)
        sign_tail = np.sign(integ[i][tail_mask][-1])
        tails[i] = sign_tail * c * r_tail ** (s + 1.0) / (-(s + 1.0))
    theta = theta + tails
    return theta if np.ndim(lam) else float(theta[0])
