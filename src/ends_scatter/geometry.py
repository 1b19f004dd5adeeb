"""Warped-product geometry with several ends.

The surface is a line coordinate ``x`` with two ends: end 0 sits at
``x -> +inf`` (radial coordinate ``r = x``), end 1 at ``x -> -inf``
(``r = -x``).  Each end carries a warp factor ``f(r)`` (circle length
``2 pi f``); outside the core ``|x| >= r0/2`` the metric is exactly the
warped product ``dr^2 + f(r)^2 dtheta^2``, inside the core the log-warp
is a degree-9 Hermite interpolant between the two ends (f is C^4 and the
reduced potentials are C^2 across the glue).

The effective (half-density reduced) potential of ``-Laplacian/2`` is

    q_geo = f''/(4 f) - (f'/f)^2 / 8  =  g''/4 + g'^2/8,   g = log f,

which gives ``-1/(8 r^2)`` on a Euclidean end (``f = r``) and the
constant ``1/8`` on a hyperbolic end (``f = e^r``).

Each end also carries a *reference tail* ``q1(r)`` used by all phase
functions (WKB phases, eikonals, comparison dynamics).  The remainder
``q2 = q - q1`` is treated as a perturbation; the split is a modelling
choice, configured per end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

__all__ = [
    "CutoffFamily",
    "EndProfile",
    "ManifoldModel",
    "critical_energy",
    "phase_b",
    "phase_a",
    "riccati_residual",
    "classify_potential",
    "numeric_derivative",
    "bump",
    "smooth_step",
    "phase_integral",
    "integral_from_r0",
]


# ---------------------------------------------------------------------------
# smooth cutoffs
# ---------------------------------------------------------------------------

def _bump_piece(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, 0 otherwise (C-infinity)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 1e-12
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def bump(x, center: float = 0.0, width: float = 1.0):
    """C-infinity bump supported on |x - center| < width, peak value 1."""
    u = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def smooth_step(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    a = _bump_piece(u)
    b = _bump_piece(1.0 - u)
    return a / (a + b + 1e-300)


@dataclass(frozen=True)
class CutoffFamily:
    """Smooth decreasing cutoff chi: 1 on t <= lo, 0 on t >= hi.

    The defaults (lo=1, hi=2) give the standard chi used to build the
    end-region cutoff eta(r) = 1 - chi(2 r / r0) and its spectral
    variant eta_lambda(r) = 1 - chi(2 r / r_lambda).
    """

    lo: float = 1.0
    hi: float = 2.0

    def chi(self, t):
        u = (np.asarray(t, dtype=float) - self.lo) / (self.hi - self.lo)
        return 1.0 - smooth_step(u)

    def eta(self, r, scale):
        """1 - chi(2 r / scale): vanishes for r <= scale/2, is 1 for r >= scale."""
        return 1.0 - self.chi(2.0 * np.asarray(r, dtype=float) / scale)


# ---------------------------------------------------------------------------
# numeric differentiation fallback
# ---------------------------------------------------------------------------

def numeric_derivative(fn: Callable, r, order: int = 1):
    """Central-difference derivative with step h = max(1e-5, 1e-5 * r)."""
    r = np.asarray(r, dtype=float)
    h = np.maximum(1e-5, 1e-5 * np.abs(r))
    if order == 1:
        return (fn(r + h) - fn(r - h)) / (2.0 * h)
    if order == 2:
        return (fn(r + h) - 2.0 * fn(r) + fn(r - h)) / h**2
    raise ValueError(f"unsupported derivative order {order}")


# ---------------------------------------------------------------------------
# end profiles
# ---------------------------------------------------------------------------

@dataclass
class EndProfile:
    """One end of the surface.

    ``g``, ``gp``, ``gpp`` are log f and its first two derivatives as
    vectorized callables of the radial coordinate.  ``q1`` is the
    reference tail for this end (must be defined for all r >= 0 and
    vanish, up to its threshold value ``lambda0``, inside r <= r0/2 so
    the global potential split stays smooth).  ``v_tail`` is an extra
    potential supported in the end region (enters q but not necessarily
    q1).
    """

    name: str
    g: Callable
    gp: Callable
    gpp: Callable
    lambda0: float = 0.0
    q1: Optional[Callable] = None
    v_tail: Optional[Callable] = None
    decay: Tuple[float, float, float] = (1.0, 1.0, 1.0)  # (sigma, tau, rho)
    breakpoints: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.q1 is None:
            lam0 = self.lambda0
            self.q1 = lambda r, _l=lam0: np.full_like(np.asarray(r, dtype=float), _l)

    def f(self, r):
        return np.exp(self.g(r))

    def q_geo(self, r):
        """Curvature part of the effective potential on this end."""
        return 0.25 * self.gpp(r) + 0.125 * self.gp(r) ** 2

    # -- constructors -------------------------------------------------------

    @staticmethod
    def euclidean(**kw) -> "EndProfile":
        return EndProfile(
            name="euclidean",
            g=lambda r: np.log(np.asarray(r, dtype=float)),
            gp=lambda r: 1.0 / np.asarray(r, dtype=float),
            gpp=lambda r: -1.0 / np.asarray(r, dtype=float) ** 2,
            lambda0=0.0,
            **kw,
        )

    @staticmethod
    def conic(alpha: float, **kw) -> "EndProfile":
        """f = alpha * r (cone of opening alpha); same critical energy as Euclidean."""
        la = math.log(alpha)
        return EndProfile(
            name=f"conic({alpha:g})",
            g=lambda r: la + np.log(np.asarray(r, dtype=float)),
            gp=lambda r: 1.0 / np.asarray(r, dtype=float),
            gpp=lambda r: -1.0 / np.asarray(r, dtype=float) ** 2,
            lambda0=0.0,
            **kw,
        )

    @staticmethod
    def hyperbolic(**kw) -> "EndProfile":
        prof = EndProfile(
            name="hyperbolic",
            g=lambda r: np.asarray(r, dtype=float),
            gp=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            gpp=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            lambda0=0.125,
            **kw,
        )
        return prof

    @staticmethod
    def flat(**kw) -> "EndProfile":
        """Flat cylinder end, f = 1.  Zero curvature potential; exactly free
        in the rotation-invariant mode.  (No angular spreading, so only the
        m = 0 channel is used with this profile.)"""
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return EndProfile(name="flat", g=zero, gp=zero, gpp=zero, lambda0=0.0, **kw)

    @staticmethod
    def from_table(r_nodes: Sequence[float], f_nodes: Sequence[float], **kw) -> "EndProfile":
        """Profile interpolated from (r, f) samples; log-cubic-spline inside
        the table, linear log-extrapolation of the last segment outside."""
        from scipy.interpolate import CubicSpline

        r_nodes = np.asarray(r_nodes, dtype=float)
        f_nodes = np.asarray(f_nodes, dtype=float)
        if np.any(f_nodes <= 0):
            raise ValueError("warp table must be strictly positive")
        sp = CubicSpline(r_nodes, np.log(f_nodes), bc_type="natural", extrapolate=True)
        return EndProfile(
            name="table",
            g=sp,
            gp=sp.derivative(1),
            gpp=sp.derivative(2),
            **kw,
        )


def tail_q1(amplitude: float, power: float, r0: float,
            cutoffs: Optional[CutoffFamily] = None,
            lambda0: float = 0.0) -> Callable:
    """Reference tail q1(r) = lambda0 + eta(r) * amplitude * r^-power.

    The cutoff eta kills the tail inside r <= r0/2 so it glues smoothly
    to the core.
    """
    cut = cutoffs or CutoffFamily()

    def q1(r):
        r = np.asarray(r, dtype=float)
        rs = np.maximum(r, 1e-9)
        return lambda0 + cut.eta(r, r0) * amplitude * rs ** (-power)

    return q1


# ---------------------------------------------------------------------------
# glued two-ended model
# ---------------------------------------------------------------------------

class ManifoldModel:
    """Two end profiles glued over the core |x| <= r0/2.

    End 0 lives on x > 0 (r = x), end 1 on x < 0 (r = -x).  The log-warp
    g(x) is the end value outside the core and a degree-9 Hermite
    interpolant (matching value and four derivatives at +-r0/2) inside,
    so f is C^4 across the glue and exact on the ends.
    """

    def __init__(self, ends: Sequence[EndProfile], r0: float = 2.0,
                 cutoffs: Optional[CutoffFamily] = None,
                 v_core: Optional[Callable] = None,
                 core_breakpoints: Tuple[float, ...] = (),
                 name: str = "model"):
        if len(ends) != 2:
            raise ValueError("ManifoldModel glues exactly two ends")
        if r0 < 2.0:
            raise ValueError("r0 must be >= 2")
        self.ends = tuple(ends)
        self.r0 = float(r0)
        self.cutoffs = cutoffs or CutoffFamily()
        self.v_core = v_core
        self.core_breakpoints = tuple(core_breakpoints)
        self.name = name
        self._core_poly = self._fit_core()
        self._core_dpoly = self._core_poly.deriv(1)
        self._core_ddpoly = self._core_poly.deriv(2)

    # -- core glue ----------------------------------------------------------

    def _fit_core(self) -> np.polynomial.Polynomial:
        # Hermite interpolant of g(x) over [-w, w] matching four derivatives
        # of each end at the glue (degree 9, so f is C^4 and the reduced
        # potentials are C^2 across the glue).  Higher derivatives of the
        # profiles are taken by differencing gpp.
        w = self.r0 / 2.0
        e0, e1 = self.ends

        def jet(end: EndProfile):
            g3 = numeric_derivative(end.gpp, np.array([w]))[0]
            g4 = numeric_derivative(end.gpp, np.array([w]), order=2)[0]
            return [float(end.g(w)), float(end.gp(w)), float(end.gpp(w)),
                    float(g3), float(g4)]

        jr = jet(e0)
        jl = jet(e1)
        jl = [v * (-1.0) ** k for k, v in enumerate(jl)]  # chain rule, r = -x
        deg = 10
        A = []
        rhs = []
        for xx, vals in ((-w, jl), (w, jr)):
            for k, v in enumerate(vals):
                row = [
                    math.factorial(n) / math.factorial(n - k) * xx ** (n - k) if n >= k else 0.0
                    for n in range(deg)
                ]
                A.append(row)
                rhs.append(v)
        coef = np.linalg.solve(np.asarray(A), np.asarray(rhs))
        return np.polynomial.Polynomial(coef)

    def _piecewise(self, x, fns_right, fns_left, fn_core):
        x = np.asarray(x, dtype=float)
        w = self.r0 / 2.0
        out = np.empty_like(x)
        right = x >= w
        left = x <= -w
        core = ~(right | left)
        if np.any(right):
            out[right] = fns_right(x[right])
        if np.any(left):
            out[left] = fns_left(-x[left])
        if np.any(core):
            out[core] = fn_core(x[core])
        return out

    def g(self, x):
        e0, e1 = self.ends
        return self._piecewise(x, e0.g, e1.g, self._core_poly)

    def gp(self, x):
        e0, e1 = self.ends
        return self._piecewise(x, e0.gp, lambda r: -np.asarray(e1.gp(r)), self._core_dpoly)

    def gpp(self, x):
        e0, e1 = self.ends
        return self._piecewise(x, e0.gpp, e1.gpp, self._core_ddpoly)

    def f(self, x):
        return np.exp(self.g(x))

    # -- potentials ---------------------------------------------------------

    def q_geo(self, x):
        """Curvature part of the effective potential, everywhere on the line."""
        return 0.25 * self.gpp(x) + 0.125 * self.gp(x) ** 2

    def potential(self, x):
        """Total potential V(x): per-end tails (cut off outside the core)
        plus the compactly supported core term."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for side, end in zip((1.0, -1.0), self.ends):
            if end.v_tail is None:
                continue
            mask = side * x > 0
            if np.any(mask):
                out[mask] += end.v_tail(side * x[mask])
        if self.v_core is not None:
            out = out + self.v_core(x)
        return out

    def q(self, x):
        return self.q_geo(x) + self.potential(x)

    def w_mode(self, m: int, x):
        """Reduced 1-d potential of the angular mode m."""
        x = np.asarray(x, dtype=float)
        return self.q(x) + 0.5 * m**2 * np.exp(-2.0 * self.g(x))

    def q1_global(self, x):
        """Reference tail as a function of the line coordinate."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for side, end in zip((1.0, -1.0), self.ends):
            mask = side * x >= 0
            if np.any(mask):
                out[mask] = end.q1(side * x[mask])
        return out

    def q2_global(self, x):
        return self.q(x) - self.q1_global(x)

    # -- spectral bookkeeping ----------------------------------------------

    @property
    def lambda_crit(self) -> float:
        return max(e.lambda0 for e in self.ends)

    @property
    def beta_c(self) -> float:
        return 0.5 * min(min(e.decay) for e in self.ends)

    def r_lambda(self, lam: float, rmax_probe: float = 4096.0) -> float:
        """Smallest dyadic R >= 2 r0 with lam + lambda0 - 2 q1 >= 0 for all
        r >= R/2 on both ends (so the phase b_lam is real on the support
        of eta_lambda)."""
        R = 2.0 * self.r0
        while R <= rmax_probe:
            ok = True
            for end in self.ends:
                rr = np.linspace(R / 2.0, rmax_probe, 512)
                if np.any(lam + end.lambda0 - 2.0 * end.q1(rr) < 0):
                    ok = False
                    break
            if ok:
                return R
            R *= 2.0
        raise ValueError(f"no admissible r_lambda below {rmax_probe} for lam={lam}")

    def breakpoints(self) -> np.ndarray:
        """Radii (in x) where the potential may lose smoothness: the glue
        boundary plus configured potential jumps."""
        w = self.r0 / 2.0
        pts = {-w, w}
        pts.update(self.core_breakpoints)
        for side, end in zip((1.0, -1.0), self.ends):
            pts.update(side * b for b in end.breakpoints)
        return np.array(sorted(pts))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def critical_energy(model_or_end, end: Optional[int] = None,
                    r_start: float = 8.0, tol: float = 1e-10,
                    max_doublings: int = 40):
    """Stabilized tail-sup of q1.

    Returns ``(value, diag)`` where value approximates
    limsup_{r->inf} q1 and ``diag`` records the dyadic sup sequence.
    Convergence: three successive doublings move the sup by less than
    ``tol * max(1, |sup|)``.
    """
    if isinstance(model_or_end, ManifoldModel):
        if end is None:
            vals = [critical_energy(e, tol=tol)[0] for e in model_or_end.ends]
            return max(vals), {"per_end": vals}
        prof = model_or_end.ends[end]
    else:
        prof = model_or_end

    sups = []
    R = r_start
    stable = 0
    for _ in range(max_doublings):
        rr = np.linspace(R, 2.0 * R, 128)
        sups.append(float(np.max(prof.q1(rr))))
        if len(sups) >= 2:
            if abs(sups[-1] - sups[-2]) <= tol * max(1.0, abs(sups[-1])):
                stable += 1
            else:
                stable = 0
            if stable >= 3:
                break
        R *= 2.0
    return sups[-1], {"sequence": sups, "converged": stable >= 3}


def _sqrt_upper(w):
    """Branch of sqrt with cut on (-inf, 0], Re >= 0."""
    return np.sqrt(np.asarray(w, dtype=complex))


def phase_b(model: ManifoldModel, end: int, z, r, r_lam: Optional[float] = None):
    """WKB momentum b = eta_lambda * sqrt(2 (z - q1)) on one end.

    For real z above the tail the result is real; complex z is accepted
    (branch cut on the negative real axis of z - q1).
    """
    prof = model.ends[end]
    r = np.asarray(r, dtype=float)
    if r_lam is None:
        r_lam = model.r_lambda(float(np.real(z)))
    eta = model.cutoffs.eta(r, r_lam)
    b = eta * _sqrt_upper(2.0 * (z - prof.q1(r)))
    if np.all(np.abs(b.imag) < 1e-14):
        b = b.real
    return b


def phase_a(model: ManifoldModel, end: int, z, r, sign: int = +1,
            r_lam: Optional[float] = None):
    """Improved phase a = b -+ (i/4) eta_lambda q1' / (z - q1).

    ``sign=+1`` corresponds to the outgoing branch (solutions behaving
    like exp(+i int a)), ``sign=-1`` to the incoming one.
    """
    prof = model.ends[end]
    r = np.asarray(r, dtype=float)
    if r_lam is None:
        r_lam = model.r_lambda(float(np.real(z)))
    eta = model.cutoffs.eta(r, r_lam)
    b = eta * _sqrt_upper(2.0 * (z - prof.q1(r)))
    dq1 = numeric_derivative(prof.q1, r)
    corr = 0.25 * eta * np.asarray(dq1, dtype=complex) / (z - prof.q1(r))
    return b - sign * 1j * corr


def riccati_residual(model: ManifoldModel, end: int, z, r, sign: int = +1,
                     r_lam: Optional[float] = None):
    """Defect of a in the Riccati equation -+ i a' + a^2 = 2 (z - q1).

    Small residual on the end region certifies that exp(+- i int a) is a
    good approximate solution at energy z.
    """
    r = np.asarray(r, dtype=float)
    a = phase_a(model, end, z, r, sign=sign, r_lam=r_lam)
    afn = lambda s: phase_a(model, end, z, s, sign=sign, r_lam=r_lam)
    da = numeric_derivative(afn, r)
    q1 = model.ends[end].q1(r)
    return -sign * 1j * da + a**2 - 2.0 * (z - q1)


def phase_integral(model: ManifoldModel, end: int, lam, r: np.ndarray,
                   r_lam: Optional[float] = None) -> np.ndarray:
    """Accumulated WKB phase Phi(r) = int_{r0}^r b ds on one end.

    ``r`` must be sorted ascending; values below r0 are allowed (the
    integral then runs backwards, b vanishing inside the cutoff)."""
    r = np.asarray(r, dtype=float)
    if np.any(np.diff(r) < 0):
        raise ValueError("r must be sorted ascending")
    if r_lam is None:
        r_lam = model.r_lambda(float(np.real(lam)))
    return integral_from_r0(
        model, r, lambda s: np.real(phase_b(model, end, lam, s, r_lam=r_lam)))


def integral_from_r0(model: ManifoldModel, r: np.ndarray,
                     fn: Callable) -> np.ndarray:
    """int_{r0}^r fn(s) ds at the radii ``r``: the trapezoid rule over the
    sorted nodes of r with r0 inserted (negative below r0).

    ``fn`` maps the sorted nodes to an array whose last axis runs over
    them; leading axes (a block of energies, say) are integrated
    independently and kept in the result."""
    rr = np.unique(np.concatenate((r, [model.r0])))
    acc = cumulative_trapezoid(fn(rr), rr, axis=-1, initial=0)
    at = np.searchsorted(rr, np.concatenate((r, [model.r0])))
    vals = acc[..., at]
    return vals[..., :-1] - vals[..., -1:]


def classify_potential(model: ManifoldModel, end: int, eps: float = 0.1,
                       r_start: float = 8.0, n_dyadic: int = 10):
    """Classify the reference tail of one end by its decay rate.

    Fits |q1 - lambda0| ~ r^-p on >= 8 dyadic blocks (log-log least
    squares) and returns one of 'short_range' (p >= 1 + eps),
    'dollard' (p >= (1+eps)/2) or 'long_range', together with the
    fitted exponent.  An identically-threshold tail is short range.
    """
    if n_dyadic < 8:
        raise ValueError("need at least 8 dyadic samples")
    prof = model.ends[end]
    lam0, _ = critical_energy(prof)
    Rs = r_start * 2.0 ** np.arange(n_dyadic)
    sups = np.array([
        float(np.max(np.abs(prof.q1(np.linspace(R, 2 * R, 128)) - lam0)))
        for R in Rs
    ])
    if np.max(sups) < 1e-13:
        return "short_range", {"exponent": float("inf"), "sups": sups.tolist()}
    good = sups > 1e-300
    slope, _ = np.polyfit(np.log(Rs[good]), np.log(sups[good]), 1)
    p = -float(slope)
    if p >= 1.0 + eps:
        cls = "short_range"
    elif p >= 0.5 * (1.0 + eps):
        cls = "dollard"
    else:
        cls = "long_range"
    return cls, {"exponent": p, "sups": sups.tolist()}
