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
functions (WKB phases, eikonals, comparison dynamics): its threshold
``lambda0`` plus an optional potential tail ``A eta(r, r0) r^-p``, which
enters the potential ``q`` as well.  The remainder ``q2 = q - q1`` is
treated as a perturbation.  An end declares its tail as the numbers
``(A, p, r0)``, so its threshold and decay class are read from them
exactly, not estimated from samples.

The WKB phase Phi_lam(r) = int_{r0}^r b has one rule here, which the
comparison states, the leading term's run-in, S and F^+ all read: b_lam
E(r) + psi_lam(r), each radius on its own by Gauss-Legendre panels from
the cutoff's ramp and the tail's series far out (:func:`phase_integral`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EndProfile",
    "ManifoldModel",
    "phase_b",
    "phase_a",
    "riccati_residual",
    "classify_potential",
    "numeric_derivative",
    "bump",
    "smooth_step",
    "eta",
    "phase_integral",
]

# r_lambda: the largest r_lambda accepted
_RMAX_R_LAMBDA = 4096.0
# classify_potential: class margin of the decay exponent
_CLASS_EPS = 0.1
# elements of one work array: (lam x r) of the comparison dynamics'
# frequency quadrature's exact sums, psi's quadrature samples
_BLOCK = 1 << 21
# panels in r of the WKB phase (and of the comparison amplitude): equal ones
# on the ramp [r_lam/2, r_lam], then log-r ones, and the Gauss-Legendre rule
# of its E and psi on them
_RAMP_PANELS, _LOG_PANEL = 4, 0.7
_QUAD_NODES, _QUAD_WEIGHTS = np.polynomial.legendre.leggauss(24)


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
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1.

    The ratio a / (a + b + 1e-300) of the bump pieces a = e^{-1/u} and
    b = e^{-1/(1-u)} is evaluated on the ramp 0 < u < 1 only.  Elsewhere it
    is exactly 0 (u <= 0 and NaN: a = 0) or exactly 1 (u >= 1: b = 0 and
    a >= e^-1 absorbs the 1e-300), and those values are filled in.  A
    scalar gives a numpy scalar."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    ramp = (u > 0.0) & (u < 1.0)
    a = _bump_piece(u[ramp])
    b = _bump_piece(1.0 - u[ramp])
    out[ramp] = a / (a + b + 1e-300)
    return out[()]


def eta(r, scale):
    """End-region cutoff eta(r) = 1 - chi(2 r / scale), with the smooth
    decreasing chi(t) = 1 - smooth_step(t - 1): 0 for r <= scale/2, 1 for
    r >= scale.  ``scale = r0`` gives the cutoff of the tails,
    ``scale = r_lambda`` its spectral variant eta_lambda.  The exponentials
    of :func:`smooth_step` are taken on the ramp scale/2 < r < scale only;
    with no r on it, eta is their exact 0 (NaN too) or 1.

    The two subtractions stay as written: in floating point 1 - (1 - s)
    is not s.
    """
    u = np.asarray(2.0 * np.asarray(r, dtype=float) / scale - 1.0)
    if not np.any((u > 0.0) & (u < 1.0)):
        np.copyto(u, u >= 1.0)  # in u's own buffer: no second allocation
        return u[()]
    chi = 1.0 - smooth_step(u)
    return 1.0 - chi


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
    vectorized callables of the radial coordinate; ``lambda0`` is the
    limit of q_geo, the end's threshold.  The end's potential tail
    ``A eta(r, r0) r^-p`` is declared by its amplitude ``tail_amplitude``
    (A; 0 for none), power ``tail_power`` (p) and cutoff radius
    ``tail_r0``, which must be the glue radius of the model: the cutoff
    kills the tail inside r <= r0/2, so it joins the core smoothly.  The
    tail enters the potential q and the reference tail
    ``q1 = lambda0 + A eta(r, r0) r^-p``.  Build it with :meth:`with_tail`.
    """

    name: str
    g: Callable
    gp: Callable
    gpp: Callable
    lambda0: float = 0.0
    tail_amplitude: float = 0.0
    tail_power: float = 0.0
    tail_r0: float = 0.0
    decay: Tuple[float, float, float] = (1.0, 1.0, 1.0)  # (sigma, tau, rho)

    def with_tail(self, amplitude: float, power: float, r0: float) -> "EndProfile":
        """This end with the potential tail ``amplitude eta(r, r0) r^-power``;
        a tail that does not decay (power <= 0) is refused."""
        if amplitude != 0.0 and power <= 0.0:
            raise ValueError(f"tail power must be positive, got {power!r}")
        return replace(self, tail_amplitude=amplitude, tail_power=power,
                       tail_r0=r0)

    def tail(self, r):
        """The potential tail A eta(r, r0) r^-p.  Where every r >= r0 the
        cutoff is exactly 1 and r needs no floor, so both are skipped:
        A r^-p is the same bits."""
        r = np.asarray(r, dtype=float)
        if np.all(r >= self.tail_r0):
            return self.tail_amplitude * r ** (-self.tail_power)
        rs = np.maximum(r, 1e-9)
        return eta(r, self.tail_r0) * self.tail_amplitude * rs ** (-self.tail_power)

    def q1(self, r):
        """Reference tail lambda0 + A eta(r, r0) r^-p; the constant lambda0
        on an end without a tail."""
        if self.tail_amplitude == 0.0:
            return np.full_like(np.asarray(r, dtype=float), self.lambda0)
        return self.lambda0 + self.tail(r)

    def tail_integral(self, r):
        """int_{r0}^r (q1 - lambda0) ds at r >= r0, where eta = 1:
        A (r^{1-p} - r0^{1-p}) / (1 - p), evaluated by expm1 to stay accurate
        near p = 1, and A log(r / r0) at p = 1; 0 without a tail."""
        r = np.asarray(r, dtype=float)
        A, p, r0 = self.tail_amplitude, self.tail_power, self.tail_r0
        if A == 0.0:
            return np.zeros_like(r)
        x = np.log(r / r0)
        if p == 1.0:
            return A * x
        return A * r0 ** (1.0 - p) * np.expm1((1.0 - p) * x) / (1.0 - p)

    def f(self, r):
        return np.exp(self.g(r))

    def q_geo(self, r):
        """Curvature part of the effective potential on this end."""
        return 0.25 * self.gpp(r) + 0.125 * self.gp(r) ** 2

    # -- constructors -------------------------------------------------------

    @staticmethod
    def euclidean(**kw) -> "EndProfile":
        """f = r, the cone of opening 1."""
        return replace(EndProfile.conic(1.0, **kw), name="euclidean")

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
        """Profile interpolated from (r, f) samples: log f is a natural
        cubic spline inside the table and continues linearly with its end
        slope s outside (so g'' = 0 there, and g stays C^2).  q_geo is then
        s^2/8 beyond the table, and that is the end's threshold lambda0."""
        f_nodes = np.asarray(f_nodes, dtype=float)
        if np.any(f_nodes <= 0):
            raise ValueError("warp table must be strictly positive")
        sp = CubicSpline(r_nodes, np.log(f_nodes), bc="natural")
        slope = float(sp(r_nodes[-1], 1))
        return EndProfile(
            name="table",
            g=sp,
            gp=lambda r: sp(r, 1),
            gpp=lambda r: sp(r, 2),
            lambda0=0.125 * slope**2,
            **kw,
        )


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
                 v_core: Optional[Callable] = None,
                 core_breakpoints: Tuple[float, ...] = (),
                 name: str = "model"):
        if len(ends) != 2:
            raise ValueError("ManifoldModel glues exactly two ends")
        if r0 < 2.0:
            raise ValueError("r0 must be >= 2")
        for end in ends:
            if end.tail_amplitude != 0.0 and end.tail_r0 != r0:
                raise ValueError(
                    f"end {end.name!r} cuts its tail off at r0 = "
                    f"{end.tail_r0!r}, not at the model's r0 = {r0!r}")
        self.ends = tuple(ends)
        self.r0 = float(r0)
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
            if end.tail_amplitude == 0.0:
                continue
            mask = side * x > 0
            if np.any(mask):
                out[mask] += end.tail(side * x[mask])
        if self.v_core is not None:
            out = out + self.v_core(x)
        return out

    def q(self, x):
        return self.q_geo(x) + self.potential(x)

    def w_mode(self, m: int, x):
        """Reduced 1-d potential of the angular mode m: q plus the
        centrifugal term m^2 e^{-2g} / 2, which m = 0 leaves out (where f
        underflows, e^{-2g} is inf and 0 * inf would read NaN)."""
        if m == 0:
            return self.q(x)
        x = np.asarray(x, dtype=float)
        return self.q(x) + 0.5 * m**2 * np.exp(-2.0 * self.g(x))

    # -- spectral bookkeeping ----------------------------------------------

    @property
    def lambda_crit(self) -> float:
        return max(e.lambda0 for e in self.ends)

    @property
    def beta_c(self) -> float:
        return 0.5 * min(min(e.decay) for e in self.ends)

    def r_lambda(self, lam: float) -> float:
        """Smallest dyadic R >= 2 r0 with lam + lambda0 - 2 q1 >= 0 for all
        r >= R/2 on both ends (so b_lam is real where eta_lambda > 0).  The
        tail is A r^-p beyond R/2 >= r0, so q1(R/2) decides where A > 0 and
        lambda0 elsewhere.  Refused below a threshold or above R = 4096."""
        R = 2.0 * self.r0
        for e, end in enumerate(self.ends):
            if lam + end.lambda0 - 2.0 * end.lambda0 < 0:
                raise ValueError(f"no r_lambda at lam = {lam!r}: it is below "
                                 f"the threshold {end.lambda0!r} of end {e}")
            # q1(R/2) falls with R: the R of end 0 is where end 1's search starts
            while (end.tail_amplitude > 0.0
                   and lam + end.lambda0 - 2.0 * end.q1(R / 2.0) < 0):
                R *= 2.0
        if R > _RMAX_R_LAMBDA:
            raise ValueError(f"the smallest admissible r_lambda at lam = "
                             f"{lam!r} is {R:g}, above {_RMAX_R_LAMBDA:g}")
        return R

    def breakpoints(self) -> np.ndarray:
        """Radii (in x) where the potential may lose smoothness: the glue
        boundary plus the configured core jumps."""
        w = self.r0 / 2.0
        return np.array(sorted({-w, w, *self.core_breakpoints}))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _sqrt_upper(w):
    """Branch of sqrt with cut on (-inf, 0], Re >= 0."""
    return np.sqrt(np.asarray(w, dtype=complex))


def phase_b(model: ManifoldModel, end: int, z, r):
    """WKB momentum b = eta_lambda sqrt(2 (z - q1)), lambda = Re z, on one end.

    For real z above the tail the result is real; complex z is accepted
    (branch cut on the negative real axis of z - q1).
    """
    prof = model.ends[end]
    r = np.asarray(r, dtype=float)
    r_lam = model.r_lambda(float(np.real(z)))
    b = eta(r, r_lam) * _sqrt_upper(2.0 * (z - prof.q1(r)))
    if np.all(np.abs(b.imag) < 1e-14):
        b = b.real
    return b


def phase_a(model: ManifoldModel, end: int, z, r, sign: int = +1):
    """Improved phase a = b -+ (i/4) eta_lambda q1' / (z - q1), lambda = Re z.

    ``sign=+1`` corresponds to the outgoing branch (solutions behaving
    like exp(+i int a)), ``sign=-1`` to the incoming one.  q1' is taken
    in closed form, -p A r^(-p-1): it is read only where eta_lambda > 0,
    that is for r > r_lambda/2 >= r0, where the tail's cutoff is 1.
    """
    prof = model.ends[end]
    r = np.asarray(r, dtype=float)
    r_lam = model.r_lambda(float(np.real(z)))
    eta_lam = eta(r, r_lam)
    gap = z - prof.q1(r)
    b = eta_lam * _sqrt_upper(2.0 * gap)
    A, p = prof.tail_amplitude, prof.tail_power
    if A == 0.0:
        dq1 = np.zeros_like(r)
    else:
        dq1 = -p * A * np.maximum(r, 1e-9) ** (-p - 1.0)
    corr = 0.25 * eta_lam * np.asarray(dq1, dtype=complex) / gap
    return b - sign * 1j * corr


def riccati_residual(model: ManifoldModel, end: int, z, r, sign: int = +1):
    """Defect of a in the Riccati equation -+ i a' + a^2 = 2 (z - q1).

    Small residual on the end region certifies that exp(+- i int a) is a
    good approximate solution at energy z.
    """
    r = np.asarray(r, dtype=float)
    a = phase_a(model, end, z, r, sign=sign)
    afn = lambda s: phase_a(model, end, z, s, sign=sign)
    da = numeric_derivative(afn, r)
    q1 = model.ends[end].q1(r)
    return -sign * 1j * da + a**2 - 2.0 * (z - q1)


def _panel_edges(r_lam: float, r_hi: float) -> np.ndarray:
    """Panel edges from r_lam/2 to the first one at or past r_hi and r_lam:
    equal panels on the ramp, then r_lam e^{j _LOG_PANEL}, j = 1, 2, ..."""
    n = math.ceil(math.log(max(r_hi / r_lam, 1.0)) / _LOG_PANEL)
    n += r_lam * math.exp(_LOG_PANEL * n) < r_hi
    return np.concatenate((0.5 * r_lam * (1.0 + np.arange(_RAMP_PANELS) / _RAMP_PANELS),
                           r_lam * np.exp(_LOG_PANEL * np.arange(n + 1))))


def _from_edge(edges: np.ndarray, fn: Callable, r: np.ndarray) -> np.ndarray:
    """int_{edges[0]}^r fn at each r of [edges[0], edges[-1]] on its own, by
    Gauss-Legendre on the whole panels below r and the part of r's panel;
    ``fn`` maps nodes to values, any leading axes of its own first."""
    half = 0.5 * np.diff(edges)
    whole = fn((edges[:-1] + half)[:, None] + half[:, None] * _QUAD_NODES)
    below = np.zeros(whole.shape[:-2] + (edges.size,))
    np.cumsum((whole @ _QUAD_WEIGHTS) * half, axis=-1, out=below[..., 1:])
    j = np.maximum(np.searchsorted(edges, r) - 1, 0)   # r in (e_j, e_j+1]
    h = 0.5 * (r - edges[j])
    part = fn((edges[j] + h)[:, None] + h[:, None] * _QUAD_NODES)
    return below[..., j] + (part @ _QUAD_WEIGHTS) * h


def _cutoff_length(r: np.ndarray, r_lam: float) -> np.ndarray:
    """E(r) = int_{r0}^r eta_lambda at each radius on its own: 0 up to
    r_lam/2, :func:`_from_edge` on the ramp and E(r_lam) + r - r_lam
    beyond it, where eta_lambda = 1."""
    edges, cutoff = _panel_edges(r_lam, r_lam), lambda s: eta(s, r_lam)
    e_lam = _from_edge(edges, cutoff, np.array([r_lam]))[0]
    out = np.where(r >= r_lam, r - r_lam + e_lam, 0.0)
    ramp = (r > edges[0]) & (r < r_lam)
    out[ramp] = _from_edge(edges, cutoff, r[ramp])
    return out


def _psi(prof, r_lam: float, lam_lo: float, lam: np.ndarray,
         r: np.ndarray) -> np.ndarray:
    """psi_lam(r) = int_{r0}^r eta_lambda (sqrt(2 (lam - q1)) - b_lam) at
    each radius r >= r_lam/2 on its own, one row per energy (>= lam_lo):
    :func:`_from_edge` of the same integrand without cancellation up to
    the first edge a where |u| = |A| a^-p / (lam_lo - lam0) <= 1/2 (r_lam
    on a repulsive tail), then the tail series (:func:`_tail_series`)."""
    lam0, amp, p = prof.lambda0, prof.tail_amplitude, prof.tail_power
    edges = _panel_edges(r_lam, (2.0 * abs(amp) / (lam_lo - lam0)) ** (1.0 / p))
    b2 = 2.0 * (lam - lam0)[:, None, None]

    def integrand(s):
        tail = prof.tail(s)
        return eta(s, r_lam) * -2.0 * tail / (
            np.sqrt(np.maximum(b2 - 2.0 * tail, 0.0)) + np.sqrt(b2))

    a, out = edges[-1], np.empty((lam.size, r.size))
    inner, outer = np.flatnonzero(r <= a), np.flatnonzero(r > a)
    step = max(1, _BLOCK // (lam.size * _QUAD_NODES.size))
    for i0 in range(0, inner.size, step):
        cols = inner[i0:i0 + step]
        out[:, cols] = _from_edge(edges, integrand, r[cols])
    if outer.size:
        u_a = amp * a ** -p / (lam - lam0)
        series = _tail_series(u_a[:, None], p, np.log(r[outer] / a), 1)
        out[:, outer] = (_from_edge(edges, integrand, np.array([a]))
                         - np.sqrt(b2[:, :, 0]) * a * series)
    return out


def _tail_series(u, p: float, x, n: int):
    """sum_{m>=n} c_m u^m g_m(x), n = 1 or 2, where 1 - sqrt(1 - u) =
    sum c_m u^m (c_1 = 1/2, c_{m+1} = c_m (2m - 1) / (2m + 2)) and g_m(x) =
    int_0^x e^{(1 - m p) y} dy: a times it integrates those terms of
    u (s/a)^-p from a to a e^x.  Summed until every nonzero term is below
    1e-17 of its sum, which it then leaves unchanged; |u| < 1 (and
    p > 1/n at x = inf) is the callers' to keep."""
    c = 0.5 if n == 1 else 0.125

    def term(m, c):
        if m * p == 1.0:
            return c * u**m * x
        return c * u**m * np.expm1((1.0 - m * p) * x) / (1.0 - m * p)

    t = total = term(n, c)
    while np.any((np.abs(t) >= 1e-17 * np.abs(total)) & (t != 0.0)):
        c *= (2.0 * n - 1.0) / (2.0 * n + 2.0)
        n += 1
        t = term(n, c)
        total = total + t
    return total


def phase_integral(model: ManifoldModel, end: int, lam: float,
                   r: np.ndarray) -> np.ndarray:
    """The WKB phase Phi_lam(r) = int_{r0}^r b ds on one end at the real
    energy lam, each radius taken on its own: b_lam E(r) + psi_lam(r),
    with b_lam = sqrt(2 (lam - lambda0)), E by :func:`_cutoff_length` and,
    on an end with a tail, psi by :func:`_psi` with lam as its lowest
    energy, which places its panels, both cut at r_lam = r_lambda(lam).
    Both parts vanish up to r_lam/2, where eta_lambda and b do."""
    prof = model.ends[end]
    r = np.asarray(r, dtype=float)
    r_lam = model.r_lambda(lam)
    phi = np.sqrt(2.0 * (lam - prof.lambda0)) * _cutoff_length(r, r_lam)
    if prof.tail_amplitude != 0.0:
        live = r > 0.5 * r_lam
        phi[live] += _psi(prof, r_lam, lam, np.array([lam]), r[live])[0]
    return phi


def cumulative_trapezoid(y, dx: float) -> np.ndarray:
    """Cumulative trapezoid rule over the 1-D samples ``y`` at the
    spacing ``dx``, 0 at the first node.

    The arithmetic of ``scipy.integrate.cumulative_trapezoid(y, dx=dx,
    initial=0)``, so the two agree bit for bit, without importing
    scipy.integrate (which loads most of scipy)."""
    y = np.asarray(y)
    acc = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    return np.concatenate((np.zeros(1, acc.dtype), acc))


class CubicSpline:
    """Cubic spline through the samples ``y`` (real or complex) at the
    strictly increasing nodes ``x``, without importing scipy's interpolate
    subpackage (which loads most of scipy).

    ``bc`` is ``'not-a-knot'`` (at least 4 nodes) or ``'natural'`` (zero
    second derivative at both ends, at least 2 nodes).  The node slopes
    solve the tridiagonal system of scipy's ``CubicSpline``, and
    each piece keeps scipy's local coefficients in ``x - x_i``, so the
    two agree up to roundoff.  Outside the nodes the spline continues as
    its tangent line at the end node (scipy would continue the end cubic).
    ``spline(t, nu)`` evaluates derivative ``nu`` (0, 1 or 2) by Horner's
    rule.
    """

    def __init__(self, x, y, bc: str = "not-a-knot"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        y = y.astype(complex if np.iscomplexobj(y) else float)
        n = x.size
        dx = np.diff(x)
        if bc not in ("not-a-knot", "natural"):
            raise ValueError(f"unknown end condition {bc!r}")
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("x and y must be 1-D arrays of one length")
        if n < (4 if bc == "not-a-knot" else 2):
            raise ValueError(f"too few nodes ({n}) for a {bc} spline")
        if not np.all(dx > 0):
            raise ValueError("spline nodes must increase strictly")
        slope = np.diff(y) / dx
        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower = np.empty(n)
        diag = np.empty(n)
        upper = np.empty(n)
        rhs = np.empty(n, dtype=y.dtype)
        lower[1:-1] = dx[1:]
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        upper[1:-1] = dx[:-1]
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if bc == "not-a-knot":
            d = x[2] - x[0]
            diag[0], upper[0] = dx[1], d
            rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0]
                      + dx[0] ** 2 * slope[1]) / d
            d = x[-1] - x[-3]
            lower[-1], diag[-1] = d, dx[-2]
            rhs[-1] = (dx[-1] ** 2 * slope[-2]
                       + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        else:
            diag[0], upper[0] = 2.0 * dx[0], dx[0]
            rhs[0] = 3.0 * (y[1] - y[0])
            lower[-1], diag[-1] = dx[-1], 2.0 * dx[-1]
            rhs[-1] = 3.0 * (y[-1] - y[-2])
        s = _solve_tridiagonal(lower, diag, upper, rhs)

        # pieces 1 .. n-1 are the cubics on [x_{i-1}, x_i]; pieces 0 and n
        # are the tangent lines at x_0 and x_{n-1}
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        zero = np.zeros(1, dtype=y.dtype)
        self._c = (np.concatenate((zero, t / dx, zero)),
                   np.concatenate((zero, (slope - s[:-1]) / dx - t, zero)),
                   np.concatenate((s[:1], s)),
                   np.concatenate((y[:1], y)))
        self._base = np.concatenate((x[:1], x))
        self._x = x

    def __call__(self, t, nu: int = 0) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self._x, t, side="right")
        s = t - self._base[i]
        c0, c1, c2, c3 = self._c
        if nu == 0:
            out = c0[i]
            out *= s
            out += c1[i]
            out *= s
            out += c2[i]
            out *= s
            out += c3[i]
        elif nu == 1:
            out = 3.0 * c0[i]
            out *= s
            out += 2.0 * c1[i]
            out *= s
            out += c2[i]
        elif nu == 2:
            out = 6.0 * c0[i]
            out *= s
            out += 2.0 * c1[i]
        else:
            raise ValueError(f"unsupported derivative order {nu}")
        return out


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas algorithm (elimination without pivoting) on Python scalars.
    Stable for the spline systems: the interior rows are diagonally
    dominant, and eliminating a not-a-knot end row leaves the pivot
    dx_0 + dx_1 > 0 in the next."""
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    b = rhs.tolist()
    n = len(b)
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    return np.array(b, dtype=rhs.dtype)


def classify_potential(model: ManifoldModel, end: int):
    """Classify the reference tail of one end by its decay rate.

    Reads the declared tail ``q1 - lambda0 = A eta(r, r0) r^-p`` and
    returns one of 'short_range' (p >= 1 + eps), 'dollard'
    (p >= (1+eps)/2) or 'long_range', with eps = 0.1, together with the
    exponent p.  An end without a tail (A = 0) is short range with
    exponent inf.
    """
    prof = model.ends[end]
    if prof.tail_amplitude == 0.0:
        return "short_range", {"exponent": float("inf")}
    p = float(prof.tail_power)
    if p >= 1.0 + _CLASS_EPS:
        cls = "short_range"
    elif p >= 0.5 * (1.0 + _CLASS_EPS):
        cls = "dollard"
    else:
        cls = "long_range"
    return cls, {"exponent": p}
