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
lam_c, dlam_c/dr and the eikonal K1 come out of one Newton solve per
radius in the C kernel ``_stationary.c`` (:func:`stationary_point`).

The frequency integral is a trapezoid sum over a uniform lam grid.  The
WKB phase splits as Phi_lam(r) = b_lam E(r) + psi_lam(r), with
b_lam = (2(lam - lam0))^{1/2} the asymptotic momentum and
E(r) = int_{r0}^r eta_lambda.  The radii with eta_lambda > 0 are sorted
by E and cut into spans of E-length at most L, the length whose phase
budget (b_max - b_min) L is ``_BLOCK_PHASE``.  Within the span that
starts at E_a, e^{i b E} factors into e^{i b E_a} and the offset factor
e^{i b s}, s = E - E_a in [0, L].  That factor is the carrier
e^{i b_c s} times e^{i (b - b_c) s}, a smooth function of s that a few
Chebyshev-Lobatto nodes of [0, L] interpolate (Trefethen, Approximation
Theory and Approximation Practice, SIAM 2013), and the same nodes serve
every span.  A sum over lam with any weights then becomes one complex
matrix product against those few nodes and, per span, a small product
that restores its offsets.  On an end with constant q1 (separable)
psi = 0 and one such sum with the weights
h(lam) (2|lam - q1|)^{-1/4} e^{-+ i t lam} is the whole state.  On
other ends the amplitude (2|lam - q1|)^{-1/4} e^{+- i psi_lam(r)} is
smooth in lam; it is
interpolated on a few Chebyshev nodes lam_j, with the rank chosen by an
a-posteriori check, and the state is the sum over j of A(lam_j, r) times
the span sum weighted by the j-th Lagrange polynomial (the separated-phase
technique of Candes, Demanet & Ying, SISC 29, 2007).  Each row
A(lam_j, .) is one pass of the C kernel ``_amplitude.c`` over the radii,
bit for bit what numpy computes for the same formula.  The leading term
and the comparison state of a non-separable end thus need the package's
kernels (``_clib``): a C compiler, or a build cached by an earlier run.
``oracle.reference_comparison_state`` is the node-by-node sum both are
checked against.  Every interpolant here (amplitude, offset factor and
the eikonal's run-in offset) uses the nested levels 9, 17, 33, ... of
:func:`_lobatto_samples`, and falls back to exact sums when the levels
run out.

Working set: every per-radius array of this layer is taken over blocks
of ``_RADII_BLOCK`` radii (the Gauss samples of q1 with their solves, the
run-in offset, the check of each interpolant against the next level, and
the span sums with their amplitude contraction), so the only arrays of
size rank x radii alive at once are the accepted amplitude samples and,
while they are checked, the points of the next level.  A block cuts a
product only between rows that are summed apart (kernel and einsum rows,
and matrix products left with at least two rows), so the states do not
depend on the block size; a check reads only whether its blocks pass.

Dollard comparison dynamics replace lam_c and K by their free forms plus
the secular tail integral; the phase modifier theta(lam) reconciles the
two pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import _clib
from .geometry import (CubicSpline, ManifoldModel, _r0_nodes, bump,
                       cumulative_trapezoid, eta, integral_from_r0)

__all__ = [
    "SpectralProfile",
    "StationaryField",
    "dynamics_grid",
    "stationary_point",
    "eikonal",
    "hamilton_jacobi_residual",
    "leading_term",
    "frequency_nodes",
    "comparison_state",
    "dollard_state",
    "phase_modifier",
    "state_norm",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
# uniform lam nodes of a SpectralProfile's spline
_PROFILE_NODES = 1025
# uniform trapezoid nodes of SpectralProfile.norm
_NORM_NODES = 8193
# elements of one (lam x r) work array of the frequency quadrature's
# exact sums, and of one chunk of amplitude rows times the radii
_BLOCK = 1 << 21
# radii of one block of layer (d)'s per-radius work: the Gauss samples of
# q1 and their travel-time sums, the acceptance check of the lam
# interpolants, and the plane-wave sums with their amplitude contraction
# (whole spans, at most this many radii or one span holding more)
_RADII_BLOCK = 1024
# accepted error of the lam interpolant of the comparison amplitude,
# relative to its largest modulus
_AMP_TOL = 1e-11
# the same for the interpolants of phases: the plane-wave offset factor of
# _plane_wave_sums and the run-in offset of eikonal
_PHASE_TOL = 1e-14
# phase budget (b_max - b_min) L of one span of _plane_wave_sums
_BLOCK_PHASE = 16.0
# spacing of the default radial grid and the front allowance of
# dynamics_grid (the fastest energy of the window travels _PAD t v)
_DR = 0.02
_PAD = 1.25
# Newton iterations and relative travel-time tolerance of stationary_point
_MAX_ITER = 60
_RTOL = 1e-12
# stationary_point's coarse solve: the stride of its subset of the sorted
# cone radii, and the fewest distinct cone radii for which it is made
_SEED_STRIDE = 64
_SEED_MIN_CONE = 2048
# central-difference step in t and r of hamilton_jacobi_residual
_HJ_STEP = 1e-3
# lam nodes per oscillation of the frequency-quadrature phase
_POINTS_PER_CYCLE = 24
# phase_modifier: outer quadrature radius, and the largest tail integrand
# (times _R_TAIL) that is closed with a zero tail instead of a fitted one
_R_TAIL = 1e6
_TAIL_ABS_TOL = 1e-8


# ---------------------------------------------------------------------------
# spectral profiles
# ---------------------------------------------------------------------------

@dataclass
class SpectralProfile:
    """One scattering channel of an asymptotic profile: h(lam) on the
    window [lam_lo, lam_hi], attached to one end and one angular mode.

    Stored as a complex not-a-knot cubic spline through 1025 uniform
    samples of the window; the profile vanishes outside the window.  Norm
    convention: ||h||^2 = (2 pi)^-1 int |h|^2 dlam.
    """

    end: int
    m: int
    lam_lo: float
    lam_hi: float
    _spline: CubicSpline

    @staticmethod
    def from_callable(end: int, m: int, lam_lo: float, lam_hi: float,
                      fn: Callable) -> "SpectralProfile":
        lam = np.linspace(lam_lo, lam_hi, _PROFILE_NODES)
        return SpectralProfile(end, m, lam_lo, lam_hi,
                               CubicSpline(lam, np.asarray(fn(lam), dtype=complex)))

    @staticmethod
    def bump_profile(end: int = 0, m: int = 0, center: float = 0.55,
                     width: float = 0.25) -> "SpectralProfile":
        fn = lambda lam: bump(lam, center, width)
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

    def norm(self) -> float:
        lam = np.linspace(self.lam_lo, self.lam_hi, _NORM_NODES)
        return float(np.sqrt(np.trapezoid(np.abs(self(lam)) ** 2, lam) / (2.0 * np.pi)))


def state_norm(r: np.ndarray, vals: np.ndarray) -> float:
    """L2(dr) norm of a radial field by the trapezoid rule."""
    return float(np.sqrt(np.trapezoid(np.abs(vals) ** 2, r)))


def dynamics_grid(model: ManifoldModel, t: float, lam_hi: float,
                  lambda0: float = 0.0, r1: float = 0.0) -> np.ndarray:
    """Uniform radial grid [r0/2, ...] with spacing at most 0.02 (the node
    count is rounded up), wide enough to hold the outgoing front at time t
    for energies up to lam_hi, launched from the anchor radius r1."""
    rmax = (max(model.r0, r1) + _PAD * t * math.sqrt(2.0 * max(lam_hi - lambda0, 0.1))
            + 10.0)
    n = int(math.ceil((rmax - model.r0 / 2.0) / _DR))
    return np.linspace(model.r0 / 2.0, rmax, n + 1)


# ---------------------------------------------------------------------------
# stationary energy and eikonal
# ---------------------------------------------------------------------------

@dataclass
class StationaryField:
    """lam_c and its companions on a radial grid at fixed time:
    :func:`stationary_point` fills in lam_c, dlam_dr and K1,
    :func:`eikonal` the full phase K."""

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


def _gauss_q1(model: ManifoldModel, end: int, r: np.ndarray, r1: float):
    """Half-lengths of [r1, r] and q1 at their Gauss nodes, one row per r,
    sampled ``_RADII_BLOCK`` rows at a time."""
    half = 0.5 * (r - r1)
    mid = 0.5 * (r + r1)
    q1_gl = np.empty((r.size, _GL_NODES.size))
    for i0 in range(0, r.size, _RADII_BLOCK):
        rows = slice(i0, i0 + _RADII_BLOCK)
        s = mid[rows, None] + half[rows, None] * _GL_NODES[None, :]
        q1_gl[rows] = model.ends[end].q1(s.ravel()).reshape(s.shape)
    return half, q1_gl


def _stationary_rows(half: np.ndarray, q1_gl: np.ndarray, start: np.ndarray,
                     t: float, lam_lo: float, max_iter: int = _MAX_ITER):
    """The kernel ``_stationary.c`` on the samples of :func:`_gauss_q1`:
    per row, Newton for T(lam) = t from ``start`` above ``lam_lo``, at
    most ``max_iter`` steps.  Returns lam, T, T' and int b there, and the
    passes over each row.  The arrays go through ``_clib.pointer``."""
    n = half.size
    args = [_clib.pointer(a, name, np.float64, shape) for name, a, shape in
            (("half", half, (n,)), ("q1_gl", q1_gl, (n, _GL_NODES.size)),
             ("weights", _GL_WEIGHTS, (_GL_NODES.size,)),
             ("start", start, (n,)))]
    lam, tt, dt, b = np.empty((4, n))
    passes = np.empty(n, dtype=np.int64)
    _clib.library().stationary_solve(
        n, _GL_NODES.size, *args, t, lam_lo, _RTOL, max_iter,
        *(a.ctypes.data for a in (lam, tt, dt, b, passes)))
    return lam, tt, dt, b, passes


def _travel_time(half: np.ndarray, q1_gl: np.ndarray, lam: np.ndarray):
    """T at paired (lam, r) from the samples of :func:`_gauss_q1`."""
    return _stationary_rows(half, q1_gl, lam, 0.0, 0.0, max_iter=0)[1]


def _cone(model: ManifoldModel, end: int, rs: np.ndarray, r1: float,
          t: float, lam_lo: float) -> np.ndarray:
    """The propagation cone over the radii ``rs`` > r1: the mask of
    travel time at lam_lo > t, each radius tested as one row of
    :func:`_travel_time`.  The travel time grows with r, so the cone is
    every radius from the first one inside on.  That edge is found by
    testing about every sqrt(n)-th distinct radius (and the largest),
    then the radii between the last one outside and the first one inside,
    so q1 is sampled on about 2 sqrt(n) rows.  Where the tested rows are
    not outside up to one radius and inside from it (a travel time that
    is not finite and increasing), every radius is tested."""
    def inside(rr):
        half, q1_gl = _gauss_q1(model, end, rr, r1)
        return _travel_time(half, q1_gl, np.full(rr.shape, lam_lo)) > t

    def edge(flags):
        """Index of the first True of a mask that is False then True."""
        k = int(np.argmax(flags)) if flags.any() else flags.size
        return k if flags[k:].all() else None

    radii = np.unique(rs)
    stride = max(1, math.isqrt(radii.size))
    probe = np.append(np.arange(0, radii.size - 1, stride), radii.size - 1)
    k = edge(inside(radii[probe]))
    if k is not None:
        # the edge is in (probe[k - 1], probe[k]], or past the largest radius
        lo = probe[k - 1] + 1 if k else 0
        hi = probe[k] if k < probe.size else radii.size
        j = edge(inside(radii[lo:hi])) if hi > lo else 0
        k = None if j is None else lo + j
    if k is None:
        return inside(rs)
    return rs >= (radii[k] if k < radii.size else np.inf)


def default_r1(model: ManifoldModel, lam_lo: float) -> float:
    """Anchor radius for the eikonal: the spectral cutoff radius of the
    lowest window energy (r_lambda is non-increasing in lam)."""
    return model.r_lambda(lam_lo)


def _solve(model: ManifoldModel, end: int, rs: np.ndarray, r1: float,
           t: float, lam_lo: float, start: np.ndarray):
    """:func:`_stationary_rows` at the radii ``rs``, q1 sampled for one
    block of ``_RADII_BLOCK`` of them at a time."""
    out = np.empty((4, rs.size))
    passes = np.empty(rs.size, dtype=np.int64)
    for i0 in range(0, rs.size, _RADII_BLOCK):
        rows = slice(i0, i0 + _RADII_BLOCK)
        *solved, passes[rows] = _stationary_rows(
            *_gauss_q1(model, end, rs[rows], r1), start[rows], t, lam_lo)
        out[:, rows] = solved
    return (*out, passes)


def stationary_point(model: ManifoldModel, end: int, t: float, r: np.ndarray,
                     lam_lo: float, r1: Optional[float] = None) -> StationaryField:
    """Solve  T(lam) = int_{r1}^r [2(lam - q1)]^(-1/2) ds = t  for lam per
    radius of Omega_c(t) = { r : T(lam_lo) > t }, with dlam/dr =
    1 / (b_r |T'|) and the eikonal K1 = int_{r1}^r b_lam - t lam.

    Each radius is one row of the kernel ``_stationary.c``: a pass over its
    48 Gauss samples of q1 gives T, T' and int b, and Newton runs on that
    radius alone until |T - t| <= ``_RTOL`` t and either the correction
    is at most 4 eps |lam| or |T - t| <= 4 eps t, so lam is converged to
    roundoff whatever the other radii, the blocks or the order.  T is a
    positive-weight sum of convex decreasing functions of lam: a step from
    below never passes the root, so the upper bracket is the last lam
    with T < t and is not searched for; a step that leaves (lam_lo, hi)
    or is not finite bisects it.  The start is the free guess
    lam0 + (r - r1)^2 / (2 t^2); on a cone of at least ``_SEED_MIN_CONE``
    distinct radii, where a radius of every ``_SEED_STRIDE``-th one (in
    increasing order, plus the largest) needed a Newton step from it, it
    is the package's :class:`geometry.CubicSpline` through that subset (a
    constant q1, as on preset A, needs none).
    Residuals are certified from the kernel's T at every cone radius
    against 1e-10 * t.  The radii may come in any order.
    """
    prof = model.ends[end]
    lam0 = prof.lambda0
    if r1 is None:
        r1 = default_r1(model, lam_lo)
    r = np.asarray(r, dtype=float)
    mask = r > r1
    rs = r[mask]
    in_cone = np.zeros(r.shape, dtype=bool)
    lam_c, dlam, k1 = np.full((3,) + r.shape, np.nan)
    resid = 0.0

    if rs.size:
        cone = _cone(model, end, rs, r1, t, lam_lo)
        rs2 = rs[cone]
        if rs2.size:
            start = np.maximum(lam0 + (rs2 - r1) ** 2 / (2.0 * t**2), lam_lo)
            # the first index of each distinct radius, in increasing order
            _, first = np.unique(rs2, return_index=True)
            if first.size >= _SEED_MIN_CONE:
                sub = np.append(first[:-1:_SEED_STRIDE], first[-1])
                lam_s, *_, passes = _solve(model, end, rs2[sub], r1, t,
                                           lam_lo, start[sub])
                if np.max(passes) > 1:
                    start = CubicSpline(rs2[sub], lam_s)(rs2)
            lam, T, dT, b, _ = _solve(model, end, rs2, r1, t, lam_lo, start)
            b_r = np.sqrt(2.0 * (lam - prof.q1(rs2)))
            idx = np.where(mask)[0][cone]
            lam_c[idx] = lam
            dlam[idx] = 1.0 / (b_r * -dT)
            k1[idx] = b - t * lam
            in_cone[idx] = True
            resid = float(np.max(np.abs(T - t)))

    return StationaryField(
        t=t, end=end, r=r, r1=float(r1), lam_c=lam_c, dlam_dr=dlam,
        mask=in_cone, k1=k1,
        diag={"residual": resid, "residual_ok": resid <= 1e-10 * t,
              "lam_lo": lam_lo})


def eikonal(model: ManifoldModel, sf: StationaryField) -> StationaryField:
    """Fill in the full phase K = K1 + the fixed-energy run-in integral
    over [r0, r1] (cutoff included), which references K at r0; K1 comes
    from :func:`stationary_point`'s solve.

    The run-in integral, a 257-node trapezoid sum, is a smooth function of
    lam alone: it is evaluated on nested Chebyshev-Lobatto levels in lam
    over [min lam_c, max lam_c] and interpolated at lam_c by the
    barycentric sum, ``_RADII_BLOCK`` radii at a time, a level being
    accepted by the rule of :func:`_lobatto_samples` with ``_PHASE_TOL``.
    Once the next level would outnumber the radii or the 257 trapezoid
    nodes (a row of its basis would cost as much as the sum), the sum is
    taken at every radius, which is exact."""
    msk = sf.mask
    kf = np.full(sf.r.shape, np.nan)
    if np.any(msk):
        lam = sf.lam_c[msk]
        r_lam = model.r_lambda(float(sf.diag.get("lam_lo", np.min(lam))))
        nodes = np.linspace(model.r0, sf.r1, 257)
        eta_n = eta(nodes, r_lam)
        q1n = model.ends[sf.end].q1(nodes)

        def run_in(lam_pts):
            out = np.empty(lam_pts.shape)
            for i0 in range(0, lam_pts.size, 512):  # chunked for memory
                sl = slice(i0, min(i0 + 512, lam_pts.size))
                vals = eta_n[None, :] * np.sqrt(np.maximum(
                    2.0 * (lam_pts[sl][:, None] - q1n[None, :]), 0.0))
                out[sl] = np.trapezoid(vals, nodes, axis=1)
            return out

        mid, half = 0.5 * (lam.max() + lam.min()), 0.5 * (lam.max() - lam.min())
        cap = min(lam.size, nodes.size) if half > 0.0 else 0
        vals = _lobatto_samples(lambda y: run_in(mid + half * y), cap, _PHASE_TOL)
        if vals is None:
            offs = run_in(lam)
        else:
            y = (lam - mid) / half
            offs = np.empty(lam.size)
            for i0 in range(0, lam.size, _RADII_BLOCK):
                rows = slice(i0, i0 + _RADII_BLOCK)
                offs[rows] = np.einsum("ij,j->i",
                                       _lobatto_basis(vals.size, y[rows]), vals)
        kf[msk] = sf.k1[msk] + offs
    sf.k_full = kf
    return sf


def hamilton_jacobi_residual(model: ManifoldModel, end: int, t: float,
                             r: np.ndarray, lam_lo: float) -> np.ndarray:
    """|d_t K1 + (d_r K1)^2 / 2 + q1| by central differences of the
    quadrature eikonal, anchored at the default r1 of lam_lo."""
    r = np.asarray(r, dtype=float)
    r1 = default_r1(model, lam_lo)
    step = _HJ_STEP

    def k1_at(tt, rr):
        return stationary_point(model, end, tt, rr, lam_lo, r1=r1).k1

    dk_dt = (k1_at(t + step, r) - k1_at(t - step, r)) / (2.0 * step)
    dk_dr = (k1_at(t, r + step) - k1_at(t, r - step)) / (2.0 * step)
    q1 = model.ends[end].q1(r)
    return np.abs(dk_dt + 0.5 * dk_dr**2 + q1)


# ---------------------------------------------------------------------------
# comparison states
# ---------------------------------------------------------------------------

@_clib.one_blas_thread()
def leading_term(model: ManifoldModel, h: SpectralProfile, t: float,
                 sign: int = +1) -> Tuple[np.ndarray, np.ndarray, StationaryField]:
    """U_0^+-(t) h on one end, on its ``dynamics_grid``: returns (r,
    values, stationary data).  Without ``cc`` or a cached build of the
    kernels (:func:`stationary_point`) the first call raises RuntimeError."""
    end = h.end
    r1 = default_r1(model, h.lam_lo)
    r = dynamics_grid(model, t, h.lam_hi, model.ends[end].lambda0, r1=r1)
    sf = eikonal(model, stationary_point(model, end, t, r, h.lam_lo, r1=r1))
    vals = np.zeros(r.shape, dtype=complex)
    msk = sf.mask
    if np.any(msk):
        pref = (2.0 * np.pi) ** -0.5 * np.exp(-sign * 0.75j * np.pi)
        vals[msk] = (pref * np.exp(1j * sign * sf.k_full[msk])
                     * np.sqrt(sf.dlam_dr[msk]) * h(sf.lam_c[msk]))
    return r, vals, sf


def frequency_nodes(model: ManifoldModel, h: SpectralProfile, t: float,
                    r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """lam nodes of the frequency quadrature of U^+-(t) h at the radii r,
    and the profile times its trapezoid weights there.

    The uniform lam grid resolves every oscillation of the phase
    Phi_lam(r) - t lam with at least 24 points.
    """
    prof = model.ends[h.end]
    span = h.lam_hi - h.lam_lo
    b_hi = math.sqrt(2.0 * (h.lam_hi - prof.lambda0))
    b_lo = math.sqrt(2.0 * max(h.lam_lo - prof.lambda0, 0.0))
    cycles = (t * span + (np.max(r) - model.r0) * (b_hi - b_lo)) / (2.0 * np.pi)
    n_lam = max(257, int(_POINTS_PER_CYCLE * cycles) + 1)
    lam = np.linspace(h.lam_lo, h.lam_hi, n_lam)
    wts = np.full(n_lam, lam[1] - lam[0])
    wts[[0, -1]] *= 0.5
    return lam, h(lam) * wts


def _lobatto_basis(n: int, y: np.ndarray) -> np.ndarray:
    """Lagrange basis of the n Chebyshev-Lobatto points cos(pi i/(n-1)) at
    the points y of [-1, 1], one row per point (barycentric form)."""
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    d = y[:, None] - x[None, :]
    hit = d == 0.0
    d[hit] = 1.0
    basis = np.divide(w, d, out=d)
    basis /= basis.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    basis[rows] = hit[rows]
    return basis


def _lobatto_samples(fn: Callable, cap: int, tol: float) -> Optional[np.ndarray]:
    """Samples of ``fn`` (one row per point y of [-1, 1]) at the n
    Chebyshev-Lobatto points cos(pi i/(n-1)) of the first nested level
    n = 9, 17, 33, ... that reproduces fn at the points the next level
    adds, between its own, within ``tol`` of max|fn| there
    (:func:`_reproduces`); None once the next level would have ``cap``
    points or more.  The check runs over ``_RADII_BLOCK`` columns of the
    samples at a time, so a level and the points the next one adds are the
    only arrays as large as the samples."""
    n = 9
    if 2 * n - 1 >= cap:
        return None
    vals = fn(np.cos(np.pi * np.arange(n) / (n - 1)))
    while 2 * n - 1 < cap:
        y_new = np.cos(np.pi * (np.arange(n - 1) + 0.5) / (n - 1))
        new = fn(y_new)
        if _reproduces(_lobatto_basis(n, y_new), vals, new, tol):
            return vals
        merged = np.empty((2 * n - 1,) + vals.shape[1:], dtype=vals.dtype)
        merged[0::2], merged[1::2] = vals, new
        vals, n = merged, 2 * n - 1
        del merged, new  # before the next level is sampled
    return None


def _reproduces(basis: np.ndarray, vals: np.ndarray, new: np.ndarray,
                tol: float) -> bool:
    """Whether max|basis @ vals - new| <= tol max|new|, the samples taken
    as columns (one column if they are a vector).  The real basis
    multiplies float views of the samples (a complex column is two float
    columns), half the flops of a complex product.  max|new| is taken
    first, then the errors ``_RADII_BLOCK`` columns at a time up to the
    first block that fails; a NaN fails."""
    vals = vals.reshape(vals.shape[0], -1)
    new = new.reshape(new.shape[0], -1)
    blocks = [slice(c0, c0 + _RADII_BLOCK)
              for c0 in range(0, new.shape[1], _RADII_BLOCK)]
    bound = tol * np.max([np.max(np.abs(new[:, c])) for c in blocks],
                         initial=0.0)
    for c in blocks:
        diff = basis @ vals[:, c].view(np.float64)
        diff -= new[:, c].view(np.float64)
        if not np.max(np.abs(diff.view(new.dtype))) <= bound:
            return False
        del diff  # before the next block's product
    return True


def _plane_wave_blocks(eta_r: np.ndarray, e_of_r: np.ndarray,
                       b_lam: np.ndarray, wts: np.ndarray, sign: int):
    """sum_lam wts[lam, c] e^{i sign b_lam E(r)} for each column c of
    ``wts`` at the radii with eta_lambda > 0, one block of those radii at
    a time: yields (k, sums), k the positions of the block's radii among
    them (in the order of the radii) and sums one row per column.

    Those radii are sorted by E and cut, from the largest E down, into
    spans of E-length at most L = _BLOCK_PHASE / (b_max - b_min) (the
    whole E range, if shorter).  Within the span that starts at E_a the
    sum is over
    e^{i sign b_lam E_a} times the offset factor e^{i sign b_lam s},
    s = E - E_a in [0, L], which is the carrier e^{i sign b_c s}, b_c the
    middle of the b range, times e^{i sign (b_lam - b_c) s}, a smooth
    function of s.  That function is sampled once, on P Chebyshev-Lobatto
    nodes of [0, L] (accepted by the rule of :func:`_lobatto_samples`
    with ``_PHASE_TOL``, capped at the largest span's radius count), and
    these nodes serve every span: the lam contraction of a block's spans
    is one matrix product of their weighted coarse factors against P
    columns, and each span restores its offsets by its Lagrange basis in
    y = 2 s / L - 1 times the carrier.
    Consecutive spans share one basis while their offsets agree with the
    first one's within b_max |delta s| <= 1e-12 rad (the spans of a
    uniform run), across blocks too.  Where the levels reach the cap, or
    L = 0 (every radius at one E), the sum is taken at each radius, which
    is exact, ``_BLOCK // n_lam`` radii at a time.

    A block is whole spans: at most ``_RADII_BLOCK`` radii, or one span
    that holds more.  The products are those of the unblocked sum, row
    for row, and sum alike.  A single column is one block, since its
    sums are no larger than the state: cut into blocks, a run of one span
    would be restored by a matrix-vector product, which sums in another
    order.
    """
    n_lam, n_col = wts.shape
    live = np.flatnonzero(eta_r > 0.0)
    if not n_lam or not live.size:
        return
    order = np.argsort(e_of_r[live], kind="stable")
    e = e_of_r[live[order]]
    b_min, b_max = float(np.min(b_lam)), float(np.max(b_lam))
    b_c = 0.5 * (b_max + b_min)
    length = float(e[-1] - e[0])
    if b_max > b_min:
        length = min(length, _BLOCK_PHASE / (b_max - b_min))
    # span bounds, cut from the largest E down: the spans of a uniform run
    # are then all full, and only the first one holds a remainder
    cuts = [e.size]
    while cuts[0] > 0:
        cuts.insert(0, int(np.searchsorted(e, e[cuts[0] - 1] - length)))
    nodes = None
    if length > 0.0:
        nodes = _lobatto_samples(
            lambda y: np.exp(1j * sign * np.outer(0.5 * length * (1.0 + y),
                                                  b_lam - b_c)),
            int(np.max(np.diff(cuts))), _PHASE_TOL)
    if nodes is None:
        step = max(1, _BLOCK // n_lam)
        for i0 in range(0, e.size, step):
            yield (order[i0:i0 + step],
                   wts.T @ np.exp(1j * sign * np.outer(b_lam, e[i0:i0 + step])))
        return

    n_span = len(cuts) - 1
    coarse = np.exp(1j * sign * np.outer(b_lam, e[cuts[:-1]]))
    limit = _RADII_BLOCK if n_col > 1 else e.size
    s_own = basis = None
    a = 0
    while a < n_span:
        # the block: spans [a, g)
        g = a + 1
        while g < n_span and cuts[g + 1] - cuts[a] <= limit:
            g += 1
        wc = (wts[:, :, None] * coarse[:, None, a:g]).reshape(n_lam, -1)
        prod = (wc.T @ nodes.T).reshape(n_col, g - a, nodes.shape[0])
        del wc  # before the offsets are restored
        sums = np.empty((n_col, cuts[g] - cuts[a]), dtype=complex)
        # spans [p, j) share the basis of the offsets s_own; they are
        # restored in one product when span j brings new offsets or ends
        # the block
        p = a
        for j in range(a, g + 1):
            if j < g:
                s = e[cuts[j]:cuts[j + 1]] - e[cuts[j]]
                if (basis is not None and s.size == s_own.size
                        and b_max * np.max(np.abs(s - s_own)) <= 1e-12):
                    continue
            if j > p:
                sums[:, cuts[p] - cuts[a]:cuts[j] - cuts[a]] = (
                    prod[:, p - a:j - a].reshape(-1, basis.shape[0]) @ basis
                ).reshape(n_col, -1)
            if j < g:
                s_own, p = s, j
                basis = (_lobatto_basis(nodes.shape[0], 2.0 * s / length - 1.0)
                         * np.exp(1j * sign * b_c * s)[:, None]).T
        del prod
        yield order[cuts[a]:cuts[g]], sums
        a = g


def _plane_wave_sums(r: np.ndarray, eta_r: np.ndarray, e_of_r: np.ndarray,
                     b_lam: np.ndarray, wts: np.ndarray, sign: int) -> np.ndarray:
    """The sums of :func:`_plane_wave_blocks` at every radius r, one row
    per column of ``wts``; the radii with eta_lambda = 0 are left at 0."""
    out = np.zeros((wts.shape[1], r.size), dtype=complex)
    live = np.flatnonzero(eta_r > 0.0)
    for k, sums in _plane_wave_blocks(eta_r, e_of_r, b_lam, wts, sign):
        out[:, live[k]] = sums
    return out


@_clib.one_blas_thread()
def comparison_state(model: ManifoldModel, h: SpectralProfile, t: float,
                     r: Optional[np.ndarray] = None,
                     sign: int = +1) -> Tuple[np.ndarray, np.ndarray]:
    """U^+-(t) h by frequency quadrature of the WKB eigenfunctions on the
    lam nodes of :func:`frequency_nodes` (the module docstring describes
    the factored sum).

    The phase is split as Phi_lam(r) = b_lam E(r) + psi_lam(r).  On a
    separable end psi = 0 and the amplitude does not depend on r: one
    weight column.  Otherwise the amplitude
    A(lam, r) = (2|lam - q1|)^{-1/4} e^{+-i psi_lam(r)} is interpolated in
    lam on nested Chebyshev-Lobatto nodes (9, 17, 33, ...): a level is
    accepted once it reproduces A at the nodes the next level adds to
    within ``_AMP_TOL`` of max|A|, over the radii with eta_lambda > 0
    (A need not be smooth in lam where eta_lambda = 0).  Once the next
    level would outnumber the live lam nodes, those nodes themselves are
    used, which is exact.  The rows of A are computed by a compiled C
    kernel (:func:`_amplitude_factors`), so a non-separable end needs the
    C compiler ``cc``; without it the first call raises RuntimeError.

    E(r) and psi_lam(r) are trapezoid sums over the sorted radii ``r``
    themselves (:func:`geometry.integral_from_r0`), so the value at a
    fixed radius depends on the other radii passed: on preset A at
    t = 40, thinning the dynamics grid from spacing 0.02 to 0.04, 0.2
    and 1.0 moves it by 2.3e-6, 7.4e-5 and 1.9e-3 of its largest value.
    ``oracle.reference_comparison_state`` integrates over the same radii
    and does not see this.
    """
    end = h.end
    prof = model.ends[end]
    lam0 = prof.lambda0
    r_lam = model.r_lambda(h.lam_lo)
    if r is None:
        r = dynamics_grid(model, t, h.lam_hi, lam0, r1=r_lam)
    r = np.asarray(r, dtype=float)
    lam, hv = frequency_nodes(model, h, t, r)
    live = hv != 0.0
    lam, hv = lam[live], hv[live]

    eta_r = eta(r, r_lam)
    r_far = float(np.max(r))
    b_lam = np.sqrt(2.0 * (lam - lam0))
    e_t = np.exp(-1j * sign * t * lam)
    # E(r) = int_{r0}^r eta_lambda ds
    e_of_r = integral_from_r0(model, r, lambda s: eta(s, r_lam))

    # q1 constant on the end => psi = 0 and the amplitude depends on lam only
    probe = prof.q1(np.linspace(model.r0, r_far, 64))
    out = np.zeros(r.shape, dtype=complex)
    if float(np.ptp(probe)) < 1e-13:
        g = hv * (2.0 * np.abs(lam - lam0)) ** -0.25 * e_t
        out = _plane_wave_sums(r, eta_r, e_of_r, b_lam, g[:, None], sign)[0]
    elif lam.size:
        live_r = eta_r > 0.0
        amp, basis = _amplitude_factors(model, prof, r, live_r, r_lam, lam, sign)
        live = np.flatnonzero(live_r)
        step = max(1, _BLOCK // r.size)
        for c0 in range(0, amp.shape[0], step):
            c = slice(c0, c0 + step)
            for k, sums in _plane_wave_blocks(eta_r, e_of_r, b_lam,
                                              (hv * e_t)[:, None] * basis[:, c],
                                              sign):
                out[live[k]] += np.einsum("jr,jr->r", amp[c, k], sums)
    out *= eta_r / (sign * 2.0j * np.pi)
    return r, out


def _amplitude_factors(model: ManifoldModel, prof, r: np.ndarray,
                       live_r: np.ndarray, r_lam: float, lam: np.ndarray,
                       sign: int) -> Tuple[np.ndarray, np.ndarray]:
    """The amplitude A(lam_j, r) at the accepted interpolation nodes lam_j
    (one row per node, one column per radius of ``live_r``) and the
    Lagrange basis of those nodes on the lam grid (one column per node);
    :func:`comparison_state` states the acceptance rule.  Each set of
    nodes is one call of the compiled ``amplitude_rows``, which integrates
    psi over the nodes of :func:`geometry.integral_from_r0` with its
    arithmetic, so the rows are bit for bit those of the numpy expression
    exp(1j sign psi) / (2 |lam - q1|)^{1/4}."""
    nodes, at = _r0_nodes(model, r)
    eta_n, q1_n = eta(nodes, r_lam), prof.q1(nodes)
    at_live = at[:-1][live_r]
    q1_r = prof.q1(r[live_r])

    def amplitude(lam_pts):
        return _amplitude_rows(nodes, eta_n, q1_n, int(at[-1]), at_live, q1_r,
                               lam_pts, prof.lambda0, sign)

    mid, half = 0.5 * (lam[-1] + lam[0]), 0.5 * (lam[-1] - lam[0])
    amp = _lobatto_samples(lambda y: amplitude(mid + half * y), lam.size, _AMP_TOL)
    if amp is None:
        return amplitude(lam), np.eye(lam.size)
    return amp, _lobatto_basis(amp.shape[0], (lam - mid) / half)


def _amplitude_rows(nodes: np.ndarray, eta_n: np.ndarray, q1_n: np.ndarray,
                    at_r0: int, at: np.ndarray, q1_live: np.ndarray,
                    lam: np.ndarray, lam0: float, sign: int) -> np.ndarray:
    """The rows e^{i sign psi_lam} / (2 |lam - q1|)^{1/4}, one per energy
    of ``lam``, at the radii nodes[at] by the compiled kernel of
    ``_amplitude.c``: psi_lam is the trapezoid integral from
    nodes[at_r0] of eta (sqrt(max(2 (lam - q1), 0)) - sqrt(2 (lam - lam0)))
    over the sorted ``nodes``, with eta and q1 sampled there as ``eta_n``
    and ``q1_n``; ``q1_live`` is q1 at the radii.  The kernel checks no
    argument: the arrays go through ``_clib.pointer``, and the indices
    are checked here, since one outside the nodes would read outside
    them."""
    n = nodes.size
    args = [_clib.pointer(a, name, np.float64, (size,)) for name, a, size in
            (("nodes", nodes, n), ("eta", eta_n, n), ("q1", q1_n, n))]
    at_p = _clib.pointer(at, "at", np.int64, (at.size,))
    q1_p = _clib.pointer(q1_live, "q1_live", np.float64, (at.size,))
    lam_p = _clib.pointer(lam, "lam", np.float64, (lam.size,))
    if not (0 <= at_r0 < n and np.all((at >= 0) & (at < n))):
        raise ValueError(f"node indices must lie in [0, {n})")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = np.empty((lam.size, at.size), dtype=complex)
    acc = np.empty(n)
    _clib.library().amplitude_rows(
        n, *args, at_r0, at.size, at_p, q1_p, lam.size, lam_p, lam0, sign,
        acc.ctypes.data, out.ctypes.data)
    return out


def dollard_state(model: ManifoldModel, h: SpectralProfile, t: float,
                  r: Optional[np.ndarray] = None,
                  sign: int = +1) -> Tuple[np.ndarray, np.ndarray]:
    """Dollard dynamics: the free (short-range) comparison phase

        K_sr = (r - r0)^2 / (2t) - t lam0,
        lam evaluated at lam0 + (r - r0)^2 / (2 t^2),

    with the secular correction

        K_do = K_sr - (t / (r - r0)) int_{r0}^r (q1 - lam0) ds ,

    which vanishes on a tail-free end.
    """
    end = h.end
    prof = model.ends[end]
    lam0 = prof.lambda0
    if r is None:
        r = dynamics_grid(model, t, h.lam_hi, lam0)
    vals = np.zeros(r.shape, dtype=complex)
    msk = r > model.r0
    rr = r[msk] - model.r0
    lam_free = lam0 + rr**2 / (2.0 * t**2)
    order = np.argsort(r[msk])
    rs = r[msk][order]
    # the secular integral starts at the first node above r0
    acc = cumulative_trapezoid(prof.q1(rs) - lam0, rs)
    q_int = np.empty_like(acc)
    q_int[order] = acc
    k = rr**2 / (2.0 * t) - t * lam0 - (t / rr) * q_int
    pref = (2.0 * np.pi) ** -0.5 * np.exp(-sign * 0.75j * np.pi)
    vals[msk] = pref * np.exp(1j * sign * k) * np.sqrt(rr) / t * h(lam_free)
    return r, vals


# ---------------------------------------------------------------------------
# phase modifiers
# ---------------------------------------------------------------------------

def phase_modifier(model: ManifoldModel, end: int, lam, kind: str = "sr",
                   r_lam: Optional[float] = None):
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
        np.geomspace(8.0 * r_lam, _R_TAIL, 6000)[1:],
    ])
    eta_r = eta(rr, r_lam)
    q1 = prof.q1(rr)
    b_sr = np.sqrt(2.0 * (lam_arr[:, None] - lam0))
    with np.errstate(invalid="ignore"):
        b = np.sqrt(2.0 * (lam_arr[:, None] - q1[None, :]))
    if kind == "sr":
        b_kind = b_sr * np.ones_like(b)
    else:
        b_kind = b_sr - (q1[None, :] - lam0) / b_sr
    integ = np.where(eta_r[None, :] > 0.0, eta_r[None, :] * (b_kind - b), 0.0)
    theta = np.trapezoid(integ, rr, axis=1)

    # core correction (1 - eta) b_kind, supported on [r0, r_lam] where the
    # WKB phase is cut off but the free phase is not
    rc = np.linspace(model.r0, r_lam, 2001)
    eta_c = eta(rc, r_lam)
    q1_c = prof.q1(rc)
    if kind == "sr":
        bk_c = b_sr * np.ones_like(q1_c)[None, :]
    else:
        bk_c = b_sr - (q1_c[None, :] - lam0) / b_sr
    theta = theta + np.trapezoid((1.0 - eta_c)[None, :] * bk_c, rc, axis=1)

    # close with a power-law tail fitted on the last decade
    tail_mask = rr >= _R_TAIL / 10.0
    tails = np.empty(lam_arr.shape)
    for i in range(lam_arr.size):
        y = np.abs(integ[i][tail_mask])
        if np.max(y) < _TAIL_ABS_TOL / _R_TAIL:
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
        tails[i] = sign_tail * c * _R_TAIL ** (s + 1.0) / (-(s + 1.0))
    theta = theta + tails
    return theta if np.ndim(lam) else float(theta[0])
