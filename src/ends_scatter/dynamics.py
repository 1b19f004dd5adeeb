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
E(r) = int_{r0}^r eta_lambda, both taken at each radius on its own by
the rule of ``geometry`` (Gauss-Legendre panels on the cutoff's ramp, the
declared tail's series beyond), so a state is a function of r; the same
rule is ``geometry.phase_integral``, the phase that S and F^+ read, and
the leading term's run-in Phi_lam(r1).  The
radii with eta_lambda > 0 are sorted by E and cut into spans of E-length
at most L, the length whose phase budget (b_max - b_min) L is
``_BLOCK_PHASE``.  Within the span that starts at E_a, e^{i b E} factors
into e^{i b E_a} and the offset factor e^{i b s}, s = E - E_a in [0, L].
That factor is the carrier e^{i b_c s} times e^{i (b - b_c) s}, a smooth
function of s that a few Chebyshev-Lobatto nodes of [0, L] interpolate
(Trefethen, Approximation Theory and Approximation Practice, SIAM 2013),
and the same nodes serve every span.  Its Chebyshev coefficients are
known in closed form (Jacobi-Anger), so a bound on their tail fixes the
node count before anything is sampled: 23 nodes within 1e-14 where a
span spends the whole budget, as on the benchmark windows.  A sum over
lam with any weights then becomes one complex matrix product against
the Chebyshev coefficients of those few nodes' samples and, per span, a
small product with its Chebyshev rows that restores its offsets.  The
amplitude (2|lam - q1|)^{-1/4} e^{+- i psi_lam(r)} is smooth in lam and
in r; it is interpolated on a few Chebyshev nodes lam_j and on fixed
panels in r, the levels chosen by a-posteriori checks.  Its samples (one
row per lam_j, one column per panel node) have a low numerical rank: a
thin SVD keeps the k leading singular triplets, the fewest whose
discarded rest stays
within a share of the amplitude's tolerance (Eckart-Young: no rank-k
table is closer), 10 to 13 of the 33 rows on preset C.  The state is the
sum over those k of sigma_i v_i, carried to each block's radii by the
panels' Chebyshev coefficients and rows, times the block's span sum
weighted by h(lam) e^{-+ i t lam} and the lam level's rows times the
coefficients of u_i (the separated-phase technique of Candes, Demanet &
Ying, SISC 29, 2007).  On a tail-free end
(constant q1) psi = 0 and the amplitude does not depend on r: the same
sum in its rank-one case, one row that is a read-only broadcast of 1 and
the weight column h(lam) (2|lam - q1|)^{-1/4} e^{-+ i t lam}.  No C
kernel is involved, so unlike the leading term a comparison state needs
no compiler.  ``oracle.reference_comparison_state`` is the node-by-node
sum both are checked against.  Every interpolant here is on the points
of a :class:`_Lobatto` and is evaluated from its Chebyshev coefficients
(a cached DCT-I matrix times the samples): by the rows T_0 ... T_{n-1}
of the three-term recurrence where a product contracts it, by
Clenshaw's recurrence for the run-in phase.  The amplitude in r and in
lam and the run-in phase on a tailed end take nested levels 9, 17, 33,
... each checked against the next, the amplitude's lower levels read
from one pass at 33 points per panel and 65 energies, the run-in's from
one pass at 65 energies; the offset factor takes the count its bound
certifies and checks nothing.  Each falls back to exact sums at a cap
set by the count of the values it serves.

Working set: every per-radius array of this layer is taken over blocks
of ``_RADII_BLOCK`` radii (the Gauss samples of q1 with their solves,
the check of each interpolant against the next level, and the span sums
with their amplitude contraction), so no array of size
rank x radii or lam x spans is alive: a block of spans forms its own
coarse factors e^{+- i b_lam E_a}, and asks for the amplitude's k rows at
its own radii only.  Those rows come from fixed chunks of each panel's
radii (``_RADII_BLOCK`` of them, the last chunk holding the rest), one
real product per chunk (its Chebyshev rows times the panel's
coefficients), so a radius's row is the same bits whichever block or
index set asks for it; the chunk last carried is kept for the next
block.  The run-in phase is evaluated elementwise by Clenshaw's
recurrence at every cone radius at once, a few vectors of their size,
and no block can change its bits.  A block cuts the
per-radius kernel and einsum rows, and the matrix products of
:func:`_plane_wave_blocks` (weighted coarse factors times the offset
coefficients, and each run's restoring product) between their rows, and
a check reads only whether its blocks pass.  No rule makes a BLAS
product's bits independent of where its rows are cut (cutting the rows
of GEMMs of the sizes met here changed bits in 131 of 175 shapes tried
on OpenBLAS; a one-row product is a GEMV, and the columns past the
kernel's last full tile change with the row count), so the states are
the same bits for any block size only for the shapes these products
take today: ``test_radius_blocks_do_not_change_the_states`` is the
guard, on A and C at t = 10 ... 320 with blocks of 7 radii against one
block.

Dollard comparison dynamics replace lam_c and K by their free forms plus
the secular tail integral; the phase modifier theta(lam) reconciles the
two pictures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import _clib
from .geometry import (CubicSpline, ManifoldModel, _BLOCK, _MAX_POINTS,
                       _RAMP_PANELS, _cutoff_length, _from_edge, _panel_edges,
                       _psi, _tail_series, bump, eta, numeric_derivative)

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
# radii of one block of layer (d)'s per-radius work: the Gauss samples of
# q1 and their travel-time sums, the acceptance check of the lam
# interpolants, and the plane-wave sums with their amplitude contraction
# (whole spans, at most this many radii or one span holding more); also
# the chunks of a panel's radii that carry the amplitude's rows
_RADII_BLOCK = 1024
# accepted error of the comparison amplitude's interpolant in r and lam
# together, relative to its largest modulus
_AMP_TOL = 1e-11
# the same for the interpolants of phases: the plane-wave offset factor of
# _plane_wave_blocks and the run-in phase of eikonal
_PHASE_TOL = 1e-14
# phase budget (b_max - b_min) L of one span of _plane_wave_blocks
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
# lam nodes per oscillation of the frequency-quadrature phase
_POINTS_PER_CYCLE = 24
# phase_modifier: outer radius of the quadrature, the series beyond it
_R_TAIL = 1e6


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


def dynamics_grid(model: ManifoldModel, h: SpectralProfile,
                  t: float) -> np.ndarray:
    """Uniform radial grid [r0/2, ...] with spacing at most 0.02 (the node
    count is rounded up), wide enough to hold the outgoing front of ``h``
    at time t, launched from the anchor r_lambda(lam_lo) > r0; refused
    (ValueError) beyond _MAX_POINTS nodes, before it is allocated."""
    lam_hi = h.lam_hi - model.ends[h.end].lambda0
    rmax = (model.r_lambda(h.lam_lo)
            + _PAD * t * math.sqrt(2.0 * max(lam_hi, 0.1)) + 10.0)
    n = int(math.ceil((rmax - model.r0 / 2.0) / _DR))
    if n > _MAX_POINTS:
        raise ValueError(f"the dynamics grid at t = {t:g} would hold more "
                         f"than {_MAX_POINTS:g} radii")
    return np.linspace(model.r0 / 2.0, rmax, n + 1)


# ---------------------------------------------------------------------------
# nested Chebyshev-Lobatto levels
# ---------------------------------------------------------------------------

class _Lobatto:
    """The Chebyshev-Lobatto points of [lo, hi] (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013): n of them are
    mid + half cos(pi i/(n-1)), i < n, and the 2n - 1 points hold them at
    their even indices, so n = 9, 17, 33, ... are nested levels.  Every
    interpolant of this module is on these points: the offset factor of
    :func:`_plane_wave_blocks` at a count its bound fixes in advance, the
    others at the level :meth:`sample` accepts.  Each is evaluated from its
    Chebyshev coefficients (:meth:`coefficients` times the samples): where
    a matrix product contracts it, by the rows T_0 ... T_{n-1} at the
    points asked for (:meth:`rows`), and alone by Clenshaw's recurrence
    (:meth:`clenshaw`)."""

    def __init__(self, lo: float, hi: float):
        self.mid, self.half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def points(self, n: int) -> np.ndarray:
        return self.mid + self.half * np.cos(np.pi * np.arange(n) / (n - 1))

    @staticmethod
    @functools.cache
    def coefficients(n: int) -> np.ndarray:
        """The n x n matrix that takes samples at the n points, in the
        order of :meth:`points`, to the Chebyshev coefficients c_0 ...
        c_{n-1} of their interpolant sum_k c_k T_k((x - mid) / half): the
        DCT-I c_k = 2/(n-1) sum_j f_j cos(pi jk/(n-1)), the terms of the
        first and last sample halved, and then c_0 and c_{n-1} halved
        (Trefethen, ATAP, ch. 3).  jk is reduced to [0, n-1] by the
        cosine's symmetries, so each cosine is that of a point of [-1, 1].
        Built once per n and read-only."""
        m = n - 1
        jk = np.outer(np.arange(n), np.arange(n)) % (2 * m)
        mat = np.cos(np.pi * np.minimum(jk, 2 * m - jk) / m) * (2.0 / m)
        mat[:, [0, -1]] *= 0.5
        mat[[0, -1]] *= 0.5
        mat.flags.writeable = False
        return mat

    def rows(self, n: int, x: np.ndarray) -> np.ndarray:
        """T_0 ... T_{n-1} at the points x mapped to y = (x - mid) / half,
        one row per degree and one column per point, by the three-term
        recurrence T_{k+1} = 2 y T_k - T_{k-1}: a point's column does not
        depend on the other points."""
        y = (x - self.mid) / self.half
        t = np.empty((n, y.size))
        t[0] = 1.0
        t[1] = y
        y2 = 2.0 * y
        for k in range(2, n):
            np.multiply(y2, t[k - 1], out=t[k])
            t[k] -= t[k - 2]
        return t

    def clenshaw(self, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_k coef[k] T_k(y) at the points x mapped to y = (x - mid) /
        half, by Clenshaw's recurrence b_k = 2 y b_{k+1} - b_{k+2} + c_k
        (Clenshaw, MTAC 9, 1955) and the value y b_1 - b_2 + c_0, for
        real coefficients: elementwise, with no matrix product, so a
        point's value does not depend on the other points."""
        y = (x - self.mid) / self.half
        y2 = 2.0 * y
        b, b1, b2 = np.zeros((3, y.size))   # b_k, b_k+1 and b_k+2
        for c in coef[:0:-1]:
            np.multiply(y2, b1, out=b)
            b -= b2
            b += c
            b, b1, b2 = b2, b, b1
        np.multiply(y, b1, out=b)
        b -= b2
        b += coef[0]
        return b

    def sample(self, fn: Callable, cap: int, tol: float,
               finer: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Samples of ``fn`` (one row per point) at the first level that
        reproduces fn at the points the next level adds (:meth:`_accepts`);
        None once the next level would have ``cap`` points or more, or if
        lo = hi.  Rows of ``finer``, samples at one level's points, are read
        by stride for the points they hold.  A level and the points the
        next one adds are the only arrays as large as the samples."""
        def level(m, start, step):   # points start, start + step, ... of m
            if finer is not None and (finer.shape[0] - 1) % (m - 1) == 0:
                k = (finer.shape[0] - 1) // (m - 1)
                return np.ascontiguousarray(finer[start * k::step * k])
            return fn(self.points(m)[start::step].copy())

        n = 9
        if not (self.half > 0.0 and 2 * n - 1 < cap):
            return None
        vals = level(n, 0, 1)
        while 2 * n - 1 < cap:
            new = level(2 * n - 1, 1, 2)
            if self._accepts(vals, new, tol):
                return vals
            merged = np.empty((2 * n - 1,) + vals.shape[1:], dtype=vals.dtype)
            merged[0::2], merged[1::2] = vals, new
            vals, n = merged, 2 * n - 1
            del merged, new  # before the next level is sampled
        return None

    @staticmethod
    def lebesgue(n: int) -> float:
        """2/pi log n + 1, the bound on the Lebesgue constant of n
        Chebyshev points (Trefethen, ATAP, Thm 15.2)."""
        return 2.0 / np.pi * math.log(n) + 1.0

    @staticmethod
    @functools.cache
    def _check_matrix(n: int) -> np.ndarray:
        """The map from samples at level n of [-1, 1] to their
        interpolant's values at the points level 2n - 1 adds: those points'
        Chebyshev rows times :meth:`coefficients`, built once per n and
        read-only."""
        unit = _Lobatto(-1.0, 1.0)
        mat = unit.rows(n, unit.points(2 * n - 1)[1::2]).T @ _Lobatto.coefficients(n)
        mat.flags.writeable = False
        return mat

    @staticmethod
    def _accepts(vals: np.ndarray, new: np.ndarray, tol: float) -> bool:
        """Whether max|check @ vals - new| <= tol max|new| at the points
        level 2n - 1 adds to the n of ``vals``, samples taken as columns,
        ``check`` the real matrix of :meth:`_check_matrix` times float views
        of them (half the flops of a complex product), max|new| first, then
        the errors ``_RADII_BLOCK`` columns at a time up to the first block
        that fails; a NaN fails."""
        n = vals.shape[0]
        check = _Lobatto._check_matrix(n)
        vals, new = vals.reshape(n, -1), new.reshape(n - 1, -1)
        blocks = [slice(c0, c0 + _RADII_BLOCK)
                  for c0 in range(0, new.shape[1], _RADII_BLOCK)]
        bound = tol * np.max([np.max(np.abs(new[:, c])) for c in blocks],
                             initial=0.0)
        for c in blocks:
            diff = check @ vals[:, c].view(np.float64)
            diff -= new[:, c].view(np.float64)
            if not np.max(np.abs(diff.view(new.dtype))) <= bound:
                return False
            del diff  # before the next block's product
        return True


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
    sampled ``_RADII_BLOCK`` rows at a time; on a tail-free end q1 is the
    constant lam0, one row for every r."""
    half = 0.5 * (r - r1)
    prof = model.ends[end]
    if prof.tail_amplitude == 0.0:
        return half, np.full((1, _GL_NODES.size), prof.lambda0)
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
    passes over each row.  A single row of q1 serves every row (row
    stride 0).  The arrays go through ``_clib.pointer``."""
    n = half.size
    rows = 1 if q1_gl.shape[:1] == (1,) else n
    args = [_clib.pointer(a, name, np.float64, shape) for name, a, shape in
            (("half", half, (n,)), ("q1_gl", q1_gl, (rows, _GL_NODES.size)),
             ("weights", _GL_WEIGHTS, (_GL_NODES.size,)),
             ("start", start, (n,)))]
    lam, tt, dt, b = np.empty((4, n))
    passes = np.empty(n, dtype=np.int64)
    _clib.library().stationary_solve(
        n, _GL_NODES.size, _GL_NODES.size if rows > 1 else 0, *args,
        t, lam_lo, _RTOL, max_iter,
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

    radii = np.sort(rs)
    radii = radii[np.concatenate(([True], radii[1:] != radii[:-1]))]
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
                     lam_lo: float) -> StationaryField:
    """Solve  T(lam) = int_{r1}^r [2(lam - q1)]^(-1/2) ds = t  for lam per
    radius of Omega_c(t) = { r : T(lam_lo) > t }, with dlam/dr =
    1 / (b_r |T'|) and the eikonal K1 = int_{r1}^r b_lam - t lam; the
    anchor r1 is r_lambda(lam_lo).

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
    against 1e-10 * t.  Any order of radii.
    """
    prof = model.ends[end]
    lam0 = prof.lambda0
    r1 = model.r_lambda(lam_lo)
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
            order = np.argsort(rs2, kind="stable")
            srt = rs2[order]
            first = order[np.concatenate(([True], srt[1:] != srt[:-1]))]
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
    """Fill in the full phase K = K1 + Phi_lam(r1) at lam = lam_c, the
    run-in's WKB phase, which references K at r0; K1 and the anchor r1 =
    r_lambda(lam_lo) come from :func:`stationary_point`'s solve.

    Phi_lam(r1) is geometry's rule at r1, cut at r_lambda(lam_lo) = r1:
    b_lam E(r1) (:func:`_cutoff_length`), plus psi_lam(r1) (:func:`_psi`)
    on an end with a tail.  On a tail-free end that closed form is taken
    at every cone radius.  On a tailed end it is a smooth function of lam
    alone, sampled on a level of :class:`_Lobatto` over [min lam_c, max
    lam_c] accepted with ``_PHASE_TOL``, the levels up to 33 read from one
    pass at 65 energies, and evaluated at lam_c from its Chebyshev
    coefficients by Clenshaw's recurrence, elementwise; once the next
    level would outnumber the radii, the rule is taken at every radius,
    512 energies at a time, which is exact."""
    msk = sf.mask
    kf = np.full(sf.r.shape, np.nan)
    if np.any(msk):
        lam = sf.lam_c[msk]
        prof = model.ends[sf.end]
        r1 = np.array([sf.r1])
        e1 = _cutoff_length(r1, sf.r1)[0]

        def run_in(lam_pts):
            phi = np.sqrt(2.0 * (lam_pts - prof.lambda0)) * e1
            if prof.tail_amplitude != 0.0:
                phi += _psi(prof, sf.r1, sf.diag["lam_lo"], lam_pts, r1)[:, 0]
            return phi

        levels = _Lobatto(lam.min(), lam.max())
        vals = (None if prof.tail_amplitude == 0.0
                else levels.sample(run_in, lam.size, _PHASE_TOL,
                                   finer=run_in(levels.points(65))))
        if vals is None:
            offs = np.concatenate([run_in(lam[i0:i0 + 512])
                                   for i0 in range(0, lam.size, 512)])
        else:
            offs = levels.clenshaw(_Lobatto.coefficients(vals.size) @ vals, lam)
        kf[msk] = sf.k1[msk] + offs
    sf.k_full = kf
    return sf


def hamilton_jacobi_residual(model: ManifoldModel, end: int, t: float,
                             r: np.ndarray, lam_lo: float) -> np.ndarray:
    """|d_t K1 + (d_r K1)^2 / 2 + q1| with the derivatives of the
    quadrature eikonal (anchored at r1 = r_lambda(lam_lo)) in t and in r
    by :func:`geometry.numeric_derivative`."""
    r = np.asarray(r, dtype=float)
    dk_dt = numeric_derivative(
        lambda tt: stationary_point(model, end, float(tt), r, lam_lo).k1, t)
    dk_dr = numeric_derivative(
        lambda rr: stationary_point(model, end, t, rr, lam_lo).k1, r)
    q1 = model.ends[end].q1(r)
    return np.abs(dk_dt + 0.5 * dk_dr**2 + q1)


# ---------------------------------------------------------------------------
# comparison states
# ---------------------------------------------------------------------------

@_clib.one_blas_thread()
def leading_term(model: ManifoldModel, h: SpectralProfile,
                 t: float) -> Tuple[np.ndarray, np.ndarray, StationaryField]:
    """U_0^+(t) h on one end, on its ``dynamics_grid``: returns (r,
    values, stationary data).  Without ``cc`` or a cached build of the
    kernels (:func:`stationary_point`) the first call raises RuntimeError."""
    r = dynamics_grid(model, h, t)
    sf = eikonal(model, stationary_point(model, h.end, t, r, h.lam_lo))
    vals = np.zeros(r.shape, dtype=complex)
    msk = sf.mask
    if np.any(msk):
        pref = (2.0 * np.pi) ** -0.5 * np.exp(-0.75j * np.pi)
        vals[msk] = (pref * np.exp(1j * sf.k_full[msk])
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


def _offset_bound(omega: float, n: int) -> float:
    """4 (omega/2)^n / n! / (1 - omega/(2(n + 1))), a bound on
    max |e^{i w x} - p(x)| over x in [-1, 1] and |w| <= omega, p the
    interpolant of e^{i w x} in n >= 2 Chebyshev-Lobatto points, for
    omega < 2(n + 1).  The Chebyshev coefficients of e^{i w x} are
    2 i^k J_k(w), k >= 1 (Jacobi-Anger), with |J_k(w)| <= (|w|/2)^k / k!
    (DLMF 10.14.4); the interpolant is within twice the sum of the
    coefficients' moduli from k = n on (Trefethen, ATAP, Thm 4.2), and
    from k = n on each term is at most omega/(2(n + 1)) times the one
    before.  The factors of n! are taken one by one, so the bound
    underflows to 0 but never overflows."""
    half = 0.5 * omega
    return (4.0 * math.prod(half / k for k in range(1, n + 1))
            / (1.0 - half / (n + 1)))


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
    function of s.  On [0, L] mapped to [-1, 1] it is e^{i w x} times a
    unit constant, |w| <= omega = L (b_max - b_min) / 4, at most
    _BLOCK_PHASE / 4, so the P Chebyshev-Lobatto points it needs are
    known before it is sampled: the fewest whose :func:`_offset_bound`
    is below ``_PHASE_TOL`` (P = 23 at omega = 4).  It is sampled once,
    one exponential per point and lam node, and taken once to its P
    Chebyshev coefficients per lam node, which serve every span: the lam
    contraction of a block's spans is one matrix product of their
    weighted coarse factors against P columns of coefficients, and each
    span restores its offsets by its Chebyshev rows times the carrier.  A
    block forms the coarse factors e^{i sign b_lam E_a} of its own spans,
    so no lam x spans table is held.
    Consecutive spans share one set of rows while their offsets agree with
    the first one's within b_max |delta s| <= 1e-12 rad (the spans of a
    uniform run), across blocks too.  Where P would not be below the
    largest span's radius count (which also ends the search when
    ``_PHASE_TOL`` is 0), or L = 0 (every radius at one E), the sum is
    taken at each radius, which is exact, ``_BLOCK // n_lam`` radii at a
    time.

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
    cap, omega = int(np.max(np.diff(cuts))), 0.25 * length * (b_max - b_min)
    n = next((n for n in range(2, cap)
              if _offset_bound(omega, n) < _PHASE_TOL), cap)
    if n >= cap or not length > 0.0:
        step = max(1, _BLOCK // n_lam)
        for i0 in range(0, e.size, step):
            yield (order[i0:i0 + step],
                   wts.T @ np.exp(1j * sign * np.outer(b_lam, e[i0:i0 + step])))
        return
    offsets = _Lobatto(0.0, length)
    nodes = np.exp(1j * sign * np.outer(offsets.points(n), b_lam - b_c))
    # their Chebyshev coefficients, one column per lam node
    coef = (_Lobatto.coefficients(n) @ nodes.view(np.float64)).view(complex)
    del nodes  # before the blocks' products

    n_span = len(cuts) - 1
    limit = _RADII_BLOCK if n_col > 1 else e.size
    s_own = basis = None
    a = 0
    while a < n_span:
        # the block: spans [a, g)
        g = a + 1
        while g < n_span and cuts[g + 1] - cuts[a] <= limit:
            g += 1
        coarse = np.exp(1j * sign * np.outer(b_lam, e[cuts[a:g]]))
        wc = (wts[:, :, None] * coarse[:, None, :]).reshape(n_lam, -1)
        prod = (wc.T @ coef.T).reshape(n_col, g - a, n)
        del wc  # before the offsets are restored
        sums = np.empty((n_col, cuts[g] - cuts[a]), dtype=complex)
        # spans [p, j) share the rows of the offsets s_own; they are
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
                    prod[:, p - a:j - a].reshape(-1, n) @ basis
                ).reshape(n_col, -1)
            if j < g:
                s_own, p = s, j
                basis = offsets.rows(n, s) * np.exp(1j * sign * b_c * s)
        del prod
        yield order[cuts[a]:cuts[g]], sums
        a = g


@_clib.one_blas_thread()
def comparison_state(model: ManifoldModel, h: SpectralProfile, t: float,
                     r: Optional[np.ndarray] = None,
                     sign: int = +1) -> Tuple[np.ndarray, np.ndarray]:
    """U^+-(t) h by frequency quadrature of the WKB eigenfunctions on the
    lam nodes of :func:`frequency_nodes` (the module docstring describes
    the factored sum).

    The phase is split as Phi_lam(r) = b_lam E(r) + psi_lam(r), both
    taken at each radius on its own (:func:`_cutoff_length`,
    :func:`_psi`).  The amplitude A(lam, r) = (2|lam - q1|)^{-1/4}
    e^{+-i psi_lam(r)} is interpolated within ``_AMP_TOL`` of max|A| on
    fixed panels in r and in lam, or taken at the radii or lam nodes
    themselves where the levels run out, and cut to its numerical rank k
    (:func:`_amplitude_factors`); on a tail-free end (A = 0) psi = 0 and
    its factors are rank one.  The weights of a factor are (h times its
    lam basis) times e^{-+ i t lam}, in that order, and in the one loop
    over the blocks of :func:`_plane_wave_blocks` the k amplitude rows at
    a block's radii contract the block's plane-wave sums of those
    weights, so the sums run over k columns, not over the lam level's,
    and the amplitude is never held at every radius.  An empty set of
    radii gives an empty state.  Other radii reach the
    value at a radius only through the largest (which sizes the lam grid
    and the panels) and the levels accepted: keeping every 50th radius of the
    dynamics grid moves the state by <= 5e-13 of its largest value on
    presets A and C.  No C kernel is involved.
    """
    prof = model.ends[h.end]
    lam0 = prof.lambda0
    r_lam = model.r_lambda(h.lam_lo)
    if r is None:
        r = dynamics_grid(model, h, t)
    r = np.asarray(r, dtype=float)
    if not r.size:
        return r, np.zeros(0, dtype=complex)
    lam, hv = frequency_nodes(model, h, t, r)
    live = hv != 0.0
    lam, hv = lam[live], hv[live]

    eta_r = eta(r, r_lam)
    b_lam = np.sqrt(2.0 * (lam - lam0))
    e_t = np.exp(-1j * sign * t * lam)
    e_of_r = _cutoff_length(r, r_lam)

    out = np.zeros(r.shape, dtype=complex)
    if lam.size and np.any(eta_r > 0.0):
        live = np.flatnonzero(eta_r > 0.0)
        basis, rows = _amplitude_factors(prof, r_lam, lam, r[live], sign)
        wts = hv[:, None] * basis * e_t[:, None]
        for k, sums in _plane_wave_blocks(eta_r, e_of_r, b_lam, wts, sign):
            out[live[k]] = np.einsum("jr,jr->r", rows(k), sums)
    out *= eta_r / (sign * 2.0j * np.pi)
    return r, out


def _amplitude_factors(prof, r_lam: float, lam: np.ndarray, r: np.ndarray,
                       sign: int) -> Tuple[np.ndarray, Callable]:
    """Factors of A(lam, r) = (2 |lam - q1|)^{-1/4} e^{i sign psi_lam(r)}
    at the amplitude's numerical rank k: (basis, rows_at), the k basis
    columns on the live lam nodes ``lam`` (ascending), and a function
    that gives the k rows at any index array of the radii ``r`` >
    r_lam/2, one column per index; basis @ rows within _AMP_TOL of
    max|A|.

    Each panel of :func:`_panel_edges` that holds radii (in r on the
    ramp, in log r beyond) takes the first level of :class:`_Lobatto`
    that reproduces A within _AMP_TOL / 2 at the 65 Lobatto energies of
    the lam range, or its radii once the levels outnumber them.  The lam
    levels are checked at the panels' nodes within _AMP_TOL / (4 L), L
    the largest Lebesgue constant of their levels
    (:meth:`_Lobatto.lebesgue`), or the lam nodes are used.  The table
    of samples S (one row per accepted energy or lam node, one column per
    panel node) is cut by a thin SVD S = U Sigma V^H to its k leading
    triplets: a dropped rest is at most sigma_k
    entrywise (sigma_0 the largest), and at most sigma_k L_lam L at any
    (lam, r) once the lam basis (Lebesgue constant L_lam, 1 on the lam
    nodes) and the panels' bases carry it; k is the fewest for which that
    is within _AMP_TOL / 4 of max|S|, so that the three errors add up to
    at most _AMP_TOL, and nothing but exact zeros is dropped at
    _AMP_TOL = 0.  The rows are Sigma_k V_k^H and the basis is the lam
    level's Chebyshev rows at the lam nodes times the coefficients of
    U_k.  Each panel's part of the rows reaches its radii by real
    products, the Chebyshev rows of a chunk of ``_RADII_BLOCK`` of its
    radii (the last chunk holding the rest) times the (re, im) pairs of
    the panel's coefficients, taken when a chunk is first
    asked for and kept until another one is: a row is the same bits
    whatever index array asks for it, and no array of k rows at every
    radius is formed.  On a tail-free end psi = 0 and A does not depend
    on r: the factors are rank one, the column (2 |lam - lam0|)^{-1/4}
    as the basis and, at any radii, a read-only broadcast of 1."""
    if prof.tail_amplitude == 0.0:
        return ((2.0 * np.abs(lam - prof.lambda0))[:, None] ** -0.25,
                lambda idx: np.broadcast_to(np.complex128(1.0), (1, idx.size)))

    def amplitude(lam_pts, rr):
        return (np.exp(1j * sign * _psi(prof, r_lam, lam[0], lam_pts, rr))
                / np.sqrt(np.sqrt(2.0 * np.abs(lam_pts[:, None] - prof.q1(rr)))))

    energies = _Lobatto(lam[0], lam[-1])
    rows = energies.points(65)
    edges = _panel_edges(r_lam, float(np.max(r)))
    panel = np.searchsorted(edges, r) - 1          # r in (e_q, e_q+1]
    owned = np.flatnonzero(np.bincount(panel))
    # a panel's coordinate: r on the ramp, log r beyond, and its radii
    x = np.where(panel < _RAMP_PANELS, r, np.log(r))
    lo, hi = (np.where(owned < _RAMP_PANELS, e, np.log(e))
              for e in (edges[owned], edges[owned + 1]))
    spans = [_Lobatto(a, b) for a, b in zip(lo, hi)]
    radii = [np.asarray if q < _RAMP_PANELS else np.exp for q in owned]
    # the levels up to 17 read one pass over the 33 points of every panel
    pre = amplitude(rows, np.concatenate([to_r(span.points(33))
                                          for to_r, span in zip(radii, spans)]))
    pre = pre.T.reshape(owned.size, 33, rows.size)

    panels, nodes, table, lebesgue = [], [], [], 1.0
    for i, q in enumerate(owned):
        cols = np.flatnonzero(panel == q)
        vals = spans[i].sample(
            lambda xi, to_r=radii[i]: amplitude(rows, to_r(xi)).T.copy(),
            cols.size, 0.5 * _AMP_TOL, finer=pre[i])
        n = None if vals is None else vals.shape[0]
        panels.append((cols, n))
        if n is None:
            nodes.append(r[cols])
            table.append(amplitude(rows, r[cols]))
        else:
            nodes.append(radii[i](spans[i].points(n)))
            table.append(vals.T)
            lebesgue = max(lebesgue, _Lobatto.lebesgue(n))
    # the lam levels up to 33 read the panels' samples at the 65 energies
    nodes, table = np.concatenate(nodes), np.concatenate(table, axis=1)
    samples = energies.sample(lambda lam_pts: amplitude(lam_pts, nodes),
                              lam.size, 0.25 * _AMP_TOL / lebesgue,
                              finer=table)
    del pre, table
    if samples is None:   # the lam nodes themselves: the identity basis
        samples, level, spread = amplitude(lam, nodes), None, 1.0
    else:
        level = samples.shape[0]
        spread = _Lobatto.lebesgue(level)
    # the numerical rank: dropped triplets move A by <= sigma_k spread lebesgue
    u, sigma, vh = np.linalg.svd(samples, full_matrices=False)
    k = np.count_nonzero(sigma * (spread * lebesgue)
                         > 0.25 * _AMP_TOL * np.max(np.abs(samples)))
    basis = u[:, :k]
    if level is not None:   # U_k's coefficients, at the lam nodes
        basis = energies.rows(level, lam).T @ (_Lobatto.coefficients(level) @ basis)
    samples = sigma[:k, None] * vh[:k]

    # each panel's radii in chunks of _RADII_BLOCK (the last one holds the
    # rest); a chunk's rows are one real product, its Chebyshev rows times
    # the (re, im) pairs of the panel's coefficients, or the samples at the
    # radii
    chunks, chunk_of, start = [], np.empty(r.size, dtype=np.intp), 0
    for i, (cols, n) in enumerate(panels):
        own = samples[:, start:start + (n or cols.size)]
        start += own.shape[1]
        if n is None:
            chunk_of[cols] = len(chunks)
            chunks.append((cols, lambda own=own: own))
            continue
        pairs = _Lobatto.coefficients(n) @ own.T.copy().view(np.float64)
        cuts = np.arange(_RADII_BLOCK, cols.size - _RADII_BLOCK + 1, _RADII_BLOCK)
        for part in np.split(cols, cuts):
            chunk_of[part] = len(chunks)
            chunks.append((part, lambda span=spans[i], n=n, xs=x[part], pairs=pairs:
                           (span.rows(n, xs).T @ pairs).view(complex).T))
    kept = [-1, None]   # the chunk last carried to its radii, and its rows

    def rows_at(idx):
        out = np.empty((k, idx.size), dtype=complex)
        of = chunk_of[idx]
        for c in range(of.min(), of.max() + 1):
            at = np.flatnonzero(of == c)
            if not at.size:
                continue
            cols, carry = chunks[c]
            if kept[0] != c:
                kept[:] = c, carry()
            if at[-1] - at[0] + 1 == at.size:
                at = slice(at[0], at[-1] + 1)
            out[:, at] = kept[1][:, np.searchsorted(cols, idx[at])]
        return out
    return basis, rows_at


def dollard_state(model: ManifoldModel, h: SpectralProfile, t: float,
                  r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dollard dynamics U^+(t) h at the radii r: the free (short-range)
    comparison phase

        K_sr = (r - r0)^2 / (2t) - t lam0,
        lam evaluated at lam0 + (r - r0)^2 / (2 t^2),

    with the secular correction

        K_do = K_sr - (t / (r - r0)) int_{r0}^r (q1 - lam0) ds ,

    which vanishes on a tail-free end.  The integral is the declared
    tail's closed form (:meth:`EndProfile.tail_integral`), not a sum over r.
    """
    prof = model.ends[h.end]
    lam0 = prof.lambda0
    vals = np.zeros(r.shape, dtype=complex)
    msk = r > model.r0
    rr = r[msk] - model.r0
    lam_free = lam0 + rr**2 / (2.0 * t**2)
    k = rr**2 / (2.0 * t) - t * lam0 - (t / rr) * prof.tail_integral(r[msk])
    pref = (2.0 * np.pi) ** -0.5 * np.exp(-0.75j * np.pi)
    vals[msk] = pref * np.exp(1j * k) * np.sqrt(rr) / t * h(lam_free)
    return r, vals


# ---------------------------------------------------------------------------
# phase modifiers
# ---------------------------------------------------------------------------

def phase_modifier(model: ManifoldModel, end: int, lam, kind: str = "sr"):
    """theta(lam) = int_{r0}^infty (b_kind - eta b) dr on one end.

    This is the asymptotic phase gap between the free comparison phase
    (b_kind integrated from r0) and the WKB phase used by the leading
    term (eta-cut b integrated from r0), with r_lam = r_lambda of the
    lowest lam.  b_sr uses the threshold energy only; b_do adds the
    first-order tail correction.
    With k = b_sr and t = q1 - lambda0 = A r^-p (r >= r0), the integrand is
    b_kind up to r_lam/2, integrated in closed form (t by
    ``EndProfile.tail_integral``), and (1 - eta) b_kind + eta (b_kind - b)
    beyond, with b_sr - b = 2t / (k + b) and b_do - b = 2t^2 / (k (k + b)^2)
    free of cancellation: Gauss-Legendre on the panels of
    :func:`_panel_edges` out to ``_R_TAIL``, as for psi, closed by the
    series of the declared tail beyond it (:func:`_tail_beyond`).  A
    ValueError refuses a kind that diverges on the tail A r^-p ('sr' needs
    p > 1, 'do' 2 p > 1; a tail-free end never diverges), a lam at or below
    the end's threshold lambda0 (b_sr = 0 or not real) and a lam that
    ``r_lambda`` refuses.  Vectorized over lam.
    """
    if kind not in ("sr", "do"):
        raise ValueError("kind must be 'sr' or 'do'")
    prof = model.ends[end]
    p = prof.tail_power
    if prof.tail_amplitude != 0.0 and (p if kind == "sr" else 2.0 * p) <= 1.0:
        raise ValueError(f"phase modifier diverges for kind={kind!r} on end "
                         f"{end} (tail power {p!r})")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam0 = prof.lambda0
    if not np.all(lam_arr > lam0):
        raise ValueError(f"phase modifier needs lam above the threshold "
                         f"lambda0 = {lam0!r} of end {end}, got lam = "
                         f"{float(lam_arr[~(lam_arr > lam0)][0])!r}")
    # r_lam >= 2 r0, and b is real beyond r_lam / 2 at every lam
    r_lam = model.r_lambda(float(lam_arr.min()))
    k = np.sqrt(2.0 * (lam_arr - lam0))
    kk = k[:, None, None]

    def integrand(s):
        t, cut = prof.tail(s), eta(s, r_lam)
        b = np.sqrt(np.maximum(kk**2 - 2.0 * t, 0.0))
        if kind == "sr":
            return (1.0 - cut) * kk + cut * 2.0 * t / (kk + b)
        return (1.0 - cut) * (kk - t / kk) + cut * 2.0 * t**2 / (kk * (kk + b) ** 2)

    theta = k * (0.5 * r_lam - model.r0)
    if kind == "do":
        theta = theta - prof.tail_integral(0.5 * r_lam) / k
    edges = _panel_edges(r_lam, _R_TAIL)
    theta = theta + _from_edge(edges, integrand, np.array([_R_TAIL]))[:, 0]
    if prof.tail_amplitude != 0.0:
        theta = theta + _tail_beyond(prof, lam_arr, kind, _R_TAIL)
    return theta if np.ndim(lam) else float(theta[0])


def _tail_beyond(prof, lam: np.ndarray, kind: str, R: float) -> np.ndarray:
    """int_R^infty (b_kind - b) dr where q1 = lam0 + A r^-p.  With k = b_sr
    and u = A r^-p / (lam - lam0), b = k sqrt(1 - u), so b_sr - b =
    k sum_{n>=1} c_n u^n and b_do - b = k sum_{n>=2} c_n u^n, each
    u^n integrating to R u(R)^n / (n p - 1): k R times
    :func:`_tail_series` to infinity.  A divergent |u(R)| >= 1 is
    refused."""
    lam0, p = prof.lambda0, prof.tail_power
    u = prof.tail_amplitude * R ** -p / (lam - lam0)
    if np.any(np.abs(u) >= 1.0):
        raise ValueError(f"the tail series diverges: |u| >= 1 at r = {R:g}")
    total = _tail_series(u, p, np.inf, 1 if kind == "sr" else 2)
    return np.sqrt(2.0 * (lam - lam0)) * R * total
