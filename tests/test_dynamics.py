import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ends_scatter import _clib, dynamics
from ends_scatter.dynamics import (SpectralProfile, comparison_state,
                                   dollard_state, dynamics_grid, eikonal,
                                   hamilton_jacobi_residual, leading_term,
                                   phase_modifier, state_norm,
                                   stationary_point)
from ends_scatter.geometry import EndProfile, ManifoldModel, eta
from ends_scatter.mode_reduction import RadialGrid
from ends_scatter.oracle import reference_comparison_state
from ends_scatter.presets import _CATALOGUE, model_a, model_c

# a silent inf or NaN in a quadrature or series fails the suite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# ---------------------------------------------------------------------------
# spectral profiles
# ---------------------------------------------------------------------------

def test_bump_profile_support_and_norm():
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    lam = np.linspace(0.0, 1.5, 301)
    vals = h(lam)
    assert np.all(vals[(lam <= 0.3) | (lam >= 0.8)] == 0.0)
    assert h.norm() > 0.0


@given(st.floats(-3.0, 3.0))
def test_phase_modification_preserves_norm(slope):
    h = SpectralProfile.bump_profile()
    hm = h.modified(lambda lam: slope * lam)
    assert abs(hm.norm() - h.norm()) < 1e-6 * h.norm()


# ---------------------------------------------------------------------------
# stationary energy / eikonal
# ---------------------------------------------------------------------------

def test_stationary_point_free_closed_form():
    """With no reference tail the stationary energy is ballistic:
    lam_c = (r - r1)^2 / (2 t^2)."""
    model = model_a()
    t = 25.0
    r1 = 4.0   # the anchor r_lambda(1e-4) = 2 r0
    r = np.linspace(10.0, 0.9 * t, 200)
    sf = stationary_point(model, 0, t, r, lam_lo=1e-4)
    msk = sf.mask
    assert np.any(msk)
    exact = (r[msk] - r1) ** 2 / (2.0 * t**2)
    assert np.max(np.abs(sf.lam_c[msk] - exact)) < 1e-10
    assert sf.diag["residual_ok"]


def test_hamilton_jacobi_residual_small():
    model = model_a()
    r = np.linspace(12.0, 20.0, 40)
    res = hamilton_jacobi_residual(model, 0, 30.0, r, lam_lo=1e-4)
    assert np.nanmax(res) < 1e-6


def test_eikonal_free_closed_form():
    model = model_a()
    t, r1 = 25.0, 4.0   # the anchor r_lambda(1e-4) = 2 r0
    r = np.linspace(10.0, 20.0, 50)
    sf = stationary_point(model, 0, t, r, lam_lo=1e-4)
    msk = sf.mask
    exact = (r[msk] - r1) ** 2 / (2.0 * t)  # int b - t lam = (r-r1)^2/2t
    assert np.max(np.abs(sf.k1[msk] - exact)) < 1e-8


# ---------------------------------------------------------------------------
# comparison states
# ---------------------------------------------------------------------------

def test_leading_term_isometry_short():
    model = model_a()
    h = SpectralProfile.bump_profile()
    for t in (15.0, 60.0):
        r, vals, _ = leading_term(model, h, t)
        assert abs(state_norm(r, vals) - h.norm()) < 1e-8


def test_comparison_approaches_leading_term():
    model = model_a()
    h = SpectralProfile.bump_profile()
    errs = []
    for t in (20.0, 80.0):
        r, u0, _ = leading_term(model, h, t)
        _, u = comparison_state(model, h, t, r=r)
        errs.append(state_norm(r, u - u0))
    assert errs[1] < 0.5 * errs[0]


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("preset", ["A", "C"])
def test_comparison_state_matches_reference(preset, sign):
    """The factored (A) and low-rank (C) frequency quadratures against the
    node-by-node sum, on the radii the callers use: the dynamics grid,
    the lab-grid nodes of both ends (end 1 descends) and a non-uniform
    set, which the factored sum must hand to its spans in E.  C at
    t = 160 needs more than the first 9 interpolation nodes in lam: that
    level alone is off by more than 1e-4 there."""
    model = {"A": model_a, "C": model_c}[preset]()
    grid = RadialGrid(80.0, 0.02)
    h0 = SpectralProfile.bump_profile(center=0.55, width=0.25)
    cases = [(40.0, 0, dynamics_grid(model, h0, 40.0)),
             (40.0, 0, np.abs(grid.x[grid.end_mask(0)])),
             (40.0, 1, np.abs(grid.x[grid.end_mask(1)])),
             (40.0, 0, 1.0 + 80.0 * np.linspace(0.0, 1.0, 3001) ** 2)]
    if preset == "C":
        cases.append((160.0, 0, dynamics_grid(model, h0, 160.0)))
    for t, end, r in cases:
        h = SpectralProfile.bump_profile(end=end, center=0.55, width=0.25)
        _, u = comparison_state(model, h, t, r=r, sign=sign)
        ref = reference_comparison_state(model, h, t, r, sign=sign)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_comparison_state_is_exact_at_the_rank_cap(monkeypatch):
    """With an unreachable amplitude tolerance the interpolation levels
    run out and the live lam nodes themselves become the nodes."""
    monkeypatch.setattr(dynamics, "_AMP_TOL", 0.0)
    model = model_c()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    r = dynamics_grid(model, h, 10.0)
    _, u = comparison_state(model, h, 10.0, r=r)
    ref = reference_comparison_state(model, h, 10.0, r)
    assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_comparison_state_does_not_depend_on_radius_order():
    """End 1's lab-grid radii descend; the lam grid must still be sized
    by the largest radius.  Sized by the last radius (0) it would have
    257 nodes, whose trapezoid aliases of the packet reach r ~ 2500."""
    model = model_a()
    h = SpectralProfile.bump_profile(end=1, center=0.55, width=0.25)
    grid = RadialGrid(3000.0, 0.2)
    r = np.abs(grid.x[grid.end_mask(1)])
    _, u = comparison_state(model, h, 10.0, r=r)
    _, u_up = comparison_state(model, h, 10.0, r=r[::-1])
    assert np.max(np.abs(u - u_up[::-1])) <= 1e-10 * np.max(np.abs(u))


def test_comparison_state_without_openblas_is_computed_as_before(
        openblas, monkeypatch):
    """Where ``_clib`` finds no OpenBLAS, its scope leaves the thread
    count alone, and the state is computed at the caller's count: at one
    thread, the same bits as under the scope."""
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    openblas.set(1)
    _, want = comparison_state(model_a(), h, 20.0)
    monkeypatch.setattr(_clib, "_openblas", lambda: ())
    openblas.set(2)
    with _clib.one_blas_thread():
        assert openblas.counts() == [2] * len(openblas.counts())
    openblas.set(1)
    _, got = comparison_state(model_a(), h, 20.0)
    assert got.tobytes() == want.tobytes()


def _table_model():
    """A tabulated end 0 with the reference tail 0.5 r^-1.5, built as a
    config's ``table:`` end with ``q1_amplitude`` and ``q1_power`` is:
    q1 varies, so the end is not separable."""
    r = 1.0 + 0.5 * np.arange(60)
    end = EndProfile.from_table(r, r + 0.1 * np.sin(r))
    end = end.with_tail(0.5, 1.5, 2.0)
    return ManifoldModel([end, EndProfile.euclidean()], r0=2.0)


def _slow_tail_model(amplitude=0.3):
    """A Euclidean end 0 with the reference tail 0.3 r^-0.5: 2 p = 1, so
    the n = 2 term of psi's tail series takes its log form."""
    end = EndProfile.euclidean().with_tail(amplitude, 0.5, 2.0)
    return ManifoldModel([end, EndProfile.euclidean()], r0=2.0)


@pytest.mark.parametrize("case", ["C", "C attractive", "table", "p = 0.5"])
def test_phase_split_matches_adaptive_quadrature(case):
    """E(r) and psi_lam(r), each radius on its own, against
    scipy.integrate.quad of eta_lambda and of eta_lambda (sqrt(2 (lam -
    q1)) - b_lam) from r_lam/2 (in the cancellation-free form), split at
    the cutoff's ends: on the ramp and at its ends, on the log panels,
    and far out where psi is the tail series.  On C's attractive mirror
    image |u| > 1/2 at r_lam = 4, so the quadrature runs on past r_lam
    before the series takes over."""
    from scipy.integrate import quad

    model = {"C": model_c, "C attractive": lambda: model_c(amplitude=-1.0),
             "table": _table_model, "p = 0.5": _slow_tail_model}[case]()
    prof = model.ends[0]
    lam_lo = 0.31
    r_lam = model.r_lambda(lam_lo)
    lam = np.array([lam_lo, 0.55, 0.79])
    r = np.concatenate((r_lam * np.array([0.5, 0.5001, 0.6, 0.77, 0.999, 1.0,
                                          1.4, 3.0, 7.7]),
                        [200.0, 3000.0]))
    ends = [0.5 * r_lam, r_lam]

    def split(a, b):
        return [a] + [e for e in ends if a < e < b] + [b]

    def integral(fn, b):
        pts = split(0.5 * r_lam, b)
        return sum(quad(fn, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
                   for lo, hi in zip(pts[:-1], pts[1:]))

    e_ref = [integral(lambda s: float(eta(s, r_lam)), b) for b in r]
    assert np.allclose(dynamics._cutoff_length(r, r_lam), e_ref,
                       rtol=1e-13, atol=1e-13)
    psi = dynamics._psi(prof, r_lam, lam_lo, lam, r)
    for row, lam_i in zip(psi, lam):
        b = np.sqrt(2.0 * (lam_i - prof.lambda0))

        def integrand(s):
            tail = float(prof.q1(s)) - prof.lambda0
            return float(eta(s, r_lam)) * -2.0 * tail / (
                np.sqrt(2.0 * (lam_i - prof.lambda0) - 2.0 * tail) + b)

        ref = np.array([integral(integrand, x) for x in r])
        assert np.all(np.abs(row - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("preset", ["A", "C"])
def test_comparison_state_vanishes_inside_the_cutoff(preset):
    """Radii up to r_lam/2, where eta_lambda = 0, give zeros: no panel
    holds them."""
    model = {"A": model_a, "C": model_c}[preset]()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    r = np.linspace(0.5, 0.5 * model.r_lambda(h.lam_lo), 40)
    _, u = comparison_state(model, h, 10.0, r=r)
    assert np.array_equal(u, np.zeros(r.shape, dtype=complex))


@pytest.mark.parametrize("preset", ["A", "C"])
def test_comparison_state_does_not_depend_on_the_other_radii(preset):
    """E and psi are taken at each radius on their own, so keeping every
    50th radius of the dynamics grid (spacing 1.0 instead of 0.02) moves
    the state at the kept radii by at most 1e-10 of its largest value; a
    trapezoid sum over the radii moved it by 1.9e-3 (A, t = 40)."""
    model = {"A": model_a, "C": model_c}[preset]()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    for t in (40.0, 320.0):
        r = dynamics_grid(model, h, t)
        _, u = comparison_state(model, h, t, r=r)
        _, u_thin = comparison_state(model, h, t, r=r[::50])
        assert np.max(np.abs(u_thin - u[::50])) <= 1e-10 * np.max(np.abs(u))


@pytest.mark.parametrize("n_col", [1, 33])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("layout", ["ascending", "descending", "broken", "short",
                                    "long ramp", "two spacings", "one lam",
                                    "one E", "zero tolerance"])
def test_plane_wave_sums_match_the_node_sum(monkeypatch, n_col, sign, layout):
    """The span sums against the node-by-node sum on a uniform run of
    about seven spans in E, behind a cutoff ramp (0 < eta < 1) and a
    radius with eta = 0 (left at 0).  'broken' moves one radius off the
    run's spacing, so its span and the next need bases of their own.
    'short' keeps every 100th radius: 20 live radii, fewer than the 23
    offset nodes the budget needs, so the exact sum with no Chebyshev
    rows formed.
    'zero tolerance' is the run with ``_PHASE_TOL`` = 0, which no node
    count meets: the search stops at the largest span's radius count, and
    the sum is exact.  'long ramp' puts 1200 radii on the ramp.  'two
    spacings' follows the run by a stretch whose spacing is 1e-7 larger:
    its spans hold as many radii as the run's, and the rows must not be
    reused across the change.  'one lam' has a single lam node (b_max =
    b_min, so one span over the whole E range), and 'one E' puts every
    live radius at one E (L = 0: the exact sum).  The blocks are
    scattered to the radii here, and together they hold every live
    radius once."""
    rng = np.random.default_rng(7)
    lam = np.linspace(0.3, 0.8, 301)
    r = np.linspace(2.0, 202.0, 2001)
    eta_r = np.ones(r.size)
    eta_r[:20] = np.linspace(0.0, 1.0, 21)[:-1]
    if layout == "descending":
        r, eta_r = r[::-1].copy(), eta_r[::-1].copy()
    if layout == "broken":
        r[700] += 1e-3
    if layout == "short":
        r, eta_r = r[::100].copy(), eta_r[::100].copy()
    if layout == "long ramp":
        eta_r[:1200] = np.linspace(0.0, 1.0, 1201)[:-1]
    if layout == "two spacings":
        r[1000:] = r[1000] + 0.1 * (1.0 + 1e-7) * np.arange(r.size - 1000)
    if layout == "one lam":
        lam = lam[150:151]
    e_of_r = r - 1.5
    if layout == "one E":
        e_of_r = np.full(r.size, 7.25)
    b_lam = np.sqrt(2.0 * lam)
    wts = (rng.standard_normal((lam.size, n_col))
           + 1j * rng.standard_normal((lam.size, n_col)))
    live = np.flatnonzero(eta_r > 0.0)
    bounds = []
    if layout == "zero tolerance":
        monkeypatch.setattr(dynamics, "_PHASE_TOL", 0.0)
        offset_bound = dynamics._offset_bound
        monkeypatch.setattr(dynamics, "_offset_bound", lambda *args:
                            bounds.append(args) or offset_bound(*args))
    if layout in ("short", "one E", "zero tolerance"):
        def no_rows(*args):
            raise AssertionError("an interpolant where the sum is exact")
        monkeypatch.setattr(dynamics._Lobatto, "rows", no_rows)
    got = np.zeros((n_col, r.size), dtype=complex)
    held = []
    for k, sums in dynamics._plane_wave_blocks(eta_r, e_of_r, b_lam, wts, sign):
        got[:, live[k]] = sums
        held.append(k)
    assert np.array_equal(np.sort(np.concatenate(held)), np.arange(live.size))
    if layout == "zero tolerance":
        # each count from 2 on is asked once, up to the largest span's
        # radius count, L / 0.1 + 1 = 327 (L = 32.6, the run's spacing 0.1)
        assert [n for _, n in bounds] == list(range(2, 327))
    ref = wts.T @ np.exp(1j * sign * np.outer(b_lam, e_of_r))
    ref[:, eta_r == 0.0] = 0.0
    bound = 1e-13 * np.sum(np.abs(wts), axis=0)
    assert np.all(np.max(np.abs(got - ref), axis=1) <= bound)


@pytest.mark.parametrize("preset", sorted(_CATALOGUE))
def test_tail_free_ends_have_rank_one_amplitude_factors(preset):
    """On every tail-free end of the presets psi = 0 and the amplitude
    does not depend on r: its factors are the column (2 |lam -
    lam0|)^{-1/4} and, at any radii, one row that is a read-only
    broadcast of 1, so the plane-wave sums run once and not once per lam
    level (33 of them on C)."""
    model = _CATALOGUE[preset]()
    checked = 0
    for end, prof in enumerate(model.ends):
        if prof.tail_amplitude != 0.0:
            continue
        h = SpectralProfile.bump_profile(end=end, center=prof.lambda0 + 0.55,
                                         width=0.25)
        r_lam = model.r_lambda(h.lam_lo)
        r = dynamics_grid(model, h, 40.0)
        lam, hv = dynamics.frequency_nodes(model, h, 40.0, r)
        lam = lam[hv != 0.0]
        live = r[eta(r, r_lam) > 0.0]
        basis, rows = dynamics._amplitude_factors(prof, r_lam, lam, live, +1)
        amp = rows(np.arange(live.size))
        assert amp.shape == (1, live.size) and np.all(amp == 1.0)
        assert not amp.flags.writeable
        column = (2.0 * np.abs(lam - prof.lambda0)) ** -0.25
        assert basis.tobytes() == column[:, None].tobytes()
        checked += 1
    assert checked


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("t", [10.0, 320.0])
def test_amplitude_factors_keep_the_numerical_rank(monkeypatch, t, sign):
    """On C's tail the factors keep fewer rows than the 33 energies of the
    accepted lam level (10 at t = 10, 13 at t = 320 measured), and the
    basis times the rows at the radii is the amplitude (2 |lam -
    q1|)^{-1/4} e^{+-i psi_lam(r)} taken directly at sampled (lam node,
    radius) pairs within _AMP_TOL of its largest modulus."""
    model = model_c()
    prof = model.ends[0]
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    r_lam = model.r_lambda(h.lam_lo)
    r = dynamics_grid(model, h, t)
    lam, hv = dynamics.frequency_nodes(model, h, t, r)
    lam = lam[hv != 0.0]
    live = r[eta(r, r_lam) > 0.0]
    sample, levels = dynamics._Lobatto.sample, []

    def recorded(self, *args, **kwargs):
        levels.append(sample(self, *args, **kwargs))
        return levels[-1]

    monkeypatch.setattr(dynamics._Lobatto, "sample", recorded)
    basis, rows = dynamics._amplitude_factors(prof, r_lam, lam, live, sign)
    i = np.linspace(0, lam.size - 1, 41).astype(int)
    j = np.linspace(0, live.size - 1, 401).astype(int)
    amp = rows(j)
    # the last level sampled is the lam level
    assert amp.shape[0] < levels[-1].shape[0] == 33
    psi = dynamics._psi(prof, r_lam, lam[0], lam[i], live[j])
    want = (np.exp(1j * sign * psi)
            * (2.0 * np.abs(lam[i, None] - prof.q1(live[j]))) ** -0.25)
    got = basis[i] @ amp
    bound = dynamics._AMP_TOL * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("t", [10.0, 320.0])
def test_amplitude_rows_do_not_depend_on_the_index_set(t, sign):
    """On C's tail the amplitude rows at the radii of each block of
    _plane_wave_blocks (as comparison_state asks for them), at a random
    permutation of the radii and at single radii are the rows taken at
    every radius at once, bit for bit: a radius's row always comes from
    the one product of its chunk of the panel's radii, whatever else is
    asked with it.  A product over just the radii asked for changed the
    last row's bits in blocks and every row's at single radii (OpenBLAS
    0.3.31, C at t = 320)."""
    model = model_c()
    prof = model.ends[0]
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    r_lam = model.r_lambda(h.lam_lo)
    r = dynamics_grid(model, h, t)
    lam, hv = dynamics.frequency_nodes(model, h, t, r)
    lam, hv = lam[hv != 0.0], hv[hv != 0.0]
    eta_r = eta(r, r_lam)
    live = np.flatnonzero(eta_r > 0.0)
    basis, rows = dynamics._amplitude_factors(prof, r_lam, lam, r[live], sign)
    whole = rows(np.arange(live.size))
    assert whole.shape == (basis.shape[1], live.size)
    wts = hv[:, None] * basis * np.exp(-1j * sign * t * lam)[:, None]
    blocks = [k for k, _ in dynamics._plane_wave_blocks(
        eta_r, dynamics._cutoff_length(r, r_lam),
        np.sqrt(2.0 * (lam - prof.lambda0)), wts, sign)]
    assert len(blocks) > 1
    perm = np.random.default_rng(5).permutation(live.size)
    single = [np.array([j]) for j in np.linspace(0, live.size - 1, 97).astype(int)]
    for idx in blocks + [perm] + single:
        assert rows(idx).tobytes() == whole[:, idx].tobytes()


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("preset", ["A", "C"])
def test_comparison_state_at_no_radii_is_empty(preset, sign):
    """An empty set of radii gives an empty state, as dollard_state does,
    and not the error of sizing the lam grid by the largest radius."""
    model = {"A": model_a, "C": model_c}[preset]()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    r, u = comparison_state(model, h, 40.0, r=np.empty(0), sign=sign)
    assert r.shape == u.shape == (0,) and u.dtype == complex


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("t", [10.0, 320.0])
def test_tail_free_state_is_the_separable_sum_bit_for_bit(t, sign):
    """On A the rank-one contraction is the separable sum it replaced,
    bit for bit: one plane-wave sum with the weights h (2 |lam -
    lam0|)^{-1/4} e^{-+ i t lam}, placed at the live radii and cut by
    eta_lambda / (+-2 pi i), with BLAS on one thread as there."""
    model = model_a()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    lam0 = model.ends[0].lambda0
    r_lam = model.r_lambda(h.lam_lo)
    r = dynamics_grid(model, h, t)
    _, u = comparison_state(model, h, t, r=r, sign=sign)

    lam, hv = dynamics.frequency_nodes(model, h, t, r)
    lam, hv = lam[hv != 0.0], hv[hv != 0.0]
    g = hv * (2.0 * np.abs(lam - lam0)) ** -0.25 * np.exp(-1j * sign * t * lam)
    eta_r = eta(r, r_lam)
    live = np.flatnonzero(eta_r > 0.0)
    want = np.zeros(r.shape, dtype=complex)
    with _clib.one_blas_thread():   # as comparison_state sums
        for k, sums in dynamics._plane_wave_blocks(
                eta_r, dynamics._cutoff_length(r, r_lam),
                np.sqrt(2.0 * (lam - lam0)), g[:, None], sign):
            want[live[k]] = sums[0]
    want *= eta_r / (sign * 2.0j * np.pi)
    assert u.tobytes() == want.tobytes()


@pytest.mark.parametrize("preset", ["A", "C"])
@pytest.mark.parametrize("t", [10.0, 320.0])
def test_seeded_stationary_point_matches_the_plain_solve(monkeypatch, preset, t):
    """The Newton solve started from the spline through the coarse subset
    against the solve from the free guess (seeding disabled), on the
    dynamics grid ascending and reversed.  On A the subset needs no Newton
    step and the free guess is kept, so the results are the same bits.  On
    C at t = 10 the cone (about 940 radii) is below ``_SEED_MIN_CONE`` and
    both are the plain solve; at t = 320 (about 13 900) the seed is used."""
    model = {"A": model_a, "C": model_c}[preset]()
    r = dynamics_grid(model, SpectralProfile.bump_profile(), t)
    lam_c = []
    for radii in (r, r[::-1]):
        seeded = stationary_point(model, 0, t, radii, 0.3)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_SEED_MIN_CONE", np.inf)
            plain = stationary_point(model, 0, t, radii, 0.3)
        assert seeded.diag["residual_ok"] and plain.diag["residual_ok"]
        assert np.array_equal(seeded.mask, plain.mask)
        msk = plain.mask
        if preset == "A":
            assert np.array_equal(seeded.lam_c[msk], plain.lam_c[msk])
            assert np.array_equal(seeded.dlam_dr[msk], plain.dlam_dr[msk])
        else:
            rel = np.abs(seeded.lam_c[msk] / plain.lam_c[msk] - 1.0)
            assert np.max(rel) <= 1e-14
        lam_c.append(seeded.lam_c)
    assert np.array_equal(lam_c[1][::-1], lam_c[0], equal_nan=True)


def test_seeded_stationary_point_needs_one_newton_step(monkeypatch):
    """On C at t = 320 the seed leaves one Newton step at nearly every cone
    radius: two passes of the kernel over its Gauss samples (measured:
    12 353 of 13 884 radii, and 1 531 need none), where the free guess
    needs four or five; the subset that seeds it is every 64th radius.
    The cone search comes first, over about 2 sqrt(n) of the n radii
    beyond r1."""
    model = model_c()
    r1 = model.r_lambda(0.3)
    r = dynamics_grid(model, SpectralProfile.bump_profile(), 320.0)
    sizes, passes = [], []
    travel_time, solve = dynamics._travel_time, dynamics._solve

    def counted(half, *args):
        sizes.append(half.size)
        return travel_time(half, *args)

    def recorded(*args):
        out = solve(*args)
        passes.append(out[-1])
        return out

    monkeypatch.setattr(dynamics, "_travel_time", counted)
    monkeypatch.setattr(dynamics, "_solve", recorded)
    sf = stationary_point(model, 0, 320.0, r, 0.3)
    cone = int(np.sum(sf.mask))
    # a probe of the radii, then one bracket
    assert len(sizes) == 2 and sum(sizes) <= 2 * np.sqrt(np.sum(r > r1)) + 1
    subset, seeded = passes
    assert subset.size <= cone / 64 + 2 and seeded.size == cone
    assert np.max(seeded) <= 3 and np.median(seeded) == 2
    passes.clear()
    monkeypatch.setattr(dynamics, "_SEED_MIN_CONE", np.inf)
    stationary_point(model, 0, 320.0, r, 0.3)
    (free,) = passes
    assert np.median(free) >= 4
    assert np.sum(subset) + np.sum(seeded) < 0.6 * np.sum(free)


@pytest.mark.parametrize("shift", [-0.55, -2.0])
def test_newton_stops_wherever_the_energy_origin_sits(monkeypatch, shift):
    """Shifting C's threshold and window by the same energy moves lam_c
    by that shift and leaves the passes alike.  At -0.55 the window
    straddles lam = 0, and at -2 lam is small next to lam - q1: a stop on
    the correction alone (<= 4 eps |lam|) cycled there between two lam
    one unit of T apart until the iteration cap."""
    passes = []
    solve = dynamics._solve

    def recorded(*args):
        out = solve(*args)
        passes.append(int(np.max(out[-1])))
        return out

    monkeypatch.setattr(dynamics, "_solve", recorded)
    base = model_c()
    lam_c = []
    for s in (0.0, shift):
        model = ManifoldModel([replace(e, lambda0=e.lambda0 + s)
                               for e in base.ends], r0=base.r0)
        h = SpectralProfile.from_callable(0, 0, 0.3 + s, 0.8 + s, np.ones_like)
        r = dynamics_grid(model, h, 80.0)
        sf = stationary_point(model, 0, 80.0, r, 0.3 + s)
        assert sf.diag["residual_ok"]
        lam_c.append(sf.lam_c[sf.mask] - s)
    # the subset from the free guess, then the seeded solve, both shifts
    assert passes[:2] == passes[2:] and max(passes) <= 6
    assert np.max(np.abs(lam_c[1] - lam_c[0])) <= 1e-14 * (abs(shift) + 1.0)


def _elementwise_cone(model, end, rs, r1, t, lam_lo):
    """The propagation cone by the travel time of every radius."""
    half, q1_gl = dynamics._gauss_q1(model, end, rs, r1)
    return dynamics._travel_time(half, q1_gl, np.full(rs.shape, lam_lo)) > t


@pytest.mark.parametrize("preset", ["A", "C"])
def test_cone_search_matches_the_elementwise_test(monkeypatch, preset):
    """stationary_point finds the cone edge on a few radii and samples q1
    on the cone only; its mask, lam_c and residual are the same bits as
    with the cone tested at every radius beyond r1, at t = 10 ... 320."""
    model = {"A": model_a, "C": model_c}[preset]()
    for t in (10.0, 20.0, 40.0, 80.0, 160.0, 320.0):
        r = dynamics_grid(model, SpectralProfile.bump_profile(), t)
        got = stationary_point(model, 0, t, r, 0.3)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_cone", _elementwise_cone)
            want = stationary_point(model, 0, t, r, 0.3)
        assert np.array_equal(got.mask, want.mask)
        assert np.array_equal(got.lam_c, want.lam_c, equal_nan=True)
        assert got.diag["residual"] == want.diag["residual"]


def test_cone_search_tests_every_radius_where_travel_time_oscillates(
        monkeypatch):
    """A travel time that does not grow with r (here a stand-in that
    oscillates) sends the search back to testing every radius."""
    model = model_a()
    r1 = model.r_lambda(0.3)
    rs = np.linspace(r1 + 0.01, r1 + 400.0, 5000)[::-1]
    monkeypatch.setattr(dynamics, "_travel_time",
                        lambda half, q1_gl, lam: 10.0 + 10.0 * np.sin(half))
    want = 10.0 + 10.0 * np.sin(0.5 * (rs - r1)) > 12.0
    assert np.array_equal(dynamics._cone(model, 0, rs, r1, 12.0, 0.3), want)


def _composite_gauss(model, r1, r, lam, power):
    """int_{r1}^r (2(lam - q1))^power ds by 20-node Gauss-Legendre panels
    on 200 panels that grade from r1 outwards."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = r1 + (r - r1) * np.expm1(np.linspace(0.0, 5.0, 201)) / np.expm1(5.0)
    a, b = edges[:-1, None], edges[1:, None]
    s = 0.5 * (a + b) + 0.5 * (b - a) * x
    vals = (2.0 * (lam - model.ends[0].q1(s))) ** power
    return float(np.sum(0.5 * (b - a)[:, 0] * (vals @ w)))


@pytest.mark.parametrize("t", [10.0, 320.0])
def test_stationary_kernel_matches_a_composite_quadrature(t):
    """The kernel's travel time T, its derivative T' and int b at the
    stationary energies of 20 cone radii of C, against a composite
    quadrature of the same integrands that shares no node with the
    kernel's 48 Gauss samples."""
    model = model_c()
    r1 = model.r_lambda(0.3)
    r = dynamics_grid(model, SpectralProfile.bump_profile(), t)
    sf = stationary_point(model, 0, t, r, 0.3)
    pick = np.flatnonzero(sf.mask)[np.linspace(0, np.sum(sf.mask) - 1, 20).astype(int)]
    half, q1_gl = dynamics._gauss_q1(model, 0, r[pick], r1)
    lam = sf.lam_c[pick]
    _, T, dT, b, passes = dynamics._stationary_rows(half, q1_gl, lam, t, 0.3,
                                                    max_iter=0)
    assert np.all(passes == 1)
    for k, i in enumerate(pick):
        for got, power in ((T[k], -0.5), (-dT[k], -1.5), (b[k], 0.5)):
            want = _composite_gauss(model, r1, r[i], lam[k], power)
            assert abs(got / want - 1.0) <= 1e-12
    # the residual certificate, from the kernel's own T
    assert np.max(np.abs(T - t)) <= 1e-10 * t


def test_stationary_rows_reject_bad_arrays_before_the_kernel(monkeypatch):
    """The kernel checks nothing, so a wrong dtype, a non-contiguous
    array or a wrong length or shape raises ValueError before the foreign
    call."""
    n = 12
    good = dict(half=np.linspace(1.0, 5.0, n),
                q1_gl=np.zeros((n, dynamics._GL_NODES.size)),
                start=np.full(n, 0.5), t=3.0, lam_lo=0.01)
    bad = [("half", good["half"].astype(np.float32)),
           ("half", np.linspace(1.0, 5.0, 2 * n)[::2]),
           ("half", np.ones(n + 1)),
           ("q1_gl", good["q1_gl"][:, :-1].copy()),
           ("q1_gl", np.zeros((n, 2 * dynamics._GL_NODES.size))[:, ::2]),
           ("q1_gl", np.zeros(n * dynamics._GL_NODES.size)),
           ("q1_gl", good["q1_gl"].astype(complex)),
           ("start", np.full(n - 1, 0.5)),
           ("start", np.full((n, 1), 0.5)),
           ("start", np.full(n, 1, dtype=np.int64))]
    monkeypatch.setattr(_clib, "library",
                        lambda: pytest.fail("the kernel was called"))
    for key, value in bad:
        with pytest.raises(ValueError):
            dynamics._stationary_rows(**dict(good, **{key: value}))
    monkeypatch.undo()
    lam, T, _, _, passes = dynamics._stationary_rows(**good)
    # q1 = 0: T = 2 half / sqrt(2 lam), solved to roundoff from above and
    # from below the start (6 to 9 passes measured)
    exact = 2.0 * good["half"] ** 2 / good["t"] ** 2
    assert np.all(np.abs(lam / exact - 1.0) <= 1e-14)
    assert np.all(np.abs(T - good["t"]) <= 1e-12 * good["t"])
    assert np.max(passes) <= 12


@pytest.mark.parametrize("max_iter", [0, dynamics._MAX_ITER])
def test_one_row_of_q1_serves_every_radius_bit_for_bit(monkeypatch, max_iter):
    """One row of q1 samples, read with row stride 0, gives the bits of
    that row repeated for every radius (a row of C's tail, so a wrong
    stride would read other values); and A's tail-free end, whose q1 is
    that one row, solves as with a row of lam0 per radius."""
    model = model_c()
    r1 = model.r_lambda(0.3)
    rs = np.linspace(r1 + 1.0, r1 + 300.0, 50)
    half, q1_gl = dynamics._gauss_q1(model, 0, rs, r1)
    row = q1_gl[7:8]
    start = np.full(half.size, 0.35)
    got = dynamics._stationary_rows(half, row, start, 40.0, 0.3, max_iter)
    want = dynamics._stationary_rows(half, np.repeat(row, half.size, axis=0),
                                     start, 40.0, 0.3, max_iter)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()

    model = model_a()
    r1 = model.r_lambda(0.3)
    r = dynamics_grid(model, SpectralProfile.bump_profile(), 80.0)
    q1_gl = dynamics._gauss_q1(model, 0, r, r1)[1]
    assert q1_gl.shape == (1, dynamics._GL_NODES.size)
    one = stationary_point(model, 0, 80.0, r, 0.3)
    gauss_q1 = dynamics._gauss_q1

    def repeated(model, end, rr, r1):
        half, q1_gl = gauss_q1(model, end, rr, r1)
        return half, np.repeat(q1_gl, rr.size, axis=0)

    monkeypatch.setattr(dynamics, "_gauss_q1", repeated)
    every = stationary_point(model, 0, 80.0, r, 0.3)
    for field in ("lam_c", "dlam_dr", "k1", "mask"):
        assert getattr(one, field).tobytes() == getattr(every, field).tobytes()


def test_kernel_sums_are_the_two_lane_sums_bit_for_bit():
    """At max_iter = 0 the kernel's T, T' and int b at the start energies
    are, byte for byte, the sums of ``_stationary.c`` taken in numpy in the
    kernel's order: per row, the even samples in lane 0 and the odd ones
    in lane 1, each lane summed in order, the lanes added last, then
    times the half-length (T' negated).  The rows are C's tail, 48 Gauss
    samples each, so no sample is left for lane 0 alone.  Every operation
    is correctly rounded, the square root too, whether the build takes
    the lanes' roots in one vector instruction or in two calls."""
    model = model_c()
    r1 = model.r_lambda(0.3)
    rs = np.linspace(r1 + 1.0, r1 + 300.0, 50)
    half, q1_gl = dynamics._gauss_q1(model, 0, rs, r1)
    start = np.linspace(0.31, 0.9, rs.size)
    _, tt, dt, b, passes = dynamics._stationary_rows(half, q1_gl, start, 40.0,
                                                     0.3, max_iter=0)
    w = dynamics._GL_WEIGHTS
    st, sd, sb = np.zeros((3, rs.size, 2))
    for j in range(0, w.size, 2):
        s = np.sqrt(2.0 * (start[:, None] - q1_gl[:, j:j + 2]))
        inv = 1.0 / s
        st += w[j:j + 2] * inv
        sd += w[j:j + 2] * (inv * inv * inv)
        sb += w[j:j + 2] * s
    assert np.all(passes == 1)
    assert tt.tobytes() == (half * (st[:, 0] + st[:, 1])).tobytes()
    assert dt.tobytes() == (-(half * (sd[:, 0] + sd[:, 1]))).tobytes()
    assert b.tobytes() == (half * (sb[:, 0] + sb[:, 1])).tobytes()


def _run_in_reference(model, sf, idx):
    """The run-in phase of eikonal's K at the radii ``idx``: int_{r0}^{r1}
    eta_lambda (2 (lam_c - q1))^{1/2} by scipy's adaptive quadrature,
    split at r1/2 where the cutoff's ramp starts (r1 = r_lambda(lam_lo)
    is the cutoff's scale); the integrand is 0 below it."""
    from scipy.integrate import quad
    q1, r1 = model.ends[sf.end].q1, sf.r1

    def run_in(lam):
        fn = lambda s: float(eta(s, r1)) * np.sqrt(max(2.0 * (lam - float(q1(s))), 0.0))
        return sum(quad(fn, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                   for a, b in ((model.r0, 0.5 * r1), (0.5 * r1, r1)))

    return np.array([run_in(lam) for lam in sf.lam_c[idx]])


@pytest.mark.parametrize("t", [10.0, 320.0])
@pytest.mark.parametrize("preset", ["A", "C"])
def test_eikonal_run_in_offset_matches_the_node_sum(preset, t):
    """The run-in phase Phi_lam(r1), in closed form (A) or interpolated in
    lam (C), against an independent adaptive quadrature at 33 cone radii
    of the dynamics grid, the first and last among them."""
    model = {"A": model_a, "C": model_c}[preset]()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    _, _, sf = leading_term(model, h, t)
    cone = np.flatnonzero(sf.mask)
    idx = cone[np.linspace(0, cone.size - 1, 33).astype(int)]
    ref = sf.k1[idx] + _run_in_reference(model, sf, idx)
    assert np.max(np.abs(sf.k_full[idx] - ref)) <= 1e-12


def test_eikonal_run_in_offset_is_exact_at_the_rank_cap(monkeypatch):
    """With an unreachable phase tolerance the levels run out and the
    run-in phase is geometry's rule b_lam E(r1) + psi_lam(r1) at every
    radius."""
    monkeypatch.setattr(dynamics, "_PHASE_TOL", 0.0)
    model = model_c()
    prof = model.ends[0]
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    _, _, sf = leading_term(model, h, 10.0)
    msk = sf.mask
    lam, r1 = sf.lam_c[msk], np.array([sf.r1])
    rule = (np.sqrt(2.0 * (lam - prof.lambda0)) * dynamics._cutoff_length(r1, sf.r1)[0]
            + dynamics._psi(prof, sf.r1, h.lam_lo, lam, r1)[:, 0])
    assert np.array_equal(sf.k_full[msk], sf.k1[msk] + rule)


@pytest.mark.parametrize("kind", [float, complex])
def test_level_check_decides_as_the_complex_moduli(kind):
    """The real-arithmetic level check against max|check @ vals - new| <=
    tol max|new| in complex arithmetic (check the level's matrix), on samples of a smooth function
    over 3000 columns, accepted or refused far from the tolerance, also
    scaled by 2^600 and 2^-600 (whose squares would overflow and
    underflow), and a NaN among the samples fails."""
    n_col = 3000
    shift = np.linspace(0.0, 1.0, n_col)
    phase = 1j if kind is complex else 1.0

    def fn(y):
        return np.exp(phase * 6.0 * (y[:, None] + shift[None, :]))

    # relative errors measured: 1.6e-3, 6.2e-9, 2.3e-15 (real) and 9.1e-2,
    # 8.9e-7, 3.2e-15 (complex) at levels 9, 17, 33
    for n, tol, accept in ((9, 1e-5, False), (17, 1e-5, True),
                           (17, 1e-10, False), (33, 1e-13, True)):
        x = np.cos(np.pi * np.arange(n) / (n - 1))
        y = np.cos(np.pi * (np.arange(n - 1) + 0.5) / (n - 1))
        vals, new = fn(x), fn(y)
        err = np.max(np.abs(dynamics._Lobatto._check_matrix(n).astype(complex)
                            @ vals - new))
        want = bool(err <= tol * np.max(np.abs(new)))
        assert want == accept
        for scale in (1.0, 2.0**600, 2.0**-600):
            assert dynamics._Lobatto._accepts(scale * vals, scale * new,
                                              tol) is want
        for bad in (vals, new):
            bad[-1, -1] = np.nan
            assert not dynamics._Lobatto._accepts(vals, new, 1.0)
            bad[-1, -1] = 0.0


def test_levels_read_from_a_finer_level_and_stop_at_the_cap():
    """Samples read by stride from a finer level's accept the level and
    the values that sampling from scratch accepts, without calling the
    function; no level is accepted once the next one would reach the
    cap, nor on an interval of one point."""
    levels = dynamics._Lobatto(0.3, 2.0)
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.exp(5j * x)[:, None] * np.array([1.0, -2.0, 0.5j])

    scratch = levels.sample(fn, 1000, 1e-12)
    assert scratch.shape == (33, 3) and calls == [9, 8, 16, 32]
    finer = fn(levels.points(65))
    calls.clear()
    read = levels.sample(fn, 1000, 1e-12, finer=finer)
    assert calls == [] and np.array_equal(read, scratch)
    # 33 points hold the levels up to 17; the next ones are sampled
    read = levels.sample(fn, 1000, 1e-12, finer=finer[::2])
    assert calls == [32] and np.array_equal(read, scratch)
    for known in (None, finer):
        assert levels.sample(fn, 65, 1e-12, finer=known) is None
        assert np.array_equal(levels.sample(fn, 66, 1e-12, finer=known), scratch)
    assert dynamics._Lobatto(1.0, 1.0).sample(fn, 1000, 1.0) is None


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 3.0, 4.0])
def test_offset_bound_holds_up_to_the_certified_count(omega):
    """The interpolant of e^{i w x}, w = +-omega, in n Lobatto points,
    evaluated from its Chebyshev coefficients at 1e4 points of [-1, 1],
    is within the bound for every n from 2 to the fewest certified, up to
    the rounding of that evaluation for unit samples, with x = omega/2:
    each coefficient is a sum of n terms whose weights add to at most 2,
    so it is within 2 (n + 8) u in each of its real and imaginary parts
    (8 u for the rounded cosines of the DCT-I matrix), and n of them meet
    rows |T_k| <= 1; the recurrence's rows are within 3/2 k^2 u of T_k,
    weighed by |c_k| <= 2 x^k/k! (the bound's own Jacobi-Anger estimate),
    which sums to 3 e^x (x^2 + x) u; and the sum of the n products adds
    n u sum_k |c_k| <= 2 n e^x u.  That allowance matters only near the
    certified count, where the bound (5e-16 at omega = 0.5) is below the
    rounding measured (8e-16, at most 8.5 u above the bound); below it
    the bound is within 1.4 times the error.  At the certified count the
    error is within _PHASE_TOL (8e-16 to 5.2e-15 measured)."""
    unit = dynamics._Lobatto(-1.0, 1.0)
    x = np.linspace(-1.0, 1.0, 10**4)
    u = np.finfo(float).eps / 2.0
    half = 0.5 * omega
    n = 2
    while True:
        bound = dynamics._offset_bound(omega, n)
        rounding = u * (2.0 * np.sqrt(2.0) * n * (n + 8)
                        + (3.0 * half * (half + 1.0) + 2.0 * n) * np.exp(half))
        rows = unit.rows(n, x).T
        for w in (omega, -omega):
            coef = dynamics._Lobatto.coefficients(n) @ np.exp(1j * w * unit.points(n))
            err = np.max(np.abs(rows @ coef - np.exp(1j * w * x)))
            assert err <= bound + rounding
        if bound < dynamics._PHASE_TOL:
            break
        n += 1
    assert err <= dynamics._PHASE_TOL


@pytest.mark.parametrize("n", [2, 3, 9, 23, 33, 65])
def test_lobatto_coefficients_and_rows_match_numpy_chebyshev(n):
    """The coefficients of samples at the n Lobatto points of [0.3, 2]
    (three columns, one complex) are numpy's least-squares ``chebfit`` of
    them at degree n - 1, which interpolates, within 4 n u of the largest
    sample (each is a sum of n terms whose weights add to at most 2;
    16 u measured at n = 65); at 1000 random points of the interval the
    rows times them, and Clenshaw's recurrence on the real columns, are
    ``chebval`` (Clenshaw's recurrence in numpy) within 4 n u sum |c_k|
    (7 u measured)."""
    from numpy.polynomial import chebyshev

    levels = dynamics._Lobatto(0.3, 2.0)
    u = np.finfo(float).eps / 2.0
    x = levels.points(n)
    f = np.stack([np.exp(np.sin(3.0 * x)), np.cos(7.0 * x) + 1j * np.exp(-x),
                  1.0 / (1.0 + x * x)], axis=1)
    coef = dynamics._Lobatto.coefficients(n) @ f
    fit = chebyshev.chebfit((x - 1.15) / 0.85, f, n - 1)
    assert np.max(np.abs(coef - fit)) <= 4 * n * u * np.max(np.abs(f))
    xr = np.random.default_rng(n).uniform(0.3, 2.0, 1000)
    want = chebyshev.chebval((xr - 1.15) / 0.85, coef)
    tol = 4 * n * u * np.sum(np.abs(coef), axis=0)
    assert np.all(np.max(np.abs(levels.rows(n, xr).T @ coef - want.T), axis=0) <= tol)
    for k in (0, 2):
        assert (np.max(np.abs(levels.clenshaw(coef[:, k].real, xr) - want[k]))
                <= tol[k])


@pytest.mark.parametrize("preset", ["A", "C"])
def test_benchmark_windows_take_23_offset_nodes(monkeypatch, preset):
    """On the windows the benchmark draws (centre 0.52 ... 0.58, width
    0.25) at t = 10 and 320 every span's offsets are restored from 23
    nodes, where the spans spend the whole phase budget (omega = 4); on A
    at t = 10 the live E range (26.5 ... 27.1) is shorter than L
    (31.9 ... 33.9), omega = 3.2 ... 3.3, and 21 nodes are certified."""
    model = {"A": model_a, "C": model_c}[preset]()
    prof = model.ends[0]
    counts = []
    rows = dynamics._Lobatto.rows
    monkeypatch.setattr(dynamics._Lobatto, "rows", lambda self, n, x:
                        counts[-1].add(n) or rows(self, n, x))
    for center in (0.52, 0.58):
        h = SpectralProfile.bump_profile(center=center, width=0.25)
        r_lam = model.r_lambda(h.lam_lo)
        for t in (10.0, 320.0):
            r = dynamics_grid(model, h, t)
            lam, hv = dynamics.frequency_nodes(model, h, t, r)
            lam, hv = lam[hv != 0.0], hv[hv != 0.0]
            counts.append(set())
            for _ in dynamics._plane_wave_blocks(
                    eta(r, r_lam), dynamics._cutoff_length(r, r_lam),
                    np.sqrt(2.0 * (lam - prof.lambda0)), hv[:, None], +1):
                pass
            assert counts[-1] == {21 if (preset, t) == ("A", 10.0) else 23}


def test_dynamics_grid_holds_the_front():
    model = model_a()
    t = 50.0
    r = dynamics_grid(model, SpectralProfile.bump_profile(), t)
    assert r[-1] > t * np.sqrt(2.0 * 0.8)
    assert r[0] == model.r0 / 2.0


def test_dynamics_grid_reads_the_threshold_and_anchor_of_the_profile():
    """On B's hyperbolic end (lambda0 = 1/8) the grid reaches the anchor
    r_lambda(lam_lo) = 2 r0 plus 1.25 t sqrt(2 (lam_hi - 1/8)) plus 10
    from r0/2, with at most 0.02 between nodes."""
    model = _CATALOGUE["B"]()
    h = SpectralProfile.bump_profile(end=1, center=0.125 + 0.55, width=0.25)
    t = 40.0
    rmax = (model.r_lambda(h.lam_lo)
            + 1.25 * t * np.sqrt(2.0 * (h.lam_hi - 0.125)) + 10.0)
    n = int(np.ceil((rmax - model.r0 / 2.0) / 0.02))
    assert model.ends[1].lambda0 == 0.125 and model.r_lambda(h.lam_lo) == 2.0 * model.r0
    assert np.array_equal(dynamics_grid(model, h, t),
                          np.linspace(model.r0 / 2.0, rmax, n + 1))


# ---------------------------------------------------------------------------
# blocks of radii
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["A", "C"])
def test_radius_blocks_do_not_change_the_states(monkeypatch, preset):
    """The leading term, its eikonal and the comparison state at
    t = 10 ... 320 are the same arrays with blocks of 7 radii as with one
    block larger than any grid, and every interpolant accepts the same
    level."""
    model = {"A": model_a, "C": model_c}[preset]()
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    sample = dynamics._Lobatto.sample
    levels = []

    def recorded(self, fn, cap, tol, finer=None):
        vals = sample(self, fn, cap, tol, finer)
        levels[-1].append(None if vals is None else vals.shape)
        return vals

    monkeypatch.setattr(dynamics._Lobatto, "sample", recorded)
    runs = []
    for block in (7, 10**9):
        monkeypatch.setattr(dynamics, "_RADII_BLOCK", block)
        levels.append([])
        arrays = []
        for t in (10.0, 20.0, 40.0, 80.0, 160.0, 320.0):
            r, u0, sf = leading_term(model, h, t)
            _, u = comparison_state(model, h, t, r=r)
            arrays += [u0, sf.k_full, sf.dlam_dr, u]
        runs.append(arrays)
    assert levels[0] == levels[1]
    for blocked, whole in zip(*runs):
        assert np.array_equal(blocked, whole, equal_nan=True)


def _traced_peak(fn, *args):
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def amplitude_bytes_c160():
    """The size of the amplitude of comparison_state on C at t = 160 at
    the accepted lam level (its 33 energies x live radii, complex), from
    a first call that also builds the kernels."""
    shapes = []
    factors, sample = dynamics._amplitude_factors, dynamics._Lobatto.sample

    def recorded(*args):
        levels = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dynamics._Lobatto, "sample", lambda self, *a, **kw:
                      levels.append(sample(self, *a, **kw)) or levels[-1])
            factored = factors(*args)
        # the last level sampled is the lam level; args[3] are the radii
        shapes.append((levels[-1].shape[0], args[3].size))
        return factored

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_amplitude_factors", recorded)
        comparison_state(model_c(), SpectralProfile.bump_profile(), 160.0)
    (rank, radii), = shapes
    return rank * radii * 16


def test_comparison_state_holds_the_samples_and_one_more_level(
        amplitude_bytes_c160):
    """The traced peak of comparison_state on C at t = 160 is bounded by
    three quarters of its amplitude at the radii at the accepted lam level,
    an array it never forms: the amplitude's rows are taken a block of
    radii at a time, at its numerical rank (12 of the 33 rows), and the
    levels are checked on the panels' nodes.  0.60 times measured; 0.98
    times while the rank-k rows were held at every radius, 1.82 times with
    all 33 rows, 2.26 times while the next level was checked at every
    radius, 3.85 times before the radii were blocked."""
    peak = _traced_peak(comparison_state, model_c(),
                        SpectralProfile.bump_profile(), 160.0)
    assert peak <= 0.75 * amplitude_bytes_c160


def test_leading_term_holds_less_than_the_amplitude_samples(
        amplitude_bytes_c160):
    """The traced peak of leading_term on C at t = 160 against the same
    samples: the Gauss samples of q1 on the cone plus blocks of radii.
    0.35 times measured; 1.71 times before the radii were blocked."""
    peak = _traced_peak(leading_term, model_c(),
                        SpectralProfile.bump_profile(), 160.0)
    assert peak <= 1.0 * amplitude_bytes_c160


# ---------------------------------------------------------------------------
# phase modifiers
# ---------------------------------------------------------------------------

def test_phase_modifier_free_closed_form():
    """With no tail the modifier is the cutoff deficit sqrt(2 lam) *
    int (1 - eta); the symmetric step integrates to 3 r_lam / 4 - r0."""
    model = model_a()
    lam = 0.5
    r_lam = model.r_lambda(lam)
    expect = np.sqrt(2.0 * lam) * (0.75 * r_lam - model.r0)
    assert abs(phase_modifier(model, 0, lam, "sr") - expect) < 1e-6


def test_phase_modifier_scales_with_momentum():
    model = model_a()
    t1, t2 = phase_modifier(model, 0, np.array([0.4, 0.8]), "sr")
    assert abs(t2 / t1 - np.sqrt(2.0)) < 1e-10


def test_phase_modifier_dollard_class():
    """The slowly decaying tail needs the Dollard modifier: the
    short-range one diverges (and must say so), the Dollard one is
    finite and frozen at scipy.integrate.quad's value of the same
    integral (in r to 1e6 in pieces, then in log r)."""
    model = model_c()
    with pytest.raises(ValueError):
        phase_modifier(model, 0, 0.55, "sr")
    val = phase_modifier(model, 0, 0.55, "do")
    assert abs(val - 8.309086309625387) < 1e-12
    # the tail-free end of the same model is short-range
    assert np.isfinite(phase_modifier(model, 1, 0.55, "sr"))


@pytest.mark.parametrize("end,lam", [(0, 0.0), (0, -0.1), (1, 0.0)])
def test_phase_modifier_refuses_lam_at_or_below_the_threshold(end, lam):
    """At lam = lam0 b_sr vanishes and the 'do' correction divides by it;
    the refusal names the threshold before any arithmetic, so no
    RuntimeWarning is raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="threshold lambda0 = 0.0 of end"):
            phase_modifier(model_c(amplitude=-1.0), end, lam, "do")


@pytest.mark.parametrize("amplitude", [1.0, -1.0], ids=["repulsive", "attractive"])
@pytest.mark.parametrize("kind,power", [("sr", 1.5), ("sr", 2.0),
                                        ("do", 0.8), ("do", 1.0)])
def test_phase_modifier_tail_matches_quadrature(kind, power, amplitude):
    """The series beyond _R_TAIL against composite Gauss-Legendre in log r
    of the cancellation-free integrands k u / (1 + sqrt(1 - u)) ('sr') and
    k u^2 / (2 (1 + sqrt(1 - u))^2) ('do'), u = (q1 - lam0) / (lam - lam0)
    on the sampled q1."""
    prof = EndProfile.euclidean().with_tail(amplitude, power, 2.0)
    lam = np.array([0.31, 0.55, 1.2])
    R = dynamics._R_TAIL
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.log(R) + np.linspace(0.0, 160.0, 161)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    r = np.exp(mid[:, None] + half[:, None] * x).ravel()
    k = np.sqrt(2.0 * lam)[:, None]
    u = (prof.q1(r) - prof.lambda0) / lam[:, None]
    s = np.sqrt(1.0 - u)
    f = k * u / (1.0 + s) if kind == "sr" else k * u**2 / (2.0 * (1.0 + s) ** 2)
    ref = np.sum(f * r * (half[:, None] * w).ravel(), axis=1)
    got = dynamics._tail_beyond(prof, lam, kind, R)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def _tail_model(amplitude, power):
    """A Euclidean end 0 with the reference tail amplitude r^-power."""
    end = EndProfile.euclidean().with_tail(amplitude, power, 2.0)
    return ManifoldModel([end, EndProfile.euclidean()], r0=2.0)


@pytest.mark.parametrize("case,end,kind", [
    ("C", 0, "do"), ("C attractive", 0, "do"), ("C", 1, "sr"),
    ("p = 1.5", 0, "sr"), ("p = 1.5 attractive", 0, "sr")])
def test_phase_modifier_matches_adaptive_quadrature(case, end, kind):
    """theta(lam) against scipy.integrate.quad of b_kind - eta b from r0
    to infinity, in the cancellation-free form (b_kind - b by its
    closed-form numerator), split at the cutoff's ends and at doublings
    of r up to 1e4, then in log r over 200 e-folds: no series and no
    panel of phase_modifier's own."""
    from scipy.integrate import quad

    model = {"C": model_c, "C attractive": lambda: model_c(amplitude=-1.0),
             "p = 1.5": lambda: _tail_model(1.0, 1.5),
             "p = 1.5 attractive": lambda: _tail_model(-1.0, 1.5)}[case]()
    prof = model.ends[end]
    lam = np.array([0.31, 0.55, 1.2])
    r_lam = model.r_lambda(0.31)
    got = phase_modifier(model, end, lam, kind)
    pts = [model.r0, 0.5 * r_lam, r_lam]
    while pts[-1] < 1e4:
        pts.append(2.0 * pts[-1])
    for theta, lam_i in zip(got, lam):
        k = np.sqrt(2.0 * (lam_i - prof.lambda0))

        def integrand(s):
            t = float(prof.q1(s)) - prof.lambda0
            cut = float(eta(s, r_lam))
            b = np.sqrt(max(k * k - 2.0 * t, 0.0))
            if kind == "sr":
                return (1.0 - cut) * k + cut * 2.0 * t / (k + b)
            return ((1.0 - cut) * (k - t / k)
                    + cut * 2.0 * t * t / (k * (k + b) ** 2))

        ref = sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13,
                       limit=400)[0] for lo, hi in zip(pts[:-1], pts[1:]))
        y = np.log(pts[-1])
        ref += quad(lambda v: integrand(np.exp(v)) * np.exp(v), y, y + 200.0,
                    epsabs=1e-16, epsrel=1e-13, limit=400)[0]
        assert abs(theta - ref) <= 1e-10


def test_dollard_state_does_not_depend_on_the_other_radii():
    """The secular integral is the closed form of C's declared tail, so
    thinning the radii by 50 leaves the kept values bit for bit."""
    model = model_c()
    h = SpectralProfile.bump_profile(center=2.0, width=0.8)
    r = dynamics_grid(model, h, 40.0)
    _, u = dollard_state(model, h, 40.0, r=r)
    _, u_thin = dollard_state(model, h, 40.0, r=r[::50])
    assert np.array_equal(u_thin, u[::50])
