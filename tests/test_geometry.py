from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid
from scipy.interpolate import CubicSpline as ScipyCubicSpline

from ends_scatter.geometry import (CubicSpline, EndProfile, ManifoldModel,
                                   _bump_piece, bump, classify_potential,
                                   _cutoff_length, _psi, cumulative_trapezoid,
                                   eta, numeric_derivative, phase_a, phase_b,
                                   phase_integral, riccati_residual,
                                   smooth_step)
from ends_scatter.config import parse_config
from ends_scatter.presets import (_CATALOGUE, model_a, model_b, model_c,
                                  model_d, model_free)


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

@given(st.floats(-50.0, 50.0))
def test_smooth_step_range_and_saturation(u):
    v = float(smooth_step(u))
    assert 0.0 <= v <= 1.0
    if u <= 0.0:
        assert v == 0.0
    if u >= 1.0:
        assert v == 1.0


@given(st.floats(0.0, 100.0), st.floats(1.0, 32.0))
def test_eta_support(r, scale):
    v = float(eta(r, scale))
    assert 0.0 <= v <= 1.0
    if r <= scale / 2.0:
        assert v == 0.0
    if r >= scale:
        assert v == 1.0


def test_eta_monotone():
    r = np.linspace(0.0, 10.0, 2001)
    assert np.all(np.diff(eta(r, 4.0)) >= -1e-12)


def _two_piece_step(u):
    """The cutoff's formula with both bump pieces taken at every point."""
    u = np.asarray(u, dtype=float)
    a = _bump_piece(u)
    b = _bump_piece(1.0 - u)
    return a / (a + b + 1e-300)


def test_cutoff_is_the_two_piece_formula_bit_for_bit():
    """smooth_step fills the exact 0 and 1 off its ramp; that must give
    the bits of the formula everywhere, NaN, signed zero and the edges of
    the pieces' 1e-12 floor included, and the same types."""
    edges = np.array([0.0, -0.0, 1e-12, 2e-12, 1.0 - 1e-12, 1.0, np.inf,
                      -np.inf, np.nan])
    for u in (np.linspace(-3.0, 3.0, 10**6), edges, edges.reshape(3, 3)):
        bits = _two_piece_step(u).view(np.int64)
        assert np.array_equal(smooth_step(u).view(np.int64), bits)
        scale = 4.0
        r = 0.5 * scale * (u + 1.0)
        ref = 1.0 - (1.0 - _two_piece_step(2.0 * r / scale - 1.0))
        assert np.array_equal(eta(r, scale).view(np.int64), ref.view(np.int64))
    for u in (0.5, 2.0, -1.0, np.array(0.5), np.float64(0.5)):
        assert type(smooth_step(u)) is type(_two_piece_step(u)) is np.float64
        assert type(eta(u, 4.0)) is np.float64
    assert type(smooth_step([0.5])) is np.ndarray


@pytest.mark.parametrize("where", ["straddle", "before", "after", "edges"])
def test_eta_off_the_ramp_is_the_formula_bit_for_bit(where):
    """eta returns the 0/1 values without the ramp's passes where no r lies
    on the ramp; on arrays that straddle the ramp, precede it or follow
    it, with NaN and infinities among them, it keeps the formula's bits,
    shape and type."""
    scale = 2.0
    r = {"straddle": np.linspace(0.0, 5.0, 4001),
         "before": np.linspace(-3.0, 1.0, 4001),
         "after": np.linspace(2.0, 900.0, 49152),
         "edges": np.array([1.0, 2.0, np.inf, -np.inf, 0.0, -0.0])}[where]
    for rr in (r, np.append(r, np.nan), np.append(r, np.nan).reshape(-1, 1)):
        ref = 1.0 - (1.0 - _two_piece_step(2.0 * rr / scale - 1.0))
        got = eta(rr, scale)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for x in r[[0, -1]]:
        assert type(eta(float(x), scale)) is np.float64
        assert eta(float(x), scale) == 1.0 - (1.0 - _two_piece_step(x - 1.0))
    assert eta(np.nan, scale) == 0.0


@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.1, 3.0))
def test_bump_support(x, center, width):
    v = float(bump(x, center, width))
    assert v >= 0.0
    if abs(x - center) >= width:
        assert v == 0.0


# ---------------------------------------------------------------------------
# end profiles and effective potential closed forms
# ---------------------------------------------------------------------------

def test_euclidean_curvature_closed_form():
    e = EndProfile.euclidean()
    r = np.linspace(1.0, 50.0, 500)
    assert np.allclose(e.q_geo(r), -1.0 / (8.0 * r**2), rtol=0, atol=1e-15)


def test_hyperbolic_curvature_closed_form():
    e = EndProfile.hyperbolic()
    r = np.linspace(1.0, 50.0, 500)
    assert np.allclose(e.q_geo(r), 0.125, rtol=0, atol=1e-15)
    assert e.lambda0 == 0.125


def test_flat_and_conic():
    r = np.linspace(1.0, 30.0, 100)
    assert np.allclose(EndProfile.flat().q_geo(r), 0.0)
    c = EndProfile.conic(2.5)
    assert np.allclose(c.f(r), 2.5 * r)
    assert np.allclose(c.q_geo(r), -1.0 / (8.0 * r**2))


def test_table_profile_matches_samples():
    r_nodes = np.linspace(1.0, 20.0, 40)
    f_nodes = r_nodes + 0.3 * np.sin(r_nodes)
    e = EndProfile.from_table(r_nodes, f_nodes)
    assert np.allclose(e.f(r_nodes), f_nodes, rtol=1e-12)


def test_table_profile_continues_linearly_outside_the_table():
    """log f continues with its end slope: f and g'' stay finite and
    exact out to ten times the table's range, and g'' is 0 there."""
    r_nodes = np.linspace(1.0, 5.0, 5)
    e = EndProfile.from_table(r_nodes, r_nodes**1.5)
    slope = float(e.gp(5.0))
    r = np.linspace(5.0, 50.0, 91)
    expect = np.exp(1.5 * np.log(5.0) + slope * (r - 5.0))
    assert np.all(np.isfinite(e.f(r)))
    assert np.allclose(e.f(r), expect, rtol=1e-13, atol=0)
    assert np.array_equal(e.gp(r), np.full(r.shape, slope))
    assert np.array_equal(e.gpp(r[1:]), np.zeros(90))
    left = np.linspace(-35.0, 1.0, 73)
    slope0 = float(e.gp(1.0))
    assert np.allclose(e.g(left), slope0 * (left - 1.0), rtol=0, atol=1e-13)
    assert np.array_equal(e.gpp(left[:-1]), np.zeros(72))


def test_table_profile_threshold_is_the_limit_of_q_geo():
    """Beyond the table q_geo is g'(r_end)^2/8, and lambda0 and the default
    reference tail q1 read that value, not 0."""
    r_nodes = np.linspace(1.0, 5.0, 5)
    e = EndProfile.from_table(r_nodes, r_nodes**1.5)
    r = np.array([5.0, 50.0, 1e4])
    assert e.lambda0 == 0.125 * float(e.gp(5.0)) ** 2 > 0.01
    assert np.array_equal(e.q_geo(r), np.full(3, e.lambda0))
    assert np.array_equal(e.q1(r), np.full(3, e.lambda0))


def _spline_error(ours, ref, t, nu=0):
    return np.max(np.abs(ours(t, nu) - ref(t, nu))) / np.max(np.abs(ref(t, nu)))


def test_spline_matches_scipy_not_a_knot_complex(rng):
    x = np.linspace(0.3, 0.8, 1025)
    y = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    t = np.concatenate((x, rng.uniform(0.3, 0.8, 10_000)))
    assert _spline_error(CubicSpline(x, y), ScipyCubicSpline(x, y), t) <= 1e-14
    # random nodes
    xs = np.sort(rng.uniform(-2.0, 3.0, 64))
    ys = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    t = rng.uniform(xs[0], xs[-1], 10_000)
    assert _spline_error(CubicSpline(xs, ys), ScipyCubicSpline(xs, ys), t) <= 1e-14


def test_spline_matches_scipy_on_the_bump_profile(rng):
    x = np.linspace(0.3, 0.8, 1025)
    y = bump(x, 0.55, 0.25).astype(complex)
    t = rng.uniform(0.3, 0.8, 100_000)
    assert _spline_error(CubicSpline(x, y), ScipyCubicSpline(x, y), t) <= 1e-14


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_spline_matches_scipy_natural(rng, nu):
    """A warp table on geometric nodes.  (Random nodes with a 1.5e-3 gap
    put both splines' g'' about 1e-13 from a 40-digit solve, ours no
    further than scipy's, so the two differ at that level there.)"""
    x = 1.08 ** np.arange(40.0)
    y = np.log(x + 0.3 * np.sin(x))
    ours = CubicSpline(x, y, bc="natural")
    ref = ScipyCubicSpline(x, y, bc_type="natural")
    t = rng.uniform(x[0], x[-1], 10_000)
    assert _spline_error(ours, ref, t, nu) <= 1e-14


def test_spline_rejects_bad_input():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        CubicSpline(x[:3], x[:3])               # not-a-knot needs 4 nodes
    with pytest.raises(ValueError):
        CubicSpline(x[::-1], x)                 # decreasing nodes
    with pytest.raises(ValueError):
        CubicSpline(x, x, bc="clamped")
    with pytest.raises(ValueError):
        CubicSpline(x, x)(0.5, nu=3)


def test_numeric_derivative_accuracy():
    fn = lambda r: np.sin(r)
    r = np.linspace(0.5, 10.0, 50)
    assert np.max(np.abs(numeric_derivative(fn, r) - np.cos(r))) < 1e-7
    assert np.max(np.abs(numeric_derivative(fn, r, order=2) + np.sin(r))) < 1e-4


def test_cumulative_trapezoid_is_scipys_bit_for_bit(rng):
    """The call shape of the package (limiting_resolvent) against scipy's
    rule: uniform spacing, real and complex samples, reversed views."""
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.array_equal(cumulative_trapezoid(f[::-1], dx=0.02),
                          scipy_cumulative_trapezoid(f[::-1], dx=0.02, initial=0))
    y = rng.standard_normal(64)
    assert np.array_equal(cumulative_trapezoid(y, dx=0.01),
                          scipy_cumulative_trapezoid(y, dx=0.01, initial=0))


# ---------------------------------------------------------------------------
# glued model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [model_a(), model_b(), model_c(), model_d()])
def test_core_glue_smoothness(model):
    """g, g' and g'' of the core polynomial meet each end's own at the
    glue; on end 1, r = -x, so its g' enters with the sign flipped."""
    w = model.r0 / 2.0
    core = model._core
    for side, end in zip((1.0, -1.0), model.ends):
        for k, (fc, fe) in enumerate(zip((core.g, core.gp, core.gpp),
                                         (end.g, end.gp, end.gpp))):
            inner = fc(np.array([side * (w - 1e-7)]))[0]
            outer = side**k * fe(np.array([w + 1e-7]))[0]
            assert abs(inner - outer) < 1e-4


def test_model_ends_match_profiles():
    m = model_b()
    x = np.linspace(2.0, 30.0, 100)
    assert np.allclose(m.f(x), x)            # Euclidean end at x > 0
    assert np.allclose(m.f(-x), np.exp(x))   # hyperbolic end at x < 0


def test_w_mode_centrifugal_tail():
    m = model_a()
    x = np.linspace(5.0, 40.0, 64)
    for mm in (0, 1, 3):
        expected = m.q(x) + 0.5 * mm**2 / x**2
        assert np.allclose(m.w_mode(mm, x), expected, rtol=1e-12)


@pytest.mark.parametrize("name", [*_CATALOGUE, "shrinking"])
def test_w_mode_at_m0_is_q(name):
    """W_0 is q, finite and bit for bit, also where f underflows: on a
    table end with f = e^-r, e^{-2g} is inf at r = 400 and 800, and the
    centrifugal term 0 * inf must not turn W_0 into NaN there."""
    if name == "shrinking":
        r = np.linspace(1.0, 10.0, 20)
        end = EndProfile.from_table(r, np.exp(-r))
        m = ManifoldModel([end, EndProfile.euclidean()], r0=2.0)
    else:
        m = _CATALOGUE[name]()
    x = np.concatenate((np.linspace(-60.0, 60.0, 1201), [400.0, 800.0]))
    w = m.w_mode(0, x)
    assert np.all(np.isfinite(w))
    assert np.array_equal(w, m.q(x))
    if name == "shrinking":
        assert np.all(w[-2:] == 0.125)


def _glued(model, x, name):
    """The log-warp's ``name`` (g, gp or gpp) on the line: each end's own
    outside the core (end 1's gp with the sign of r = -x), the core
    polynomial's inside."""
    w = model.r0 / 2.0
    out = np.empty_like(x)
    right, left = x >= w, x <= -w
    core = ~(right | left)
    sign = -1.0 if name == "gp" else 1.0
    out[right] = getattr(model.ends[0], name)(x[right])
    out[left] = sign * getattr(model.ends[1], name)(-x[left])
    out[core] = getattr(model._core, name)(x[core])
    return out


def _w_reference(model, m, x):
    """W_m by its definition, term by term over the whole line: q_geo from
    the glued g' and g'', each end's tail where side * x > 0, the core
    term at every x, then the centrifugal term from the glued g."""
    x = np.asarray(x, dtype=float)
    gp, gpp = _glued(model, x, "gp"), _glued(model, x, "gpp")
    q_geo = 0.25 * gpp + 0.125 * gp ** 2
    v = np.zeros_like(x)
    for side, end in zip((1.0, -1.0), model.ends):
        if end.tail_amplitude != 0.0:
            mask = side * x > 0
            v[mask] += end.tail(side * x[mask])
    if model.v_core is not None:
        v = v + model.v_core(x)
    w = q_geo + v
    if m:
        w = w + 0.5 * m**2 * np.exp(-2.0 * _glued(model, x, "g"))
    return w


def _layer_a_models(tmp_path):
    """The presets; a config model with a conic end under a repulsive
    tail, a hyperbolic end under an attractive one and a square plus
    sampled core; and a model whose core term leaks past the glue."""
    (tmp_path / "core.csv").write_text(
        "-0.9,0\n-0.4,0.7\n0.1,-0.3\n0.6,0.2\n0.95,0\n")
    text = ("[model]\nr0 = 2.5\n[ends.1]\nprofile = conic: 1.5\n"
            "q1_amplitude = 0.7\nq1_power = 0.8\n[ends.2]\n"
            "profile = hyperbolic\nq1_amplitude = -0.4\nq1_power = 1.5\n"
            "[potential]\ncore = square: 1.2, 0.6\ntable = core.csv\n")
    models = {name: make() for name, make in _CATALOGUE.items()}
    models["config"] = parse_config(text, base=str(tmp_path)).model
    models["leak"] = ManifoldModel(
        [EndProfile.euclidean().with_tail(0.5, 1.2, 3.0),
         EndProfile.hyperbolic()], r0=3.0, core_breakpoints=(-0.5,),
        v_core=lambda x: 0.3 * np.exp(-np.asarray(x, dtype=float) ** 2 / 50.0))
    return models


def test_w_mode_is_its_definition_bit_for_bit(tmp_path):
    """W_m (m = 0 ... 3) and q, glued once per piece, equal bit for bit W_m
    summed term by term over the whole line, at the glue points, x = 0,
    the core breakpoints, on a wide grid and at scalar x."""
    for name, model in _layer_a_models(tmp_path).items():
        w = model.r0 / 2.0
        x = np.concatenate([[-w, w, 0.0], model.breakpoints(),
                            np.linspace(-70.0, 70.0, 2801), [400.0, -400.0]])
        scalars = [0.0, w, -w, 1.3, -5.5, *model.core_breakpoints]
        for m in range(4):
            got = model.w_mode(m, x)
            assert got.tobytes() == _w_reference(model, m, x).tobytes(), (name, m)
            for xs in scalars:
                assert (np.asarray(model.w_mode(m, xs)).tobytes()
                        == _w_reference(model, m, xs).tobytes()), (name, m, xs)
        assert model.q(x).tobytes() == _w_reference(model, 0, x).tobytes()


def test_square_barrier_in_core():
    m = model_d()
    x = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    assert np.allclose(m.v_core(x), [0.0, 1.5, 1.5, 1.5, 0.0])
    with pytest.raises(ValueError, match="must fit inside"):
        model_d(half_width=1.5)  # would poke out of the core


def test_r0_validation():
    """r0 lies in [2, 2048]: beyond 2048, every r_lambda >= 2 r0 exceeds
    its cap of 4096."""
    flat = [EndProfile.flat(), EndProfile.flat()]
    with pytest.raises(ValueError, match="r0 must be >= 2"):
        ManifoldModel(flat, r0=1.0)
    for r0 in (2048.5, 1e40):
        with pytest.raises(ValueError, match="r0 must be <= 2048"):
            ManifoldModel(flat, r0=r0)
    assert ManifoldModel(flat, r0=2048.0).r0 == 2048.0
    with pytest.raises(ValueError):
        ManifoldModel([EndProfile.flat()])


# ---------------------------------------------------------------------------
# critical energy, classification, r_lambda
# ---------------------------------------------------------------------------

def test_critical_energies_of_presets():
    m = model_a()
    assert m.lambda_crit == 0.0 and [e.lambda0 for e in m.ends] == [0.0, 0.0]
    m = model_b()
    assert m.lambda_crit == 0.125 and [e.lambda0 for e in m.ends] == [0.0, 0.125]


def test_classification():
    assert classify_potential(model_a(), 0)[0] == "short_range"
    cls, diag = classify_potential(model_c(), 0)
    assert cls == "dollard"
    assert abs(diag["exponent"] - 0.8) < 0.05
    assert classify_potential(model_c(), 1)[0] == "short_range"


def test_r_lambda_dyadic():
    m = model_c()
    for lam in (0.3, 0.7, 1.5):
        R = m.r_lambda(lam)
        assert R >= 2.0 * m.r0
        assert abs(np.log2(R / m.r0) % 1.0) < 1e-12
        rr = np.linspace(R / 2.0, 200.0, 512)
        for end in m.ends:
            assert np.all(lam + end.lambda0 - 2.0 * end.q1(rr) >= 0)


@pytest.mark.parametrize("amplitude", [1.0, -1.0], ids=["repulsive", "attractive"])
def test_r_lambda_against_its_definition(amplitude):
    """R is the smallest dyadic radius >= 2 r0 with lam + lambda0 - 2 q1 >= 0
    on all of [R/2, inf): it holds from R/2 on a log grid out to 1e8, and
    fails from R/4 wherever R > 2 r0."""
    m = model_c(amplitude=amplitude)

    def holds(lam, r_from):
        rr = np.geomspace(r_from, 1e8, 4000)
        return all(np.all(lam + e.lambda0 - 2.0 * e.q1(rr) >= 0) for e in m.ends)

    radii = []
    for lam in (0.02, 0.3, 0.7, 1.5):
        R = m.r_lambda(lam)
        assert holds(lam, R / 2.0)
        assert R == 2.0 * m.r0 or not holds(lam, R / 4.0)
        radii.append(R)
    # a repulsive tail pushes R out as lam falls; an attractive one never
    # does, and admits the threshold itself
    if amplitude > 0:
        assert radii == [1024.0, 32.0, 8.0, 4.0]
    else:
        assert radii == [4.0] * 4 and m.r_lambda(0.0) == 4.0 and holds(0.0, 2.0)


def test_r_lambda_says_why_it_refuses():
    # below the threshold of an attractive tail q1 < 0, but q1 -> 0, so b is
    # imaginary far out (a probe up to r = 4096 used to accept lam = -1e-3)
    m = model_c(amplitude=-1.0)
    assert not np.all(-1e-3 - 2.0 * m.ends[0].q1(np.geomspace(4.0, 1e8, 400)) >= 0)
    with pytest.raises(ValueError, match="below the threshold 0.0 of end 0"):
        m.r_lambda(-1e-3)
    with pytest.raises(ValueError, match="below the threshold 0.125 of end 1"):
        model_b().r_lambda(0.1)
    # q1(R/2) <= lam / 2 = 5e-5 first at R = 2^19 on C's repulsive tail
    with pytest.raises(ValueError, match="at lam = 0.0001 is 524288, above 4096"):
        model_c().r_lambda(1e-4)


@pytest.mark.parametrize("amplitude,power", [(1.0, 0.8), (-0.5, 1.0),
                                             (2.0, 2.0), (0.3, 1.0 - 1e-9)])
def test_tail_integral_matches_quadrature(amplitude, power):
    """int_{r0}^r (q1 - lambda0) against composite Gauss-Legendre in log r
    on the sampled q1, p = 1 and p next to it included."""
    end = EndProfile.euclidean().with_tail(amplitude, power, 2.0)
    r = np.array([2.0, 2.5, 40.0, 1e4])
    x, w = np.polynomial.legendre.leggauss(20)
    ref = []
    for b in r:
        edges = np.linspace(np.log(2.0), np.log(b), 65)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        s = np.exp(mid[:, None] + half[:, None] * x)
        ref.append(np.sum(half[:, None] * w * (end.q1(s) - end.lambda0) * s))
    assert np.allclose(end.tail_integral(r), ref, rtol=1e-13, atol=0.0)
    assert np.all(EndProfile.euclidean().tail_integral(r) == 0.0)


def test_tail_q1_glues_to_threshold():
    end = replace(EndProfile.flat(), lambda0=0.25).with_tail(1.0, 0.8, 2.0)
    r = np.array([0.0, 0.5, 1.0])
    assert np.allclose(end.q1(r), 0.25)      # cut off inside r0/2
    assert abs(end.q1(np.array([100.0]))[0] - 0.25 - 100.0**-0.8) < 1e-12


@pytest.mark.parametrize("amplitude,power", [(1.0, 0.8), (-0.5, 1.5), (0.3, 0.5)])
def test_tail_past_r0_skips_the_cutoff_bit_for_bit(monkeypatch, amplitude, power):
    """Where every r >= r0 the cutoff is exactly 1 and r needs no floor:
    the tail, q1 and so the Gauss samples of the leading term are the
    bytes of the full expression, and the cutoff is not evaluated.  A
    single radius below r0 takes the full expression."""
    from ends_scatter import geometry

    end = EndProfile.euclidean().with_tail(amplitude, power, 2.0)
    r = np.concatenate(([2.0], np.geomspace(2.0, 1e6, 4001)[1:],
                        np.linspace(2.0, 40.0, 48 * 64)))
    want = eta(r, 2.0) * amplitude * np.maximum(r, 1e-9) ** -power
    scalar = eta(7.5, 2.0) * amplitude * max(7.5, 1e-9) ** -power
    low = np.append(r, 1.9)
    want_low = eta(low, 2.0) * amplitude * np.maximum(low, 1e-9) ** -power
    with monkeypatch.context() as m:
        m.setattr(geometry, "eta", lambda *a: pytest.fail("eta was called"))
        got, got_q1, got_scalar = end.tail(r), end.q1(r), end.tail(7.5)
    assert got.tobytes() == want.tobytes()
    assert got_q1.tobytes() == (end.lambda0 + want).tobytes()
    assert got_scalar == scalar and type(got_scalar) is type(scalar)
    assert end.tail(low).tobytes() == want_low.tobytes()


def test_tails_that_do_not_decay_or_glue_elsewhere_are_refused():
    with pytest.raises(ValueError, match="power must be positive"):
        EndProfile.euclidean().with_tail(1.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="power must be positive"):
        EndProfile.euclidean().with_tail(-0.5, -1.0, 2.0)
    end = EndProfile.euclidean().with_tail(1.0, 0.8, 2.0)
    with pytest.raises(ValueError, match="cuts its tail off"):
        ManifoldModel([EndProfile.euclidean(), end], r0=4.0)
    # without a tail the cutoff radius is not read
    ManifoldModel([EndProfile.euclidean().with_tail(0.0, 0.0, 1.0)] * 2, r0=4.0)


@pytest.mark.parametrize("lam", [0.3, 0.65, 1.0])
def test_phase_a_takes_q1_prime_in_closed_form(lam):
    """The correction (1/4) eta_lambda q1' / (lam - q1) of C's Dollard end
    agrees with the one from a central difference of q1, on every radius
    from r_lambda/2, where eta_lambda starts to rise."""
    m = model_c()
    prof = m.ends[0]
    r_lam = m.r_lambda(lam)
    r = np.linspace(r_lam / 2.0, 60.0, 2000)
    corr = -np.imag(phase_a(m, 0, lam, r, sign=+1))
    gap = lam - prof.q1(r)
    ref = 0.25 * eta(r, r_lam) * numeric_derivative(prof.q1, r) / gap
    assert np.all(np.abs(corr - ref) <= 1e-9 * np.abs(ref))
    assert np.any(ref != 0.0)


# ---------------------------------------------------------------------------
# WKB phases
# ---------------------------------------------------------------------------

def test_phase_b_free_closed_form():
    m = model_a()
    lam = 0.5
    r = np.linspace(m.r_lambda(lam), 100.0, 200)
    assert np.allclose(phase_b(m, 0, lam, r), np.sqrt(2.0 * lam), rtol=1e-14)


def test_phase_integral_linear_growth_on_free_end(rng):
    """On A's free end Phi grows like sqrt(2 lam) r.  On C's tailed end
    each radius is taken on its own: a permutation of the radii permutes
    the values bit for bit, and they are b_lam E + psi of the per-radius
    rule bit for bit (zero up to r_lam/2, where eta_lambda is)."""
    m = model_a()
    lam = 0.5
    r = np.linspace(20.0, 120.0, 400)
    phi = phase_integral(m, 0, lam, r)
    slope = np.polyfit(r, phi, 1)[0]
    assert abs(slope - np.sqrt(2.0 * lam)) < 1e-10

    m = model_c()
    lam = 0.45
    r_lam = m.r_lambda(lam)
    r = np.concatenate((np.linspace(0.5, 0.5 * r_lam, 7),
                        rng.uniform(0.5 * r_lam, 300.0, 200), [r_lam, 1e4]))
    phi = phase_integral(m, 0, lam, r)
    perm = rng.permutation(r.size)
    assert phase_integral(m, 0, lam, r[perm]).tobytes() == phi[perm].tobytes()
    live = r > 0.5 * r_lam
    b = np.sqrt(2.0 * (lam - m.ends[0].lambda0))
    want = b * _cutoff_length(r, r_lam)
    want[live] = (want[live]
                  + _psi(m.ends[0], r_lam, lam, np.array([lam]), r[live])[0])
    assert phi.tobytes() == want.tobytes()
    assert np.all(phi[~live] == 0.0)


def test_riccati_residual_small_on_end():
    m = model_c()
    lam = 1.5
    r = np.linspace(30.0, 120.0, 64)
    res = riccati_residual(m, 0, lam, r)
    assert np.max(np.abs(res)) < 2e-3


def test_model_free_is_exactly_free():
    m = model_free()
    x = np.linspace(-40.0, 40.0, 1001)
    assert np.allclose(m.w_mode(0, x), 0.0, atol=1e-15)
