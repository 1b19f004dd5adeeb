import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ends_scatter.dynamics import (SpectralProfile, comparison_state,
                                   dollard_state, dynamics_grid, eikonal,
                                   hamilton_jacobi_residual, leading_term,
                                   phase_modifier, profile_norm,
                                   shortrange_state, state_norm,
                                   stationary_point)
from ends_scatter.mode_reduction import RadialGrid
from ends_scatter.oracle import reference_comparison_state
from ends_scatter.presets import model_a, model_c


# ---------------------------------------------------------------------------
# spectral profiles
# ---------------------------------------------------------------------------

def test_bump_profile_support_and_norm():
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    lam = np.linspace(0.0, 1.5, 301)
    vals = h(lam)
    assert np.all(vals[(lam <= 0.3) | (lam >= 0.8)] == 0.0)
    assert h.norm() > 0.0
    assert abs(profile_norm([h]) - h.norm()) < 1e-14


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
    r1 = 4.0
    r = np.linspace(10.0, 0.9 * t, 200)
    sf = stationary_point(model, 0, t, r, lam_lo=1e-4, r1=r1)
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
    t, r1 = 25.0, 4.0
    r = np.linspace(10.0, 20.0, 50)
    sf = stationary_point(model, 0, t, r, lam_lo=1e-4, r1=r1)
    sf = eikonal(model, sf, with_offset=False)
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
@pytest.mark.parametrize("model", [model_a(), model_c()], ids=["A", "C"])
def test_comparison_state_matches_reference(model, sign):
    """The factored (A) and blocked (C) frequency quadratures against the
    node-by-node sum, on the radii the callers use: the dynamics grid,
    the lab-grid nodes of both ends (end 1 descends) and a non-uniform
    set, which the factored sum must hand to its direct fallback."""
    t = 40.0
    grid = RadialGrid(80.0, 0.02)
    cases = [(0, dynamics_grid(model, t, 0.8, r1=model.r_lambda(0.3))),
             (0, np.abs(grid.x[grid.end_mask(0)])),
             (1, np.abs(grid.x[grid.end_mask(1)])),
             (0, 1.0 + 80.0 * np.linspace(0.0, 1.0, 3001) ** 2)]
    for end, r in cases:
        h = SpectralProfile.bump_profile(end=end, center=0.55, width=0.25)
        _, u = comparison_state(model, h, t, r=r, sign=sign)
        ref = reference_comparison_state(model, h, t, r, sign=sign)
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


def test_shortrange_equals_dollard_without_tail():
    """On a model with no reference tail the Dollard correction vanishes."""
    model = model_a()
    h = SpectralProfile.bump_profile()
    t = 30.0
    r = dynamics_grid(model, t, h.lam_hi)
    _, u_sr = shortrange_state(model, h, t, r=r)
    _, u_do = dollard_state(model, h, t, r=r)
    assert np.allclose(u_sr, u_do, atol=1e-12)


def test_dynamics_grid_holds_the_front():
    model = model_a()
    t = 50.0
    r = dynamics_grid(model, t, lam_hi=0.8)
    assert r[-1] > t * np.sqrt(2.0 * 0.8)
    assert r[0] == model.r0 / 2.0


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
    r_lam = model.r_lambda(0.3)
    t1 = phase_modifier(model, 0, 0.4, "sr", r_lam=r_lam)
    t2 = phase_modifier(model, 0, 0.8, "sr", r_lam=r_lam)
    assert abs(t2 / t1 - np.sqrt(2.0)) < 1e-10


def test_phase_modifier_dollard_class():
    """The slowly decaying tail needs the Dollard modifier: the
    short-range one diverges (and must say so), the Dollard one is
    finite and frozen against an adaptive-quadrature evaluation."""
    model = model_c()
    with pytest.raises(ValueError):
        phase_modifier(model, 0, 0.55, "sr")
    val = phase_modifier(model, 0, 0.55, "do")
    assert abs(val - 8.309085435602903) < 1e-5
    # the tail-free end of the same model is short-range
    assert np.isfinite(phase_modifier(model, 1, 0.55, "sr"))
