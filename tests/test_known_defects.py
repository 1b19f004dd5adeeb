"""Known wrong answers of the lab, pinned as strict expected failures.

Each test asserts the right answer against a reference that shares no
code with the Jost path it checks, and carries
``pytest.mark.xfail(strict=True)`` with the ROADMAP item of its defect.
The change that mends a defect sees XPASS as a failure, so it removes
the marker and keeps the assertion.

On a flat end f = 1, so the centrifugal term of the mode m = 1 is the
constant 1/2 on the whole line: ``W_1 = W_0 + 1/2``.  On free that makes
S_1 pure transmission, and on D it is the square barrier of ``W_0`` seen
at the energy lam - 1/2.  At rmax 60, dx 0.01 the lab gives |S_11| of
0.2525, 0.2011 and 0.0692 on free at lam 0.6, 1.0 and 2.0, and |S_21| of
0.01439, 0.1559 and 0.5603 on D, where the closed form gives 0.03515,
0.1111 and 0.5000.  The comparison dynamics ignore the profile's mode as
well: the leading term of a mode-1 profile on free misses the closed form
of W_1 = 1/2 by 1.17 of its peak at t = 20 and 80.

The cross-ends transmission of D is judged by a band of 0.5 to 2 around
its prediction.  Against the closed-form prediction its measured mass is
off by -2.96 %, -0.01 % and -2.66 % at t = 20, 40 and 80.
"""

import json
import math

import numpy as np
import pytest

from ends_scatter.cli import main
from ends_scatter.config import default_config
from ends_scatter.dynamics import SpectralProfile, leading_term
from ends_scatter.fourier import scattering_matrix
from ends_scatter.mode_reduction import RadialGrid
from ends_scatter.oracle import closed_form_scattering
from ends_scatter.presets import model_d, model_free

_GRID = RadialGrid(60.0, 0.01)
_LAMS = (0.6, 1.0, 2.0)
_ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the S block of the mode m = 1 on a flat end is "
           "wrong")


@_ITEM_1
@pytest.mark.parametrize("lam", _LAMS)
def test_free_m1_is_pure_transmission(lam):
    """W_1 = 1/2 on the whole line of free: nothing reflects."""
    block = scattering_matrix(model_free(), _GRID, lam, mmax=1).block(1)
    assert abs(block[0, 0]) <= 1e-8


@_ITEM_1
@pytest.mark.parametrize("lam", _LAMS)
def test_d_m1_is_the_barrier_at_the_shifted_energy(lam):
    """|S_21| of D's mode 1 is the square barrier's |t| at lam - 1/2, by
    plane-wave matching at its two interfaces."""
    v0, half_width = 1.5, 1.0
    block = scattering_matrix(model_d(v0=v0, half_width=half_width), _GRID,
                              lam, mmax=1).block(1)
    want = closed_form_scattering("square_well", lam - 0.5, v0=v0,
                                  half_width=half_width)["s_abs"][1][0]
    assert abs(abs(block[1, 0]) - want) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: smatrix reports a wrong m = 1 "
                          "block with exit 0")
def test_smatrix_on_free_m1_is_right_or_exits_3(tmp_path):
    """smatrix on free with two modes either gives the pure transmission
    of the mode 1 at every energy or says that it did not converge."""
    cfg = tmp_path / "free.cfg"
    cfg.write_text("[model]\npreset = free\n\n[grid]\nmmax = 1\n")
    code = main(["smatrix", "--config", str(cfg), "--lambda-grid",
                 "0.6:2.0:3", "--out", str(tmp_path)])
    if code == 3:
        return
    assert code == 0
    with open(tmp_path / "smatrix.json") as fh:
        points = json.load(fh)["points"]
    for point in points:
        block = np.array([[complex(e["re"], e["im"]) for e in row]
                          for row in point["blocks"]["1"]])
        assert abs(block[0, 0]) <= 1e-8
        assert abs(abs(block[1, 0]) - 1.0) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the comparison dynamics ignore "
                          "the profile's mode")
def test_free_m1_leading_term_is_the_shifted_closed_form():
    """On free, W_1 = 1/2, so the stationary energy of a mode-1 profile at
    (t, r) is 1/2 + (r - r1)^2 / (2 t^2), run in from r1 = 2 r0 = 4, and
    |U_0(t) h| = (2 pi)^(-1/2) ((r - r1) / t^2)^(1/2) |h(lam_c)|.  The
    leading term matches it within 1e-12 of its peak at t = 20 and 80."""
    model = model_free()
    h = SpectralProfile.bump_profile(end=0, m=1, center=1.05, width=0.25)
    r1 = 2.0 * model.r0
    errors = {}
    for t in (20.0, 80.0):
        r, u0, _ = leading_term(model, h, t)
        s = np.maximum(r - r1, 0.0)
        want = (np.sqrt(s / t**2) * np.abs(h(0.5 + s**2 / (2.0 * t**2)))
                / math.sqrt(2.0 * math.pi))
        errors[t] = float(np.max(np.abs(np.abs(u0) - want)) / np.max(want))
    assert all(e <= 1e-12 for e in errors.values()), errors


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the transmitted mass on D misses "
                          "the closed form by up to 3 % at t = 20 and 80")
def test_transmission_on_d_measures_the_closed_form_mass(tmp_path):
    """transmission on D at its defaults measures, at each preparation
    time, the mass that the closed-form barrier |t| predicts through the
    run's profile, ((2 pi)^-1 int |t(lam)|^2 |h(lam)|^2 dlam)^(1/2) =
    0.0245706, within 1 %."""
    cfg = default_config("D")
    run, barrier = cfg.run, cfg.model.barrier
    lam0 = cfg.model.ends[run.end - 1].lambda0
    h = SpectralProfile.bump_profile(center=lam0 + run.profile_center,
                                     width=run.profile_width)
    lam = np.linspace(h.lam_lo, h.lam_hi, 2049)
    t_abs = np.array([abs(closed_form_scattering(
        "square_well", float(x), v0=barrier["v0"],
        half_width=barrier["half_width"])["t"]) for x in lam])
    want = math.sqrt(np.trapezoid(t_abs ** 2 * np.abs(h(lam)) ** 2, lam)
                     / (2.0 * np.pi))
    # only the mass comparison below may raise the expected AssertionError
    if abs(want - 0.0245706) > 1e-7:
        pytest.fail(f"closed-form mass moved: {want}")
    errors = {}
    for t in ("20", "40", "80"):
        out = tmp_path / t
        code = main(["transmission", "--preset", "D", "--t-grid", t,
                     "--out", str(out)])
        if code != 0:
            pytest.fail(f"transmission on D at t = {t} exited {code}")
        with open(out / "transmission.json") as fh:
            errors[t] = json.load(fh)["measured_mass"] / want - 1.0
    assert all(abs(e) <= 0.01 for e in errors.values()), errors
