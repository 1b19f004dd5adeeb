"""End-to-end acceptance suite.

Each test pins one headline guarantee of the laboratory at its stated
tolerance, on the benchmark surfaces:

  A     two Euclidean ends, no potential
  B     Euclidean + hyperbolic end (thresholds 0 and 1/8)
  C     A with a slowly decaying reference tail r^-0.8 on end 0
  D     flat-cylinder ends with a square barrier (v0=1.5, a=1.0)
  free  exactly free line (flat ends, no curvature term)
"""

import json

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from ends_scatter.cli import _propagation_operator, main as cli_main
from ends_scatter.dynamics import (SpectralProfile, comparison_state,
                                   dollard_state, hamilton_jacobi_residual,
                                   leading_term, phase_modifier, state_norm,
                                   stationary_point)
from ends_scatter.fourier import distorted_ft, scattering_matrix
from ends_scatter.mode_reduction import ModeOperator, RadialGrid
from ends_scatter.oracle import (closed_form_scattering, dense_hamiltonian_2d,
                                 embed_mode_state, small_eps_resolvent)
from ends_scatter.presets import (model_a, model_b, model_c, model_d,
                                  model_free)
from ends_scatter.propagator import (EvolutionConfig, adjoint_identity_check,
                                     evolve, transmission_experiment,
                                     wave_operator)
from ends_scatter.resolvent import jost_pair, limiting_resolvent


def bump(center, width):
    return SpectralProfile.bump_profile(end=0, m=0, center=center, width=width)


# ---------------------------------------------------------------------------
# 1. stationary energy and eikonal exactness (model A)
# ---------------------------------------------------------------------------

def test_stationary_phase_exactness():
    model = model_a()
    t, r1 = 25.0, 4.0   # the anchor r_lambda(1e-4) = 2 r0
    r = np.linspace(10.0, 20.0, 400)
    sf = stationary_point(model, 0, t, r, lam_lo=1e-4)
    msk = sf.mask
    assert np.any(msk)
    exact = (r[msk] - r1) ** 2 / (2.0 * t**2)
    assert np.max(np.abs(sf.lam_c[msk] - exact)) <= 1e-9

    res = hamilton_jacobi_residual(model, 0, 30.0, np.linspace(12.0, 20.0, 40),
                                   lam_lo=1e-4)
    assert np.nanmax(res) <= 1e-6


# ---------------------------------------------------------------------------
# 2. the leading term is an exact isometry (models A and C)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [model_a(), model_c()], ids=["A", "C"])
def test_leading_term_isometry(model):
    h = bump(0.55, 0.25)
    for t in (10.0, 100.0, 640.0):
        r, vals, _ = leading_term(model, h, t)
        assert abs(state_norm(r, vals) - h.norm()) <= 1e-8


# ---------------------------------------------------------------------------
# 3. the full comparison dynamics converges to its leading term (model A)
# ---------------------------------------------------------------------------

def test_comparison_minus_leading_decays():
    model = model_a()
    h = bump(0.55, 0.25)
    t_grid = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
    diffs = []
    for t in t_grid:
        r, u0, _ = leading_term(model, h, t)
        _, u = comparison_state(model, h, t, r=r)
        diffs.append(state_norm(r, u - u0))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    slope = np.polyfit(np.log(t_grid), np.log(diffs), 1)[0]
    assert slope <= -0.1


# ---------------------------------------------------------------------------
# 4. Parseval: boundary-data norm vs the spectral measure (models A, B)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [model_a(), model_b()], ids=["A", "B"])
def test_transform_norm_matches_spectral_measure(model):
    grid = RadialGrid(120.0, 0.02)
    op = ModeOperator(model, grid, 0)
    psi = np.exp(-(grid.x - 0.8) ** 2 + 0.3j * grid.x).astype(complex)
    psi /= grid.norm(psi)
    lam0 = model.ends[0].lambda0
    for lam in np.linspace(0.35, 0.95, 5) + lam0:
        pair = jost_pair(op, float(lam), +1)
        coeffs, _ = distorted_ft(pair, psi)
        phi, _ = limiting_resolvent(pair, psi)
        rhs = 2.0 * np.imag(grid.inner(psi, phi))
        norm2 = np.sum(np.abs(coeffs) ** 2)
        assert abs(norm2 - rhs) <= 1e-4  # psi has unit norm


# ---------------------------------------------------------------------------
# 5. S-matrix unitarity and the square-barrier oracle (A, free, D)
# ---------------------------------------------------------------------------

def test_smatrix_unitarity_and_oracle():
    grid = RadialGrid(60.0, 0.01)
    for lam in (0.3, 0.5, 0.8):
        sd = scattering_matrix(model_a(), grid, lam)
        assert sd.unitarity_defect <= 1e-6
    for lam in (0.3, 0.8):
        sd = scattering_matrix(model_free(), grid, lam)
        assert abs(abs(sd.blocks[0, 1, 0]) - 1.0) <= 1e-6
        assert sd.unitarity_defect <= 1e-6
    md = model_d()
    for lam in (0.6, 0.9, 1.3, 2.0):
        sd = scattering_matrix(md, grid, lam)
        oc = closed_form_scattering("square_well", lam, v0=1.5, half_width=1.0)
        assert np.max(np.abs(np.abs(sd.blocks[0]) - oc["s_abs"])) <= 1e-4


# ---------------------------------------------------------------------------
# 6. nonzero transmission: S-matrix vs the dynamical experiment (B, D)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,center,width,lam_nodes,rmax,s_rmax", [
    (model_d(), 2.0, 0.5, (1.6, 2.0, 2.4), 300.0, 60.0),
    # B's hyperbolic end needs the longer S-grid to pass unitarity
    (model_b(), 0.6, 0.2, (0.45, 0.6, 0.75), 200.0, 120.0),
], ids=["D", "B"])
def test_transmission_consistency(model, center, width, lam_nodes, rmax, s_rmax):
    sgrid = RadialGrid(s_rmax, 0.01)
    h = bump(center, width)
    svals = []
    for lam in lam_nodes:
        sd = scattering_matrix(model, sgrid, float(lam))
        assert sd.unitarity_defect <= 1e-6
        s10 = abs(sd.blocks[0, 1, 0])
        assert s10 > 0.0
        svals.append(s10)
    s_abs = lambda lam: np.interp(lam, lam_nodes, svals)
    op = ModeOperator(model, RadialGrid(rmax, 0.02), 0)
    rep = transmission_experiment(op, h, s_abs=s_abs,
                                  t_prepare=40.0, t_probe=[40.0, 60.0, 80.0],
                                  cfg=EvolutionConfig(dt=0.05))
    assert rep["measured_mass"] > 0
    assert 0.5 <= rep["ratio"] <= 2.0


def test_transmission_matches_the_closed_form_on_d():
    """Prepared from the comparison dynamics at the grid nodes, W^- h on
    D transmits the mass the closed-form barrier |S| predicts within 5 %
    (prepared from the leading term it read 1.25 times that at t = 40)."""
    model = model_d()
    h = bump(0.55, 0.25)
    barrier = model.barrier

    def s_abs(lam):
        return np.array([abs(closed_form_scattering(
            "square_well", float(x), v0=barrier["v0"],
            half_width=barrier["half_width"])["t"]) for x in lam])

    t_prepare, t_probe = 40.0, [40.0, 60.0, 80.0]
    op = _propagation_operator(model, h, t_probe[-1])
    rep = transmission_experiment(op, h, s_abs=s_abs,
                                  t_prepare=t_prepare, t_probe=t_probe,
                                  cfg=EvolutionConfig(dt=0.05))
    assert abs(rep["ratio"] - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# 7. wave-operator Cauchy convergence and the adjoint identity (model A)
# ---------------------------------------------------------------------------

def test_wave_operator_and_adjoint_identity():
    model = model_a()
    h = bump(0.55, 0.25)
    t_grid = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    rmax = 4.0 + 1.3 * t_grid[-1] * np.sqrt(2.0 * h.lam_hi) + 15.0
    grid = RadialGrid(rmax, 0.02)
    op = ModeOperator(model, grid, 0)
    rep = wave_operator(op, model, h, t_grid, cfg=EvolutionConfig(dt=0.05),
                        estimate=True)
    inc = rep["increments"]
    assert all(b < a for a, b in zip(inc, inc[1:]))
    assert inc[-1] <= 1e-3

    psis = []
    for c, s, k in ((0.5, 1.0, 0.0), (-1.0, 1.5, 0.5), (2.0, 0.8, -0.7)):
        p = np.exp(-((grid.x - c) ** 2) / (2 * s**2) + 1j * k * grid.x)
        psis.append(p.astype(complex) / grid.norm(p))
    adj = adjoint_identity_check(op, h, rep["estimate"], psis,
                                 ft_grid=RadialGrid(120.0, 0.02))
    assert adj["max_defect"] <= 1e-3


# ---------------------------------------------------------------------------
# 8. Dollard dynamics absorbs the slow tail up to a phase (model C)
# ---------------------------------------------------------------------------

def test_dollard_equivalence_with_phase_modifier():
    model = model_c()
    h = bump(2.0, 0.8)
    h_mod = h.modified(lambda lam: -phase_modifier(model, 0, lam, "do"))
    diffs = []
    for t in (10.0, 40.0, 160.0, 640.0):
        r, u0, _ = leading_term(model, h, t)
        _, u_do = dollard_state(model, h_mod, t, r=r)
        diffs.append(state_norm(r, u_do - u0))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] <= 5e-2 * h.norm()


# ---------------------------------------------------------------------------
# 9. the mode reduction agrees with a brute-force 2-d solve; the i0 limit
#    is reached at the expected rate (models A, B)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [model_a(), model_b()], ids=["A", "B"])
def test_mode_reduction_matches_dense_2d(model):
    nx, ntheta, rmax, t = 160, 48, 12.0, 5.0
    x = np.linspace(-rmax, rmax, nx)
    grid = RadialGrid(rmax, x[1] - x[0])
    op = ModeOperator(model, grid, 0)
    u0 = np.exp(-((x - 2.0) ** 2) / (2.0 * 1.5**2) + 0.8j * x).astype(complex)
    u0 /= grid.norm(u0)
    u1, _ = evolve(op, u0, t, EvolutionConfig(dt=0.01))

    H2, _, theta = dense_hamiltonian_2d(model, rmax, nx, ntheta)
    psi1 = expm_multiply(-1j * t * H2, embed_mode_state(u0, 0, theta))
    ang = np.full(ntheta, 1.0 / np.sqrt(2.0 * np.pi))
    u1_oracle = psi1.reshape(nx, ntheta) @ ang * (theta[1] - theta[0])
    assert grid.norm(u1 - u1_oracle) / grid.norm(u0) <= 1e-3


@pytest.mark.parametrize("model", [model_a(), model_b()], ids=["A", "B"])
def test_small_eps_resolvent_rate(model):
    lam = 0.6 + max(e.lambda0 for e in model.ends)
    grid = RadialGrid(400.0, 0.02)
    op = ModeOperator(model, grid, 0)
    psi = np.exp(-(grid.x - 1.0) ** 2).astype(complex)
    phi0, _ = limiting_resolvent(jost_pair(op, lam), psi)
    w = 1.0 / (1.0 + np.abs(grid.x))
    core = np.abs(grid.x) <= 40.0
    eps_list = [0.1, 0.05, 0.025]
    errs = []
    for eps in eps_list:
        phi = small_eps_resolvent(op, lam, eps, psi)
        errs.append(float(np.sqrt(
            grid.dx * np.sum((w * np.abs(phi - phi0))[core] ** 2))))
    rate = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert rate >= 0.5


# ---------------------------------------------------------------------------
# 10. bit-for-bit reproducibility of the command line front end
# ---------------------------------------------------------------------------

def test_smatrix_cli_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[model]\npreset = free\n\n"
        "[grid]\nrmax = 40\ndx = 0.02\n\n"
        "[run]\nlambda_grid = 0.4:0.6:2\n")
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        code = cli_main(["smatrix", "--config", str(cfg), "--out", str(d)])
        assert code == 0
        outs.append(d)
    for fname in ("smatrix.json", "smatrix_series.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    rep = json.loads((outs[0] / "smatrix.json").read_text())
    assert rep["converged"] is True
