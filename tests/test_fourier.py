import numpy as np
import pytest

from ends_scatter.fourier import (_averaged_limit, _extraction_windows,
                                  _phase_factors, distorted_ft,
                                  scattering_matrix, scattering_sweep)
from ends_scatter.geometry import phase_b, phase_integral
from ends_scatter.mode_reduction import ModeOperator, RadialGrid
from ends_scatter.oracle import (_probe_states, reference_distorted_ft,
                                 reference_scattering_matrix)
from ends_scatter.presets import (model_a, model_b, model_c, model_d,
                                  model_free)
from ends_scatter.resolvent import jost_pair


@pytest.fixture(scope="module")
def free_grid():
    return RadialGrid(60.0, 0.02)


def test_free_smatrix_is_pure_transmission(free_grid):
    """On the free line nothing reflects: |S21| = 1, |S11| = 0."""
    sd = scattering_matrix(model_free(), free_grid, 0.5)
    b = sd.block(0)
    assert abs(abs(b[1, 0]) - 1.0) < 1e-6
    assert abs(b[0, 0]) < 1e-6
    assert sd.unitarity_defect < 1e-6


def test_distorted_ft_converges_and_localizes(free_grid):
    """A packet parked far out on end 0 transforms with almost all of its
    boundary mass on end 0."""
    model = model_free()
    op = ModeOperator(model, free_grid, 0)
    x = free_grid.x
    psi = np.exp(-(x - 3.0) ** 2 + 1j * x)
    coeffs, diag = distorted_ft(jost_pair(op, 0.5), psi)
    assert all(e["doubling_residual"] <= 1e-4 for e in diag["ends"])
    # F^+ reads the outgoing asymptotics of R(lam+i0) psi, which
    # for a free right-parked packet radiates through both ends equally
    # in modulus on end 0 vs end 1 only through the core; end 0 dominates
    assert abs(coeffs[0, 0]) > 0.0


def test_smatrix_diagonal_conjugate_symmetry(free_grid):
    """Time-reversal on the free line: S is symmetric."""
    sd = scattering_matrix(model_free(), free_grid, 0.8)
    b = sd.block(0)
    assert abs(b[0, 1] - b[1, 0]) < 1e-6


@pytest.mark.parametrize("model,rmax,mmax,lams", [
    (model_free(), 60.0, 0, (0.3, 0.8)),
    (model_a(), 60.0, 1, (0.3, 0.5, 0.8)),
    (model_b(), 120.0, 1, (0.45, 0.6, 0.75)),
    (model_c(), 60.0, 0, (1.0, 1.5, 2.0)),
    (model_d(), 60.0, 0, (0.6, 0.9, 1.3, 2.0)),
], ids=["free", "A", "B", "C", "D"])
def test_smatrix_matches_probe_reference(model, rmax, mmax, lams):
    """The connection-coefficient S equals the least-squares S over the
    probe family, block by block, with the same doubling residuals; and
    the Jost-pairing transforms F^+ and F^- of the (compactly supported)
    probes, from the outgoing and the incoming pair, equal the
    resolvent-then-extract reference of the same sign."""
    grid = RadialGrid(rmax, 0.01)
    probes = _probe_states(grid, model)
    for lam in lams:
        for m in range(mmax + 1):
            op = ModeOperator(model, grid, m)
            for sign in (+1, -1):
                pair = jost_pair(op, lam, sign)
                coeffs, _ = distorted_ft(pair, probes)
                ref = np.array([reference_distorted_ft(pair, psi)[0]
                                for psi in probes])
                assert (np.max(np.abs(coeffs - ref))
                        <= 1e-12 * np.max(np.abs(ref)))
        sd = scattering_matrix(model, grid, lam, mmax=mmax)
        blocks, residuals = reference_scattering_matrix(model, grid, lam,
                                                        mmax=mmax)
        for b, ref in zip(sd.blocks, blocks):
            assert np.linalg.norm(b - ref, 2) <= 1e-12
        for d, ref in zip(sd.diag["per_mode"], residuals):
            got = d["doubling_residual"]
            assert (got == ref == np.inf) or abs(got - ref) <= 1e-12


def _same_data(got, want):
    """Two ScatteringData agree bit for bit: blocks, defects and each
    mode's doubling residual."""
    assert got.lam == want.lam and got.modes == want.modes
    assert got.blocks.tobytes() == want.blocks.tobytes()
    assert got.unitarity_defect == want.unitarity_defect
    assert got.diag == want.diag


_SWEEPS = {
    "free": (model_free, RadialGrid(60.0, 0.01), (0.6, 0.9, 1.3)),
    "A": (model_a, RadialGrid(60.0, 0.01), (0.3, 0.55, 0.8)),
    "B": (model_b, RadialGrid(60.0, 0.01), (0.3, 0.6, 1.0)),
    "D": (model_d, RadialGrid(60.0, 0.01), (0.6, 1.1, 2.0)),
    # r_lambda 32, 32, 16 and 16
    "C": (model_c, RadialGrid(130.0, 0.02), (0.3, 0.32, 0.6, 0.65)),
    "A-one": (model_a, RadialGrid(60.0, 0.01), (0.55,)),
}


@pytest.mark.parametrize("mmax", [0, 1])
@pytest.mark.parametrize("case", list(_SWEEPS))
def test_sweep_is_the_per_energy_loop(case, mmax):
    """S over a list of energies in one sweep (one march set-up per mode,
    each end's phase factors once per energy for all modes) equals
    scattering_matrix at each energy, bit for bit."""
    make, grid, lams = _SWEEPS[case]
    model = make()
    got = scattering_sweep(model, grid, lams, mmax=mmax)
    assert len(got) == len(lams)
    for sd, lam in zip(got, lams):
        _same_data(sd, scattering_matrix(model, grid, lam, mmax=mmax))


@pytest.mark.parametrize("model,end", [(model_a(), 0), (model_c(), 0),
                                       (model_b(), 1)], ids=["A", "C", "B1"])
def test_phase_factors_keep_the_bits_of_the_whole_end(model, end):
    """The extraction phase of one energy, held at the window nodes only,
    is sqrt(b) e^{-i Phi} from phase_b and phase_integral at those nodes,
    bit for bit; phase_integral over all the end's nodes, read at the
    window nodes, is the same bits, and so are the window means of a
    profile."""
    grid = RadialGrid(130.0, 0.02)
    u = np.exp(0.3j * grid.x) * (1.0 + 0.1 * grid.x)

    def extraction_phase(lam, r):
        b = np.real(phase_b(model, end, lam, r))
        phi = phase_integral(model, end, lam, r)
        return np.sqrt(np.maximum(b, 0.0)) * np.exp(-1j * phi)

    for lam in (1.0, 1.05, 1.1):
        r_lam = model.r_lambda(lam)
        nodes, windows, factor = _phase_factors(model, grid, end, lam, +1)
        all_nodes, r, all_windows = _extraction_windows(grid, end, r_lam)
        assert len(windows) == len(all_windows) >= 2
        held = np.isin(all_nodes, nodes)
        assert np.array_equal(all_nodes[held], nodes)
        want = extraction_phase(lam, r[held])
        assert factor.tobytes() == want.tobytes()
        whole = extraction_phase(lam, r)
        assert whole[held].tobytes() == factor.tobytes()
        want, _ = _averaged_limit(whole * u[all_nodes], all_windows)
        got, _ = _averaged_limit(factor * u[nodes], windows)
        assert got == want


@pytest.mark.parametrize("make,rmax,mmax,lams", [
    # the middle energy is below the 1/8 threshold of B's hyperbolic end
    (model_b, 60.0, 0, (0.6, 0.1, 0.7)),
    # the middle energy closes the m = 1 channel of the flat ends
    (model_free, 30.0, 1, (0.6, 0.3, 0.7)),
    # no extraction window fits at the middle energy (needs rmax >= 128)
    (model_c, 60.0, 0, (2.0, 0.3, 2.0)),
], ids=["threshold", "closed", "window"])
def test_sweep_raises_the_first_error_of_the_loop(make, rmax, mmax, lams):
    """A refused energy in the middle of the list raises what the loop
    of scattering_matrix calls raises first, with the same message."""
    model, grid = make(), RadialGrid(rmax, 0.02)
    with pytest.raises(ValueError) as loop:
        for lam in lams:
            scattering_matrix(model, grid, lam, mmax=mmax)
    with pytest.raises(ValueError) as sweep:
        scattering_sweep(model, grid, lams, mmax=mmax)
    assert str(sweep.value) == str(loop.value)
