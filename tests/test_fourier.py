import numpy as np
import pytest

from ends_scatter.fourier import distorted_ft, scattering_matrix
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
    assert sd.diag["unitary_within_tol"]


def test_distorted_ft_converges_and_localizes(free_grid):
    """A packet parked far out on end 0 transforms with almost all of its
    boundary mass on end 0."""
    model = model_free()
    op = ModeOperator(model, free_grid, 0)
    x = free_grid.x
    psi = np.exp(-(x - 3.0) ** 2 + 1j * x)
    coeffs, diag = distorted_ft(op, 0.5, psi)
    assert all(e["converged"] for e in diag["ends"])
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
    the Jost-pairing transform of the (compactly supported) probes equals
    the resolvent-then-extract reference."""
    grid = RadialGrid(rmax, 0.01)
    probes = _probe_states(grid, model)
    for lam in lams:
        for m in range(mmax + 1):
            op = ModeOperator(model, grid, m)
            coeffs, _ = distorted_ft(op, lam, probes)
            pair = jost_pair(op, lam, +1)
            ref = np.array([reference_distorted_ft(op, lam, psi, +1, pair,
                                                   1e-4)[0]
                            for psi in probes])
            assert np.max(np.abs(coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))
        sd = scattering_matrix(model, grid, lam, mmax=mmax)
        blocks, residuals = reference_scattering_matrix(model, grid, lam,
                                                        mmax=mmax)
        for b, ref in zip(sd.blocks, blocks):
            assert np.linalg.norm(b - ref, 2) <= 1e-12
        for d, ref in zip(sd.diag["per_mode"], residuals):
            got = d["doubling_residual"]
            assert (got == ref == np.inf) or abs(got - ref) <= 1e-12
