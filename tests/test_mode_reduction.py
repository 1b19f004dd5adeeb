import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from ends_scatter.mode_reduction import (ModeOperator, RadialGrid, RadialState,
                                         besov_norm, besov_norms,
                                         half_density_map)
from ends_scatter.presets import model_a, model_b


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(20.0, 0.05)


def test_grid_symmetric_and_spacing(grid):
    x = grid.x
    assert np.allclose(x, -x[::-1])
    assert np.allclose(np.diff(x), grid.dx)
    assert x[0] == -grid.rmax and x[-1] == grid.rmax


def test_grid_nodes_are_one_read_only_array(grid):
    assert grid.x is grid.x
    with pytest.raises(ValueError):
        grid.x[0] = 0.0


def test_end_masks(grid):
    m0 = grid.end_mask(0, 5.0)
    m1 = grid.end_mask(1, 5.0)
    assert np.all(grid.x[m0] >= 5.0)
    assert np.all(grid.x[m1] <= -5.0)
    assert not np.any(m0 & m1)


@given(st.integers(0, 3))
def test_banded_matches_apply(m):
    grid = RadialGrid(8.0, 0.1)
    op = ModeOperator(model_b(), grid, m)
    rng = np.random.default_rng(7 + m)
    u = rng.standard_normal(grid.x.size) + 1j * rng.standard_normal(grid.x.size)
    ab = op.banded()
    n = grid.x.size
    k = ab.shape[0] // 2
    dense = np.zeros((n, n))
    for o in range(-k, k + 1):
        dense += np.diag(ab[k - o, max(o, 0):n + min(o, 0)], o)
    assert np.allclose(dense @ u, op.apply(u), atol=1e-10)


def test_banded_symmetric():
    grid = RadialGrid(10.0, 0.1)
    ab = ModeOperator(model_a(), grid, 1).banded()
    n = grid.x.size
    k = ab.shape[0] // 2
    dense = np.zeros((n, n))
    for o in range(-k, k + 1):
        dense += np.diag(ab[k - o, max(o, 0):n + min(o, 0)], o)
    assert np.allclose(dense, dense.T)


def test_operator_hermitian_inner(grid):
    op = ModeOperator(model_b(), grid, 2)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.x.size) + 1j * rng.standard_normal(grid.x.size)
    v = rng.standard_normal(grid.x.size) + 1j * rng.standard_normal(grid.x.size)
    lhs = grid.inner(op.apply(u), v)
    rhs = grid.inner(u, op.apply(v))
    assert abs(lhs - rhs) < 1e-10 * grid.norm(u) * grid.norm(v)


def test_banded_solve_roundtrip(grid):
    op = ModeOperator(model_a(), grid, 0)
    ab = op.banded().astype(complex)
    mid = ab.shape[0] // 2
    ab[mid] += 1.0j  # shift off the spectrum
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(grid.x.size).astype(complex)
    phi = solve_banded((mid, mid), ab, psi)
    assert np.allclose(op.apply(phi) + 1.0j * phi, psi, atol=1e-9)


def test_check_resolution():
    op = ModeOperator(model_a(), RadialGrid(10.0, 0.2), 0)
    op.check_resolution(0.5)
    with pytest.raises(ValueError):
        op.check_resolution(200.0)


@given(st.floats(0.1, 5.0), st.floats(-1.0, 1.0))
def test_half_density_roundtrip_isometry(width, k):
    grid = RadialGrid(10.0, 0.1)
    m = model_a()
    u = np.exp(-(grid.x / width) ** 2 + 1j * k * grid.x)
    st_flat = RadialState(grid, (0,), u[None, :], rep="flat")
    surf = half_density_map(m, st_flat, to="surface")
    back = half_density_map(m, surf, to="flat")
    assert abs(surf.norm(m) - st_flat.norm()) < 1e-10 * st_flat.norm()
    assert np.allclose(back.data, st_flat.data)


def test_radial_state_validation(grid):
    with pytest.raises(ValueError):
        RadialState(grid, (0, 1), np.zeros((1, grid.x.size)))


def test_besov_norm_scaling(grid):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.x.size)
    for kind in ("B", "Bstar", "Bstar0"):
        a = besov_norm(grid, u, kind)
        b = besov_norm(grid, 3.0 * u, kind)
        assert abs(b - 3.0 * a) < 1e-10 * max(a, 1.0)
    assert besov_norm(grid, np.zeros_like(u)) == 0.0


def test_besov_b_dominates_l2(grid):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(grid.x.size)
    norms = besov_norms(grid, u)
    l2 = grid.norm(u)
    assert norms["B"] >= l2 * 0.99
    assert norms["Bstar"] <= l2 * 1.01
