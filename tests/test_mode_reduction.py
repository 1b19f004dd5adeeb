import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from ends_scatter.mode_reduction import ModeOperator, RadialGrid, besov_norm
from ends_scatter.presets import model_a, model_b


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(20.0, 0.05)


def test_grid_symmetric_and_spacing(grid):
    # 2 rmax / dx = 28210.15 is no whole number of cells: rmax moves, dx stays
    for g in (grid, RadialGrid(282.1015, 0.02)):
        x = g.x
        assert np.allclose(x, -x[::-1])
        assert np.allclose(np.diff(x), g.dx, rtol=1e-9, atol=0.0)
        assert x[0] == -g.rmax and x[-1] == g.rmax


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


@pytest.mark.parametrize("m", [0, 1, 3])
def test_apply_is_the_five_point_stencil(m):
    """apply against the stencil written out here, not read from banded():
    on a quartic its interior rows are -u''/2 + W u to roundoff (the
    five-point u'' is exact through degree five), and its two rows at
    either end are the five-point row with u = 0 beyond the grid."""
    grid = RadialGrid(2.0, 0.05)
    op = ModeOperator(model_b(), grid, m)
    x, h2 = grid.x, grid.dx ** 2
    rng = np.random.default_rng(5 + m)
    coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = P.polyval(x, coef)
    hu = op.apply(u)
    tol = 1e-12 * np.max(np.abs(u)) / h2
    exact = -0.5 * P.polyval(x, P.polyder(coef, 2)) + op.w * u
    assert np.max(np.abs(hu - exact)[2:-2]) <= tol
    z = np.concatenate([np.zeros(2), u, np.zeros(2)])
    row = (-z[4:] + 16.0 * z[3:-1] - 30.0 * z[2:-2] + 16.0 * z[1:-3]
           - z[:-4]) / (12.0 * h2)
    ends = [0, 1, -2, -1]
    assert np.max(np.abs(hu - (-0.5 * row + op.w * u))[ends]) <= tol


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
    l2 = grid.norm(u)
    assert besov_norm(grid, u, "B") >= l2 * 0.99
    assert besov_norm(grid, u, "Bstar") <= l2 * 1.01
