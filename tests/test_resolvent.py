import math

import numpy as np
import pytest

from ends_scatter.fourier import scattering_matrix
from ends_scatter.mode_reduction import ModeOperator, RadialGrid
from ends_scatter.oracle import (closed_form_scattering, free_green,
                                 reference_march)
from ends_scatter.presets import model_a, model_b, model_c, model_d, model_free
from ends_scatter import _clib, resolvent
from ends_scatter.resolvent import (_GAUSS, _launch_data, _march,
                                    _march_nodes, jost_pair, jost_setups,
                                    limiting_resolvent, march_pair,
                                    radiation_residual)


@pytest.fixture(scope="module")
def free_setup():
    grid = RadialGrid(40.0, 0.05)
    op = ModeOperator(model_free(), grid, 0)
    psi = np.exp(-grid.x**2 / 2.0).astype(complex)
    return op, psi


def test_free_resolvent_matches_green_kernel(free_setup):
    """On the exactly free line the marched resolvent must reproduce the
    closed-form outgoing Green kernel convolution."""
    op, psi = free_setup
    grid = op.grid
    lam = 0.5
    phi, diag = limiting_resolvent(jost_pair(op, lam), psi)
    oracle = grid.dx * (free_green(grid.x, grid.x, lam) @ psi)
    # compare away from the truncation boundary
    core = np.abs(grid.x) <= 30.0
    err = grid.norm((phi - oracle)[core]) / grid.norm(oracle[core])
    assert err < 2e-4  # grid discretization floor at dx = 0.05
    assert diag["interior_residual"] < 1e-6


def test_incoming_is_conjugate_of_outgoing(free_setup):
    op, psi = free_setup
    lam = 0.7
    phi_p, _ = limiting_resolvent(jost_pair(op, lam, +1), psi)
    phi_m, _ = limiting_resolvent(jost_pair(op, lam, -1), np.conj(psi))
    assert np.allclose(phi_m, np.conj(phi_p), atol=1e-8)


@pytest.mark.parametrize("model,lam", [(model_a(), 0.6), (model_b(), 0.5)])
def test_interior_residual_and_wronskian(model, lam):
    grid = RadialGrid(40.0, 0.02)
    op = ModeOperator(model, grid, 0)
    psi = np.exp(-(grid.x - 1.0) ** 2).astype(complex)
    lam = lam + max(e.lambda0 for e in model.ends)
    pair = jost_pair(op, lam)
    phi, diag = limiting_resolvent(pair, psi)
    assert diag["interior_residual"] < 1e-5
    assert pair.wronskian_drift < 1e-6


def test_imaginary_part_positive():
    """Im <psi, R(lam + i0) psi> = pi ||F(lam) psi||^2 / 2 >= 0."""
    grid = RadialGrid(40.0, 0.02)
    op = ModeOperator(model_a(), grid, 0)
    psi = np.exp(-(grid.x - 0.5) ** 2 + 0.2j * grid.x)
    for lam in (0.4, 0.8):
        phi, _ = limiting_resolvent(jost_pair(op, lam), psi)
        assert np.imag(grid.inner(psi, phi)) > 0.0


def test_radiation_residual_discriminates_branches():
    """The weighted defect norm is an O(1) certified constant for the
    matching branch and must be clearly larger against the wrong one."""
    grid = RadialGrid(40.0, 0.02)
    op = ModeOperator(model_a(), grid, 0)
    psi = np.exp(-(grid.x - 0.5) ** 2).astype(complex)
    lam = 0.6
    phi, _ = limiting_resolvent(jost_pair(op, lam), psi)
    good = radiation_residual(op, lam, phi, psi, sign=+1)
    bad = radiation_residual(op, lam, phi, psi, sign=-1)
    assert np.isfinite(good["ratio"]) and good["ratio"] > 0.0
    assert bad["ratio"] > 2.0 * good["ratio"]


def test_sommerfeld_certificate_discriminates():
    """Uniqueness certificate: the outgoing solution solves the equation in
    the interior and its defect has vanishing B*_0 mass; checked against
    the wrong branch the defect must be macroscopic."""
    grid = RadialGrid(40.0, 0.02)
    op = ModeOperator(model_a(), grid, 0)
    psi = np.exp(-(grid.x - 0.5) ** 2).astype(complex)
    lam = 0.6
    phi, diag = limiting_resolvent(jost_pair(op, lam, +1), psi)
    assert diag["interior_residual"] <= 1e-4
    assert radiation_residual(op, lam, phi, psi, sign=+1)["bstar0_relative"] <= 1e-2
    wrong = radiation_residual(op, lam, phi, psi, sign=-1)
    assert wrong["bstar0_relative"] > 0.1


def test_jost_pair_rejects_subthreshold_energy():
    grid = RadialGrid(30.0, 0.05)
    op = ModeOperator(model_b(), grid, 0)
    with pytest.raises(ValueError):
        jost_pair(op, 0.1)  # below the 1/8 threshold of the hyperbolic end
    # above both end thresholds, but the m = 1 channel of the flat ends
    # opens only at W_1 = 1/2
    with pytest.raises(ValueError, match="channel is closed"):
        scattering_matrix(model_free(), RadialGrid(30.0, 0.02), 0.3, mmax=1)


def test_degenerate_jost_pair_raises(monkeypatch):
    """Zero launch data give a zero Wronskian; the pair is refused, not
    rebuilt from a larger launch radius or returned."""
    monkeypatch.setattr(resolvent, "_launch_data", lambda *args: (0j, 0j))
    op = ModeOperator(model_a(), RadialGrid(20.0, 0.05), 0)
    with pytest.raises(RuntimeError, match=r"lam=0\.6, sign=-1"):
        jost_pair(op, 0.6, sign=-1)


def _march_error(pair):
    """Largest relative (u, u') error of both Jost solutions against the
    DOP853 reference marched from the same launch node."""
    x = pair.op.grid.x
    model, m = pair.op.model, pair.op.m
    errs = []
    for u, du, order in ((pair.u_right, pair.du_right, slice(None, None, -1)),
                         (pair.u_left, pair.du_left, slice(None))):
        u, du = u[order], du[order]
        ru, rdu = reference_march(model, m, pair.lam, x[order], (u[0], du[0]))
        errs += [np.max(np.abs(u - ru)) / np.max(np.abs(ru)),
                 np.max(np.abs(du - rdu)) / np.max(np.abs(rdu))]
    return max(errs)


@pytest.mark.parametrize("model,m,lam", [
    (model_a(), 0, 0.5), (model_b(), 0, 0.6), (model_b(), 1, 0.6),
    (model_c(), 0, 0.5), (model_d(), 0, 0.9)], ids=["A", "B0", "B1", "C", "D"])
def test_magnus_march_matches_reference(model, m, lam):
    pair = jost_pair(ModeOperator(model, RadialGrid(20.0, 0.01), m), lam)
    assert _march_error(pair) <= 1e-8
    assert pair.wronskian_drift <= 1e-12


def test_breakpoint_between_nodes_splits_its_cell():
    """The barrier edges at +-0.995 fall mid-cell on the dx = 0.01 grid."""
    model = model_d(half_width=0.995)
    grid = RadialGrid(20.0, 0.01)
    lam = 0.9
    pair = jost_pair(ModeOperator(model, grid, 0), lam)
    assert _march_error(pair) <= 1e-8
    sd = scattering_matrix(model, grid, lam)
    oc = closed_form_scattering("square_well", lam, v0=1.5, half_width=0.995)
    assert np.max(np.abs(np.abs(sd.blocks[0]) - oc["s_abs"])) <= 1e-4


@pytest.mark.parametrize("model,rmax,dx,m,lam", [
    (model_free(), 60.0, 0.01, 0, 0.5),
    (model_a(), 60.0, 0.01, 0, 0.5),
    (model_a(), 60.0, 0.01, 1, 0.8),
    (model_b(), 120.0, 0.01, 1, 0.6),
    (model_c(), 60.0, 0.01, 0, 1.5),
    # barrier edges mid-cell: the breakpoints split their cells
    (model_d(half_width=0.995), 60.0, 0.01, 0, 0.9),
], ids=["free", "A0", "A1", "B1", "C", "D"])
def test_incoming_jost_pair_is_the_conjugate(model, rmax, dx, m, lam):
    """scattering_sweep builds the incoming pair as the conjugate of the
    outgoing one; the marched sign -1 pair must equal it bit for bit."""
    op = ModeOperator(model, RadialGrid(rmax, dx), m)
    out = jost_pair(op, lam, +1)
    inc = jost_pair(op, lam, -1)
    for name in ("u_left", "du_left", "u_right", "du_right"):
        assert np.array_equal(getattr(inc, name), np.conj(getattr(out, name)))
    assert inc.wronskian == out.wronskian.conjugate()


def test_one_setup_serves_every_energy_and_mode():
    """Modes set up together share one array of march nodes, and a march
    through a set-up is jost_pair's pair at each energy and sign, bit for
    bit, in whatever order the energies come."""
    model, grid = model_b(), RadialGrid(30.0, 0.02)
    ops = [ModeOperator(model, grid, m) for m in (0, 1, 2)]
    setups = jost_setups(ops)
    assert all(s.nodes is setups[0].nodes for s in setups)
    for lam, sign in ((0.9, +1), (0.45, -1), (0.6, +1)):
        for op, setup in zip(ops, setups):
            got = march_pair(setup, lam, sign)
            want = jost_pair(op, lam, sign)
            for name in ("u_left", "du_left", "u_right", "du_right"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert (got.wronskian, got.wronskian_drift) == (
                want.wronskian, want.wronskian_drift)
    with pytest.raises(ValueError, match="share a model and a grid"):
        jost_setups([ops[0], ModeOperator(model, RadialGrid(20.0, 0.02), 1)])


def _magnus_reference(nodes, w, lam, launch, on_grid):
    """The sequential Magnus-4 march of both Jost solutions written out in
    Python floats, with the math module's transcendentals: each cell's
    matrix [[a, b], [c, d]], the left solution's real and imaginary parts
    marched up through the matrices, the right one's down through their
    adjugates.  Rows u_left, u_left', u_right, u_right' at nodes[on_grid]."""
    mats = []
    for k in range(len(nodes) - 1):
        h = float(nodes[k + 1]) - float(nodes[k])
        q1, q2 = (2.0 * (float(v) - lam) for v in w[k])
        qbar = 0.5 * (q1 + q2)
        alpha = math.sqrt(3.0) / 12.0 * (h * h) * (q1 - q2)
        mu2 = alpha * alpha + (h * h) * qbar
        mu = math.sqrt(abs(mu2))
        if mu2 > 0.0:
            c, s = math.cosh(mu), math.sinh(mu) / mu
        else:
            c, s = math.cos(mu), (math.sin(mu) / mu if mu > 0.0 else 1.0)
        mats.append((c + s * alpha, s * h, s * h * qbar, c - s * alpha))

    def up(y):
        states = [y]
        for a, b, c, d in mats:
            u, du = states[-1]
            states.append((a * u + b * du, c * u + d * du))
        return states

    def down(y):
        states = [y]
        for a, b, c, d in reversed(mats):
            u, du = states[-1]
            states.append((d * u - b * du, a * du - c * u))
        return states[::-1]

    rows = []
    for march, (u0, du0) in ((up, launch[0]), (down, launch[1])):
        re = march((u0.real, du0.real))
        im = march((u0.imag, du0.imag))
        for part in range(2):
            rows.append([complex(re[k][part], im[k][part]) for k in on_grid])
    return np.array(rows)


@pytest.mark.parametrize("model,rmax,m,lam,cells", [
    # the barrier edges at +-0.995 fall mid-cell and split their cells
    (model_d(half_width=0.995), 1.5, 0, 0.9, 302),
    (model_b(), 2.0, 1, 0.6, 400),
], ids=["D", "B1"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_compiled_march_is_the_sequential_product(model, rmax, m, lam, cells,
                                                  sign):
    """The kernel's march is the sequential Magnus-4 product, bit for bit,
    at every grid node of both Jost solutions."""
    op = ModeOperator(model, RadialGrid(rmax, 0.01), m)
    pair = jost_pair(op, lam, sign)
    nodes, on_grid = _march_nodes(model, op.grid)
    assert nodes.size - 1 == cells
    h = np.diff(nodes)
    w = model.w_mode(m, (nodes[:-1, None] + h[:, None] * _GAUSS).ravel())
    # end 1 launches at x = -rmax, where d/dx = -d/dr
    u1, dudr1 = _launch_data(model, 1, lam, sign, rmax)
    u0, dudr0 = _launch_data(model, 0, lam, sign, rmax)
    launch = [(complex(u1), -dudr1), (complex(u0), dudr0)]
    want = _magnus_reference(nodes, w.reshape(-1, 2), lam, launch, on_grid)
    got = np.array([pair.u_left, pair.du_left, pair.u_right, pair.du_right])
    assert got.tobytes() == want.tobytes()


def test_march_rejects_bad_arrays_before_the_kernel(monkeypatch):
    """The kernel checks nothing, so a wrong dtype, shape or layout, or
    grid indices outside the nodes or not increasing, raise ValueError
    before the foreign call."""
    n = 40
    good = dict(nodes=np.linspace(-1.0, 1.0, n), w=np.zeros((n - 1, 2)),
                lam=0.5, on_grid=np.arange(0, n, 3, dtype=np.int64),
                launch=np.ones((2, 2), dtype=complex))
    at = good["on_grid"]
    bad = [("nodes", good["nodes"].astype(np.float32)),
           ("nodes", np.linspace(-1.0, 1.0, 2 * n)[::2]),
           ("nodes", np.zeros(1)),
           ("w", np.zeros((n, 2))),
           ("w", np.zeros(2 * (n - 1))),
           ("w", np.zeros((2, n - 1)).T),
           ("w", np.zeros((n - 1, 2), dtype=complex)),
           ("on_grid", at.astype(np.int32)),
           ("on_grid", np.repeat(at, 2)[::2]),
           ("on_grid", np.append(at, n)),
           ("on_grid", np.insert(at, 0, -1)),
           ("on_grid", at[::-1].copy()),
           ("on_grid", np.sort(np.append(at, at[2]))),
           ("launch", np.ones(4, dtype=complex)),
           ("launch", np.ones((2, 2))),
           ("launch", np.ones((2, 2), dtype=complex).T)]
    monkeypatch.setattr(_clib, "library",
                        lambda: pytest.fail("the kernel was called"))
    for key, value in bad:
        with pytest.raises(ValueError):
            _march(**dict(good, **{key: value}))
    monkeypatch.undo()
    out = _march(**good)
    assert out.shape == (4, at.size)
    # a zero potential below lam marches u = 1, u' = 1 to cos + sin
    x = good["nodes"][at]
    assert np.allclose(out[0], np.cos(x + 1.0) + np.sin(x + 1.0), atol=1e-8)
