import functools
import platform

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import blas
from scipy.sparse.linalg import spsolve

from ends_scatter import _clib, cli, propagator
from ends_scatter.config import default_config
from ends_scatter.dynamics import (SpectralProfile, comparison_state,
                                   leading_term)
from ends_scatter.mode_reduction import ModeOperator, RadialGrid
from ends_scatter.oracle import chebyshev_evolve
from ends_scatter.presets import model_a, model_c, model_d, model_free
from ends_scatter.propagator import (EvolutionConfig, Propagator, _end_state,
                                     _pade_steps, end_mass, end_projection,
                                     evolve, transmission_experiment,
                                     wave_operator)
from ends_scatter.resolvent import jost_pair, jost_setups


@pytest.fixture(scope="module")
def setup():
    grid = RadialGrid(40.0, 0.05)
    op = ModeOperator(model_a(), grid, 0)
    psi = np.exp(-(grid.x - 3.0) ** 2 + 1j * grid.x)
    psi = psi / grid.norm(psi)
    return op, psi


def test_evolve_preserves_norm_and_reverses(setup):
    op, psi = setup
    cfg = EvolutionConfig(dt=0.02)
    fwd, diag = evolve(op, psi, 2.0, cfg)
    assert diag["norm_drift"] < 1e-10
    back, _ = evolve(op, fwd, -2.0, cfg)
    assert op.grid.norm(back - psi) < 1e-12


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_implicit_step_matches_spectral_reference(setup, t):
    """The Pade(2,2) stepper against the Chebyshev polynomial propagator
    (an entirely different discretization of e^{-itH}), forwards and
    backwards in time."""
    op, psi = setup
    a, _ = evolve(op, psi, t, EvolutionConfig(dt=0.005))
    b = chebyshev_evolve(op, psi, t)
    assert op.grid.norm(a - b) < 1e-6


def _sparse_hamiltonian(op):
    """H_m assembled from its banded form, independently of the stepper."""
    ab = op.banded()
    k = ab.shape[0] // 2
    n = ab.shape[1]
    return sp.dia_matrix((ab, np.arange(k, -k - 1, -1)), shape=(n, n))


@pytest.mark.parametrize("dt", [0.05, -0.05])
def test_factored_step_matches_unfactored_pade(dt):
    """The factored stepper is the same rational function as the textbook
    Pade(2,2) step (1 + z/2 + z^2/12) psi' = (1 - z/2 + z^2/12) psi,
    z = i dt H, so 20 steps agree to roundoff."""
    grid = RadialGrid(10.0, 0.02)
    op = ModeOperator(model_a(), grid, 0)
    z = 1j * dt * _sparse_hamiltonian(op)
    eye = sp.identity(z.shape[0], dtype=complex)
    z2 = (z @ z) / 12.0
    lhs = (eye + z / 2.0 + z2).tocsc()
    rhs = (eye - z / 2.0 + z2).tocsr()
    psi = np.exp(-(grid.x - 3.0) ** 2 + 1j * grid.x)
    ref = psi.copy()
    for _ in range(20):
        ref = spsolve(lhs, rhs @ ref)
    out = Propagator(op, dt).step(psi, 20)
    assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)


def test_fine_grid_step_matches_pade_in_eigenbasis():
    """At dt/dx^2 = 2000 the diagonal of z - beta is some 800 times its
    hermitian part 3; the pivot-free factors still give R(i dt H),
    evaluated here on the eigenvalues of H.  (The unfactored system, with
    condition ~|z|^2/12, is itself off by 1e-10 at this size.)"""
    grid = RadialGrid(4.0, 0.005)
    op = ModeOperator(model_a(), grid, 0)
    lam, vec = np.linalg.eigh(_sparse_hamiltonian(op).toarray())
    z = 0.05j * lam
    pade = (1.0 - z / 2.0 + z**2 / 12.0) / (1.0 + z / 2.0 + z**2 / 12.0)
    psi = np.exp(-(grid.x - 1.0) ** 2 + 1j * grid.x)
    ref = vec @ (pade**20 * (vec.T @ psi))
    out = Propagator(op, 0.05).step(psi, 20)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def _unit_triangle(sweep, lower):
    """The dense unit triangle a sweep solves: row i of an up sweep holds
    (L[i, i-2], L[i, i-1]), row i of a down sweep (U[i, i+2], U[i, i+1])."""
    n = sweep.shape[0]
    out = np.eye(n, dtype=complex)
    for k, offset in ((0, 2), (1, 1)):
        i = np.arange(offset, n) if lower else np.arange(n - offset)
        out[i, i - offset if lower else i + offset] = sweep[i, k]
    return out


@pytest.mark.parametrize("dt", [0.05, -0.05])
@pytest.mark.parametrize("model, grid", [
    *[pytest.param(model_d(), RadialGrid(0.05 * (n - 1), 0.1), id=f"n{n}")
      for n in range(1, 6)],
    pytest.param(model_d(), RadialGrid(3.0, 0.02), id="D"),
    # dt/dx^2 = 1.25e6
    pytest.param(model_a(), RadialGrid(0.05, 2e-4), id="A-fine"),
])
def test_factors_multiply_back_to_the_shifted_band(model, grid, dt):
    """The pivot-free factors of each Cayley factor give back z - beta,
    z = i dt H, to roundoff: L V D for factor 0 and (J L' J)(J V' J) D
    for factor 1, with D = diag(2 beta / gain).  H is assembled from its
    band here, and beta = -3 + i sqrt(3) for factor 0."""
    op = ModeOperator(model, grid, 0)
    (up0, down0, gain0), (down1, up1, gain1) = Propagator(op, dt)._factors
    z = 1j * dt * _sparse_hamiltonian(op).toarray()
    products = [
        (_unit_triangle(up0, True) @ _unit_triangle(down0, False), gain0),
        (_unit_triangle(down1, False) @ _unit_triangle(up1, True), gain1)]
    for beta, (product, gain) in zip((-3.0 + 3**0.5 * 1j, -3.0 - 3**0.5 * 1j),
                                     products):
        want = z - beta * np.eye(z.shape[0])
        got = product * (2.0 * beta / gain)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_step_leaves_no_subnormals():
    """The evanescent tails of the implicit solves underflow towards the
    subnormal range, where each step slows by more than an order of
    magnitude; the solver's floor keeps every entry normal or zero."""
    grid = RadialGrid(200.0, 0.1)
    op = ModeOperator(model_a(), grid, 0)
    x = grid.x
    psi = np.where(np.abs(x - 3.0) < 2.0,
                   np.cos(0.25 * np.pi * (x - 3.0)) ** 2 * np.exp(1j * x), 0.0)
    out = Propagator(op, 0.05).step(psi, 30)
    parts = np.concatenate([out.real, out.imag])
    assert not np.any((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny))


def test_free_gaussian_dispersion(setup):
    """On the free line a packet at momentum k translates at speed k."""
    grid = RadialGrid(60.0, 0.05)
    op = ModeOperator(model_free(), grid, 0)
    k = 1.0
    psi = np.exp(-grid.x**2 / 2.0 + 1j * k * grid.x)
    psi /= grid.norm(psi)
    t = 10.0
    out, _ = evolve(op, psi, t, EvolutionConfig(dt=0.02))
    center = grid.dx * np.sum(grid.x * np.abs(out) ** 2)
    assert abs(center - k * t) < 0.05


def test_evolution_config_validation(setup):
    op, _ = setup
    with pytest.raises(ValueError):
        EvolutionConfig(dt=-1.0).validate(op)
    opd = ModeOperator(model_d(), RadialGrid(10.0, 0.05), 0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=100.0).validate(opd)  # dt * max|W| too large


@pytest.mark.parametrize("n", [2**64, 2**64 + 3, 2**63, -1])
def test_step_counts_outside_int64_are_refused(setup, n):
    """ctypes passes the kernel's int64 count without a range check: 2**64
    steps would take none, 2**64 + 3 would take 3, and a negative count
    would return the state unchanged.  Each is refused instead, while
    n = 0 is the identity."""
    op, psi = setup
    prop = Propagator(op, 0.02)
    with pytest.raises(ValueError, match="0 to 2\\^63 - 1 steps"):
        prop.step(psi, n)
    assert np.array_equal(prop.step(psi, 0), psi)


def test_evolve_zero_time_is_identity(setup):
    op, psi = setup
    out, diag = evolve(op, psi, 0.0)
    assert diag["steps"] == 0
    assert np.array_equal(out, psi)


def test_end_mass_and_projection(setup):
    grid = RadialGrid(60.0, 0.05)
    op = ModeOperator(model_free(), grid, 0)
    psi = np.exp(-grid.x**2 / 8.0 + 1j * grid.x)
    psi /= grid.norm(psi)
    assert end_mass(grid, psi, 0, 30.0) < 1e-6
    proj = end_projection(op, psi, 0, [20.0, 30.0, 40.0], r_min=10.0,
                          cfg=EvolutionConfig(dt=0.05))
    assert proj["stabilization"] < 0.05
    # a right-moving free packet ends up (almost) entirely on end 0
    assert proj["mass"] > 0.98


def test_wave_operator_validates_time_grid(setup):
    op, _ = setup
    h = SpectralProfile.bump_profile()
    with pytest.raises(ValueError):
        wave_operator(op, op.model, h, [10.0, 10.0])
    with pytest.raises(ValueError, match="two times"):
        wave_operator(op, op.model, h, [10.0])
    for dynamics in ("bogus", "leading"):
        with pytest.raises(ValueError, match="dynamics"):
            wave_operator(op, op.model, h, [10.0, 20.0], dynamics=dynamics)


def test_wave_operator_checks_model_and_mode(setup):
    """wave_operator's model must be the operator's, and its profile of the
    operator's mode."""
    op, _ = setup
    h = SpectralProfile.bump_profile(end=0, m=0, center=0.55, width=0.25)
    with pytest.raises(ValueError, match="model"):
        wave_operator(op, model_a(), h, [2.0, 4.0])
    with pytest.raises(ValueError, match="mode 1"):
        wave_operator(op, op.model, SpectralProfile.bump_profile(m=1),
                      [2.0, 4.0])


def test_transmission_checks_mode(setup):
    """The transmission experiment refuses a profile of another mode."""
    op, _ = setup
    with pytest.raises(ValueError, match="mode 1"):
        transmission_experiment(op, SpectralProfile.bump_profile(m=1),
                                lambda lam: 0.5 + 0 * lam, 5.0, [5.0, 7.5])


def test_adjoint_identity_checks_mode(setup):
    """The adjoint identity check refuses a profile of another mode."""
    op, psi = setup
    with pytest.raises(ValueError, match="mode 1"):
        propagator.adjoint_identity_check(
            op, SpectralProfile.bump_profile(m=1), psi, [psi],
            ft_grid=RadialGrid(30.0, 0.02))


def test_wave_operator_estimate_is_one_evolution():
    """The estimate continues the last increment's propagated state over
    t_{N-1}; with every gap a multiple of dt that is, bit for bit, one
    evolution of U(t_N) h over t_N."""
    model = model_a()
    h = SpectralProfile.bump_profile(end=0, m=0, center=0.55, width=0.25)
    grid = RadialGrid(4.0 + 1.3 * 40.0 * np.sqrt(2.0 * h.lam_hi) + 15.0, 0.05)
    op = ModeOperator(model, grid, 0)
    cfg = EvolutionConfig(dt=0.05)
    rep = wave_operator(op, model, h, [10.0, 20.0, 40.0], cfg=cfg,
                        estimate=True)
    mask = grid.end_mask(0)
    state = np.zeros(grid.x.size, dtype=complex)
    _, state[mask] = comparison_state(model, h, 40.0, r=np.abs(grid.x[mask]))
    want, _ = evolve(op, state, -40.0, cfg)
    assert np.array_equal(rep["estimate"], want)
    assert "estimate" not in wave_operator(op, model, h, [10.0, 20.0], cfg=cfg)


def _lower_band(up):
    """The unit lower triangle an up sweep solves, in ztbsv's band layout
    (the diagonal row is not read)."""
    band = np.zeros((3, up.shape[0]), dtype=complex, order="F")
    band[1, :-1] = up[1:, 1]
    band[2, :-2] = up[2:, 0]
    return band


def _upper_band(down):
    """The unit upper triangle a down sweep solves, in ztbsv's band
    layout."""
    band = np.zeros((3, down.shape[0]), dtype=complex, order="F")
    band[1, 1:] = down[:-1, 1]
    band[0, 2:] = down[:-2, 0]
    return band


def _reference_steps(prop, psi, n):
    """n steps of ``prop``'s factors, each as scipy's BLAS ztbsv solves in
    that factor's own order (factor 0 lower then upper, factor 1 upper
    then lower) and numpy vector passes."""
    (up0, down0, gain0), (down1, up1, gain1) = prop._factors
    factors = [([(_lower_band(up0), 1), (_upper_band(down0), 0)], gain0),
               ([(_upper_band(down1), 0), (_lower_band(up1), 1)], gain1)]
    out = np.array(psi, dtype=complex)
    for _ in range(n):
        for solves, gain in factors:
            work = out + 1e-250
            for band, lower in solves:
                work = blas.ztbsv(2, band, work, lower=lower, diag=1)
            out = out + gain * work
    return out


_KERNEL_GRIDS = [
    # the size of the wave-operator grid of a t = 160 ladder
    pytest.param(model_a(), RadialGrid(280.0, 0.02), id="A"),
    pytest.param(model_d(), RadialGrid(30.0, 0.02), id="D"),
    # one to five nodes: fewer rows than the band solves' run-in
    *[pytest.param(model_d(), RadialGrid(0.05 * (n - 1), 0.1), id=f"n{n}")
      for n in range(1, 6)],
]


def _kernel_case(model, grid, dt):
    prop = Propagator(ModeOperator(model, grid, 0), dt)
    x = grid.x
    return prop, np.exp(-(x - 0.3 * x.max()) ** 2 + 1j * x) + 0.1j


@pytest.mark.parametrize("dt", [0.05, -0.05])
@pytest.mark.parametrize("model, grid", _KERNEL_GRIDS)
def test_kernel_matches_ztbsv_reference_step(model, grid, dt):
    """The compiled steps agree with the same factors applied by BLAS
    ztbsv to roundoff over 200 steps: on a wave-operator grid of preset
    A, on preset D (jumps in the potential) and on tiny grids."""
    prop, psi = _kernel_case(model, grid, dt)
    want = _reference_steps(prop, psi, 200)
    got = prop.step(psi, 200)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("dt", [0.05, -0.05])
@pytest.mark.parametrize("model, grid", _KERNEL_GRIDS)
def test_two_lanes_equal_two_one_lane_calls(model, grid, dt):
    """Two states stepped as the columns of one (n, 2) array are, lane for
    lane and bit for bit, each state stepped alone."""
    prop, psi = _kernel_case(model, grid, dt)
    other = 1j * np.conj(psi[::-1]) - 0.2
    pair = prop.step(np.stack([psi, other], axis=1), 200)
    assert pair.shape == (grid.x.size, 2)
    assert np.array_equal(pair[:, 0], prop.step(psi, 200))
    assert np.array_equal(pair[:, 1], prop.step(other, 200))


@pytest.mark.parametrize("model, grid", _KERNEL_GRIDS)
def test_split_steps_equal_one_call(model, grid):
    """The kernel fuses the sweeps of consecutive steps and runs a half
    pass at either end of a call, which must not show: steps split over
    several calls equal the same steps in one call bit for bit, for one
    lane and for two."""
    prop, psi = _kernel_case(model, grid, 0.05)
    for state in (psi, np.stack([psi, np.conj(psi)], axis=1)):
        assert np.array_equal(prop.step(state, 0), state)
        assert np.array_equal(prop.step(prop.step(state, 1), 1),
                              prop.step(state, 2))
        assert np.array_equal(prop.step(prop.step(state, 70), 130),
                              prop.step(state, 200))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the vector bodies are built on x86-64 only")
def test_sse3_kernel_equals_portable_kernel(monkeypatch):
    """The vector bodies of the kernel round like its plain-C bodies: one
    lane with the SSE3 complex product, and two lanes with the AVX one
    where the CPU has AVX.  200 steps of the package's build and of a
    build without SSE3, which holds neither, agree bit for bit."""
    prop, psi = _kernel_case(model_a(), RadialGrid(40.0, 0.02), 0.05)
    pair = np.stack([psi, 1j * np.conj(psi[::-1])], axis=1)
    outs = []
    for flags in (_clib._cflags(), _clib._cflags() + ["-mno-sse3"]):
        lib = _clib._build(flags)
        monkeypatch.setattr(_clib, "library", lambda: lib)
        outs.append((prop.step(psi, 200), prop.step(pair, 200)))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


@pytest.mark.parametrize("t_grid, step_sizes", [
    ([2.0, 4.0, 8.0, 16.0], 1),
    # gaps of 1.0625 = 21.25 dt take 21 shorter steps, an odd count; the
    # estimate's t_{N-1} = 4 is 80 steps of dt again
    ([1.9375, 3.0, 4.0, 5.0625], 2),
])
def test_concurrent_wave_operator_matches_sequential_evolutions(
        setup, monkeypatch, t_grid, step_sizes):
    """The increments evolved on the thread pool, and the estimate after
    them, equal bit for bit the same steps taken in sequence: each gap of
    n steps met in the middle, ||R^{n-m} U(t2) h - conj(R^m conj U(t1) h)||
    with m = n // 2, the first lane's odd step taken alone.  They agree
    with one evolve per increment to roundoff, and each distinct step
    size is factored once."""
    op, _ = setup
    h = SpectralProfile.bump_profile(end=0, m=0, center=0.55, width=0.25)
    cfg = EvolutionConfig(dt=0.05)
    want, evolved = [], []
    for t1, t2 in zip(t_grid, t_grid[1:]):
        u1, u2 = (_end_state(op, h, t, +1) for t in (t1, t2))
        n = max(1, round((t2 - t1) / cfg.dt))
        prop = Propagator(op, -(t2 - t1) / n)
        m = n // 2
        ahead = prop.step(u2, n - m)
        behind = np.conj(prop.step(np.conj(u1), m))
        want.append(float(op.grid.norm(ahead - behind)))
        moved, _ = evolve(op, u2, -(t2 - t1), cfg)
        evolved.append(float(op.grid.norm(moved - u1)))
    want_estimate = prop.step(ahead, m)
    want_estimate, _ = evolve(op, want_estimate, -t_grid[-2], cfg)

    built = []
    init = Propagator.__init__

    def counted(self, op, dt):
        built.append(dt)
        init(self, op, dt)

    monkeypatch.setattr(Propagator, "__init__", counted)
    rep = wave_operator(op, op.model, h, t_grid, cfg=cfg, estimate=True)
    assert rep["increments"] == want
    assert np.array_equal(rep["estimate"], want_estimate)
    assert len(built) == len(set(built)) == step_sizes
    assert np.allclose(rep["increments"], evolved, rtol=1e-11, atol=0.0)


def test_wave_operator_without_cpu_affinity(setup, monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows) the pool takes
    one worker per CPU, and the increments are the same."""
    op, _ = setup
    h = SpectralProfile.bump_profile(end=0, m=0, center=0.55, width=0.25)
    want = wave_operator(op, op.model, h, [2.0, 4.0, 8.0])
    monkeypatch.delattr(propagator.os, "sched_getaffinity")
    assert wave_operator(op, op.model, h, [2.0, 4.0, 8.0]) == want


def test_worker_norm_guard_reaches_caller(setup, monkeypatch):
    """A norm-guard RuntimeError raised on a pool thread reaches the
    caller as it was raised (perfbench's waveop workload catches it)."""
    op, _ = setup
    step = Propagator.step
    monkeypatch.setattr(Propagator, "step",
                        lambda self, psi, n=1: 2.0 * step(self, psi, n))
    h = SpectralProfile.bump_profile(end=0, m=0, center=0.55, width=0.25)
    with pytest.raises(RuntimeError, match="propagator instability"):
        wave_operator(op, op.model, h, [2.0, 4.0, 8.0], estimate=True)


def test_step_rejects_bad_arrays_before_the_kernel(setup):
    """The compiled kernel checks no argument, so a sweep, gain or state
    of the wrong layout, dtype or length raises ValueError before the
    foreign call."""
    op, psi = setup
    prop = Propagator(op, 0.05)
    with pytest.raises(ValueError, match="length"):
        prop.step(psi[:-1])
    with pytest.raises(ValueError, match="state"):
        prop.step(np.stack([psi, psi]))
    x = psi.astype(complex)
    for f, factor in enumerate(prop._factors):
        for slot in range(3):
            array = factor[slot]
            bad = [array[:-1], array.astype(np.complex64),
                   np.repeat(array, 2, axis=0)[::2]]
            bad += ([array[:, 0], array[:, :1], np.asfortranarray(array)]
                    if slot < 2 else [np.stack([array, array], axis=1)])
            for b in bad:
                factors = list(prop._factors)
                factors[f] = factor[:slot] + (b,) + factor[slot + 1:]
                with pytest.raises(ValueError,
                                   match="gain" if slot == 2 else "sweep"):
                    _pade_steps(factors, x.copy(), 1)
    for state in (x[:-1].copy(), x.astype(np.complex64), x[::2],
                  np.stack([x, x], axis=1)[:, 0]):
        with pytest.raises(ValueError, match="state"):
            _pade_steps(prop._factors, state, 1)
    frozen = x.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="state"):
        _pade_steps(prop._factors, frozen, 1)


def test_step_rejects_bad_pairs_before_the_kernel(setup):
    """Two states go to the kernel as the contiguous columns of an (n, 2)
    array; their transpose, a third column, a Fortran-ordered or a short
    pair raises ValueError naming the state."""
    op, psi = setup
    prop = Propagator(op, 0.05)
    pair = np.stack([psi, psi], axis=1).astype(complex)
    for bad in (pair.T.copy(), np.asfortranarray(pair), pair[:-1].copy(),
                np.stack([psi, psi, psi], axis=1), pair[None]):
        with pytest.raises(ValueError, match="state"):
            _pade_steps(prop._factors, bad, 1)


def test_wave_operator_on_the_long_range_preset_c():
    """The paper's long-range case, on the grid the waveop subcommand
    propagates on: over 10 ... 160 the Cauchy increments on the Dollard
    end of preset C decrease (about 0.061, 0.013, 0.0052 and 0.0021), and
    the first two, met in the middle, agree with one evolve each to
    roundoff."""
    cfg = default_config("C")
    model, h = cfg.model, cli._profile(cfg)
    t_grid = [10.0, 20.0, 40.0, 80.0, 160.0]
    op = cli._propagation_operator(model, h, t_grid[-1], cfg.grid.rmax)
    grid = op.grid
    inc = wave_operator(op, model, h, t_grid)["increments"]
    assert all(b < a for a, b in zip(inc, inc[1:]))
    assert np.allclose(inc, [0.061, 0.013, 0.0052, 0.0021], rtol=0.05)
    for k in range(2):
        t1, t2 = t_grid[k:k + 2]
        moved, _ = evolve(op, _end_state(op, h, t2, +1), -(t2 - t1))
        want = grid.norm(moved - _end_state(op, h, t1, +1))
        assert abs(inc[k] - want) <= 1e-11 * want


def test_missing_compiler_is_named(setup, monkeypatch, tmp_path):
    """Without the C compiler and with an empty kernel cache, the first
    propagation, the first Jost pair and the first leading term (on the
    separable end A too) raise an error that names it; the comparison
    states of A and of the Dollard end C need no kernel."""
    op, psi = setup
    monkeypatch.setattr(_clib, "_CC", "no-such-cc")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # a fresh cache, so that the library built already is not reused
    monkeypatch.setattr(_clib, "library",
                        functools.cache(_clib.library.__wrapped__))
    with pytest.raises(RuntimeError, match="C compiler 'no-such-cc'"):
        evolve(op, psi, 1.0)
    with pytest.raises(RuntimeError, match="C compiler 'no-such-cc'"):
        jost_pair(ModeOperator(model_a(), RadialGrid(20.0, 0.05), 0), 0.6)
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    with pytest.raises(RuntimeError, match="C compiler 'no-such-cc'"):
        leading_term(model_a(), h, 10.0)
    for model in (model_a(), model_c()):
        _, u = comparison_state(model, h, 10.0)
        assert np.max(np.abs(u)) > 0.0
    assert _clib.library.cache_info().currsize == 0


@pytest.mark.parametrize("t_probe, step_sizes", [
    ([5.0, 7.5, 10.0], 1),
    # a gap of 2.53 = 50.6 dt takes 51 shorter steps
    ([5.0, 7.5, 10.03], 2),
])
def test_transmission_factors_once_per_step_size(monkeypatch, t_probe,
                                                 step_sizes):
    """The preparation and the probes of the transmission experiment share
    one factorization per step size, and measure what the public evolve
    and end_projection calls measure, bit for bit."""
    model = model_a()
    h = SpectralProfile.bump_profile(end=0, m=0, center=0.55, width=0.25)
    op = ModeOperator(model, RadialGrid(60.0, 0.05), 0)
    cfg = EvolutionConfig(dt=0.05)
    psi, _ = evolve(op, _end_state(op, h, 5.0, -1), 5.0, cfg)
    want = end_projection(op, psi, 1, t_probe, r_min=model.r0, cfg=cfg)

    built = []
    init = Propagator.__init__

    def counted(self, op, dt):
        built.append(dt)
        init(self, op, dt)

    monkeypatch.setattr(Propagator, "__init__", counted)
    rep = transmission_experiment(op, h, lambda lam: 0.5 + 0 * lam, 5.0,
                                  t_probe, cfg)
    assert rep["projection"] == want
    assert len(built) == len(set(built)) == step_sizes


def test_adjoint_identity_marches_every_node_through_one_setup(monkeypatch):
    """``adjoint_identity_check`` builds one Jost set-up of its operator's
    model and mode on ``ft_grid`` for its 24 energies, and its defects are
    the bits of the per-energy ``jost_pair`` path."""
    model = model_a()
    grid = RadialGrid(60.0, 0.01)
    op = ModeOperator(model, grid, 0)
    ft_grid = RadialGrid(30.0, 0.02)
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    u, v, west = (np.exp(-((grid.x - c) ** 2) / (2.0 * s**2) + 1j * k * grid.x)
                  for c, s, k in ((0.5, 1.0, 0.3), (-1.0, 1.5, -0.5),
                                  (2.0, 3.0, 0.7)))
    setups = []

    def counting(ops):
        setups.append(ops)
        return jost_setups(ops)

    monkeypatch.setattr(propagator, "jost_setups", counting)
    got = propagator.adjoint_identity_check(op, h, west, [u, v],
                                            ft_grid=ft_grid)
    ft_op, = setups[0]
    assert len(setups) == 1
    assert (ft_op.model, ft_op.grid, ft_op.m) == (model, ft_grid, 0)

    def per_energy(setup, lam, sign=+1):
        return jost_pair(setup.op, lam, sign)

    monkeypatch.setattr(propagator, "march_pair", per_energy)
    want = propagator.adjoint_identity_check(op, h, west, [u, v],
                                             ft_grid=ft_grid)
    assert got["defects"] == want["defects"]
    assert got["max_defect"] == want["max_defect"]
