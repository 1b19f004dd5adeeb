"""Time evolution per angular mode and the wave-operator experiments.

The reduced operator H_m acts on the doubly-infinite line coordinate; the
propagator e^{-itH} is realized by unconditionally stable implicit
stepping (the diagonal Pade (2,2) step as two Cayley-type factors, the
first a pivot-free banded LU and the second a pivot-free banded UL, both
reused across steps).  The step is fourth order in dt only where W_m is
smooth along the state's path.  Measured against a Chebyshev reference
on packets that cross the core, halving dt divided the error by 4.3 to
6.0 on preset A, whose glue is C^2 in W, and by 1.9 to 2.3 on preset D,
whose barrier makes W jump: order about 2 and about 1.

Factors and steps run in the C kernel ``_pade.c``: ``pade_factor`` once
per Cayley factor when a Propagator is made, ``pade_steps`` all the
steps of an evolution in one foreign call.  Each factor is two
triangular band sweeps, the LU's up then down, the UL's down then up,
with the vector updates folded into them; the kernel runs the
same-direction sweeps of consecutive factors in one pass, so a step is
two passes over the state, each with two independent recurrences.  A
call steps one state or two side by side, the two in 256-bit vectors
where the CPU has AVX, at about the cost of one.  The first Propagator of a process builds the package's C kernels
(``_clib``: one ``cc`` call, with SSE3 on x86-64, loaded by ``ctypes``),
and a ctypes call releases the GIL: steps on several threads run on
several cores.  On top of it sit the experiments below; each that takes a
profile h refuses one of another mode than the operator's (ValueError):

  * wave_operator: Cauchy increments of e^{itH} U^+(t) h, evaluated as
    ||e^{i dt H} U(t2) h - U(t1) h|| by unitarity, each met in the
    middle as one two-lane evolution over half its gap, concurrently on a
    thread pool with one factorization per step size,
  * the adjoint identity <psi, W^+ h> = (2 pi)^{-1} int <F^+(lam) psi,
    h(lam)> dlam linking dynamics to the stationary transform,
  * end projections 1_{E_i} measured dynamically and the cross-ends
    transmission experiment against the S-matrix prediction.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _clib
from .dynamics import SpectralProfile, comparison_state
from .fourier import distorted_ft
from .geometry import ManifoldModel
from .mode_reduction import ModeOperator, RadialGrid
from .resolvent import jost_setups, march_pair

__all__ = [
    "EvolutionConfig",
    "Propagator",
    "evolve",
    "wave_operator",
    "adjoint_identity_check",
    "end_mass",
    "end_projection",
    "transmission_experiment",
]

# adjoint_identity_check: Gauss-Legendre nodes of its lam integral
_ADJOINT_LAM_NODES = 24
# EvolutionConfig.validate: the largest dt * max|W_m| it accepts
_MAX_STEP_ENERGY = 4.0


@dataclass
class EvolutionConfig:
    """Step selection for e^{-itH} on one mode: the diagonal Pade (2,2)
    step, exactly norm preserving.  Its error is O(dt^4) where W_m is
    smooth along the state's path, and of lower order where a packet
    crosses a core in which W is only C^2 (about 2) or jumps (about 1);
    see the module docstring."""

    dt: float = 0.05

    def validate(self, op: ModeOperator) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        wmax = float(np.max(np.abs(op.w)))
        if self.dt * wmax > _MAX_STEP_ENERGY:
            raise ValueError(
                f"dt={self.dt} too large for max|W|={wmax:.3g} "
                f"(dt*|W| > {_MAX_STEP_ENERGY})")


_PADE_ROOTS = (-3.0 + 1j * math.sqrt(3.0), -3.0 - 1j * math.sqrt(3.0))

def _pade_steps(factors, x: np.ndarray, n_steps: int) -> None:
    """``n_steps`` Pade steps of x in place by the compiled kernel: one
    state of shape (n,), or two as the columns of an (n, 2) array, each
    stepped as it would be alone.  ``factors`` holds (first sweep, second
    sweep, gain) per Cayley factor, each sweep its (a2, a1) coefficients
    packed per row."""
    n = factors[0][0].shape[0]
    pointers = []
    for f, (first, second, gain) in enumerate(factors):
        pointers += [
            _clib.pointer(first, f"first sweep of factor {f}", complex, (n, 2)),
            _clib.pointer(second, f"second sweep of factor {f}", complex,
                          (n, 2)),
            _clib.pointer(gain, f"gain of factor {f}", complex, (n,))]
    lanes = 2 if x.ndim == 2 else 1
    state = _clib.pointer(x, "state", complex, (n, 2) if lanes == 2 else (n,),
                          writeable=True)
    work = np.empty_like(x)
    _clib.library().pade_steps(n, lanes, n_steps, *pointers, state,
                               work.ctypes.data)


def _lu_sweeps(band: np.ndarray, dt: float, beta: complex):
    """(up, down, gain) of z - beta = L V D, z = i dt H, by the compiled
    kernel, ``band`` the five-row LAPACK band of H: up packs the unit
    lower L, down the unit upper V, and gain is 2 beta / D."""
    n = band.shape[1]
    up = np.empty((n, 2), dtype=complex)
    down = np.empty((n, 2), dtype=complex)
    gain = np.empty(n, dtype=complex)
    _clib.library().pade_factor(
        n, _clib.pointer(band, "band", np.float64, (5, n)), dt, beta.real,
        beta.imag, up.ctypes.data, down.ctypes.data, gain.ctypes.data)
    return up, down, gain


class Propagator:
    """Factorized implicit stepper for e^{-i dt H} on one mode.

    Pade(2,2), norm preserving for hermitian H, as the product over
    beta = -3 +- i sqrt(3) of (z + beta)/(z - beta), z = i dt H (van Dijk &
    Toyama, PRE 75, 036707).  Each factor maps u <- u + 2 beta (z - beta)^-1 u.
    z - beta has hermitian part 3 for either sign of dt, so every pivot of
    its band LU has real part at least 3 and the LU needs no pivoting
    (Golub & Van Loan); the kernel ``pade_factor`` of ``_pade.c`` computes
    it, once per factor.

    z - beta_0 is factored as LU, and z - beta_1 as UL: the LU of the
    index-reversed band, J (z - beta_1) J = L'U' with J the reversal, gives
    z - beta_1 = (J L' J)(J U' J).  So factor 0 solves up then down and
    factor 1 down then up, and the kernel runs each step in two passes
    over the state, each carrying one recurrence of either factor.

    The factors are read-only after construction, so one Propagator may
    step several states on several threads at once: each ``step`` call
    owns its state and work vector, and the compiled kernel that runs its
    steps holds no GIL.
    """

    def __init__(self, op: ModeOperator, dt: float):
        banded = op.banded()
        up0, down0, gain0 = _lu_sweeps(banded, dt, _PADE_ROOTS[0])
        # the LU of the reversed band, read backwards: J L' J is unit
        # upper (a down sweep), J V' J unit lower (an up sweep)
        reversed_band = np.ascontiguousarray(banded[::-1, ::-1])
        down1, up1, gain1 = (np.ascontiguousarray(a[::-1]) for a in
                             _lu_sweeps(reversed_band, dt, _PADE_ROOTS[1]))
        # each factor's sweeps in the order it applies them
        self._factors = [(up0, down0, gain0), (down1, up1, gain1)]
        self.dt = dt
        self.op = op

    def step(self, psi: np.ndarray, n: int = 1) -> np.ndarray:
        """n steps of one state psi of shape (N,), or of two states as the
        columns of an (N, 2) array in one kernel call, each column bit
        for bit the state stepped alone (any other shape raises
        ValueError).  Where the CPU has AVX, two columns cost about as
        much as one.  Returns a new array."""
        out = np.array(psi, dtype=complex, order="C")
        _pade_steps(self._factors, out, n)
        return out


def _step_plan(t: float, cfg: EvolutionConfig) -> Tuple[int, float]:
    """(number of steps, signed step size) of an evolution over t != 0."""
    n_steps = max(1, int(round(abs(t) / cfg.dt)))
    return n_steps, abs(t) / n_steps * (1.0 if t > 0 else -1.0)


def _norm_guard(grid: RadialGrid, psi: np.ndarray, out: np.ndarray,
                t: float) -> float:
    """evolve's norm guards on ``out``, psi evolved over the time t: the
    relative norm drift, or RuntimeError if the norm grew by more than
    1e-3 (instability) or drifted by more than 1e-6 per unit time."""
    n0 = grid.norm(psi)
    n1 = grid.norm(out)
    drift = abs(n1 - n0) / max(n0, 1e-300)
    if n1 > n0 * (1.0 + 1e-3):
        raise RuntimeError(f"propagator instability: norm grew by {drift:.3e}")
    if drift > 1e-6 * max(abs(t), 1.0):
        raise RuntimeError(
            f"propagator norm drift {drift:.3e} exceeds 1e-6 per unit time")
    return drift


def _propagate(prop: Propagator, psi: np.ndarray, t: float,
               n_steps: int) -> Tuple[np.ndarray, dict]:
    """``n_steps`` steps of ``prop`` from psi, spanning the time t, under
    evolve's norm guards."""
    out = prop.step(psi, n_steps)
    return out, {"steps": n_steps,
                 "norm_drift": _norm_guard(prop.op.grid, psi, out, t)}


class _Evolutions:
    """``self(psi, t)`` is evolve(op, psi, t, cfg), with one factorization
    per distinct step size over all the calls: ``factor(dt)``."""

    def __init__(self, op: ModeOperator, cfg: EvolutionConfig):
        cfg.validate(op)
        self.cfg = cfg
        self.factor = functools.cache(functools.partial(Propagator, op))

    def __call__(self, psi: np.ndarray, t: float) -> Tuple[np.ndarray, dict]:
        psi = np.asarray(psi, dtype=complex)
        if t == 0.0:
            return psi.copy(), {"steps": 0, "norm_drift": 0.0}
        n_steps, dt = _step_plan(t, self.cfg)
        return _propagate(self.factor(dt), psi, t, n_steps)


def evolve(op: ModeOperator, psi: np.ndarray, t: float,
           cfg: Optional[EvolutionConfig] = None) -> Tuple[np.ndarray, dict]:
    """e^{-itH} psi (t < 0 propagates backwards).  Returns (state, diag);
    raises if the norm grows by more than 1e-3 (instability) or drifts by
    more than 1e-6 per unit time."""
    return _Evolutions(op, cfg or EvolutionConfig())(psi, t)


# ---------------------------------------------------------------------------
# comparison states on the two-sided grid
# ---------------------------------------------------------------------------

def _check_mode(op: ModeOperator, h: SpectralProfile) -> None:
    """Refuse a profile of another angular mode than ``op``'s."""
    if h.m != op.m:
        raise ValueError(f"the profile is of mode {h.m}, the operator of mode {op.m}")


def _end_state(op: ModeOperator, h: SpectralProfile, t: float,
               sign: int) -> np.ndarray:
    """U^{sign}(t) h by :func:`dynamics.comparison_state` of ``op``'s
    model at the nodes of ``op``'s two-sided grid on the end h.end, zero
    elsewhere, evaluated at the nodes directly: interpolating an
    oscillatory state would contribute O((k dx)^2) spurious increments."""
    _check_mode(op, h)
    mask = op.grid.end_mask(h.end)
    out = np.zeros(mask.size, dtype=complex)
    _, out[mask] = comparison_state(op.model, h, t, r=np.abs(op.grid.x[mask]),
                                    sign=sign)
    return out


@_clib.one_blas_thread()
def wave_operator(op: ModeOperator, model: ManifoldModel, h: SpectralProfile,
                  t_grid: Sequence[float],
                  cfg: Optional[EvolutionConfig] = None, estimate: bool = False,
                  dynamics: str = "exact") -> dict:
    """Wave-operator estimation via Cauchy increments of
    omega(t) = e^{itH} U^+(t) h, U^+ the outgoing comparison dynamics.

    By unitarity  ||omega(t2) - omega(t1)|| =
    ||e^{i (t2-t1) H} U(t2) h - U(t1) h||,  so each increment only
    propagates over its gap of the ladder (at least two strictly
    increasing times).  Returns ``t_grid``, its ``increments`` and
    ``dynamics`` and, with ``estimate``, omega(t_N) on the operator
    grid: the last increment's propagated state carried on over t_{N-1},
    bit for bit one evolution over t_N when every gap is a multiple of
    ``cfg.dt``.  ``model`` must be ``op.model`` and ``dynamics`` 'exact'
    (the benchmark passes both).  Raises ValueError otherwise.

    Each increment meets in the middle.  Its gap takes n steps of one
    Pade step R (``_step_plan``), and R has real coefficients with
    R(-z) = R(z)^-1, so for the real H, R^-1 v = conj(R conj v).  With
    m = n // 2 the increment is evaluated as
    ||R^{n-m} U(t2) h - conj(R^m conj U(t1) h)||: m steps of the two
    lanes side by side, in place in one kernel call, after one single step
    of the first lane when n is odd.  It equals ||R^n U(t2) h - U(t1) h||,
    one evolve per increment, up to the roundoff of the steps (at most
    2.7e-12 relative on the 10 ... 160 ladders of presets A and C);
    evolve's norm guards check each lane over the time it spans.

    The increments are independent.  Each distinct step size is factored
    once, and the increments run concurrently on a thread pool of one
    worker per CPU this process may use (at most one per increment),
    submitted longest gap first, since the longest bounds the pool's
    finish time.  A worker returns its increment's norm; only the last
    increment's first lane is kept, for the estimate, which completes its
    gap and then runs in this thread.  An exception raised in a worker
    (the norm guards' RuntimeError) reaches the caller unchanged.
    """
    from concurrent.futures import ThreadPoolExecutor

    cfg = cfg or EvolutionConfig()
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 2:
        raise ValueError("t_grid needs at least two times")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if dynamics != "exact":
        raise ValueError("dynamics must be 'exact'")
    if model is not op.model:
        raise ValueError("model must be the operator's model")
    run = _Evolutions(op, cfg)
    grid = op.grid
    states = [_end_state(op, h, t, +1) for t in t_grid]

    # e^{i (t2 - t1) H} = evolution over -(t2 - t1), n steps of size dt;
    # each step size is factored here, before any worker starts, so that
    # the workers only read the factors
    plans = [_step_plan(-(t2 - t1), cfg)
             for t1, t2 in zip(t_grid, t_grid[1:])]
    for _, dt in plans:
        run.factor(dt)
    last = len(plans) - 1

    # each increment's two lanes, (U(t2) h, conj U(t1) h), stacked in this
    # thread and stepped in place by its worker, which then allocates only
    # the kernel's work array
    pairs = [np.stack([b, np.conj(a)], axis=1)
             for a, b in zip(states, states[1:])]

    def increment(k):
        n, dt = plans[k]
        prop = run.factor(dt)
        m = n // 2
        pair = pairs[k]
        if n % 2:
            pair[:, 0] = prop.step(pair[:, 0], 1)
        _pade_steps(prop._factors, pair, m)
        _norm_guard(grid, states[k + 1], pair[:, 0], (n - m) * dt)
        _norm_guard(grid, states[k], pair[:, 1], m * dt)
        norm = float(grid.norm(pair[:, 0] - np.conj(pair[:, 1])))
        return norm, (pair[:, 0] if k == last else None)

    order = sorted(range(last + 1), key=lambda k: t_grid[k] - t_grid[k + 1])
    # the CPUs this process may use; the affinity call is Linux-only
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, last + 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {k: pool.submit(increment, k) for k in order}
        increments = [futures[k].result()[0] for k in range(last + 1)]
        ahead = futures[last].result()[1]

    out = {"t_grid": t_grid, "increments": increments, "dynamics": dynamics}
    if estimate:
        # ahead = R^{n-m} U(t_N) h: its last m steps complete the gap to
        # e^{i (t_N - t_{N-1}) H} U(t_N) h
        n, dt = plans[last]
        moved, _ = _propagate(run.factor(dt), ahead, (n // 2) * dt, n // 2)
        out["estimate"], _ = run(moved, -t_grid[-2])
    return out


@_clib.one_blas_thread()
def adjoint_identity_check(op: ModeOperator, h: SpectralProfile,
                           west: np.ndarray, psi_list: Sequence[np.ndarray],
                           ft_grid: RadialGrid) -> dict:
    """Defect of  <psi, W^+ h> = (2 pi)^{-1} int <F^+(lam) psi, h(lam)> dlam
    over a family of test states psi.  ``west`` is the W^+ h estimate on
    ``op``'s grid, as ``wave_operator(..., estimate=True)`` returns it.

    The lam integral runs over the support window of h on 24 Gauss-Legendre
    nodes; F^+(lam) psi is the coefficient on the end carrying h of one
    ``distorted_ft`` per node for all states, each node's Jost pair
    marched through one set-up (``jost_setups``) of ``op``'s model and
    mode on ``ft_grid``.  That grid only needs to hold the test states
    and the extraction windows (the Jost march scales with the grid
    length); the psi are restricted onto it by interpolation.  numpy's
    BLAS runs on one thread throughout, so the defects do not depend on
    the core count.
    """
    _check_mode(op, h)
    grid = op.grid
    nodes, wts = np.polynomial.legendre.leggauss(_ADJOINT_LAM_NODES)
    lam = 0.5 * (h.lam_hi + h.lam_lo) + 0.5 * (h.lam_hi - h.lam_lo) * nodes
    wts = 0.5 * (h.lam_hi - h.lam_lo) * wts

    xf = ft_grid.x
    psi_ft = [np.interp(xf, grid.x, psi.real) + 1j * np.interp(xf, grid.x, psi.imag)
              for psi in psi_list]
    hv = h(lam)
    coeffs = np.zeros((len(psi_list), _ADJOINT_LAM_NODES), dtype=complex)
    setup, = jost_setups([ModeOperator(op.model, ft_grid, op.m)])
    for j, lam_j in enumerate(lam):
        ft, _ = distorted_ft(march_pair(setup, float(lam_j), +1), psi_ft)
        coeffs[:, j] = ft[:, h.end]

    defects = []
    for i, psi in enumerate(psi_list):
        lhs = grid.inner(psi, west)
        rhs = np.sum(wts * np.conj(coeffs[i]) * hv) / (2.0 * np.pi)
        scale = max(grid.norm(psi) * h.norm(), 1e-300)
        defects.append(abs(lhs - rhs) / scale)
    return {"defects": [float(d) for d in defects],
            "max_defect": float(np.max(defects))}


# ---------------------------------------------------------------------------
# end projections
# ---------------------------------------------------------------------------

def end_mass(grid: RadialGrid, psi: np.ndarray, end: int,
             r_min: float) -> float:
    """L2 mass of psi in the end region { r > r_min } of the given end."""
    return grid.norm(psi[grid.end_mask(end, r_min)])


def end_projection(op: ModeOperator, psi: np.ndarray, end: int,
                   t_probe: Sequence[float], r_min: float,
                   cfg: Optional[EvolutionConfig] = None) -> dict:
    """Dynamical estimate of ||P_end^+ psi||: evolve forward and record
    the end-region mass at each probe time; ``stabilization`` is its
    relative change over the last two probes."""
    return _end_projection(_Evolutions(op, cfg or EvolutionConfig()),
                           op.grid, psi, end, t_probe, r_min)


def _end_projection(run, grid: RadialGrid, psi: np.ndarray, end: int,
                    t_probe: Sequence[float], r_min: float) -> dict:
    """end_projection with the evolutions of ``run`` (an _Evolutions)."""
    t_probe = [float(t) for t in t_probe]
    masses = []
    state = np.asarray(psi, dtype=complex)
    t_prev = 0.0
    for t in t_probe:
        state, _ = run(state, t - t_prev)
        t_prev = t
        masses.append(end_mass(grid, state, end, r_min))
    stab = abs(masses[-1] - masses[-2]) / max(masses[-1], 1e-300) \
        if len(masses) > 1 else np.inf
    return {"masses": masses, "t_probe": t_probe, "mass": masses[-1],
            "stabilization": float(stab)}


def transmission_experiment(op: ModeOperator, h: SpectralProfile,
                            s_abs: Callable, t_prepare: float,
                            t_probe: Sequence[float],
                            cfg: Optional[EvolutionConfig] = None) -> dict:
    """Cross-ends transmission: prepare psi ~ W^- h = e^{-i t H} U^-(t) h
    (t = t_prepare, U^- the comparison dynamics at the grid nodes of end
    h.end) as an incoming packet, evolve through the junction and compare
    the outgoing mass in the other end, 1 - h.end, with the S-matrix
    prediction ||S_{ij} h||^2 = (2 pi)^{-1} int |S_ij(lam)|^2 |h(lam)|^2
    dlam.

    ``s_abs(lam)`` must return |S_{1 - h.end, h.end}(lam)| (vectorized).
    Returns the measured and predicted masses, their ratio and the end
    projection; the caller judges their agreement.  The preparation and
    the probes share one factorization per step size.
    """
    model, grid = op.model, op.grid
    run = _Evolutions(op, cfg or EvolutionConfig())

    # psi ~ W^- h at time 0
    psi, _ = run(_end_state(op, h, t_prepare, -1), t_prepare)

    proj = _end_projection(run, grid, psi, 1 - h.end, t_probe, r_min=model.r0)

    lam = np.linspace(h.lam_lo, h.lam_hi, 513)
    hv = np.abs(h(lam)) ** 2
    pred = math.sqrt(np.trapezoid(np.abs(s_abs(lam)) ** 2 * hv, lam) / (2.0 * np.pi))

    measured = proj["mass"]
    ratio = measured / max(pred, 1e-300)
    return {
        "measured_mass": measured,
        "predicted_mass": pred,
        "ratio": float(ratio),
        "projection": proj,
    }
