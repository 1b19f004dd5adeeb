"""Tests of the benchmark's own machinery.

    python -m pytest -q perfbench

Kept out of the package's test suite (pyproject's testpaths is ``tests``).
"""

import inspect
import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import speed
import tracing
import workloads as wl

es = wl.load_package()

# reduced sizes for smoke passes of the workloads
SMOKE = wl.Size(smatrix_grid=(16.0, 0.04),
                dynamics_ladder=(10.0, 20.0, 40.0),
                waveop_ladder=(10.0, 20.0, 40.0),
                waveop_dx=0.04)


def _bindings():
    """Every module attribute and class-dict entry of the package."""
    snap = {}
    for mod in tracing.package_modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = val
            if inspect.isclass(val) and val.__module__.startswith(tracing.PACKAGE):
                for ckey, cval in vars(val).items():
                    snap[(val.__module__, val.__qualname__, ckey)] = cval
    return snap


def test_uninstall_restores_every_binding():
    from ends_scatter import fourier, geometry, mode_reduction, propagator, resolvent
    before = _bindings()
    targets = [(geometry.ManifoldModel, "w_mode"), (propagator.Propagator, "step"),
               (propagator.Propagator, "__init__"), (mode_reduction.RadialGrid, "x")]
    originals = [vars(cls)[key] for cls, key in targets]
    inst = tracing.install(tracing.Tracer())
    try:
        for (cls, key), orig in zip(targets, originals):
            assert vars(cls)[key] is not orig
        for mod in (fourier, es):
            assert mod.jost_pair is not before[("ends_scatter.resolvent", "jost_pair")]
        assert resolvent.jost_pair is fourier.jost_pair is es.jost_pair
        assert es.cli.main is not before[("ends_scatter.cli", "main")]
    finally:
        inst.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_wrapped_package_computes_the_same_numbers():
    grid = es.RadialGrid(12.0, 0.05)
    model = es.model_d()
    ref = es.ModeOperator(model, grid, 0).w
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        got = es.ModeOperator(model, grid, 0).w
    finally:
        inst.uninstall()
    assert np.array_equal(ref, got)
    assert "mode_reduction.ModeOperator" in tracer.names
    assert "geometry.ManifoldModel.w_mode" in tracer.names


def test_self_time_on_synthetic_nested_spans():
    # outer jost_pair [0, 10] rebuilds itself once: inner jost_pair [2, 8];
    # w_mode runs inside both; a sibling root span shares no time
    names = ["resolvent.jost_pair", "geometry.ManifoldModel.w_mode", "cli.main"]
    name_id = [0, 0, 1, 1, 2]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 2.0, 3.0, 9.0, 20.0]
    end = [10.0, 8.0, 4.0, 9.5, 21.0]
    s = tracing.span_summary(names, name_id, parent, start, end)
    assert s["resolvent.jost_pair"]["calls"] == 2
    assert s["resolvent.jost_pair"]["self_s"] == pytest.approx((10 - 6 - 0.5) + (6 - 1))
    assert s["resolvent.jost_pair"]["total_s"] == pytest.approx(16.0)
    assert s["geometry.ManifoldModel.w_mode"]["self_s"] == pytest.approx(1.5)
    assert s["cli.main"]["self_s"] == pytest.approx(1.0)
    assert tracing.nested_calls(names, name_id, parent, "resolvent.jost_pair") == 1
    assert tracing.nested_calls(names, name_id, parent, "absent") == 0


def test_recursive_calls_record_nested_spans():
    tracer = tracing.Tracer()

    def retry(n):
        return traced(n - 1) if n else 0

    traced = tracing._traced(tracer, "resolvent.jost_pair", retry)
    traced(2)
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0, 1]
    assert np.all(a["end"] >= a["start"])
    assert tracing.nested_calls(tracer.names, a["name_id"], a["parent"],
                                "resolvent.jost_pair") == 2
    s = tracing.span_summary(tracer.names, a["name_id"], a["parent"],
                             a["start"], a["end"])
    total = a["end"][0] - a["start"][0]
    assert s["resolvent.jost_pair"]["self_s"] == pytest.approx(total, rel=1e-9)


def test_step_counter_sums_n():
    tracer = tracing.Tracer()
    grid = es.RadialGrid(5.0, 0.1)
    op = es.ModeOperator(es.model_a(), grid, 0)
    inst = tracing.install(tracer)
    try:
        prop = es.Propagator(op, 0.05)
        psi = np.exp(-grid.x ** 2).astype(complex)
        prop.step(psi, 3)
        prop.step(psi)
        prop.step(psi, n=2)
    finally:
        inst.uninstall()
    assert tracer.counters["propagator.steps"] == 6


def test_reference_seconds_scale_each_stretch_by_its_speed():
    k = speed.REFERENCE_KERNEL_S
    # kernels at t = 0, 1, 3 (each taking k or 2k); stretches between them
    # run at reference speed, then at half speed (mean of k and 3k)
    samples = [(0.0, k), (1.0, k), (3.0, 3 * k)]
    elapsed, ref = speed.reference_seconds(samples)
    assert elapsed == pytest.approx(3.0 - 2 * k)
    assert ref == pytest.approx((1.0 - k) + (2.0 - k) / 2.0)


def test_speedometer_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer()
    meter.start()
    t_end = time.perf_counter() + 0.35
    while time.perf_counter() < t_end:
        sum(range(1000))
    elapsed, ref, kernel_s = meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 4
    assert 0.3 < elapsed + kernel_s < 0.5 and ref > 0


def test_calibration_kernel_uses_no_package_code():
    assert tracing.PACKAGE not in inspect.getsource(speed)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert wl.draw_inputs(workload, 11) == wl.draw_inputs(workload, 11)
    draws = [wl.draw_inputs(workload, s) for s in range(20)]
    assert len({json.dumps(d, sort_keys=True) for d in draws}) == 20
    for d in draws:
        if workload == "smatrix-sweep":
            a, b = d["A"]["lambdas"]
            assert 0.3 <= a < b <= 0.8 and d["A"]["mmax"] == 1
            a, b = d["D"]["lambdas"]
            assert 0.6 <= a < b <= 2.0 and d["D"]["mmax"] == 0
        else:
            assert 0.52 <= d["center"] <= 0.58


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_reduced_size_smoke_pass(workload, tmp_path):
    inputs = wl.draw_inputs(workload, 5)
    state = wl.prepare(es, workload, inputs, SMOKE)
    exps = wl.experiments(es, workload, inputs, state, tmp_path, SMOKE)
    checks = wl.Checks()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        wall, cpu = run.run_pass(exps, checks, tracer)
    finally:
        inst.uninstall()
    assert checks.failed == 0, checks.failures
    assert checks.attempted > 0 and wall > 0 and cpu > 0
    metrics, _ = run.layer_metrics(tracer, checks.margins)
    assert metrics.keys() == run.per_layer_units().keys()
    busy = {"smatrix-sweep": "cli.main.calls",
            "comparison-dynamics": "dynamics.comparison_state.calls",
            "waveop-ladder": "propagator.Propagator.calls"}[workload]
    assert metrics[busy]["value"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "waveop-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
