"""Benchmark of the ends_scatter laboratory.

    python3 perfbench/run.py --workload smatrix-sweep --seed 1 --seconds 5 --trace 0

Runs one workload (see workloads.py) from the root of a checkout, against
the package sources in that checkout's ``src``.  With ``--trace 0`` it
reports the end-to-end metrics of untraced passes, with times in
reference seconds (see speed.py); with ``--trace 1`` it runs one traced
pass and reports per-layer metrics.  The last line of standard output is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted``/``failed`` count certificate checks.  The line before
it records the environment.  Full results, and the spans of a traced run,
go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "pass_frac": "ratio"}

# per-layer metric prefix -> (span name, reported statistics)
SPAN_METRICS = {
    "geometry.w_mode": ("geometry.ManifoldModel.w_mode", ("calls", "s")),
    "resolvent.jost_pair": ("resolvent.jost_pair", ("calls", "s")),
    "resolvent.limiting_resolvent": ("resolvent.limiting_resolvent", ("calls", "s")),
    "fourier.distorted_ft": ("fourier.distorted_ft", ("calls", "s")),
    "fourier.scattering_matrix": ("fourier.scattering_matrix", ("calls", "s")),
    "cli.main": ("cli.main", ("calls", "s")),
    "dynamics.comparison_state": ("dynamics.comparison_state", ("calls", "s")),
    "geometry.phase_integral": ("geometry.phase_integral", ("calls", "s")),
    "dynamics.stationary_point": ("dynamics.stationary_point", ("s",)),
    "dynamics.eikonal": ("dynamics.eikonal", ("s",)),
    "dynamics.leading_term": ("dynamics.leading_term", ("s",)),
    "propagator.Propagator": ("propagator.Propagator", ("calls", "s")),
    "propagator.step": ("propagator.Propagator.step", ("s",)),
    "propagator.evolve": ("propagator.evolve", ("s",)),
    "propagator.wave_operator": ("propagator.wave_operator", ("s",)),
    "mode_reduction.ModeOperator": ("mode_reduction.ModeOperator", ("calls", "s")),
    "mode_reduction.RadialGrid.x": ("mode_reduction.RadialGrid.x", ("calls", "s")),
}


def per_layer_units() -> dict:
    units = {}
    for prefix, (_, stats) in SPAN_METRICS.items():
        for stat in stats:
            units[f"{prefix}.{stat}"] = "count" if stat == "calls" else "s"
    units["resolvent.launch_retries"] = "count"
    units["propagator.steps"] = "count"
    for name in wl.MARGINS:
        units[name] = "log10"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "ends_scatter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, inherited_threads) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "ENDS_SCATTER_THREADS": os.environ.get("ENDS_SCATTER_THREADS"),
        "ENDS_SCATTER_THREADS_inherited": inherited_threads,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> float:
    """Process start until the first experiment is ready, in a fresh
    interpreter: import, presets, grids and mode operators."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(exps, checks: wl.Checks, tracer=None):
    """One pass over the experiment list; returns (wall s, cpu s)."""
    t0, c0 = time.perf_counter(), _cpu_seconds()
    for i, exp in enumerate(exps):
        if tracer is not None:
            tracer.experiment = i
        try:
            exp.run(checks)
        except Exception as exc:   # an experiment that raises fails, unretried
            checks.check(f"{exp.label}.raised", False,
                         "".join(traceback.format_exception_only(exc)).strip())
    return time.perf_counter() - t0, _cpu_seconds() - c0


def layer_metrics(tracer, margins: dict) -> dict:
    arrays = tracer.arrays()
    summary = tracing.span_summary(tracer.names, arrays["name_id"],
                                   arrays["parent"], arrays["start"], arrays["end"])
    units = per_layer_units()
    values = {}
    for prefix, (span, stats) in SPAN_METRICS.items():
        row = summary.get(span, {"calls": 0, "self_s": 0.0})
        for stat in stats:
            values[f"{prefix}.{stat}"] = row["calls"] if stat == "calls" else row["self_s"]
    values["resolvent.launch_retries"] = tracing.nested_calls(
        tracer.names, arrays["name_id"], arrays["parent"], "resolvent.jost_pair")
    values["propagator.steps"] = tracer.counters.get("propagator.steps", 0)
    for name in wl.MARGINS:
        values[name] = margins.get(name, 0.0)
    values["trace.overhead_s"] = len(tracer.start) * tracing.span_cost()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the package's worker pool stays at one thread
    inherited_threads = os.environ.pop("ENDS_SCATTER_THREADS", None)
    try:
        es = wl.load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup = []
    if not args.trace:
        setup = [measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    inputs = wl.draw_inputs(args.workload, args.seed)
    state = wl.prepare(es, args.workload, inputs)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    checks = wl.Checks()
    walls, cpus, ref_walls, ref_cpus = [], [], [], []
    try:
        exps = wl.experiments(es, args.workload, inputs, state, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            inst = tracing.install(tracer)
            try:
                wall, cpu = run_pass(exps, checks, tracer)
            finally:
                inst.uninstall()
            walls.append(wall)
            cpus.append(cpu)
        else:
            speedo = speed.Speedometer()
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < args.seconds:
                speedo.start()
                wall, cpu = run_pass(exps, checks)
                elapsed, ref, kernel_s = speedo.stop()
                walls.append(wall)
                cpus.append(cpu)
                ref_walls.append(ref)
                ref_cpus.append((cpu - kernel_s) * ref / elapsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "inputs": inputs,
              "environment": environment(args.seed, inherited_threads),
              "pass_wall_s": walls, "pass_cpu_s": cpus,
              "pass_ref_wall_s": ref_walls, "pass_ref_cpu_s": ref_cpus,
              "setup_s": setup,
              "checks": {"attempted": checks.attempted, "failed": checks.failed,
                         "failures": checks.failures, "margins": checks.margins}}
    if args.trace:
        metrics, summary = layer_metrics(tracer, checks.margins)
        record["spans"] = summary
        tracer.save(str(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        values = {
            "wall_s": statistics.median(ref_walls),
            "cpu_s": statistics.median(ref_cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - checks.failed / checks.attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record["metrics"] = metrics
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
