"""The benchmark's three laboratory workloads.

Each workload is a closed loop: one client runs the workload's
experiments one after another through the package's public API (the
smatrix sweep goes through ``cli.main``), and every experiment checks its
output against the acceptance tolerances.  Inputs are drawn from the
seed; the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("smatrix-sweep", "comparison-dynamics", "waveop-ladder")

# acceptance tolerances (tests/test_acceptance.py)
TOL_UNITARITY = 1e-6
TOL_ORACLE = 1e-4
TOL_ISOMETRY = 1e-8
# defects are floored at double-precision roundoff before taking margins
ROUNDOFF = 1e-16
MARGINS = ("fourier.unitarity.margin", "oracle.smatrix.margin",
           "dynamics.isometry.margin")


@dataclass(frozen=True)
class Size:
    smatrix_grid: Tuple[float, float]
    dynamics_ladder: Tuple[float, ...]
    waveop_ladder: Tuple[float, ...]
    waveop_dx: float


FULL = Size(smatrix_grid=(60.0, 0.01),
            dynamics_ladder=(10.0, 20.0, 40.0, 80.0, 160.0, 320.0),
            waveop_ladder=(10.0, 20.0, 40.0, 80.0, 160.0),
            waveop_dx=0.02)


def load_package():
    """Import ends_scatter from this checkout's ``src`` and nowhere else."""
    init = SRC / "ends_scatter" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no ends_scatter sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ends_scatter
    import ends_scatter.cli  # noqa: F401  (the smatrix sweep calls cli.main)
    if Path(ends_scatter.__file__).resolve() != init.resolve():
        raise ImportError(f"ends_scatter imported from {ends_scatter.__file__}, "
                          f"not from {SRC}")
    return ends_scatter


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def draw_inputs(workload: str, seed: int) -> dict:
    """Seeded inputs, inside windows where the acceptance tolerances hold.

    The two energies of each smatrix config mirror each other inside the
    window (lo + d, hi - d).  A Jost march costs about sqrt(lambda), so the
    pair's total cost, and with it the pass time, barely moves with the
    seed while the energies themselves do.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    if workload == "smatrix-sweep":
        u_a, u_d = (float(u) for u in rng.uniform(0.0, 0.25, size=2))
        return {
            "A": {"lambdas": [round(0.3 + 0.5 * u_a, 6), round(0.8 - 0.5 * u_a, 6)],
                  "mmax": 1},
            "D": {"lambdas": [round(0.6 + 1.4 * u_d, 6), round(2.0 - 1.4 * u_d, 6)],
                  "mmax": 0},
        }
    return {"center": round(float(rng.uniform(0.52, 0.58)), 6), "width": 0.25}


# ---------------------------------------------------------------------------
# certificate bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Checks:
    """Certificate checks of one run: counts, failures and margins.

    A margin is log10(tolerance / value), the certificate's headroom in
    decades; the smallest one seen is kept.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    margins: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def margin(self, name: str, tol: float, value: float) -> None:
        m = math.log10(tol / max(float(value), ROUNDOFF))
        self.margins[name] = min(m, self.margins.get(name, math.inf))


@dataclass
class Experiment:
    label: str
    run: Callable[[Checks], None]


# ---------------------------------------------------------------------------
# set-up: everything before the first experiment is ready
# ---------------------------------------------------------------------------

def prepare(es, workload: str, inputs: dict, size: Size = FULL) -> dict:
    """Presets, grids and sampled mode operators of one workload."""
    if workload == "smatrix-sweep":
        grid = es.RadialGrid(*size.smatrix_grid)
        state = {"grid": grid, "models": {}}
        for preset, spec in inputs.items():
            model = es.by_name(preset)
            for m in range(spec["mmax"] + 1):
                # validates the drawn energies against the grid resolution
                es.ModeOperator(model, grid, m).check_resolution(max(spec["lambdas"]))
            state["models"][preset] = model
        return state
    h = es.SpectralProfile.bump_profile(end=0, m=0, center=inputs["center"],
                                        width=inputs["width"])
    if workload == "comparison-dynamics":
        return {"profile": h, "models": {p: es.by_name(p) for p in ("A", "C")}}
    model = es.by_name("A")
    t_max = size.waveop_ladder[-1]
    rmax = 4.0 + 1.3 * t_max * math.sqrt(2.0 * h.lam_hi) + 15.0
    op = es.ModeOperator(model, es.RadialGrid(rmax, size.waveop_dx), 0)
    return {"profile": h, "model": model, "op": op}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _smatrix_config(preset: str, spec: dict, size: Size) -> str:
    lo, hi = spec["lambdas"]
    rmax, dx = size.smatrix_grid
    return (f"[model]\npreset = {preset}\n\n"
            f"[grid]\nrmax = {rmax!r}\ndx = {dx!r}\nmmax = {spec['mmax']}\n\n"
            f"[run]\nlambda_grid = {lo!r}:{hi!r}:2\n")


def _s_abs(block) -> np.ndarray:
    """|S| of one 2x2 block as the CLI report serializes it."""
    return np.array([[math.hypot(c["re"], c["im"]) for c in row] for row in block])


def _smatrix_experiment(es, preset: str, spec: dict, model, size: Size,
                        workdir: Path) -> Experiment:
    cfg = workdir / f"smatrix-{preset}.cfg"
    cfg.write_text(_smatrix_config(preset, spec, size))
    out = workdir / f"smatrix-{preset}"

    def run(checks: Checks) -> None:
        (out / "smatrix.json").unlink(missing_ok=True)
        # the CLI prints the report path; keep the harness's stdout clean
        with contextlib.redirect_stdout(io.StringIO()):
            code = es.cli.main(["smatrix", "--config", str(cfg), "--out", str(out)])
        checks.check(f"{preset}.exit_code", code == 0, f"exit {code}")
        # verdicts come from the written report, not its converged flag
        try:
            report = json.loads((out / "smatrix.json").read_text())
            points = report["points"]
        except (OSError, ValueError, KeyError) as exc:
            checks.check(f"{preset}.report", False, repr(exc))
            return
        got = [pt["lambda"] for pt in points]
        covered = (len(got) == len(spec["lambdas"])
                   and np.allclose(got, spec["lambdas"], rtol=1e-12))
        checks.check(f"{preset}.lambdas", covered, f"report covers {got}")
        for pt in points:
            lam, defect = pt["lambda"], pt["unitarity_defect"]
            checks.check(f"{preset}.unitarity[{lam}]", defect <= TOL_UNITARITY,
                         f"defect {defect:.3e}")
            checks.margin("fourier.unitarity.margin", TOL_UNITARITY, defect)
            if preset == "D":
                exact = es.closed_form_scattering(
                    "square_well", lam, v0=model.barrier["v0"],
                    half_width=model.barrier["half_width"])["s_abs"]
                err = float(np.max(np.abs(_s_abs(pt["blocks"]["0"]) - exact)))
                checks.check(f"D.oracle[{lam}]", err <= TOL_ORACLE, f"error {err:.3e}")
                checks.margin("oracle.smatrix.margin", TOL_ORACLE, err)

    return Experiment(f"smatrix-{preset}", run)


def _dynamics_experiment(es, preset: str, model, h, ladder) -> Experiment:
    def run(checks: Checks) -> None:
        h_norm = h.norm()
        diffs = []
        for t in ladder:
            r, u0, sf = es.leading_term(model, h, t)
            _, u = es.comparison_state(model, h, t, r=r)
            iso = abs(es.state_norm(r, u0) - h_norm)
            checks.check(f"{preset}.isometry[t={t:g}]", iso <= TOL_ISOMETRY,
                         f"defect {iso:.3e}")
            checks.margin("dynamics.isometry.margin", TOL_ISOMETRY, iso)
            checks.check(f"{preset}.stationary_residual[t={t:g}]",
                         bool(sf.diag["residual_ok"]),
                         f"residual {sf.diag['residual']:.3e}")
            diffs.append(es.state_norm(r, u - u0))
        checks.check(f"{preset}.comparison_decay",
                     all(b < a for a, b in zip(diffs, diffs[1:])),
                     f"||U - U0|| = {diffs}")

    return Experiment(f"dynamics-{preset}", run)


def _waveop_experiment(es, state: dict, ladder) -> Experiment:
    def run(checks: Checks) -> None:
        try:
            rep = es.wave_operator(state["op"], state["model"], state["profile"],
                                   list(ladder), cfg=es.EvolutionConfig(dt=0.05),
                                   dynamics="exact")
        except RuntimeError as exc:   # evolve's norm-drift guard
            checks.check("norm_guard", False, str(exc))
            for k in range(len(ladder) - 2):
                checks.check(f"increment_decreases[{k}]", False, "not computed")
            return
        checks.check("norm_guard", True)
        inc = rep["increments"]
        for k, (a, b) in enumerate(zip(inc, inc[1:])):
            checks.check(f"increment_decreases[{k}]", b < a, f"{a:.3e} -> {b:.3e}")

    return Experiment("waveop-A", run)


def experiments(es, workload: str, inputs: dict, state: dict, workdir: Path,
                size: Size = FULL) -> List[Experiment]:
    """The workload's experiment list, run in order by one client."""
    if workload == "smatrix-sweep":
        return [_smatrix_experiment(es, p, spec, state["models"][p], size, workdir)
                for p, spec in inputs.items()]
    if workload == "comparison-dynamics":
        return [_dynamics_experiment(es, p, m, state["profile"], size.dynamics_ladder)
                for p, m in state["models"].items()]
    return [_waveop_experiment(es, state, size.waveop_ladder)]
