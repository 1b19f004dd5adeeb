"""Command-line front end: experiment orchestration and result emission.

Subcommands::

    model-check    geometry/potential audit of the configured surface
    resolvent      limiting resolvent R(lambda + i0) psi and residuals
    smatrix        S(lambda) over a lambda grid, unitarity report
    dynamics       comparison dynamics states and isometry defects
    waveop         wave-operator Cauchy convergence report
    transmission   cross-ends transmission vs the S-matrix prediction
    oracle         closed-form cross-checks (free / square-well)

Every run past argument parsing writes ``<out>/<subcommand>.json``
(schema-versioned report, also on failure) and, where applicable, CSV
state/series files; what ``argparse`` refuses (``--preset Q``, or
``--tol -1e-3``, whose value it takes for a flag: ``--tol=-1e-3`` is
parsed) exits 2 with a usage message and no report.  Exit codes: 0
success, 2 configuration/validation error (a NaN or infinite number in
the config or in ``--tol``, ``--t-grid`` or ``--lambda-grid``, refused
where it is read; refused before any march: a grid that
``ModeOperator.check_resolution`` finds too coarse for the run's
largest energy, in ``resolvent``, ``smatrix`` and ``transmission``, and
a lowest energy with no r_lambda; an empty time ladder for ``dynamics``
and ``transmission``, one of fewer than two times for ``waveop``), 3
numerical non-convergence: the exit code of every report is 0 if its
``converged`` is true and 3 otherwise.

What no call changes is built once: the argument parser at the first
``main`` call of a process, not at import, and the Jost march set-up of
a run's mode operators once per run, for all of its energies.

Only this module compares a measurement with a tolerance (``[run]
tol_s``, ``tol_w`` or a constant below); the numerical layers take none,
beyond their solvers' own checks.  A NaN fails every comparison.

Determinism: identical config and flags produce byte-identical output.
All numerics are seed-free; iteration orders are fixed; floats are
serialized with :func:`repr` round-trip formatting.  Every subcommand runs
numpy's BLAS on one thread (``_clib.one_blas_thread``): a product split
over threads sums in an order set by the thread count, which OpenBLAS
takes from the number of cores, so the output no longer depends on either.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__, _clib
from .config import (ConfigError, ExperimentConfig, default_config,
                     load_config, parse_run_value)
from .dynamics import (SpectralProfile, comparison_state, leading_term,
                       state_norm)
from .fourier import _extraction_windows, scattering_sweep
from .geometry import classify_potential
from .mode_reduction import ModeOperator, RadialGrid
from .oracle import closed_form_scattering
from .presets import _CATALOGUE
from .propagator import EvolutionConfig, transmission_experiment, wave_operator
from .resolvent import (jost_setups, limiting_resolvent, march_pair,
                        radiation_residual)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONV = 3

# resolvent verdict: largest accepted uniqueness certificate
# (radiation_residual's bstar0_relative) of the outgoing solution
_BSTAR0_TOL = 1e-2
# dynamics verdict: largest accepted | ||U_0(t) h|| - ||h|| | of the leading
# term, which a front that spans less than a node of its grid exceeds
_ISOMETRY_TOL = 1e-8
# transmission verdict: the accepted band of measured / predicted mass, and
# the largest relative change of the end mass over the last two probes
_RATIO_BAND = (0.5, 2.0)
_STABILIZATION_TOL = 0.05
# node spacing of the propagation grids of waveop and transmission
_PROPAGATION_DX = 0.02


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        # keep the output strict JSON: non-finite floats become strings
        if not np.isfinite(val):
            return repr(val)
        return val
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, str) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(out_dir: str, name: str, report: dict) -> str:
    path = os.path.join(out_dir, f"{name}.json")
    payload = {"schema": 1, "tool": "ends-scatter", "version": __version__}
    payload.update(_jsonable(report))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# shared experiment plumbing
# ---------------------------------------------------------------------------

def _worst(values) -> float:
    """The largest value, NaN if any is (``max`` drops a later NaN)."""
    return float(np.max(list(values)))


def _load(args) -> ExperimentConfig:
    if args.config:
        return load_config(args.config)
    if args.preset:
        return default_config(args.preset)
    raise ConfigError("either --config FILE or --preset NAME is required")


def _profile(cfg: ExperimentConfig) -> SpectralProfile:
    run = cfg.run
    lam0 = cfg.model.ends[run.end - 1].lambda0
    h = SpectralProfile.bump_profile(
        end=run.end - 1, m=run.mode,
        center=lam0 + run.profile_center, width=run.profile_width)
    _r_lambda(cfg.model, h.lam_lo)
    return h


def _r_lambda(model, lam: float) -> float:
    """``model.r_lambda(lam)``, a refusal of which is a configuration error."""
    try:
        return model.r_lambda(lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_resolution(ops, lam_max: float) -> None:
    """Refuse, as a configuration error, a grid too coarse for the run's
    largest energy on any mode it marches or propagates."""
    for op in ops:
        try:
            op.check_resolution(lam_max)
        except ValueError as exc:
            raise ConfigError(f"mode {op.m}: {exc}") from None


def _check_windows(model, grid: RadialGrid, lams) -> None:
    """Refuse, as a configuration error and before any march, an energy
    whose boundary limits find no extraction window on ``grid``."""
    for lam in lams:
        r_lam = _r_lambda(model, lam)
        if not all(_extraction_windows(grid, end, r_lam)[2] for end in (0, 1)):
            raise ConfigError(
                f"no extraction window at lambda={lam:g}: its windows start "
                f"at 2 r_lambda = {2.0 * r_lam:g}, so rmax must be at least "
                f"{4.0 * r_lam:g} (got {grid.rmax:g})")


def _check_ladder(run, least: int) -> None:
    """Refuse, as a configuration error, a time ladder of fewer than
    ``least`` times."""
    if len(run.t_grid) < least:
        raise ConfigError(f"[run] t_grid has length {len(run.t_grid)}; "
                          f"this run needs at least {least}")


def _propagation_operator(model, h: SpectralProfile, t_max: float,
                          rmin: float = 0.0) -> ModeOperator:
    """The operator of ``h``'s mode on a grid of at least ``rmin`` that
    holds the outgoing front of ``h`` up to time ``t_max``."""
    lam_hi = h.lam_hi - model.ends[h.end].lambda0
    rmax = model.r0 + 1.3 * t_max * float(np.sqrt(2.0 * lam_hi)) + 15.0
    return ModeOperator(model, RadialGrid(max(rmin, rmax), _PROPAGATION_DX),
                        h.m)


def _packet(grid: RadialGrid, center: float, width: float,
            momentum: float) -> np.ndarray:
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (2.0 * width ** 2)
                 + 1j * momentum * x).astype(complex)
    return psi / grid.norm(psi)


# ---------------------------------------------------------------------------
# subcommands (each returns its report; main sets the exit code)
# ---------------------------------------------------------------------------

def _cmd_model_check(cfg: ExperimentConfig, args, out_dir):
    model = cfg.model
    ends = []
    for i, end in enumerate(model.ends):
        cls, cdiag = classify_potential(model, i)
        ends.append({
            "index": i + 1,
            "profile": end.name,
            "lambda0": end.lambda0,
            "critical_energy": end.lambda0,
            "class": cls,
            "decay_exponent": cdiag["exponent"],
            "decay_constants": list(end.decay),
        })
    x = np.linspace(-cfg.grid.rmax, cfg.grid.rmax, 2001)
    report = {
        "model": model.name,
        "r0": model.r0,
        "lambda_crit": model.lambda_crit,
        "per_end": [end.lambda0 for end in model.ends],
        "ends": ends,
        "potential_range": [float(np.min(model.q(x))), float(np.max(model.q(x)))],
        "converged": True,
    }
    return report


def _cmd_resolvent(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    grid = RadialGrid(cfg.grid.rmax, cfg.grid.dx)
    op = ModeOperator(model, grid, run.mode)
    psi = _packet(grid, 1.0, 1.0, 0.3)
    lam0 = model.ends[run.end - 1].lambda0

    lams = [float(lam0 + lam) for lam in run.lambdas]
    _check_resolution([op], max(lams))
    _r_lambda(model, min(lams))
    setup, = jost_setups([op])
    entries = []
    for lam in lams:
        pair = march_pair(setup, lam, +1)
        phi, diag = limiting_resolvent(pair, psi)
        rad = radiation_residual(op, lam, phi, psi, sign=+1)
        imag = float(np.imag(grid.inner(psi, phi)))
        entries.append({"lambda": lam,
                        "interior_residual": diag["interior_residual"],
                        "wronskian_drift": pair.wronskian_drift,
                        "radiation_ratio": rad["ratio"],
                        "bstar0_relative": rad["bstar0_relative"],
                        "im_inner": imag, "positive": bool(imag > 0)})
    rows = list(zip(grid.x, phi.real, phi.imag))
    _write_csv(out_dir, "resolvent_state",
               ["x", "re_phi", "im_phi"], rows)
    ok = all(e["positive"] and e["bstar0_relative"] <= _BSTAR0_TOL
             for e in entries)
    worst = _worst(e["interior_residual"] for e in entries)
    report = {"mode": run.mode, "lambdas": lams, "points": entries,
              "worst_residual": worst, "converged": bool(ok)}
    return report


def _cmd_smatrix(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    grid = RadialGrid(cfg.grid.rmax, cfg.grid.dx)
    lams = [float(model.lambda_crit + lam) for lam in run.lambdas]
    _check_resolution([ModeOperator(model, grid, m)
                       for m in range(cfg.grid.mmax + 1)], max(lams))
    _check_windows(model, grid, lams)

    data = scattering_sweep(model, grid, lams, mmax=cfg.grid.mmax)
    entries, rows = [], []
    for lam, sd in zip(lams, data):
        blocks = {str(m): _jsonable(sd.block(m)) for m in sd.modes}
        entries.append({"lambda": lam, "unitarity_defect": sd.unitarity_defect,
                        "blocks": blocks,
                        # reported, not judged yet (see the README)
                        "doubling_residuals": {p["m"]: p["doubling_residual"]
                                               for p in sd.diag["per_mode"]}})
        b0 = sd.block(0)
        rows.append((lam, abs(b0[0, 0]), abs(b0[0, 1]), abs(b0[1, 0]),
                     abs(b0[1, 1]), sd.unitarity_defect))
    _write_csv(out_dir, "smatrix_series",
               ["lambda", "abs_s11", "abs_s12", "abs_s21", "abs_s22",
                "unitarity_defect"], rows)
    worst = _worst(sd.unitarity_defect for sd in data)
    ok = worst <= run.tol_s
    report = {"lambdas": lams, "mmax": cfg.grid.mmax, "points": entries,
              "worst_unitarity_defect": worst, "tol_s": run.tol_s,
              "converged": bool(ok)}
    return report


def _cmd_dynamics(cfg: ExperimentConfig, args, out_dir):
    _check_ladder(cfg.run, 1)
    model, run = cfg.model, cfg.run
    h = _profile(cfg)
    h_norm = h.norm()
    entries, fits = [], []
    for t in run.t_grid:
        r, u0, sf = leading_term(model, h, float(t))
        norm = state_norm(r, u0)
        fits.append(sf.diag)
        entries.append({"t": float(t), "leading_norm": norm,
                        "profile_norm": h_norm,
                        "isometry_defect": abs(norm - h_norm)})
    # r and u0 are the leading term at the last time of the ladder
    _, u_cmp = comparison_state(model, h, float(run.t_grid[-1]), r=r)
    rows = list(zip(r, u0.real, u0.imag, u_cmp.real, u_cmp.imag))
    _write_csv(out_dir, "dynamics_state",
               ["r", "re_leading", "im_leading", "re_comparison",
                "im_comparison"], rows)
    iso = _worst(e["isometry_defect"] for e in entries)
    report = {"end": run.end, "mode": run.mode, "points": entries,
              "worst_isometry_defect": iso,
              "leading_vs_comparison": state_norm(r, u0 - u_cmp),
              "worst_stationary_residual": _worst(d["residual"] for d in fits),
              "converged": (iso <= _ISOMETRY_TOL
                            and all(bool(d["residual_ok"]) for d in fits))}
    return report


def _cmd_waveop(cfg: ExperimentConfig, args, out_dir):
    # the Cauchy increments need two times
    _check_ladder(cfg.run, 2)
    model, run = cfg.model, cfg.run
    h = _profile(cfg)
    op = _propagation_operator(model, h, run.t_grid[-1], cfg.grid.rmax)
    _check_resolution([op], h.lam_hi)
    rep = wave_operator(op, model, h, list(run.t_grid),
                        cfg=EvolutionConfig(dt=run.dt))
    inc = rep["increments"]
    rows = list(zip(run.t_grid[1:], inc))
    _write_csv(out_dir, "waveop_series", ["t", "cauchy_increment"], rows)
    ok = inc[-1] <= run.tol_w and all(b < a for a, b in zip(inc, inc[1:]))
    report = {"t_grid": list(run.t_grid), "increments": inc,
              "tol_w": run.tol_w, "dynamics": rep["dynamics"],
              "converged": bool(ok)}
    return report


def _cmd_transmission(cfg: ExperimentConfig, args, out_dir):
    _check_ladder(cfg.run, 1)
    model, run = cfg.model, cfg.run
    h = _profile(cfg)
    end_to = 1 - h.end
    sgrid = RadialGrid(cfg.grid.rmax, cfg.grid.dx)
    nodes = [h.lam_lo + 1e-3, 0.5 * (h.lam_lo + h.lam_hi), h.lam_hi - 1e-3]
    t_prep = float(run.t_grid[-1])
    op = _propagation_operator(model, h, 2.0 * t_prep)
    # S is taken in modes 0..h.m on sgrid, the dynamics on op's grid
    _check_resolution([*(ModeOperator(model, sgrid, m)
                         for m in range(h.m + 1)), op], h.lam_hi)
    _check_windows(model, sgrid, nodes)

    data = scattering_sweep(model, sgrid, nodes, mmax=h.m)
    svals = [abs(sd.block(h.m)[end_to, h.end]) for sd in data]
    worst = _worst(sd.unitarity_defect for sd in data)
    # np.min keeps a NaN, which then fails sig_min > 0
    sig_min = float(np.min(svals))
    s_abs = lambda lam: np.interp(lam, nodes, svals)

    rep = transmission_experiment(
        op, h, s_abs, t_prepare=t_prep,
        t_probe=[t_prep, 1.5 * t_prep, 2.0 * t_prep],
        cfg=EvolutionConfig(dt=run.dt))
    lo, hi = _RATIO_BAND
    agrees = rep["measured_mass"] > 0 and lo <= rep["ratio"] <= hi
    stable = bool(rep["projection"]["stabilization"] < _STABILIZATION_TOL)
    report = {
        "from_end": run.end, "to_end": end_to + 1,
        "lambda_nodes": nodes, "s_abs_nodes": svals,
        # h's mode, the sweep's last (reported, not judged yet)
        "doubling_residuals": [sd.diag["per_mode"][-1]["doubling_residual"]
                               for sd in data],
        "sigma_min": sig_min,
        "measured_mass": rep["measured_mass"],
        "predicted_mass": rep["predicted_mass"],
        "ratio": rep["ratio"],
        "verdict": "nonzero" if agrees else "indeterminate",
        "stabilization": rep["projection"]["stabilization"],
        "stabilized": stable,
        "worst_unitarity_defect": worst, "tol_s": run.tol_s,
        "converged": bool(agrees and sig_min > 0.0 and worst <= run.tol_s
                          and stable),
    }
    return report


def _cmd_oracle(cfg: ExperimentConfig, args, out_dir):
    run = cfg.run
    entries = []
    for lam in run.lambdas:
        res = closed_form_scattering(args.kind, float(lam), v0=args.v0,
                                     half_width=args.half_width)
        entries.append({
            "lambda": float(lam), "t": res["t"], "r": res["r"],
            "abs_t": abs(res["t"]), "abs_r": abs(res["r"]),
            "flux_defect": res["flux_defect"],
        })
    worst = _worst(e["flux_defect"] for e in entries)
    ok = worst <= run.tol_s
    report = {"kind": args.kind, "v0": args.v0, "half_width": args.half_width,
              "points": entries, "worst_flux_defect": worst,
              "tol_s": run.tol_s, "converged": ok}
    return report


_COMMANDS = {
    "model-check": _cmd_model_check,
    "resolvent": _cmd_resolvent,
    "smatrix": _cmd_smatrix,
    "dynamics": _cmd_dynamics,
    "waveop": _cmd_waveop,
    "transmission": _cmd_transmission,
    "oracle": _cmd_oracle,
}

# the tolerance each subcommand reads, and so the target of its --tol
_TOL_KEYS = {"smatrix": "tol_s", "waveop": "tol_w", "transmission": "tol_s"}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call of a process and
    shared by every later one: no call changes it."""
    ap = argparse.ArgumentParser(
        prog="ends-scatter",
        description="Scattering laboratory for two-ended rotationally "
                    "symmetric surfaces.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--preset", choices=tuple(_CATALOGUE),
                       help="built-in model preset (instead of --config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--lambda-grid", dest="lambda_grid",
                       help="override [run] lambda_grid, lo:hi:count")
        p.add_argument("--t-grid", dest="t_grid",
                       help="override [run] t_grid, comma separated")
        if name in _TOL_KEYS:
            p.add_argument("--tol",
                           help=f"override [run] {_TOL_KEYS[name]}")
        if name == "oracle":
            p.add_argument("--kind", choices=("free", "square_well"),
                           default="square_well")
            p.add_argument("--v0", type=float, default=1.5)
            p.add_argument("--half-width", dest="half_width", type=float,
                           default=1.0)
    return ap


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    flags = [("--lambda-grid", "lambda_grid", args.lambda_grid),
             ("--t-grid", "t_grid", args.t_grid)]
    if args.command in _TOL_KEYS:
        flags.append(("--tol", _TOL_KEYS[args.command], args.tol))
    flags = [(flag, key, raw) for flag, key, raw in flags if raw is not None]
    for flag, _, raw in flags:
        if not raw.strip():
            raise ConfigError(f"{flag} is empty")
    run = replace(cfg.run, **{key: parse_run_value(key, raw, flag)
                              for flag, key, raw in flags})
    run.validate()
    cfg.run = run
    return cfg


def _fail(out_dir: str, command: str, exc: Exception, code: int) -> int:
    """Write the error report of a failed run and return its exit code."""
    _write_json(out_dir, command, {"error": str(exc), "converged": False})
    print(f"error: {exc}", file=sys.stderr)
    return code


@_clib.one_blas_thread()
def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    try:
        cfg = _load(args)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        return _fail(out_dir, args.command, exc, EXIT_CONFIG)

    try:
        report = _COMMANDS[args.command](cfg, args, out_dir)
    except ConfigError as exc:
        return _fail(out_dir, args.command, exc, EXIT_CONFIG)
    except (ValueError, RuntimeError) as exc:
        return _fail(out_dir, args.command, exc, EXIT_NONCONV)

    report.setdefault("model", cfg.model.name)
    report["command"] = args.command
    path = _write_json(out_dir, args.command, report)
    print(path)
    return EXIT_OK if report["converged"] else EXIT_NONCONV


if __name__ == "__main__":
    sys.exit(main())
