"""Command-line front end: experiment orchestration and result emission.

Subcommands::

    model-check    geometry/potential audit of the configured surface
    resolvent      limiting resolvent R(lambda + i0) psi and residuals
    smatrix        S(lambda) over a lambda grid, unitarity report
    dynamics       comparison dynamics states and isometry defects
    waveop         wave-operator Cauchy convergence report
    transmission   cross-ends transmission vs the S-matrix prediction
    oracle         closed-form cross-checks (free / square-well)

Every run writes ``<out>/<subcommand>.json`` (schema-versioned report;
always written, also on numerical failure) and, where applicable, CSV
state/series files.  Exit codes: 0 success, 2 configuration/validation
error, 3 numerical non-convergence.

Determinism: identical config and flags produce byte-identical output.
All numerics are seed-free; iteration orders are fixed; floats are
serialized with :func:`repr` round-trip formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .dynamics import (SpectralProfile, comparison_state, dollard_state,
                       leading_term, phase_modifier, shortrange_state,
                       state_norm)
from .fourier import scattering_matrix, transmission_metric
from .geometry import classify_potential, critical_energy
from .mode_reduction import ModeOperator, RadialGrid
from .oracle import closed_form_scattering
from .presets import by_name
from .propagator import EvolutionConfig, transmission_experiment, wave_operator
from .resolvent import limiting_resolvent, radiation_residual

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONV = 3


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
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, str)) or obj is None:
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

def _load(args) -> ExperimentConfig:
    if args.config:
        return load_config(args.config)
    if args.preset:
        return default_config(args.preset)
    raise ConfigError("either --config FILE or --preset NAME is required")


def _profile(cfg: ExperimentConfig) -> SpectralProfile:
    run = cfg.run
    lam0 = cfg.model.ends[run.end - 1].lambda0
    return SpectralProfile.bump_profile(
        end=run.end - 1, m=run.mode,
        center=lam0 + run.profile_center, width=run.profile_width)


def _packet(grid: RadialGrid, center: float, width: float,
            momentum: float) -> np.ndarray:
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (2.0 * width ** 2)
                 + 1j * momentum * x).astype(complex)
    return psi / grid.norm(psi)


# ---------------------------------------------------------------------------
# subcommands (each returns (exit_code, report))
# ---------------------------------------------------------------------------

def _cmd_model_check(cfg: ExperimentConfig, args, out_dir):
    model = cfg.model
    lam_crit, per_end = critical_energy(model)
    ends = []
    for i, end in enumerate(model.ends):
        cls, cdiag = classify_potential(model, i)
        ends.append({
            "index": i + 1,
            "profile": end.name,
            "lambda0": end.lambda0,
            "critical_energy": per_end["per_end"][i],
            "class": cls,
            "decay_exponent": cdiag["exponent"],
            "decay_constants": list(end.decay),
        })
    x = np.linspace(-cfg.grid.rmax, cfg.grid.rmax, 2001)
    report = {
        "model": model.name,
        "r0": model.r0,
        "lambda_crit": lam_crit,
        "per_end": per_end["per_end"],
        "ends": ends,
        "potential_range": [float(np.min(model.q(x))), float(np.max(model.q(x)))],
        "converged": True,
    }
    return EXIT_OK, report


def _cmd_resolvent(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    grid = RadialGrid(cfg.grid.rmax, cfg.grid.dx)
    op = ModeOperator(model, grid, run.mode)
    psi = _packet(grid, 1.0, 1.0, 0.3)
    lam0 = model.ends[run.end - 1].lambda0

    lams = [float(lam0 + lam) for lam in run.lambdas]
    entries = []
    worst = 0.0
    for lam in lams:
        phi, diag = limiting_resolvent(op, lam, psi, sign=+1)
        rad = radiation_residual(op, lam, phi, psi, sign=+1)
        imag = float(np.imag(grid.inner(psi, phi)))
        worst = max(worst, diag["interior_residual"])
        entries.append({"lambda": lam,
                        "interior_residual": diag["interior_residual"],
                        "wronskian_drift": diag["wronskian_drift"],
                        "radiation_ratio": rad["ratio"],
                        "im_inner": imag, "positive": bool(imag > 0)})
    rows = list(zip(grid.x, phi.real, phi.imag))
    _write_csv(out_dir, "resolvent_state",
               ["x", "re_phi", "im_phi"], rows)
    ok = all(e["positive"] for e in entries)
    report = {"mode": run.mode, "lambdas": lams, "points": entries,
              "worst_residual": worst, "converged": bool(ok)}
    return (EXIT_OK if ok else EXIT_NONCONV), report


def _cmd_smatrix(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    grid = RadialGrid(cfg.grid.rmax, cfg.grid.dx)
    lam0 = max(e.lambda0 for e in model.ends)
    lams = [float(lam0 + lam) for lam in run.lambdas]

    data = [scattering_matrix(model, grid, lam, mmax=cfg.grid.mmax,
                              tol_s=run.tol_s, tol_f=run.tol_f)
            for lam in lams]
    entries, rows = [], []
    worst = 0.0
    for lam, sd in zip(lams, data):
        worst = max(worst, sd.unitarity_defect)
        blocks = {str(m): _jsonable(sd.block(m)) for m in sd.modes}
        entries.append({"lambda": lam, "unitarity_defect": sd.unitarity_defect,
                        "blocks": blocks})
        b0 = sd.block(0)
        rows.append((lam, abs(b0[0, 0]), abs(b0[0, 1]), abs(b0[1, 0]),
                     abs(b0[1, 1]), sd.unitarity_defect))
    _write_csv(out_dir, "smatrix_series",
               ["lambda", "abs_s11", "abs_s12", "abs_s21", "abs_s22",
                "unitarity_defect"], rows)
    ok = worst <= run.tol_s
    report = {"lambdas": lams, "mmax": cfg.grid.mmax, "points": entries,
              "worst_unitarity_defect": worst, "tol_s": run.tol_s,
              "converged": bool(ok)}
    return (EXIT_OK if ok else EXIT_NONCONV), report


def _cmd_dynamics(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    h = _profile(cfg)
    entries, rows = [], []
    worst = worst_resid = 0.0
    resid_ok = True
    for t in run.t_grid:
        r, u0, sf = leading_term(model, h, float(t))
        iso = abs(state_norm(r, u0) - h.norm())
        worst = max(worst, iso)
        worst_resid = max(worst_resid, sf.diag["residual"])
        resid_ok = resid_ok and bool(sf.diag["residual_ok"])
        entries.append({"t": float(t), "leading_norm": state_norm(r, u0),
                        "profile_norm": h.norm(), "isometry_defect": iso})
    # r and u0 are the leading term at the last time of the ladder
    _, u_cmp = comparison_state(model, h, float(run.t_grid[-1]), r=r)
    rows = list(zip(r, u0.real, u0.imag, u_cmp.real, u_cmp.imag))
    _write_csv(out_dir, "dynamics_state",
               ["r", "re_leading", "im_leading", "re_comparison",
                "im_comparison"], rows)
    report = {"end": run.end, "mode": run.mode, "points": entries,
              "worst_isometry_defect": worst,
              "leading_vs_comparison": state_norm(r, u0 - u_cmp),
              "worst_stationary_residual": worst_resid,
              "converged": resid_ok}
    return (EXIT_OK if resid_ok else EXIT_NONCONV), report


def _cmd_waveop(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    h = _profile(cfg)
    lam_hi = h.lam_hi - model.ends[h.end].lambda0
    rmax = max(cfg.grid.rmax,
               model.r0 + 1.3 * run.t_grid[-1] * float(np.sqrt(2.0 * lam_hi)) + 15.0)
    grid = RadialGrid(rmax, 0.02)
    op = ModeOperator(model, grid, run.mode)
    rep = wave_operator(op, model, h, list(run.t_grid),
                        cfg=EvolutionConfig(dt=run.dt), tol_w=run.tol_w)
    rows = list(zip(run.t_grid[1:], rep["increments"]))
    _write_csv(out_dir, "waveop_series", ["t", "cauchy_increment"], rows)
    report = {"t_grid": list(run.t_grid), "increments": rep["increments"],
              "tol_w": run.tol_w, "dynamics": rep["dynamics"],
              "converged": rep["converged"]}
    return (EXIT_OK if rep["converged"] else EXIT_NONCONV), report


def _cmd_transmission(cfg: ExperimentConfig, args, out_dir):
    model, run = cfg.model, cfg.run
    h = _profile(cfg)
    end_to = 1 - h.end
    sgrid = RadialGrid(cfg.grid.rmax, cfg.grid.dx)
    nodes = [h.lam_lo + 1e-3, 0.5 * (h.lam_lo + h.lam_hi), h.lam_hi - 1e-3]

    data = [scattering_matrix(model, sgrid, float(lam), tol_s=run.tol_s,
                              tol_f=run.tol_f)
            for lam in nodes]
    svals = [abs(sd.blocks[0, end_to, h.end]) for sd in data]
    worst = max(sd.unitarity_defect for sd in data)
    unitary = all(sd.diag["unitary_within_tol"] for sd in data)
    sig_min = min(transmission_metric(sd, i=end_to, j=h.end)["sigma_min"]
                  for sd in data)
    s_abs = lambda lam: np.interp(lam, nodes, svals)

    t_prep = float(run.t_grid[-1]) if run.t_grid else 40.0
    lam_hi = h.lam_hi - model.ends[h.end].lambda0
    rmax = model.r0 + 1.3 * 2.0 * t_prep * float(np.sqrt(2.0 * lam_hi)) + 15.0
    op = ModeOperator(model, RadialGrid(rmax, 0.02), run.mode)
    rep = transmission_experiment(
        op, model, h, end_to, s_abs, t_prepare=t_prep,
        t_probe=[t_prep, 1.5 * t_prep, 2.0 * t_prep],
        cfg=EvolutionConfig(dt=run.dt))
    report = {
        "from_end": run.end, "to_end": end_to + 1,
        "lambda_nodes": nodes, "s_abs_nodes": svals,
        "sigma_min": sig_min,
        "measured_mass": rep["measured_mass"],
        "predicted_mass": rep["predicted_mass"],
        "ratio": rep["ratio"], "verdict": rep["verdict"],
        "stabilization": rep["projection"]["stabilization"],
        "worst_unitarity_defect": worst, "tol_s": run.tol_s,
        "converged": rep["verdict"] == "nonzero" and sig_min > 0.0 and unitary,
    }
    return (EXIT_OK if report["converged"] else EXIT_NONCONV), report


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
    report = {"kind": args.kind, "v0": args.v0, "half_width": args.half_width,
              "points": entries, "converged": True}
    return EXIT_OK, report


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

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ends-scatter",
        description="Scattering laboratory for two-ended rotationally "
                    "symmetric surfaces.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--preset", choices=("free", "A", "B", "C", "D"),
                       help="built-in model preset (instead of --config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--lambda-grid", dest="lambda_grid",
                       help="override [run] lambda_grid, lo:hi:count")
        p.add_argument("--t-grid", dest="t_grid",
                       help="override [run] t_grid, comma separated")
        if name in _TOL_KEYS:
            p.add_argument("--tol", type=float,
                           help=f"override [run] {_TOL_KEYS[name]}")
        if name == "oracle":
            p.add_argument("--kind", choices=("free", "square_well"),
                           default="square_well")
            p.add_argument("--v0", type=float, default=1.5)
            p.add_argument("--half-width", dest="half_width", type=float,
                           default=1.0)
    return ap


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    from dataclasses import replace

    run = cfg.run
    if args.lambda_grid:
        parts = args.lambda_grid.split(":")
        if len(parts) != 3:
            raise ConfigError("--lambda-grid must be lo:hi:count")
        try:
            run = replace(run, lambda_grid=(float(parts[0]), float(parts[1]),
                                            int(parts[2])))
        except ValueError:
            raise ConfigError(f"--lambda-grid {args.lambda_grid!r} is malformed")
    if args.t_grid:
        try:
            run = replace(run, t_grid=tuple(
                float(tok) for tok in args.t_grid.replace(",", " ").split()))
        except ValueError:
            raise ConfigError(f"--t-grid {args.t_grid!r} is malformed")
    if getattr(args, "tol", None) is not None:
        run = replace(run, **{_TOL_KEYS[args.command]: args.tol})
    run.validate()
    cfg.run = run
    return cfg


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    try:
        cfg = _load(args)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_json(out_dir, args.command,
                    {"error": str(exc), "converged": False})
        return EXIT_CONFIG

    try:
        code, report = _COMMANDS[args.command](cfg, args, out_dir)
    except (ValueError, RuntimeError) as exc:
        _write_json(out_dir, args.command,
                    {"error": str(exc), "converged": False})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONV

    report.setdefault("model", cfg.model.name)
    report["command"] = args.command
    path = _write_json(out_dir, args.command, report)
    print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
