"""Plain-text experiment configuration.

Grammar (INI dialect, parsed by :mod:`configparser`)::

    [model]
    preset = A                  ; optional: free|A|B|C|D, replaces [ends.*]
                                ; and [potential]
    r0 = 2.0
    name = my-surface

    [ends.1]                    ; end index 1 -> line coordinate x > 0
    profile = euclidean         ; euclidean|hyperbolic|flat|conic:ALPHA|table:FILE
    q1_amplitude = 1.0          ; optional tail eta(r, r0) A r^-p of q;
    q1_power = 0.8              ; q1 = lambda0 + eta(r, r0) A r^-p
    decay = 1.0, 1.0, 1.0       ; (sigma, tau, rho) decay constants, > 0

    [ends.2]
    profile = hyperbolic

    [potential]
    core = square: 1.5, 1.0     ; square barrier (v0, half_width), or 'none'
    table = file.csv            ; optional sampled core potential (r, V)

    [grid]
    rmax = 60.0
    dx = 0.01
    mmax = 0

    [run]
    lambda_grid = 0.3:1.0:8     ; lo:hi:count above threshold, 0 < lo < hi
    t_grid = 10, 20, 40, 80     ; positive, strictly increasing
    end = 1                     ; launch end for dynamics experiments
    mode = 0                    ; angular mode, >= 0
    profile_center = 0.55       ; spectral window of the launched packet,
    profile_width = 0.25        ; lam0 + center +- width, 0 < width < center
    dt = 0.05
    tol_s = 1e-6                ; unitarity of S, flux defect of oracle
    tol_w = 1e-3                ; last Cauchy increment (waveop)

All sections except [model] are optional; missing keys take the defaults
shown by ``default_config()``, which are the field defaults of
:class:`GridConfig` and :class:`RunConfig`.  Keys are case-insensitive.
A key that its section does not read is an error, and so is a key under
[DEFAULT] that no section reads; with a preset, the [ends.*] and
[potential] sections are not read, so they are an error too.  Validation
failures raise :class:`ConfigError` carrying the section/key context; a
NaN or infinite number, in a key, a table row or a command-line override
read through :func:`parse_run_value`, is one.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from dataclasses import dataclass, field, fields
from typing import Tuple

import numpy as np

from .geometry import EndProfile, ManifoldModel
from .presets import _CATALOGUE, by_name

__all__ = [
    "ConfigError",
    "GridConfig",
    "RunConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "default_config",
]

_PROFILES = ("euclidean", "hyperbolic", "flat", "conic", "table")


class ConfigError(ValueError):
    """Malformed configuration; message carries section/key context."""


@dataclass(frozen=True)
class GridConfig:
    rmax: float = 60.0
    dx: float = 0.01
    mmax: int = 0

    def validate(self) -> None:
        if self.rmax <= 0 or self.dx <= 0:
            raise ConfigError("[grid] rmax and dx must be positive")
        if self.rmax / self.dx > 5e6:
            raise ConfigError("[grid] more than 5e6 points requested")
        if self.mmax < 0:
            raise ConfigError("[grid] mmax must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    lambda_grid: Tuple[float, float, int] = (0.3, 1.0, 8)
    t_grid: Tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)
    end: int = 1
    mode: int = 0
    profile_center: float = 0.55
    profile_width: float = 0.25
    dt: float = 0.05
    tol_s: float = 1e-6
    tol_w: float = 1e-3

    def validate(self) -> None:
        lo, hi, n = self.lambda_grid
        if not (lo < hi and n >= 1):
            raise ConfigError("[run] lambda_grid must be lo:hi:count with lo < hi")
        if not lo > 0:
            raise ConfigError("[run] lambda_grid lo must be positive")
        if not all(t > 0 for t in self.t_grid):
            raise ConfigError("[run] t_grid times must be positive")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("[run] t_grid must be strictly increasing")
        if self.end not in (1, 2):
            raise ConfigError("[run] end must be 1 or 2")
        if self.mode < 0:
            raise ConfigError("[run] mode must be >= 0")
        if self.profile_width <= 0:
            raise ConfigError("[run] profile_width must be positive")
        if not self.profile_center > self.profile_width:
            raise ConfigError(
                "[run] profile_center must exceed profile_width: the window "
                "lam0 + center +- width must stay above the threshold")
        if self.dt <= 0:
            raise ConfigError("[run] dt must be positive")
        for k in ("tol_s", "tol_w"):
            if getattr(self, k) <= 0:
                raise ConfigError(f"[run] {k} must be positive")

    @property
    def lambdas(self) -> np.ndarray:
        lo, hi, n = self.lambda_grid
        return np.linspace(lo, hi, n)


@dataclass
class ExperimentConfig:
    model: ManifoldModel
    grid: GridConfig = field(default_factory=GridConfig)
    run: RunConfig = field(default_factory=RunConfig)
    source: str = "<defaults>"


def default_config(preset: str = "A") -> ExperimentConfig:
    return ExperimentConfig(model=by_name(preset))


# the keys each section reads; [grid] and [run] read their settings' fields
_END_KEYS = {"profile", "decay", "q1_amplitude", "q1_power"}
_KEYS = {"model": {"preset", "r0", "name"},
         "ends.1": _END_KEYS, "ends.2": _END_KEYS,
         "potential": {"core", "table"},
         "grid": {f.name for f in fields(GridConfig)},
         "run": {f.name for f in fields(RunConfig)}}


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _lambda_grid(raw: str) -> Tuple[float, float, int]:
    lo, hi, count = raw.split(":")
    return float(lo), float(hi), int(count)


def _float_list(raw: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


# value formats by the type of a key's default; lambda_grid has its own
_FORMATS = {int: (int, "an integer"), float: (float, "a number"),
            tuple: (_float_list, "a number list")}
_LAMBDA_GRID = (_lambda_grid, "lo:hi:count")


def _finite(value) -> bool:
    """Whether no float of ``value``, a number or a tuple of them, is NaN
    or infinite."""
    values = value if isinstance(value, tuple) else (value,)
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _parse(raw: str, key: str, default, where: str):
    parse, what = (_LAMBDA_GRID if key == "lambda_grid"
                   else _FORMATS[type(default)])
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not {what}") from None
    if not _finite(value):
        raise ConfigError(f"{where} = {raw!r} is not finite")
    return value


def parse_run_value(key: str, raw: str, where: str):
    """The [run] value ``raw`` of ``key``, read as a config file reads it;
    ``where`` names its source in the error."""
    return _parse(raw, key, getattr(RunConfig, key), where)


def _get(sec, key: str, default):
    raw = sec.get(key)
    if raw is None:
        return default
    return _parse(raw, key, default, f"[{sec.name}] {key}")


def _build_settings(cls, sec):
    """``cls`` from the keys of ``sec``, validated; a missing key takes the
    field's default."""
    settings = cls(**{f.name: _get(sec, f.name, f.default) for f in fields(cls)})
    settings.validate()
    return settings


def _read_table(path: str, base: str) -> Tuple[np.ndarray, np.ndarray]:
    full = path if os.path.isabs(path) else os.path.join(base, path)
    if not os.path.exists(full):
        raise ConfigError(f"table file not found: {full}")
    rows = []
    with open(full, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            try:
                row = (float(rec[0]), float(rec[1]))
            except (ValueError, IndexError):
                raise ConfigError(f"bad table row {rec!r} in {full}")
            if not _finite(row):
                raise ConfigError(f"table row {rec!r} in {full} is not finite")
            rows.append(row)
    if len(rows) < 4:
        raise ConfigError(f"table {full} needs at least 4 rows")
    arr = np.asarray(rows, dtype=float)
    if np.any(np.diff(arr[:, 0]) <= 0):
        raise ConfigError(f"table {full}: first column must increase strictly")
    return arr[:, 0], arr[:, 1]


def _build_end(sec, r0: float, base: str) -> EndProfile:
    profile = sec.get("profile", "euclidean").strip()
    kind, _, arg = profile.partition(":")
    kind = kind.strip().lower()
    if kind not in _PROFILES:
        raise ConfigError(
            f"[{sec.name}] unknown profile {profile!r}; "
            f"choose from {', '.join(_PROFILES)}")

    decay = _get(sec, "decay", (1.0, 1.0, 1.0))
    if len(decay) != 3:
        raise ConfigError(f"[{sec.name}] decay needs three constants")
    if not all(c > 0 for c in decay):
        raise ConfigError(f"[{sec.name}] decay constants must be positive")
    amp = _get(sec, "q1_amplitude", 0.0)
    power = _get(sec, "q1_power", 1.0)
    if amp != 0.0 and power <= 0:
        raise ConfigError(f"[{sec.name}] q1_power must be positive")

    if kind == "table":
        end = EndProfile.from_table(*_read_table(arg.strip(), base), decay=decay)
    elif kind == "conic":
        try:
            alpha = float(arg)
        except ValueError:
            raise ConfigError(f"[{sec.name}] conic profile needs conic:ALPHA")
        if not 0 < alpha < math.inf:
            raise ConfigError(
                f"[{sec.name}] conic opening must be positive and finite")
        end = EndProfile.conic(alpha, decay=decay)
    else:
        end = getattr(EndProfile, kind)(decay=decay)
    # q_geo already tends to lambda0: the potential gains the decaying
    # tail alone (none for amplitude 0), the reference tail q1 is lambda0
    # plus that tail
    return end.with_tail(amp, power, r0)


def _build_potential(sec, r0: float, base: str):
    """Returns (v_core, breakpoints)."""
    core = sec.get("core", "none").strip()
    table = sec.get("table")
    if core.lower() in ("none", ""):
        v_sq, bps = None, ()
    else:
        kind, _, arg = core.partition(":")
        if kind.strip().lower() != "square":
            raise ConfigError(f"[potential] unknown core {core!r}")
        try:
            v0, half_width = (float(tok) for tok in arg.split(","))
        except ValueError:
            raise ConfigError("[potential] core = square: V0, HALF_WIDTH")
        if not 0 < half_width <= r0 / 2.0:
            raise ConfigError(
                "[potential] square barrier must fit inside |x| <= r0/2")
        if not math.isfinite(v0):
            raise ConfigError("[potential] square barrier height must be finite")

        def v_sq(x, _v=v0, _a=half_width):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= _a, _v, 0.0)

        bps = (-half_width, half_width)

    if table is None:
        return v_sq, bps

    x_nodes, v_nodes = _read_table(table.strip(), base)
    if x_nodes[0] < -r0 / 2.0 or x_nodes[-1] > r0 / 2.0:
        raise ConfigError("[potential] sampled core must live inside |x| <= r0/2")

    def v_tab(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, x_nodes, v_nodes, left=0.0, right=0.0)

    if v_sq is None:
        return v_tab, bps + (x_nodes[0], x_nodes[-1])
    return (lambda x: v_sq(x) + v_tab(x)), bps + (x_nodes[0], x_nodes[-1])


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _check_names(text: str) -> None:
    """Refuse unknown sections, a key that its section does not read, and
    a [DEFAULT] key that no section reads."""
    # [DEFAULT] as a plain section: each section holds its own keys only
    own = configparser.RawConfigParser(default_section="\0", strict=False,
                                       inline_comment_prefixes=(";", "#"))
    own.read_string(text)
    extra = set(own.sections()) - set(_KEYS) - {"DEFAULT"}
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    for name in own.sections():
        known = set().union(*_KEYS.values()) if name == "DEFAULT" else _KEYS[name]
        for key in own[name]:
            if key not in known:
                raise ConfigError(f"[{name}] unknown key {key!r}")


def parse_config(text: str, base: str = ".") -> ExperimentConfig:
    """Parse config text into a validated :class:`ExperimentConfig`.

    ``base`` resolves relative table paths.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    _check_names(text)

    if "model" not in cp:
        raise ConfigError("missing [model] section")
    msec = cp["model"]
    r0 = _get(msec, "r0", 2.0)
    if r0 < 2.0:
        raise ConfigError("[model] r0 must be >= 2")

    preset = msec.get("preset")
    if preset is not None:
        preset = preset.strip()
        if preset not in _CATALOGUE:
            raise ConfigError(f"[model] unknown preset {preset!r}; "
                              f"choose from {tuple(_CATALOGUE)}")
        for sec in ("ends.1", "ends.2", "potential"):
            if sec in cp:
                raise ConfigError(f"[{sec}] is not read with [model] preset = "
                                  f"{preset}; remove one of them")
        model = by_name(preset, r0=r0)
        if msec.get("name"):
            model.name = msec["name"].strip()
    else:
        ends = []
        for i in (1, 2):
            key = f"ends.{i}"
            if key not in cp:
                raise ConfigError(f"missing [{key}] section (or use a preset)")
            ends.append(_build_end(cp[key], r0, base))
        v_core, bps = (None, ())
        if "potential" in cp:
            v_core, bps = _build_potential(cp["potential"], r0, base)
        model = ManifoldModel(ends, r0=r0, v_core=v_core, core_breakpoints=bps,
                              name=msec.get("name", "custom").strip())

    grid = _build_settings(GridConfig, cp["grid"] if "grid" in cp else cp["DEFAULT"])
    run = _build_settings(RunConfig, cp["run"] if "run" in cp else cp["DEFAULT"])
    return ExperimentConfig(model=model, grid=grid, run=run)


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        cfg = parse_config(fh.read(), base=os.path.dirname(os.path.abspath(path)))
    cfg.source = path
    return cfg

