"""Span tracing of the ends_scatter layers from outside the package.

``install`` wraps the public functions and methods of each layer module
so that every call records a span (name, start, end, parent span,
experiment id) in a :class:`Tracer`; ``uninstall`` puts every original
binding back, so an untraced pass runs the unmodified package.  Spans are
kept in flat typed arrays and written out once, at the end of a run.

The package never calls back from a worker thread while the harness runs
(``ENDS_SCATTER_THREADS`` is unset, so its pool has one worker), so one
span stack per tracer is enough.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "ends_scatter"
LAYER_MODULES = ("geometry", "mode_reduction", "resolvent", "fourier",
                 "dynamics", "propagator", "oracle", "presets", "config", "cli")

# ManifoldModel's pointwise evaluators all run inside w_mode, once per ODE
# right-hand-side evaluation.  Left unwrapped, so the self time of w_mode is
# the whole potential evaluation (layer a) rather than its glue.
UNWRAPPED = {
    ("geometry", "ManifoldModel"): {"g", "gp", "gpp", "f", "q_geo",
                                    "potential", "q"},
}

# Work counted from a wrapped call's arguments: span name -> (counter, getter).
ARG_COUNTERS = {
    "propagator.Propagator.step":
        ("propagator.steps", lambda args, kwargs: kwargs.get(
            "n", args[2] if len(args) > 2 else 1)),
}


class Tracer:
    """In-memory span store; one span per wrapped call."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.experiment_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self.experiment = -1
        self._stack: list = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.experiment_id.append(self.experiment)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "experiment_id": np.frombuffer(self.experiment_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def span_summary(names, name_id, parent, start, end) -> dict:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (one thread), so this is
    the part of the interval no child covers.
    """
    name_id = np.asarray(name_id)
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(names)}


def nested_calls(names, name_id, parent, name: str) -> int:
    """Number of spans of ``name`` whose parent span has the same name
    (jost_pair rebuilding itself with a larger launch radius)."""
    if name not in names:
        return 0
    nid = names.index(name)
    name_id = np.asarray(name_id)
    parent = np.asarray(parent)
    inner = (name_id == nid) & (parent >= 0)
    return int(np.sum(name_id[parent[inner]] == nid))


def span_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds a traced call adds to a plain one: the median over rounds of
    timing ``calls`` calls of a no-op with and without the wrapper."""
    def noop(*args, **kwargs):
        return None

    traced = _traced(Tracer(), "calibration.noop", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, n=2)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1, n=2)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _traced(tracer: Tracer, name: str, fn):
    nid = tracer.name_index(name)
    counter = ARG_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            tracer.counters[counter[0]] += int(counter[1](args, kwargs))
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _wrap_member(tracer: Tracer, name: str, member):
    """Traced replacement for a class-dict entry, or None if not callable."""
    if isinstance(member, staticmethod):
        return staticmethod(_traced(tracer, name, member.__func__))
    if isinstance(member, classmethod):
        return classmethod(_traced(tracer, name, member.__func__))
    if isinstance(member, property) and member.fget is not None:
        return property(_traced(tracer, name, member.fget), member.fset,
                        member.fdel, member.__doc__)
    if inspect.isfunction(member):
        return _traced(tracer, name, member)
    return None


class Installation:
    """Record of every binding replaced by :func:`install`."""

    def __init__(self):
        self.module_bindings: list = []   # (module, attribute, original)
        self.class_members: list = []     # (class, attribute, original)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.module_bindings):
            setattr(mod, attr, orig)
        for cls, attr, orig in reversed(self.class_members):
            setattr(cls, attr, orig)
        self.module_bindings.clear()
        self.class_members.clear()


def package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> Installation:
    """Wrap the public API of every layer module; returns the handle that
    restores it.  A function is rebound in every package module that
    imported it by name (``fourier.jost_pair``, ``cli.scattering_matrix``,
    the package namespace, ...), so calls through any of them are traced.
    """
    inst = Installation()
    mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES]
    everywhere = package_modules()
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = _traced(tracer, f"{short}.{attr}", obj)
                for other in everywhere:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            inst.module_bindings.append((other, key, obj))
                            setattr(other, key, wrapper)
            elif inspect.isclass(obj):
                skip = UNWRAPPED.get((short, attr), set())
                for key, member in list(vars(obj).items()):
                    if key in skip or (key.startswith("_") and key != "__init__"):
                        continue
                    span = (f"{short}.{attr}" if key == "__init__"
                            else f"{short}.{attr}.{key}")
                    wrapped = _wrap_member(tracer, span, member)
                    if wrapped is not None:
                        inst.class_members.append((obj, key, member))
                        setattr(obj, key, wrapped)
    return inst
