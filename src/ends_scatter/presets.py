"""Reference model catalogue used by the test-bench and the CLI presets."""

from __future__ import annotations

import numpy as np

from .geometry import EndProfile, ManifoldModel

__all__ = ["model_free", "model_a", "model_b", "model_c", "model_d", "by_name"]


def model_free(r0: float = 2.0) -> ManifoldModel:
    """Two flat cylinder ends, no potential: the m=0 channel is the free line."""
    return ManifoldModel([EndProfile.flat(), EndProfile.flat()], r0=r0, name="free")


def model_a(r0: float = 2.0) -> ManifoldModel:
    """Two Euclidean ends (f = r), no potential.

    The reference tail is taken to be q1 = 0 on both ends, so all phase
    functions are exactly free and the curvature term -1/(8 r^2) sits in
    the perturbation q2 (decay r^-2, comfortably short range).
    """
    return ManifoldModel([EndProfile.euclidean(), EndProfile.euclidean()],
                         r0=r0, name="A")


def model_b(r0: float = 2.0) -> ManifoldModel:
    """Euclidean end glued to a hyperbolic end (f = e^r).

    Critical energies 0 and 1/8; both reference tails are constant at
    their thresholds, so both ends are (trivially) short range.
    """
    return ManifoldModel([EndProfile.euclidean(), EndProfile.hyperbolic()],
                         r0=r0, name="B")


def model_c(r0: float = 2.0, amplitude: float = 1.0, power: float = 0.8) -> ManifoldModel:
    """Model A with a slowly decaying potential tail r^-0.8 on end 0.

    The tail is part of the reference q1 (and of the potential), so end 0
    is of Dollard type while end 1 stays free.
    """
    e0 = EndProfile.euclidean().with_tail(amplitude, power, r0)
    return ManifoldModel([e0, EndProfile.euclidean()], r0=r0, name="C")


def _square_barrier(v0: float, half_width: float, r0: float):
    """(v_core, breakpoints) of height v0 on |x| <= half_width; refused
    (ValueError) unless it fits in the core |x| <= r0/2 with v0 finite."""
    if not 0 < half_width <= r0 / 2.0:
        raise ValueError("square barrier must fit inside |x| <= r0/2")
    if not np.isfinite(v0):
        raise ValueError("square barrier height must be finite")

    def well(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= half_width, v0, 0.0)

    return well, (-half_width, half_width)


def model_d(r0: float = 2.0, v0: float = 1.5, half_width: float = 1.0) -> ManifoldModel:
    """Square barrier of height v0 on |x| <= half_width between two flat ends.

    Flat ends keep the background exactly free, so the transfer-matrix
    closed form applies verbatim; the barrier sits inside the core.
    """
    well, bps = _square_barrier(v0, half_width, r0)
    m = ManifoldModel(
        [EndProfile.flat(), EndProfile.flat()], r0=r0,
        v_core=well, core_breakpoints=bps, name="D")
    m.barrier = {"v0": v0, "half_width": half_width}
    return m


_CATALOGUE = {
    "free": model_free,
    "A": model_a,
    "B": model_b,
    "C": model_c,
    "D": model_d,
}


def by_name(name: str, **kw) -> ManifoldModel:
    try:
        return _CATALOGUE[name](**kw)
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_CATALOGUE)}")
