"""Separation of variables: angular modes on a glued two-ended surface.

States are stored against a uniform grid in the line coordinate x.  Two
representations are used:

* ``surface``: the coefficient psi_m(x) of exp(i m theta) in the surface
  function, with L2 norm  sum_m int |psi_m|^2 2 pi f dx  (co-area measure);
* ``flat``: u_m = sqrt(2 pi f) psi_m, with the plain L2(dx) norm.

All operators act on the flat representation, where the mode-m
Hamiltonian is the 1-d Schroedinger operator -u''/2 + W_m u with
W_m = q + m^2 / (2 f^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .geometry import ManifoldModel

__all__ = [
    "RadialGrid",
    "RadialState",
    "ModeOperator",
    "half_density_map",
    "besov_norm",
    "besov_norms",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [-rmax, rmax]; end 0 is x > 0, end 1 is x < 0."""

    rmax: float
    dx: float

    @property
    def x(self) -> np.ndarray:
        n = int(round(2 * self.rmax / self.dx))
        return np.linspace(-self.rmax, self.rmax, n + 1)

    @property
    def r(self) -> np.ndarray:
        return np.abs(self.x)

    def end_mask(self, end: int, r_min: float = 0.0) -> np.ndarray:
        sgn = 1.0 if end == 0 else -1.0
        return (sgn * self.x) >= r_min

    def inner(self, u, v) -> complex:
        """L2(dx) inner product (antilinear in the first slot)."""
        return complex(self.dx * np.vdot(u, v))

    def norm(self, u) -> float:
        """L2(dx) norm."""
        return float(np.sqrt(self.dx * np.sum(np.abs(u) ** 2)))


@dataclass
class RadialState:
    """Mode coefficients of a state, one row per angular mode."""

    grid: RadialGrid
    modes: tuple
    data: np.ndarray  # shape (len(modes), nx), complex
    rep: str = "flat"

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=complex))
        self.modes = tuple(self.modes)
        if self.data.shape[0] != len(self.modes):
            raise ValueError("one data row per mode required")

    def norm(self, model: Optional[ManifoldModel] = None) -> float:
        if self.rep == "flat":
            return self.grid.norm(self.data)
        if model is None:
            raise ValueError("surface-representation norm needs the model")
        wgt = 2.0 * np.pi * model.f(self.grid.x)
        return float(np.sqrt(self.grid.dx * np.sum(wgt * np.abs(self.data) ** 2)))

    def mode(self, m: int) -> np.ndarray:
        return self.data[self.modes.index(m)]


def half_density_map(model: ManifoldModel, state: RadialState, to: str = "flat") -> RadialState:
    """Convert between surface and flat representations (exact isometry)."""
    if to not in ("flat", "surface"):
        raise ValueError("to must be 'flat' or 'surface'")
    if state.rep == to:
        return state
    scale = np.sqrt(2.0 * np.pi * model.f(state.grid.x))
    data = state.data * scale if to == "flat" else state.data / scale
    return RadialState(state.grid, state.modes, data, rep=to)


class ModeOperator:
    """Reduced Hamiltonian H_m = -d^2/dx^2 / 2 + W_m on the flat line.

    Provides the sampled potential and a symmetric finite-difference
    matrix in banded form (Dirichlet at the grid ends).
    """

    def __init__(self, model: ManifoldModel, grid: RadialGrid, m: int,
                 stencil_order: int = 4):
        if stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")
        self.model = model
        self.grid = grid
        self.m = int(m)
        self.stencil_order = stencil_order
        self.w = model.w_mode(m, grid.x)

    def check_resolution(self, lam_max: float, points_per_wavelength: int = 12) -> None:
        """Require >= 12 grid points per local wavelength at the largest
        energy of interest."""
        kmax = np.sqrt(2.0 * max(lam_max - np.min(self.w), lam_max))
        dx_needed = 2.0 * np.pi / (kmax * points_per_wavelength)
        if self.grid.dx > dx_needed:
            raise ValueError(
                f"grid spacing {self.grid.dx:g} too coarse for lam={lam_max:g}: "
                f"need dx <= {dx_needed:g}")

    def banded(self) -> np.ndarray:
        """Symmetric banded form (diagonal-ordered, for scipy solve_banded)."""
        n = self.grid.x.size
        h2 = self.grid.dx ** 2
        if self.stencil_order == 2:
            ab = np.zeros((3, n))
            ab[1] = 1.0 / h2 + self.w
            ab[0, 1:] = -0.5 / h2
            ab[2, :-1] = -0.5 / h2
        else:
            ab = np.zeros((5, n))
            ab[2] = 30.0 / (24.0 * h2) + self.w
            ab[1, 1:] = -16.0 / (24.0 * h2)
            ab[3, :-1] = -16.0 / (24.0 * h2)
            ab[0, 2:] = 1.0 / (24.0 * h2)
            ab[4, :-2] = 1.0 / (24.0 * h2)
        return ab

    def apply(self, u: np.ndarray) -> np.ndarray:
        """H_m u with the selected stencil (Dirichlet outside the grid)."""
        u = np.asarray(u, dtype=complex)
        h2 = self.grid.dx ** 2
        d2 = np.zeros_like(u)
        if self.stencil_order == 2:
            d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
            d2[0] = (u[1] - 2.0 * u[0]) / h2
            d2[-1] = (u[-2] - 2.0 * u[-1]) / h2
        else:
            d2[2:-2] = (-u[4:] + 16.0 * u[3:-1] - 30.0 * u[2:-2]
                        + 16.0 * u[1:-3] - u[:-4]) / (12.0 * h2)
            # truncated 5-point rows at the boundary (Dirichlet outside),
            # matching the symmetric banded assembly exactly
            d2[0] = (-u[2] + 16.0 * u[1] - 30.0 * u[0]) / (12.0 * h2)
            d2[1] = (-u[3] + 16.0 * u[2] - 30.0 * u[1] + 16.0 * u[0]) / (12.0 * h2)
            d2[-2] = (-u[-4] + 16.0 * u[-3] - 30.0 * u[-2]
                      + 16.0 * u[-1]) / (12.0 * h2)
            d2[-1] = (-u[-3] + 16.0 * u[-2] - 30.0 * u[-1]) / (12.0 * h2)
        return -0.5 * d2 + self.w * u


def _annulus_slices(grid: RadialGrid):
    r = grid.r
    nu_max = max(0, int(np.ceil(np.log2(max(grid.rmax, 2.0)))))
    for nu in range(nu_max + 1):
        if nu == 0:
            mask = r < 2.0
        else:
            mask = (r >= 2.0 ** nu) & (r < 2.0 ** (nu + 1))
        if np.any(mask):
            yield nu, mask


def besov_norm(grid: RadialGrid, u: np.ndarray, kind: str = "B") -> float:
    """Dyadic-annulus norms used for resolvent estimates.

    kind='B':      sum_nu 2^(nu/2) ||u||_{L2(annulus nu)}
    kind='Bstar':  sup_nu 2^(-nu/2) ||u||_{L2(annulus nu)}
    kind='Bstar0': the Bstar summand on the outermost populated annulus
                   (a proxy for the vanishing-at-infinity defect).
    """
    u = np.asarray(u)
    pieces = [(nu, grid.norm(u[mask])) for nu, mask in _annulus_slices(grid)]
    if not pieces:
        return 0.0
    if kind == "B":
        return float(sum(2.0 ** (0.5 * nu) * v for nu, v in pieces))
    if kind == "Bstar":
        return float(max(2.0 ** (-0.5 * nu) * v for nu, v in pieces))
    if kind == "Bstar0":
        nu, v = pieces[-1]
        return float(2.0 ** (-0.5 * nu) * v)
    raise ValueError(f"unknown Besov norm kind {kind!r}")


def besov_norms(grid: RadialGrid, u: np.ndarray) -> dict:
    return {k: besov_norm(grid, u, k) for k in ("B", "Bstar", "Bstar0")}
