"""Separation of variables: angular modes on a glued two-ended surface.

States are stored against a uniform grid in the line coordinate x, in
the flat representation only: u_m = sqrt(2 pi f) psi_m, where psi_m(x) is
the coefficient of exp(i m theta) in the surface function.  The half-density
factor sqrt(2 pi f) turns the co-area norm sum_m int |psi_m|^2 2 pi f dx
into the plain L2(dx) norm, and the mode-m Hamiltonian into the 1-d
Schroedinger operator -u''/2 + W_m u with W_m = q + m^2 / (2 f^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _clib
from .geometry import ManifoldModel

__all__ = ["RadialGrid", "ModeOperator", "besov_norm"]

# grid points per local wavelength that check_resolution demands
_POINTS_PER_WAVELENGTH = 12


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [-rmax, rmax] with node spacing dx; end 0 is x > 0,
    end 1 is x < 0.

    The stencil, the norms and every quadrature take the spacing to be
    ``dx``, so ``rmax`` is moved to ``n dx / 2`` with n = round(2 rmax / dx)
    cells."""

    rmax: float
    dx: float

    def __post_init__(self):
        n = int(round(2 * self.rmax / self.dx))
        object.__setattr__(self, "rmax", n * self.dx / 2)

    @property
    def x(self) -> np.ndarray:
        """The nodes, built on first access; one shared read-only array."""
        x = self.__dict__.get("_x")
        if x is None:
            n = int(round(2 * self.rmax / self.dx))
            x = np.linspace(-self.rmax, self.rmax, n + 1)
            x.flags.writeable = False
            object.__setattr__(self, "_x", x)
        return x

    @property
    def r(self) -> np.ndarray:
        return np.abs(self.x)

    def end_mask(self, end: int, r_min: float = 0.0) -> np.ndarray:
        sgn = 1.0 if end == 0 else -1.0
        return (sgn * self.x) >= r_min

    @_clib.one_blas_thread()
    def inner(self, u, v) -> complex:
        """L2(dx) inner product (antilinear in the first slot), a BLAS dot
        on one thread, so its last bits do not depend on the core count."""
        return complex(self.dx * np.vdot(u, v))

    def norm(self, u) -> float:
        """L2(dx) norm."""
        return float(np.sqrt(self.dx * np.sum(np.abs(u) ** 2)))


class ModeOperator:
    """Reduced Hamiltonian H_m = -d^2/dx^2 / 2 + W_m on the flat line.

    Provides the sampled potential and the one discretization of H_m: the
    symmetric five-point finite-difference band (Dirichlet at the grid
    ends), which ``apply``, the propagator and the oracles all read.
    """

    def __init__(self, model: ManifoldModel, grid: RadialGrid, m: int):
        self.model = model
        self.grid = grid
        self.m = int(m)

    @cached_property
    def w(self) -> np.ndarray:
        """W_m at the grid nodes, sampled on first use (``jost_pair``
        never reads it)."""
        return self.model.w_mode(self.m, self.grid.x)

    def check_resolution(self, lam_max: float) -> None:
        """Require >= 12 grid points per local wavelength at the largest
        energy of interest."""
        kmax = np.sqrt(2.0 * max(lam_max - np.min(self.w), lam_max))
        dx_needed = 2.0 * np.pi / (kmax * _POINTS_PER_WAVELENGTH)
        if self.grid.dx > dx_needed:
            raise ValueError(
                f"grid spacing {self.grid.dx:g} too coarse for lam={lam_max:g}: "
                f"need dx <= {dx_needed:g}")

    def banded(self) -> np.ndarray:
        """H in LAPACK band storage, kl = ku = 2: the five-point stencil
        (-u[j-2] + 16 u[j-1] - 30 u[j] + 16 u[j+1] - u[j+2]) / (12 dx^2)
        for u'', its rows truncated at the grid ends (Dirichlet outside).
        Row k, column j holds H[j + k - 2, j], zero outside the matrix.
        The propagator's kernel ``pade_factor`` reads this layout, and
        scipy's ``solve_banded`` takes it."""
        n = self.grid.x.size
        h2 = self.grid.dx ** 2
        ab = np.zeros((5, n))
        ab[2] = 30.0 / (24.0 * h2) + self.w
        ab[1, 1:] = -16.0 / (24.0 * h2)
        ab[3, :-1] = -16.0 / (24.0 * h2)
        ab[0, 2:] = 1.0 / (24.0 * h2)
        ab[4, :-2] = 1.0 / (24.0 * h2)
        return ab

    def apply(self, u: np.ndarray) -> np.ndarray:
        """H_m u, the product of ``banded()`` with u."""
        u = np.asarray(u, dtype=complex)
        ab = self.banded()
        out = ab[2] * u
        for d in (1, 2):
            out[:-d] += ab[2 - d, d:] * u[d:]
            out[d:] += ab[2 + d, :-d] * u[:-d]
        return out


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
