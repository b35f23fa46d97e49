"""Grids, two-component complex fields, norms, quadrature, and snapshot I/O.

Everything downstream computes on a uniform grid of n points
x_j = x_min + j*dx, j = 0..n-1, with dx = (x_max - x_min)/n (periodic
convention: x_max is identified with x_min).  Fields are immutable after
construction; all operations here are pure.
"""

from __future__ import annotations

import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldValidationError, GridMismatchError

FIELD_CSV_HEADER = "x,re_u,im_u,re_v,im_v"
LAX_CSV_HEADER = "x,re_phi1,im_phi1,re_phi2,im_phi2"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial grid on [x_min, x_max) with n sample points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise FieldValidationError("grid bounds must be finite")
        if self.x_max <= self.x_min:
            raise FieldValidationError("grid requires x_max > x_min")
        if not isinstance(self.n, numbers.Integral):
            raise FieldValidationError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 8:
            raise FieldValidationError("grid requires n >= 8")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n)
        x.setflags(write=False)
        return x

    @classmethod
    def symmetric(cls, half_width: float = 30.0, n: int = 4096) -> "Grid":
        """Default laboratory domain [-L, L) with n points."""
        return cls(-half_width, half_width, n)


def _prepare(grid: Grid, arr, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.complex128)
    if a.shape != (grid.n,):
        raise FieldValidationError(f"{name} must have shape ({grid.n},), got {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise FieldValidationError(f"{name} contains non-finite samples")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpinorField:
    """A two-component complex field (u, v) sampled on a grid.

    It is the state of the evolution system and, read as (phi1, phi2), a
    Lax vector; only the CSV headers tell the two roles apart.
    """

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _prepare(self.grid, self.u, "u"))
        object.__setattr__(self, "v", _prepare(self.grid, self.v, "v"))

    @classmethod
    def zero(cls, grid: Grid) -> "SpinorField":
        z = np.zeros(grid.n, dtype=np.complex128)
        return cls(grid, z, z)


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------

def integrate(values: np.ndarray, grid: Grid):
    """Trapezoidal quadrature of grid samples (the periodic rule)."""
    return grid.dx * values.sum()


def l2_norm_sq(f: SpinorField) -> float:
    """Squared L2 norm |u|^2 + |v|^2 integrated over the grid (the charge)."""
    return float(integrate(np.abs(f.u) ** 2 + np.abs(f.v) ** 2, f.grid).real)


def l2_norm(f: SpinorField) -> float:
    return float(np.sqrt(l2_norm_sq(f)))


def inner_product(f: SpinorField, g: SpinorField) -> complex:
    """L2 pairing <f, g> = int (conj(f1) g1 + conj(f2) g2) dx.

    Conjugate-linear in the first slot.  Raises GridMismatchError if the
    fields live on different grids.
    """
    if f.grid != g.grid:
        raise GridMismatchError("inner_product requires fields on the same grid")
    return complex(integrate(np.conj(f.u) * g.u + np.conj(f.v) * g.v, f.grid))


def combined_l2_distance(f: SpinorField, g: SpinorField) -> float:
    """||f1 - g1||_L2 + ||f2 - g2||_L2, the norm-sum convention used throughout."""
    if f.grid != g.grid:
        raise GridMismatchError("distance requires fields on the same grid")
    d1 = np.sqrt(integrate(np.abs(f.u - g.u) ** 2, f.grid))
    d2 = np.sqrt(integrate(np.abs(f.v - g.v) ** 2, f.grid))
    return float(d1 + d2)


# ---------------------------------------------------------------------------
# discrete derivatives
# ---------------------------------------------------------------------------

def d_dx(arr: np.ndarray, grid: Grid, accuracy: int = 2) -> np.ndarray:
    """First derivative by periodic centered differences (accuracy 2 or 4)."""
    h = grid.dx
    if accuracy == 2:
        return (np.roll(arr, -1) - np.roll(arr, 1)) / (2 * h)
    if accuracy == 4:
        return (np.roll(arr, 2) - 8 * np.roll(arr, 1)
                + 8 * np.roll(arr, -1) - np.roll(arr, -2)) / (12 * h)
    raise ValueError("accuracy must be 2 or 4")


# ---------------------------------------------------------------------------
# cubic (4-point) interpolation and quadrature on cells
# ---------------------------------------------------------------------------
# Lagrange basis on nodes {0,1,2,3}; xi is the local coordinate inside the
# stencil.  Used by the ODE integrators for O(dx^4) half-step values and
# cumulative integrals.

_BASIS = np.array([
    [-1.0, 6.0, -11.0, 6.0],   # w0 * 6
    [3.0, -15.0, 18.0, 0.0],   # w1 * 6
    [-3.0, 12.0, -9.0, 0.0],   # w2 * 6
    [1.0, -3.0, 2.0, 0.0],     # w3 * 6
]) / 6.0    # rows: basis k, columns: xi^3, xi^2, xi^1, xi^0


def _basis_weights(xi: np.ndarray) -> np.ndarray:
    """Cubic Lagrange weights, shape xi.shape + (4,)."""
    p = np.stack([xi ** 3, xi ** 2, xi, np.ones_like(xi)], axis=-1)
    return p @ _BASIS.T


def _basis_integral(xi: np.ndarray) -> np.ndarray:
    """Antiderivatives of the basis from 0 to xi, shape xi.shape + (4,)."""
    p = np.stack([xi ** 4 / 4, xi ** 3 / 3, xi ** 2 / 2, xi], axis=-1)
    return p @ _BASIS.T


class CellSampler:
    """Fourth-order values and running integrals at fractional cell offsets.

    For each cell j (between grid points j and j+1) a 4-point stencil is
    chosen (clamped at the boundary); `values(f, taus)` evaluates the cubic
    interpolant at x_j + tau*dx and `running_integral` accumulates
    int_{x_min}^{x} f with O(dx^4) accuracy.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self.grid = grid
        j = np.arange(n - 1)
        s = np.clip(j - 1, 0, n - 4)
        self._gather = s[:, None] + np.arange(4)[None, :]     # (n-1, 4)
        self._xi0 = (j - s).astype(float)                      # (n-1,)

    def values(self, f: np.ndarray, taus) -> np.ndarray:
        """Interpolated f at x_j + tau*dx for every cell j; shape (n-1, len(taus))."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        xi = self._xi0[:, None] + taus[None, :]
        w = _basis_weights(xi)                                 # (n-1, m, 4)
        return np.einsum("jmk,jk->jm", w, f[self._gather])

    def cell_integrals(self, f: np.ndarray, taus) -> np.ndarray:
        """int_{x_j}^{x_j + tau*dx} f for every cell j; shape (n-1, len(taus))."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        w0 = _basis_integral(self._xi0)                        # (n-1, 4)
        w1 = _basis_integral(self._xi0[:, None] + taus[None, :])
        return self.grid.dx * np.einsum("jmk,jk->jm", w1 - w0[:, None, :], f[self._gather])

    def running_integral(self, f: np.ndarray) -> np.ndarray:
        """Cumulative integral at the grid nodes, starting at 0 at x_min."""
        cell = self.cell_integrals(f, (1.0,))[:, 0]
        out = np.empty(self.grid.n, dtype=cell.dtype)
        out[0] = 0.0
        np.cumsum(cell, out=out[1:])
        return out


# ---------------------------------------------------------------------------
# snapshot I/O: lossless CSV via 17-significant-digit decimals
# ---------------------------------------------------------------------------

def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_rows(x: np.ndarray, c1: np.ndarray, c2: np.ndarray, header: str) -> str:
    lines = [header]
    for j in range(len(x)):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g"
                     % (x[j], c1[j].real, c1[j].imag, c2[j].real, c2[j].imag))
    return "\n".join(lines) + "\n"


def write_field_csv(f: SpinorField, path: str) -> None:
    """Write a field snapshot: columns x,re_u,im_u,re_v,im_v."""
    _atomic_write_text(path, _format_rows(f.grid.x, f.u, f.v, FIELD_CSV_HEADER))


def write_lax_csv(vec: SpinorField, path: str) -> None:
    """Write a Lax-vector snapshot: columns x,re_phi1,im_phi1,re_phi2,im_phi2."""
    _atomic_write_text(path, _format_rows(vec.grid.x, vec.u, vec.v, LAX_CSV_HEADER))


def _read_rows(path: str, expected_header: str):
    with open(path) as fh:
        header = fh.readline().strip()
    if header != expected_header:
        raise FieldValidationError(f"{path}: expected header {expected_header!r}, got {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 5:
        raise FieldValidationError(f"{path}: expected 5 columns, got {data.shape[1]}")
    x = data[:, 0]
    n = len(x)
    dx = np.diff(x)
    if n < 8 or not np.allclose(dx, dx[0], rtol=1e-12, atol=0.0):
        raise FieldValidationError(f"{path}: grid is not uniform")
    grid = Grid(float(x[0]), float(x[0] + n * dx[0]), n)
    c1 = data[:, 1] + 1j * data[:, 2]
    c2 = data[:, 3] + 1j * data[:, 4]
    return grid, c1, c2


def read_field_csv(path: str) -> SpinorField:
    grid, u, v = _read_rows(path, FIELD_CSV_HEADER)
    return SpinorField(grid, u, v)


def read_lax_csv(path: str) -> SpinorField:
    grid, p1, p2 = _read_rows(path, LAX_CSV_HEADER)
    return SpinorField(grid, p1, p2)
