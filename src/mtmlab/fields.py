"""Grids, two-component complex fields, norms, quadrature, and snapshot I/O.

Everything downstream computes on a uniform grid of n points
x_j = x_min + j*dx, j = 0..n-1, with dx = (x_max - x_min)/n (periodic
convention: x_max is identified with x_min).  Fields are immutable after
construction; all operations here are pure.

Snapshots are lossless CSV: the column header, a grid line
`# x_min=<x_min> x_max=<x_max> n=<n>`, then one row per grid point with one
%.17g decimal per value.  The grid line stores the bounds exactly, so the
reader builds the writer's grid from it and checks the x column and the row
count against it; a file without it is rejected.  The writer formats the
values with the vectorized `g17` kernel, whose bytes are those of one
`"%.17g" % v` per value, and reuses the x column's cells, formatted once per
grid; it writes the bytes through a temporary file and a rename.  The reader
parses the file through one open handle.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldValidationError, GridMismatchError
from .g17 import g17_cells, g17_csv_rows

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

    @cached_property
    def _csv_x(self) -> np.ndarray:
        """The x column as `%.17g` cells (see `g17_cells`), formatted once per grid."""
        return g17_cells(self.x)

    @classmethod
    def symmetric(cls, half_width: float = 30.0, n: int = 4096) -> "Grid":
        """Default laboratory domain [-L, L) with n points."""
        return cls(-half_width, half_width, n)


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the C-contiguous complex128 array a is finite (one pass)."""
    return bool(np.all(np.isfinite(a.view(np.float64))))


def _prepare(grid: Grid, arr, name: str) -> np.ndarray:
    a = np.array(arr, dtype=np.complex128)
    if a.shape != (grid.n,):
        raise FieldValidationError(f"{name} must have shape ({grid.n},), got {a.shape}")
    if not all_finite(a):
        raise FieldValidationError(f"{name} contains non-finite samples")
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

def d_dx(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative by fourth-order periodic centered differences."""
    return (np.roll(arr, 2) - 8 * np.roll(arr, 1)
            + 8 * np.roll(arr, -1) - np.roll(arr, -2)) / (12 * grid.dx)


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


#: stencil position xi0 of the cell start for the first, interior and last cells
_CELL_XI0 = np.array([0.0, 1.0, 2.0])


class CellSampler:
    """Fourth-order values and running integrals at fractional cell offsets.

    For each cell j (between grid points j and j+1) a 4-point stencil is
    chosen (clamped at the boundary); `values(f, taus)` evaluates the cubic
    interpolant at x_j + tau*dx and `running_integral` accumulates
    int_{x_min}^{x} f with O(dx^4) accuracy.  Every interior cell j uses
    the stencil j-1..j+2 at xi = 1 + tau, so the weights exist once per call
    for the three cell classes (first, interior, last) and the interior is
    one (n-1, 4) @ (4, m) product, whose first and last rows are then redone.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self.grid = grid
        s = np.clip(np.arange(n - 1) - 1, 0, n - 4)
        self._gather = s[:, None] + np.arange(4)[None, :]     # (n-1, 4)

    def _apply(self, f: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Stencil sums for the weights w (3 cell classes, m, 4); shape (n-1, m)."""
        stencils = f[self._gather]                             # (n-1, 4)
        out = stencils @ w[1].T
        out[0] = stencils[0] @ w[0].T
        out[-1] = stencils[-1] @ w[2].T
        return out

    def values(self, f: np.ndarray, taus) -> np.ndarray:
        """Interpolated f at x_j + tau*dx for every cell j; shape (n-1, len(taus))."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return self._apply(f, _basis_weights(_CELL_XI0[:, None] + taus[None, :]))

    def cell_integrals(self, f: np.ndarray, taus) -> np.ndarray:
        """int_{x_j}^{x_j + tau*dx} f for every cell j; shape (n-1, len(taus))."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        w1 = _basis_integral(_CELL_XI0[:, None] + taus[None, :])
        w0 = _basis_integral(_CELL_XI0)[:, None, :]
        return self.grid.dx * self._apply(f, w1 - w0)

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

def _create_temporary(directory: str) -> tuple[str, int]:
    """A new file tmp<8 hex>.tmp in directory, open for writing, and its name.

    The file is created with mode 0o666 less the umask, the mode a plain
    open() gives; a name already taken is redrawn.
    """
    for _ in range(16):
        tmp = os.path.join(directory, f"tmp{os.urandom(4).hex()}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            pass
    raise FileExistsError(f"no free temporary file name in {directory}")


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to path through a temporary file in its directory and a rename."""
    tmp, fd = _create_temporary(os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_rows(grid: Grid, c1: np.ndarray, c2: np.ndarray, header: str) -> bytes:
    """The CSV bytes: header, grid line, then rows x,re c1,im c1,re c2,im c2 in %.17g.

    The bytes are those of `"%.17g" % float` per value, -0, subnormals and
    3-digit exponents included; the x cells are the grid's.
    """
    grid_line = "# x_min=%.17g x_max=%.17g n=%d\n" % (grid.x_min, grid.x_max, grid.n)
    values = np.column_stack((c1, c2)).view(np.float64)
    return (header + "\n" + grid_line).encode() + g17_csv_rows(values, grid._csv_x)


def write_field_csv(f: SpinorField, path: str) -> None:
    """Write a field snapshot: columns x,re_u,im_u,re_v,im_v."""
    _atomic_write(path, _format_rows(f.grid, f.u, f.v, FIELD_CSV_HEADER))


def write_lax_csv(vec: SpinorField, path: str) -> None:
    """Write a Lax-vector snapshot: columns x,re_phi1,im_phi1,re_phi2,im_phi2."""
    _atomic_write(path, _format_rows(vec.grid, vec.u, vec.v, LAX_CSV_HEADER))


_GRID_LINE = re.compile(r"# x_min=(\S+) x_max=(\S+) n=(\d+)")


def _read_grid(path: str, line: str) -> Grid:
    """The grid the snapshot's grid line states, exactly as it was written."""
    m = _GRID_LINE.fullmatch(line.rstrip("\n"))
    if m is None:
        raise FieldValidationError(
            f"{path}: expected the grid line '# x_min=... x_max=... n=...' after the header, "
            f"got {line.rstrip()!r}")
    try:
        return Grid(float(m[1]), float(m[2]), int(m[3]))
    except (ValueError, FieldValidationError) as e:
        raise FieldValidationError(f"{path}: invalid grid line {line.rstrip()!r}: {e}") from None


def _read_rows(path: str, expected_header: str):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise FieldValidationError(
                f"{path}: expected header {expected_header!r}, got {header!r}")
        grid = _read_grid(path, fh.readline())
        rows = fh.read().splitlines()
    if len(rows) != grid.n:
        raise FieldValidationError(f"{path}: expected {grid.n} rows, got {len(rows)}")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as e:
        raise FieldValidationError(f"{path}: {e}") from None
    if data.shape[1] != 5:
        raise FieldValidationError(f"{path}: expected 5 columns, got {data.shape[1]}")
    # Grid.x's points, computed here so that a snapshot's grid caches no copy
    if not np.array_equal(data[:, 0], grid.x_min + grid.dx * np.arange(grid.n)):
        raise FieldValidationError(f"{path}: the x column is not the grid its grid line states")
    c1 = data[:, 1] + 1j * data[:, 2]
    c2 = data[:, 3] + 1j * data[:, 4]
    return grid, c1, c2


def read_field_csv(path: str) -> SpinorField:
    grid, u, v = _read_rows(path, FIELD_CSV_HEADER)
    return SpinorField(grid, u, v)


def read_lax_csv(path: str) -> SpinorField:
    grid, p1, p2 = _read_rows(path, LAX_CSV_HEADER)
    return SpinorField(grid, p1, p2)
