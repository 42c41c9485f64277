"""Uniform 2n-cell partition of [-1, 1) and complex step functions on it.

The grid carries the points x_j = j/n for j = -n .. n-1; point j owns the
half-open cell [j/n, (j+1)/n) of measure 1/n, so the total measure is 2.
Points are stored as integer indices and only materialized as j/n on
demand, which keeps the cell map x -> floor(n*x) exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "GridFunction", "build_grid", "sample", "integrate"]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [-1, 1) into 2n half-open cells of width 1/n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"grid needs n >= 1, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def size(self) -> int:
        """Number of grid points (= number of cells), exactly 2n."""
        return 2 * self.n

    @property
    def cell_width(self) -> float:
        return 1.0 / self.n

    def indices(self) -> np.ndarray:
        """Integer indices j = -n .. n-1."""
        return np.arange(-self.n, self.n)

    def points(self) -> np.ndarray:
        """Coordinates j/n of the left cell endpoints, ascending."""
        return self.indices() / self.n

    def point(self, j: int) -> float:
        """Coordinate of grid point j, for j in -n .. n-1."""
        self._check_index(j)
        return j / self.n

    def cell_index(self, x: float) -> int:
        """Index j of the cell [j/n, (j+1)/n) containing x.

        Defined for x in [-1, 1); x = 1 wraps to -n by periodicity.
        """
        if x == 1.0:
            return -self.n
        if not -1.0 <= x < 1.0:
            raise ValueError(f"x={x!r} outside [-1, 1]")
        j = math.floor(self.n * x)
        return min(max(j, -self.n), self.n - 1)

    def _check_index(self, j: int) -> None:
        if not -self.n <= j <= self.n - 1:
            raise ValueError(f"grid index {j} outside [{-self.n}, {self.n - 1}]")


@dataclass(frozen=True)
class GridFunction:
    """Complex step function on a grid: value on cell j is values[j + n].

    Values are frozen at construction; all operations return new objects,
    so instances are safe to share across threads.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} values for n={self.grid.n}, got {vals.shape[0]}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def at(self, j: int) -> complex:
        """Value at grid index j (j = -n .. n-1)."""
        self.grid._check_index(j)
        return complex(self.values[j + self.grid.n])

    def value_at(self, x: float) -> complex:
        """Step-function value at a continuum coordinate x in [-1, 1]."""
        return self.at(self.grid.cell_index(x))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _require_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError(
                f"grid mismatch: n={self.grid.n} vs n={other.grid.n}"
            )

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            return GridFunction(self.grid, self.values + other.values)
        if isinstance(other, numbers.Complex):
            return GridFunction(self.grid, self.values + complex(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            return GridFunction(self.grid, self.values - other.values)
        if isinstance(other, numbers.Complex):
            return GridFunction(self.grid, self.values - complex(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            return GridFunction(self.grid, self.values * other.values)
        if isinstance(other, numbers.Complex):
            return GridFunction(self.grid, self.values * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return GridFunction(self.grid, complex(other) * self.values)
        return NotImplemented

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


def build_grid(n: int) -> Grid:
    """Grid with the 2n points j/n, j = -n .. n-1."""
    return Grid(n)


def sample(f, grid: Grid) -> GridFunction:
    """Evaluate f at the grid points (left cell endpoints).

    Accepts either a plain callable or any object with an ``eval``
    attribute (e.g. a catalog function).  Evaluation failures propagate,
    and a non-finite value raises ValueError naming f and the point.
    """
    fn = getattr(f, "eval", f)
    points = grid.points()
    values = np.asarray([fn(float(x)) for x in points], dtype=np.complex128)
    bad = ~np.isfinite(values)
    if bad.any():
        name = getattr(f, "name", repr(f))
        x = float(points[np.argmax(bad)])
        raise ValueError(f"{name}: non-finite value at x={x!r} on the n={grid.n} grid")
    return GridFunction(grid, values)


def integrate(gf: GridFunction) -> complex:
    """Cell-weighted sum (1/n) * sum_j values[j]; linear in gf."""
    return complex(np.sum(gf.values) / gf.grid.n)
