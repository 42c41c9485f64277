"""Uniform 2n-cell partition of [-1, 1) and complex step functions on it.

The grid carries the points x_j = j/n for j = -n .. n-1; point j owns the
half-open cell [j/n, (j+1)/n) of measure 1/n, so the total measure is 2.
Points are stored as integer indices and only materialized as j/n on
demand, which keeps the cell map x -> floor(n*x) exact.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._record import Record

__all__ = ["Grid", "GridFunction", "build_grid", "sample", "integrate"]


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool, a float or anything else."""
    # the exact-int test first: the ABC check costs about 0.5 us a value
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number such as a float, an int or a numpy float; False for a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int, for an integer in [low, high]; a bound of None is no bound.

    The one check of an integer argument's type and range.  Anything else
    raises ValueError naming ``what`` and the value, in one of three forms:
    "{what} must be an integer, got {value!r}", "{what} {value} outside
    [{low}, {high}]" when both bounds are set, and "{what} must be >= {low},
    got {value}" ("must be nonnegative" when low is 0) when only low is.
    """
    if not _is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{what} {value} outside [{low}, {high}]")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f">= {low}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return int(value)


def _check_real(value, what: str, positive: bool = False) -> float:
    """value as a float, for a finite real >= 0, or > 0 when ``positive``.

    The one check of a real argument's type, finiteness and sign.  Anything
    else, a bool or an int beyond the float range too, raises ValueError
    naming ``what`` and the value, in the "> 0" form when ``positive``.
    """
    try:  # converted before tested, as a numpy float compared with a Python float can warn
        number = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int or fraction beyond the float range
        number = math.inf
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        if positive:
            raise ValueError(f"invalid {what}: {value!r} (must be finite and > 0)")
        raise ValueError(f"{what} must be finite and nonnegative, got {value!r}")
    return number


class Grid(Record):
    """Uniform partition of [-1, 1) into 2n half-open cells of width 1/n."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integer(self.n, "grid size", 1))

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


class GridFunction(Record):
    """Complex step function on a grid: value on cell j is values[j + n].

    Values are frozen at construction; all operations return new objects.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        object.__setattr__(self, "values", _frozen(values, self.grid.n, "values"))

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> GridFunction:
        """A grid function holding ``values`` itself, without the constructor's copy.

        Only for a complex128 array of 2n values that the caller has just
        made and hands over: its shape is checked and it is made read-only.
        """
        gf = cls.__new__(cls)
        object.__setattr__(gf, "grid", grid)
        object.__setattr__(gf, "values", _frozen(values, grid.n, "values"))
        return gf

    def __eq__(self, other):
        """Same grid and exactly equal values; a grid function is unhashable."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    __hash__ = None

    def at(self, j: int) -> complex:
        """Value at grid index j (j = -n .. n-1)."""
        n = self.grid.n
        return complex(self.values[_check_integer(j, "grid index", -n, n - 1) + n])

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

    def _combine(self, other, op):
        """op(self.values, operand): other's values on the same grid, or complex(other)."""
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            operand = other.values
        elif isinstance(other, numbers.Complex):
            operand = complex(other)
        else:
            return NotImplemented
        return GridFunction._adopt(self.grid, op(self.values, operand))

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, other):
        return self._combine(other, np.multiply)

    def __rmul__(self, other):
        # operand first: with fused multiply-add a complex a*b and b*a can differ in the last bit
        return self._combine(other, lambda values, operand: operand * values)

    def __neg__(self):
        return GridFunction._adopt(self.grid, -self.values)


def _frozen(values: np.ndarray, n: int, what: str) -> np.ndarray:
    """values, made read-only once checked to hold the 2n entries of an n-grid; ``what`` names them."""
    if values.shape != (2 * n,):
        raise ValueError(f"expected {2 * n} {what} for n={n}, got {values.size}")
    values.setflags(write=False)
    return values


def build_grid(n: int) -> Grid:
    """Grid with the 2n points j/n, j = -n .. n-1."""
    return Grid(n)


def _pointwise(fn):
    """Array evaluator built from a scalar-only callable: the one per-point loop.

    The result calls ``fn`` with a Python float at each point, in order, and
    returns the values as a new complex array, not a view, of the shape of
    its input (a scalar input gives a 0-d array).
    """

    def ev(xs):
        xs = np.asarray(xs, dtype=np.float64)
        values = np.empty(xs.shape, dtype=np.complex128)
        values.flat = [fn(float(x)) for x in xs.flat]
        return values

    return ev


def _evaluate(fn, xs: np.ndarray, name: str, where: str = "") -> np.ndarray:
    """fn(xs) in one call on the whole point array, checked for finiteness.

    ``fn`` is an array evaluator (the contract of a SmoothPeriodicFunction's
    eval, d1 and d2): it maps the array xs to values broadcastable to its
    shape.  A scalar-only callable enters through ``_pointwise``.  Overflow
    inside fn does not warn; instead a non-finite value raises ValueError
    naming ``name`` and the first bad point, followed by ``where``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(fn(xs), dtype=np.complex128)
    if values.shape != xs.shape:
        values = np.broadcast_to(values, xs.shape)
    bad = ~np.isfinite(values)
    if bad.any():
        x = float(xs[np.argmax(bad)])
        raise ValueError(f"{name}: non-finite value at x={x!r}{where}")
    return values


def sample(f, grid: Grid) -> GridFunction:
    """Evaluate f at the grid points (left cell endpoints).

    Accepts either a plain callable, called once per point with a float,
    or any object with an ``eval`` attribute (e.g. a catalog function),
    whose eval is called once on the whole point array.  Evaluation
    failures propagate, and a non-finite value raises ValueError naming f
    and the point.
    """
    fn = f.eval if hasattr(f, "eval") else _pointwise(f)
    name = getattr(f, "name", repr(f))
    return GridFunction(grid, _evaluate(fn, grid.points(), name, f" on the n={grid.n} grid"))


def integrate(gf: GridFunction) -> complex:
    """Cell-weighted sum (1/n) * sum_j values[j]; linear in gf."""
    return complex(np.sum(gf.values) / gf.grid.n)
