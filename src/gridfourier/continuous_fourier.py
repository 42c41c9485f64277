"""Continuous Fourier coefficients, partial sums, and convergence measures.

Coefficients use the circle normalization ghat(m) = integral_{-1}^{1}
g(x) exp(-i pi x m) dx and reconstruction carries the matching factor 1/2:

    g(x) = (1/2) * sum_m ghat(m) exp(i pi x m)

The truncated sum here is symmetric over m = -N .. N.  (The grid spectrum
of ``discrete_fourier`` instead runs over the asymmetric index set
-n .. n-1; the single-mode mismatch at m = n is inherent to the two
settings and is not reconciled.)

When no closed-form coefficient exists, every requested mode is read from
one grid transform at n* = max(64, 16*(K+1)), K the largest |m| requested,
and an n* above MAX_QUADRATURE_N is refused before sampling;
for smooth periodic integrands the grid sum converges geometrically in n,
and that path is certified independently by the aliasing oracle and the
grid-vs-continuum gap checks.

Every point value of a function (grid samples, sup-error points, the dense
points of the bound constants) comes from ``grid._evaluate``, which calls a
function's array evaluator once on the whole point array; a non-finite
value there raises ValueError naming the function and the first bad point.
Scalar-only callables (the user f of ``rescale``) are wrapped in the one
per-point loop, ``grid._pointwise``, where they enter.

A convergence table costs O(points * N_max + |N values|).  ``sup_errors``
evaluates f once and builds running partial sums up to the largest order:
the phases exp(i pi x m) are evaluated for m = 0 .. N_max only (row -m
is the conjugate of row m), weighted by the coefficients, folded
pairwise (m with -m) and accumulated mode by mode, so the order-N partial
sum is one row of the table.  ``sup_errors`` and ``reconstruct`` both walk
the column chunks of ``_phase_chunks``, whose phases serve every function
of one ``_sup_error_table`` call (the catalog of the M-test check); each
column is computed on its own, so chunking moves no bit, and no whole phase
matrix is held: MAX_PHASE_CELLS bounds the work and the coefficient vector.
``m_test_majorants`` takes each tail sum_{N < m <= C} 1/m^2,
C = MAJORANT_MODE_CUTOFF, in closed form as zeta(2, N+1) - zeta(2, C+1),
with the Hurwitz zeta function from its Euler-Maclaurin series (DLMF
5.15.8).  The one-N helpers ``sup_error`` and ``m_test_majorant`` are
views on the batched forms; every slot equals the one-N computation bit
for bit, since no slot depends on the other orders requested.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ._record import Record
from .discrete_fourier import discrete_coefficients
from .functions import SmoothPeriodicFunction, _make_function
from .grid import (
    GridFunction,
    _check_constant,
    _check_integer,
    _evaluate,
    _is_integer,
    _pointwise,
    build_grid,
    integrate,
    sample,
)

__all__ = [
    "ConvergenceRow",
    "RescaledFunction",
    "coefficient",
    "reconstruct",
    "sup_error",
    "sup_errors",
    "m_test_majorant",
    "m_test_majorants",
    "rescale",
]

# Hard mode cutoff of the majorant sum; the discarded tail is covered by
# an explicit 2*H*1e-6 slack folded into the returned bound.
MAJORANT_MODE_CUTOFF = 10**6
# Largest points x (2*N+1) phase cells ``sup_errors`` and ``reconstruct``
# will admit, checked before anything is allocated.
MAX_PHASE_CELLS = 2**22
# Largest quadrature grid n* of a coefficient without a closed form,
# checked before sampling; it admits every |m| <= 8191.
MAX_QUADRATURE_N = 2**17
# zeta(2, x) comes from its Euler-Maclaurin series for x >= this; the
# terms 1/m^2 below it are summed one by one.
_ZETA_SERIES_FROM = 64
_REFERENCE_GRID = 64
SUP_ERROR_SAMPLES = 2048
# Phase cells (modes x points) of one column chunk of ``_phase_chunks``:
# 256 KiB per complex array, so a chunk's phases and running sums stay in
# cache, and the table's memory does not grow with the point count.
_CHUNK_CELLS = 2**14


class ConvergenceRow(Record):
    """One row of a uniform-convergence experiment at truncation order N."""

    N: int
    sup_error: float
    m_test_bound: float

    def __post_init__(self):
        if not (self.sup_error >= 0 and self.m_test_bound >= 0):  # so that a NaN fails
            raise ValueError("row entries must be nonnegative")


def coefficient(f: SmoothPeriodicFunction, m: int) -> complex:
    """m'th Fourier coefficient of f: the one-mode view of ``_coefficient_vector``.

    Uses the exact oracle when f carries one, otherwise the grid transform
    at the n* of the largest |m| requested, here n* = max(64, 16*(|m|+1));
    the two paths agree to 1e-8 whenever both exist.  An n* above
    MAX_QUADRATURE_N (|m| > 8191) raises ValueError naming the mode,
    before anything is sampled.
    """
    return complex(_coefficient_vector(f, [_check_integer(m, "mode")])[0])


def _coefficient_vector(f, ms) -> np.ndarray:
    """Coefficients for the ascending modes ms, all read from one grid transform."""
    if f.exact_coefficient is not None:
        return np.asarray([f.exact_coefficient(m) for m in ms], dtype=np.complex128)
    extreme = max(ms[0], ms[-1], key=abs)
    n = max(_REFERENCE_GRID, 16 * (abs(extreme) + 1))
    if n > MAX_QUADRATURE_N:
        raise ValueError(
            f"{f.name}: mode {extreme} needs a quadrature grid of n={n}, "
            f"above the limit of {MAX_QUADRATURE_N}"
        )
    ms = np.asarray(ms, dtype=np.int64)
    return discrete_coefficients(sample(f, build_grid(n))).coefficients[ms + n]


def _phase_matrix(xs: np.ndarray, N: int) -> np.ndarray:
    """exp(i pi x m) for m = 0 .. N (rows) and every x in xs (columns).

    Row -m would be the conjugate of row m, so it is never evaluated.
    """
    # x = 1 is delegated to periodicity: evaluate at -1 instead
    xs = np.where(xs == 1.0, -1.0, np.asarray(xs, dtype=np.float64))
    return np.exp(1j * np.pi * np.outer(np.arange(N + 1), xs))


def _phase_chunks(xs: np.ndarray, N: int):
    """(chunk, _phase_matrix(xs[chunk], N)) over chunks of at most _CHUNK_CELLS cells or 1 point."""
    width = max(1, _CHUNK_CELLS // (N + 1))
    for start in range(0, len(xs), width):
        chunk = slice(start, start + width)
        yield chunk, _phase_matrix(xs[chunk], N)


def _running_sums(sums: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Row N = (1/2) sum_{|m| <= N} coeffs[m] exp(i pi x m), for N = 0 .. K, in place of sums.

    ``sums`` holds ``_phase_matrix`` of the points for K on entry, and
    ``coeffs`` spans modes -K .. K.  The phase rows are weighted in place,
    the conjugate row of mode -m is added into row m, and the rows are
    accumulated in order of m, so row N does not depend on K.
    """
    K = len(coeffs) // 2
    negative = np.conj(sums[1:])
    negative *= coeffs[:K][::-1, None]
    sums *= coeffs[K:, None]
    sums[1:] += negative
    np.cumsum(sums, axis=0, out=sums)
    sums *= 0.5
    return sums


def _check_phase_cells(points: int, N: int, inputs: str) -> None:
    """Refuse a points x (2N+1) phase matrix above MAX_PHASE_CELLS, before allocating."""
    cells = points * (2 * N + 1)
    if cells > MAX_PHASE_CELLS:
        raise ValueError(
            f"{inputs} need a {cells}-cell phase matrix, above the limit of {MAX_PHASE_CELLS}"
        )


def reconstruct(f: SmoothPeriodicFunction, N: int, x):
    """Truncated series (1/2) sum_{m=-N}^{N} ghat(m) exp(i pi x m) at x.

    x is a point (giving a complex) or an array of points (giving an array of its shape).
    A non-finite point raises ValueError naming it, before any coefficient is read.
    """
    (N,) = _orders([N], 0)
    xs = _finite_points(x)
    _check_phase_cells(xs.size, N, f"{xs.size} points and N={N}")
    coeffs = _coefficient_vector(f, range(-N, N + 1))
    values = np.empty(xs.size, dtype=np.complex128)
    for chunk, phases in _phase_chunks(xs.reshape(-1), N):
        values[chunk] = _running_sums(phases, coeffs)[N]
    return complex(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)


def _finite_points(x) -> np.ndarray:
    """x as a float64 array; ValueError naming the first point that is not finite."""
    xs = np.asarray(x, dtype=np.float64)
    bad = ~np.isfinite(xs)
    if bad.any():
        raise ValueError(f"points must be finite, got x={float(xs.flat[np.argmax(bad)])!r}")
    return xs


def _orders(N_values, least: int) -> list[int]:
    """N_values as ints; ValueError naming the first one that is not an integer >= least."""
    N_values = list(N_values)
    for N in N_values:
        if not _is_integer(N):
            raise ValueError(f"truncation orders must be integers, got {N!r}")
        if N < least:
            raise ValueError(f"truncation orders must be >= {least}, got {N}")
    return [int(N) for N in N_values]


def sup_errors(f: SmoothPeriodicFunction, N_values, samples: int = SUP_ERROR_SAMPLES) -> np.ndarray:
    """sup_error(f, N, samples) for every N in N_values, in one pass.

    The one-function view of ``_sup_error_table``.  Raises ValueError,
    before any allocation, when the modes -N .. N at the samples+1 points
    would exceed MAX_PHASE_CELLS cells.
    """
    return _sup_error_table([f], N_values, samples)[0]


def _sup_error_table(fs: list, N_values, samples: int) -> np.ndarray:
    """Row i holds sup_error(fs[i], N, samples) for every N in N_values.

    Each f is evaluated once at the samples+1 points.  The phases of each
    column chunk are evaluated once for all of fs; each f weights a copy of
    them into its running partial sums up to the largest N, and each N reads
    its row.  The chunk maxima combine by max, which is exact and keeps a NaN.
    """
    N_values = _orders(N_values, 0)
    if _check_integer(samples, "samples") < 2:
        raise ValueError(f"samples >= 2 required, got {samples}")
    if not N_values:
        return np.empty((len(fs), 0))
    N_max = max(N_values)
    _check_phase_cells(samples + 1, N_max, f"samples={samples} and N={N_max}")
    xs = np.linspace(-1.0, 1.0, samples + 1)
    # (coefficients, values) of each f in turn, so the first bad input raises first
    inputs = [
        (_coefficient_vector(f, range(-N_max, N_max + 1)), _evaluate(f.eval, xs, f.name))
        for f in fs
    ]
    chunk_maxima = [
        [
            np.abs(fvals[chunk] - _running_sums(phases.copy(), coeffs)[N_values]).max(axis=1)
            for coeffs, fvals in inputs
        ]
        for chunk, phases in _phase_chunks(xs, N_max)
    ]
    return np.max(chunk_maxima, axis=0)


def sup_error(f: SmoothPeriodicFunction, N: int, samples: int = SUP_ERROR_SAMPLES) -> float:
    """Max of |f - reconstruction| over samples+1 equispaced points of [-1, 1].

    The one-N view of ``sup_errors``.
    """
    return float(sup_errors(f, [N], samples)[0])


def _hurwitz_zeta2(x):
    """zeta(2, x) = sum_{k >= 0} 1/(x + k)^2 for x >= _ZETA_SERIES_FROM, a float or an array.

    The Euler-Maclaurin series 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1)
    (DLMF 5.15.8), cut after B_8; the remainder is below (5/66)/x^11,
    about 1e-21 at x = 64.
    """
    inv = 1.0 / x
    inv2 = inv * inv
    return inv + inv2 * (0.5 + inv * (1 / 6 + inv2 * (-1 / 30 + inv2 * (1 / 42 - inv2 / 30))))


_ZETA2_PAST_CUTOFF = _hurwitz_zeta2(MAJORANT_MODE_CUTOFF + 1.0)
# sum_{N < m <= C} 1/m^2 for N below _ZETA_SERIES_FROM: the terms up to 63
# one by one and zeta(2, 64) - zeta(2, C+1), in one correctly rounded sum
_MAJORANT_HEADS = tuple(
    math.fsum(
        [1.0 / (m * m) for m in range(N + 1, _ZETA_SERIES_FROM)]
        + [_hurwitz_zeta2(float(_ZETA_SERIES_FROM)), -_ZETA2_PAST_CUTOFF]
    )
    for N in range(_ZETA_SERIES_FROM)
)


def m_test_majorants(H: float, N_values) -> np.ndarray:
    """m_test_majorant(H, N) for every N in N_values, in one pass.

    Each tail sum_{N < m <= C} 1/m^2 is zeta(2, N+1) - zeta(2, C+1),
    C = MAJORANT_MODE_CUTOFF, and 0 for N >= C; no term array is built.
    """
    N_values = _orders(N_values, 1)
    _check_constant(H, "H")
    if not N_values:
        return np.empty(0)
    Ns = np.array([min(N, MAJORANT_MODE_CUTOFF) for N in N_values], dtype=np.float64)
    tails = _hurwitz_zeta2(np.maximum(Ns + 1.0, _ZETA_SERIES_FROM)) - _ZETA2_PAST_CUTOFF
    for i, N in enumerate(N_values):
        if N < _ZETA_SERIES_FROM:
            tails[i] = _MAJORANT_HEADS[N]
    tails[Ns == MAJORANT_MODE_CUTOFF] = 0.0
    return H * tails + 2.0 * H * 1e-6


def m_test_majorant(H: float, N: int) -> float:
    """Uniform bound on the truncation error implied by |ghat(m)| <= H/m^2.

    Returns (1/2) * sum_{N < |m| <= C} H/m^2, C = MAJORANT_MODE_CUTOFF =
    1e6, plus an explicit 2*H*1e-6 term covering the discarded modes beyond
    the cutoff, so the result is a majorant of |f - reconstruct(f, N, .)|
    given the sampled constants behind H; certified constants are ROADMAP
    item 1.  The tail is H * (zeta(2, N+1) - zeta(2, C+1)) in closed form:
    the terms 1/m^2 for m < 64 are summed exactly rounded, and zeta(2, x)
    for x >= 64 comes from 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) +
    1/(42x^7) - 1/(30x^9), whose remainder is below (5/66)/x^11.  For
    N >= C the tail is empty and the result is 2*H*1e-6 exactly.  The
    one-N view of ``m_test_majorants``.
    """
    return float(m_test_majorants(H, [N])[0])


class RescaledFunction(Record):
    """A periodic function on [a, b] pulled back to the circle model.

    The pulled-back function lives on [-1, 1] via x = a + L*(t+1)/2.  The
    [a, b] coefficients use the 1/L-normalized convention

        ghat_[a,b](m) = (1/L) * integral_a^b g(x) exp(-2 pi i x m / L) dx

    and reconstruction on [a, b] carries no extra 1/2 factor: the 1/L
    normalization absorbs it, since

        ghat_[a,b](m) = (1/2) * exp(-2 pi i a m / L) * (-1)^m * ghat_pulled(m).
    """

    pulled: SmoothPeriodicFunction
    a: float
    b: float

    @property
    def length(self) -> float:
        return self.b - self.a

    def coefficient_vector(self, N: int) -> np.ndarray:
        """ghat_[a,b](m) for m = -N .. N."""
        (N,) = _orders([N], 0)
        ms = np.arange(-N, N + 1)
        phases = np.exp(-2j * np.pi * self.a * ms / self.length)
        parity = np.where(ms % 2 == 0, 1.0, -1.0)
        return 0.5 * phases * parity * _coefficient_vector(self.pulled, range(-N, N + 1))

    def reconstruct(self, N: int, x):
        """sum_{|m|<=N} ghat_[a,b](m) exp(2 pi i x m / L): the circle sum at t = 2(x - a)/L - 1.

        A point that is not finite, or whose t overflows, raises ValueError naming x.
        """
        xs = _finite_points(x)
        # divided before doubled, so that a length near the float maximum does not overflow
        with np.errstate(over="ignore"):
            t = (xs - self.a) / self.length * 2.0 - 1.0
        bad = ~np.isfinite(t)
        if bad.any():
            raise ValueError(f"point x={float(xs.flat[np.argmax(bad)])!r} is too far from "
                             f"[{self.a!r}, {self.b!r}] to pull back to the circle")
        return reconstruct(self.pulled, N, t)


def rescale(
    f: Callable[[float], complex],
    a: float,
    b: float,
    *,
    d1: Optional[Callable[[float], complex]] = None,
    d2: Optional[Callable[[float], complex]] = None,
    name: str = "rescaled",
) -> RescaledFunction:
    """Pull a periodic function on [a, b] back to the circle model.

    Requires a < b with a finite length L = b - a, and f(a) = f(b) (within
    1e-12).  f, d1 and d2 take one float; the pulled-back evaluators call
    them once per point.  Derivative evaluators, when given, are rescaled
    by the chain-rule factors L/2 and (L/2)^2; a factor that overflows raises
    ValueError naming the interval and the derivative order.
    """
    # written so that a NaN end fails the test
    if not (b > a and math.isfinite(b - a)):
        raise ValueError(f"need a < b with b - a finite, got a={a}, b={b}")
    L = b - a
    fa = complex(f(a))
    fb = complex(f(b))
    if abs(fa - fb) > 1e-12:
        raise ValueError(f"f(a) != f(b): |{fa} - {fb}| = {abs(fa - fb):.3e}")

    def to_x(t):
        # halved before scaled, so that a length near the float maximum does not overflow
        return a + L * ((t + 1.0) / 2.0)

    def pull(g, order):
        # g at to_x(t) times the chain-rule factor (L/2)**order; order 0 skips
        # the multiply, since a complex times 1.0 can turn -0.0 into +0.0
        if g is None:
            return None
        points = _pointwise(g)
        try:
            factor = (L / 2.0) ** order
        except OverflowError:  # a float power raises where it would be inf
            raise ValueError(
                f"derivative order {order} on [{a}, {b}]: the chain-rule factor "
                f"(L/2)^{order} overflows"
            ) from None
        return lambda t: factor * points(to_x(t)) if order else points(to_x(t))

    pulled = _make_function(f"{name}[{a},{b}]", pull(f, 0), pull(d1, 1), pull(d2, 2), None)
    return RescaledFunction(pulled=pulled, a=float(a), b=float(b))


def _integral_gap(f: SmoothPeriodicFunction, gf: GridFunction) -> float:
    """|grid integral - integral of f| = |grid mean-mode - ghat(0)|, for gf a sample of f."""
    return abs(integrate(gf) - coefficient(f, 0))
