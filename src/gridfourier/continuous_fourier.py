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
``m_test_majorants`` takes each tail sum_{m > N} 1/m^2 as the Hurwitz zeta
value zeta(2, N+1), from its Euler-Maclaurin series (DLMF 5.15.8), with no
mode cutoff, and pushes H * zeta(2, N+1) outward past its rounding error,
so the bound holds for every N and tends to 0.  The one-N helpers
``sup_error`` and ``m_test_majorant`` are views on the batched forms; every
slot equals the one-N computation bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ._record import Record
from .discrete_fourier import discrete_coefficients
from .functions import SmoothPeriodicFunction
from .grid import (
    GridFunction,
    _check_integer,
    _check_real,
    _evaluate,
    _is_real,
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
# 64 KiB per complex array, so a chunk's phases and running sums stay in
# cache, and the table's memory does not grow with the point count.
# Against 2**14, the M-test runner of the default verify suite peaks at
# 0.43 MB under tracemalloc, not 1.06 MB, and run_convergence("expcos",
# 1..64) at 0.32 MiB, not 0.93 MiB.  Each takes about 0.8 ms (9%) more for
# its extra chunks, under 1% of a fresh verify or converge process.
_CHUNK_CELLS = 2**12


class ConvergenceRow(Record):
    """One row of a uniform-convergence experiment at truncation order N."""

    N: int
    sup_error: float
    m_test_bound: float

    def __post_init__(self):
        object.__setattr__(self, "N", _check_integer(self.N, "truncation order", 0))
        for field in ("sup_error", "m_test_bound"):
            object.__setattr__(self, field, _check_real(getattr(self, field), field))


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
    return [_check_integer(N, "truncation order", least) for N in N_values]


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
    _check_integer(samples, "samples", 2)
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


# zeta(2, N+1) for N below _ZETA_SERIES_FROM, at index N: the terms up to
# 63 one by one and zeta(2, 64), in one correctly rounded sum
_MAJORANT_HEADS = np.array([
    math.fsum([1.0 / (m * m) for m in range(N + 1, _ZETA_SERIES_FROM)]
              + [_hurwitz_zeta2(_ZETA_SERIES_FROM)])
    for N in range(_ZETA_SERIES_FROM)
])
# H * zeta(2, N+1) in floats reads up to 2 ulp below the exact value (4 by the
# error bounds of its operations); this factor of 16 to 32 ulp lifts it above
_MAJORANT_MARGIN = 1.0 + 2.0**-48


def m_test_majorants(H: float, N_values) -> np.ndarray:
    """m_test_majorant(H, N) for every N in N_values, in one pass; no term array is built."""
    N_values = _orders(N_values, 1)
    H = _check_real(H, "H")
    # N + 1 >= x * 2^s with x = (N + 1) >> s an exact float; as zeta(2, .)
    # decreases and each block of 2^s terms is at most 2^s times its first,
    # zeta(2, N+1) <= zeta(2, x) / 2^s, which is within 2^-51 of it
    shifts = [(N + 1).bit_length() - 53 if N >= 2**53 - 1 else 0 for N in N_values]
    xs = np.array([(N + 1) >> s for N, s in zip(N_values, shifts)], dtype=np.float64)
    tails = _hurwitz_zeta2(np.maximum(xs, _ZETA_SERIES_FROM))
    heads = xs <= _ZETA_SERIES_FROM  # N < _ZETA_SERIES_FROM, where s = 0
    tails[heads] = _MAJORANT_HEADS[xs[heads].astype(np.int64) - 1]
    bounds = np.ldexp(H * tails * _MAJORANT_MARGIN, -np.array(shifts, dtype=np.int64))
    # a subnormal bound, which the factor cannot lift, may be 3 steps of 2^-1074 low
    return bounds + (2.0**-1072 if H > 0 else 0.0)


def m_test_majorant(H: float, N: int) -> float:
    """Uniform bound on the truncation error implied by |ghat(m)| <= H/m^2.

    Returns (1/2) * sum_{|m| > N} H/m^2 = H * zeta(2, N+1) times 1 + 2^-48,
    plus 2^-1072 for H > 0, so that rounding, even to a subnormal, leaves it
    above the exact tail: a majorant of |f - reconstruct(f, N, .)| given the
    sampled constants behind H (certified constants are ROADMAP item 1).  No
    mode is cut off, so it tends to 0 as N grows.  The terms 1/m^2, m < 64,
    are summed exactly rounded; zeta(2, x), x >= 64, is 1/x + 1/(2x^2) +
    1/(6x^3) - 1/(30x^5) + 1/(42x^7) - 1/(30x^9) within (5/66)/x^11, with an
    N + 1 above 2^53 rounded down to 53 bits times 2^s, which raises the
    bound by at most 2^-51 of it.  The one-N view of ``m_test_majorants``.
    """
    return float(m_test_majorants(H, [N])[0])


def _check_interval(a, b) -> tuple[float, float]:
    """The ends as floats, for real a < b with b - a finite; else ValueError naming both.

    A NaN, a bool, an end that is no real number and an int beyond the
    float range fail.
    """
    try:  # converted before compared, so that no end is compared or subtracted raw
        lo, hi = (float(end) if _is_real(end) else math.nan for end in (a, b))
    except OverflowError:  # an int or fraction beyond the float range
        lo = hi = math.nan
    if not (hi > lo and math.isfinite(hi - lo)):
        a, b = (end if _is_real(end) else repr(end) for end in (a, b))
        raise ValueError(f"need a < b with b - a finite, got a={a}, b={b}")
    return lo, hi


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

    def __post_init__(self):
        for field, end in zip(("a", "b"), _check_interval(self.a, self.b)):
            object.__setattr__(self, field, end)

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
    a, b = _check_interval(a, b)
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

    pulled = SmoothPeriodicFunction(f"{name}[{a},{b}]", pull(f, 0), pull(d1, 1), pull(d2, 2), None)
    return RescaledFunction(pulled=pulled, a=a, b=b)


def _integral_gap(f: SmoothPeriodicFunction, gf: GridFunction) -> float:
    """|grid integral - integral of f| = |grid mean-mode - ghat(0)|, for gf a sample of f."""
    return abs(integrate(gf) - coefficient(f, 0))
