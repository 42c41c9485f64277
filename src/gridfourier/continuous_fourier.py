"""Continuous Fourier coefficients, partial sums, and convergence measures.

Coefficients use the circle normalization ghat(m) = integral_{-1}^{1}
g(x) exp(-i pi x m) dx and reconstruction carries the matching factor 1/2:

    g(x) = (1/2) * sum_m ghat(m) exp(i pi x m)

The truncated sum here is symmetric over m = -N .. N.  (The grid spectrum
of ``discrete_fourier`` instead runs over the asymmetric index set
-n .. n-1; the single-mode mismatch at m = n is inherent to the two
settings and is not reconciled.)

When no closed-form coefficient exists, every requested mode is read from
one grid transform at n* = max(64, 16*(K+1)), K the largest |m| requested;
for smooth periodic integrands the grid sum converges geometrically in n,
and that path is certified independently by the aliasing oracle and the
grid-vs-continuum gap checks.

Every point value of a function (grid samples, sup-error points, the dense
points of the bound constants) comes from ``grid._evaluate``, which calls a
function's array evaluator once on the whole point array; a non-finite
value there raises ValueError naming the function and the first bad point.
Scalar-only callables (the user f of ``rescale``) are wrapped in the one
per-point loop, ``grid._pointwise``, where they enter.

A convergence table is computed in one pass per function: ``sup_errors``
evaluates f once and builds one phase matrix for the largest order, and
``m_test_majorants`` builds the terms 1/m^2 once.  The one-N helpers
``sup_error`` and ``m_test_majorant`` are views on them; every slot equals
the one-N computation bit for bit when f has exact coefficients, as every
catalog function has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .discrete_fourier import discrete_coefficients
from .functions import SmoothPeriodicFunction, _make_function
from .grid import GridFunction, _evaluate, _pointwise, build_grid, integrate, sample

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
    "discrete_to_continuous_gap",
    "integral_gap",
]

# Hard mode cutoff of the majorant sum; the discarded tail is covered by
# an explicit 2*H*1e-6 slack folded into the returned bound.
MAJORANT_MODE_CUTOFF = 10**6
# Largest (samples+1) x (2*N+1) phase matrix ``sup_errors`` will build:
# 2**22 complex cells, 64 MiB, checked before anything is allocated.
MAX_PHASE_CELLS = 2**22
_REFERENCE_GRID = 64
SUP_ERROR_SAMPLES = 2048


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a uniform-convergence experiment at truncation order N."""

    N: int
    sup_error: float
    m_test_bound: float

    def __post_init__(self):
        if self.sup_error < 0 or self.m_test_bound < 0:
            raise ValueError("row entries must be nonnegative")


def coefficient(f: SmoothPeriodicFunction, m: int) -> complex:
    """m'th Fourier coefficient of f: the one-mode view of ``_coefficient_vector``.

    Uses the exact oracle when f carries one, otherwise the grid transform
    at the n* of the largest |m| requested, here n* = max(64, 16*(|m|+1));
    the two paths agree to 1e-8 whenever both exist.
    """
    return complex(_coefficient_vector(f, [m])[0])


def _coefficient_vector(f, ms) -> np.ndarray:
    """Coefficients for the modes ms, all read from one grid transform."""
    if f.exact_coefficient is not None:
        return np.asarray([f.exact_coefficient(m) for m in ms], dtype=np.complex128)
    ms = np.asarray(ms, dtype=np.int64)
    n = max(_REFERENCE_GRID, 16 * (int(np.max(np.abs(ms), initial=0)) + 1))
    return discrete_coefficients(sample(f, build_grid(n))).coefficients[ms + n]


def _phase_matrix(xs: np.ndarray, N: int) -> np.ndarray:
    """exp(i pi x m) for every x in xs (rows) and m = -N .. N (columns)."""
    # x = 1 is delegated to periodicity: evaluate at -1 instead
    xs = np.where(xs == 1.0, -1.0, np.asarray(xs, dtype=np.float64))
    return np.exp(1j * np.pi * np.outer(xs, np.arange(-N, N + 1)))


def _partial_sums(phases: np.ndarray, coeffs: np.ndarray, N: int) -> np.ndarray:
    """(1/2) sum_{|m| <= N} coeffs[m] phases[:, m] from centred wider tables.

    ``phases`` and ``coeffs`` span modes -K .. K for some K >= N; the sum
    reduces the centred column slice, so it equals the sum over tables
    built for N alone bit for bit.
    """
    K = len(coeffs) // 2
    cols = slice(K - N, K + N + 1)
    return 0.5 * np.sum(phases[:, cols] * coeffs[cols], axis=1)


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
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    xs = np.asarray(x, dtype=np.float64)
    _check_phase_cells(xs.size, N, f"{xs.size} points and N={N}")
    coeffs = _coefficient_vector(f, range(-N, N + 1))
    values = _partial_sums(_phase_matrix(xs.reshape(-1), N), coeffs, N)
    return complex(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)


def sup_errors(f: SmoothPeriodicFunction, N_values, samples: int = SUP_ERROR_SAMPLES) -> np.ndarray:
    """sup_error(f, N, samples) for every N in N_values, in one pass.

    f is evaluated once at the samples+1 points, and the phase matrix and
    the coefficient vector are built once for the largest N; each N then
    reduces its centred column slice.  Raises ValueError, before any
    allocation, when that matrix would exceed MAX_PHASE_CELLS cells.
    """
    N_values = [int(N) for N in N_values]
    for N in N_values:
        if N < 0:
            raise ValueError(f"N must be nonnegative, got {N}")
    if samples < 2:
        raise ValueError(f"samples >= 2 required, got {samples}")
    if not N_values:
        return np.empty(0)
    N_max = max(N_values)
    _check_phase_cells(samples + 1, N_max, f"samples={samples} and N={N_max}")
    xs = np.linspace(-1.0, 1.0, samples + 1)
    coeffs = _coefficient_vector(f, range(-N_max, N_max + 1))
    phases = _phase_matrix(xs, N_max)
    fvals = _evaluate(f.eval, xs, f.name)
    return np.array(
        [np.max(np.abs(fvals - _partial_sums(phases, coeffs, N))) for N in N_values]
    )


def sup_error(f: SmoothPeriodicFunction, N: int, samples: int = SUP_ERROR_SAMPLES) -> float:
    """Max of |f - reconstruction| over samples+1 equispaced points of [-1, 1].

    The one-N view of ``sup_errors``.
    """
    return float(sup_errors(f, [N], samples)[0])


def m_test_majorants(H: float, N_values) -> np.ndarray:
    """m_test_majorant(H, N) for every N in N_values, in one pass.

    The terms 1/m^2, m = 1 .. MAJORANT_MODE_CUTOFF, are built once, and
    the tail for each N is the sum of the terms past index N.
    """
    N_values = [int(N) for N in N_values]
    for N in N_values:
        if N < 1:
            raise ValueError(f"N >= 1 required, got {N}")
    if H < 0:
        raise ValueError(f"H must be nonnegative, got {H}")
    if not N_values:
        return np.empty(0)
    inv = np.arange(1, MAJORANT_MODE_CUTOFF + 1, dtype=np.float64)
    np.multiply(inv, inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return np.array([H * float(np.sum(inv[N:])) + 2.0 * H * 1e-6 for N in N_values])


def m_test_majorant(H: float, N: int) -> float:
    """Uniform bound on the truncation error implied by |ghat(m)| <= H/m^2.

    Returns (1/2) * sum_{N < |m| <= 1e6} H/m^2 plus an explicit 2*H*1e-6
    term covering the discarded modes beyond the cutoff, so the result is
    a majorant of |f - reconstruct(f, N, .)| given the sampled constants
    behind H; certified constants are ROADMAP item 1.  The one-N view of
    ``m_test_majorants``.
    """
    return float(m_test_majorants(H, [N])[0])


@dataclass(frozen=True)
class RescaledFunction:
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

    def coefficient(self, m: int) -> complex:
        """ghat_[a,b](m), read from ``coefficient_vector(|m|)``."""
        return complex(self.coefficient_vector(abs(m))[m + abs(m)])

    def coefficient_vector(self, N: int) -> np.ndarray:
        ms = np.arange(-N, N + 1)
        phases = np.exp(-2j * np.pi * self.a * ms / self.length)
        parity = np.where(ms % 2 == 0, 1.0, -1.0)
        return 0.5 * phases * parity * _coefficient_vector(self.pulled, range(-N, N + 1))

    def reconstruct(self, N: int, x):
        """sum_{|m|<=N} ghat_[a,b](m) exp(2 pi i x m / L): the circle sum at t = 2(x - a)/L - 1."""
        t = 2.0 * (np.asarray(x, dtype=np.float64) - self.a) / self.length - 1.0
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
    by the chain-rule factors L/2 and (L/2)^2.
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
        return a + L * (t + 1.0) / 2.0

    def pull(g, order):
        # g at to_x(t) times the chain-rule factor (L/2)**order; order 0 skips
        # the multiply, since a complex times 1.0 can turn -0.0 into +0.0
        if g is None:
            return None
        points = _pointwise(g)
        factor = (L / 2.0) ** order
        return lambda t: factor * points(to_x(t)) if order else points(to_x(t))

    pulled = _make_function(f"{name}[{a},{b}]", pull(f, 0), pull(d1, 1), pull(d2, 2), None)
    return RescaledFunction(pulled=pulled, a=float(a), b=float(b))


def discrete_to_continuous_gap(f: SmoothPeriodicFunction, m: int, n: int) -> float:
    """|grid coefficient at size n - continuous coefficient| at mode m."""
    if not -n <= m <= n - 1:
        raise ValueError(f"mode {m} outside [{-n}, {n - 1}]")
    grid_value = discrete_coefficients(sample(f, build_grid(n))).coeff(m)
    return abs(grid_value - coefficient(f, m))


def integral_gap(f: SmoothPeriodicFunction, n: int) -> float:
    """|grid integral - integral of f| = |grid mean-mode - ghat(0)|."""
    return _integral_gap(f, sample(f, build_grid(n)))


def _integral_gap(f: SmoothPeriodicFunction, gf: GridFunction) -> float:
    """``integral_gap`` on a sample of f that is already held."""
    return abs(integrate(gf) - coefficient(f, 0))
