"""Continuous Fourier coefficients, partial sums, and convergence measures.

Coefficients use the circle normalization ghat(m) = integral_{-1}^{1}
g(x) exp(-i pi x m) dx and reconstruction carries the matching factor 1/2:

    g(x) = (1/2) * sum_m ghat(m) exp(i pi x m)

The truncated sum here is symmetric over m = -N .. N.  (The grid spectrum
of ``discrete_fourier`` instead runs over the asymmetric index set
-n .. n-1; the single-mode mismatch at m = n is inherent to the two
settings and is not reconciled.)

When no closed-form coefficient exists, the coefficient is taken from the
grid transform at n* = max(64, 16*(|m|+1)); for smooth periodic
integrands the grid sum converges faster than any power of 1/n, and that
path is certified independently by the aliasing oracle and the
grid-vs-continuum gap checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .discrete_fourier import discrete_coefficients
from .functions import SmoothPeriodicFunction
from .grid import build_grid, integrate, sample

__all__ = [
    "ConvergenceRow",
    "RescaledFunction",
    "coefficient",
    "reconstruct",
    "sup_error",
    "m_test_majorant",
    "rescale",
    "discrete_to_continuous_gap",
    "integral_gap",
]

# Hard mode cutoff of the majorant sum; the discarded tail is covered by
# an explicit 2*H*1e-6 slack folded into the returned bound.
MAJORANT_MODE_CUTOFF = 10**6
_REFERENCE_GRID = 64


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a uniform-convergence experiment at truncation order N."""

    N: int
    sup_error: float
    m_test_bound: float

    def __post_init__(self):
        if self.sup_error < 0 or self.m_test_bound < 0:
            raise ValueError("row entries must be nonnegative")


def _quadrature_grid_size(m: int) -> int:
    return max(_REFERENCE_GRID, 16 * (abs(m) + 1))


def _quadrature_coefficient(f, m: int) -> complex:
    n = _quadrature_grid_size(m)
    return discrete_coefficients(sample(f, build_grid(n))).coeff(m)


def coefficient(f: SmoothPeriodicFunction, m: int) -> complex:
    """m'th Fourier coefficient of f.

    Uses the exact oracle when f carries one, otherwise the grid
    transform at n* = max(64, 16*(|m|+1)); the two paths agree to 1e-8
    whenever both exist.
    """
    if f.exact_coefficient is not None:
        return complex(f.exact_coefficient(m))
    return complex(_quadrature_coefficient(f, m))


def _coefficient_vector(f, N: int) -> np.ndarray:
    """Coefficients for m = -N .. N, sharing grid transforms across modes."""
    ms = range(-N, N + 1)
    if f.exact_coefficient is not None:
        return np.asarray([f.exact_coefficient(m) for m in ms], dtype=np.complex128)
    spectra = {}
    out = np.empty(2 * N + 1, dtype=np.complex128)
    for pos, m in enumerate(ms):
        n = _quadrature_grid_size(m)
        if n not in spectra:
            spectra[n] = discrete_coefficients(sample(f, build_grid(n)))
        out[pos] = spectra[n].coeff(m)
    return out


def _partial_sums(coeffs: np.ndarray, N: int, xs: np.ndarray) -> np.ndarray:
    # x = 1 is delegated to periodicity: evaluate at -1 instead
    xs = np.where(xs == 1.0, -1.0, np.asarray(xs, dtype=np.float64))
    ms = np.arange(-N, N + 1)
    phases = np.exp(1j * np.pi * np.outer(xs, ms))
    return 0.5 * np.sum(phases * coeffs, axis=1)


def reconstruct(f: SmoothPeriodicFunction, N: int, x: float) -> complex:
    """Truncated series (1/2) sum_{m=-N}^{N} ghat(m) exp(i pi x m) at x."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    coeffs = _coefficient_vector(f, N)
    return complex(_partial_sums(coeffs, N, np.asarray([float(x)]))[0])


def sup_error(f: SmoothPeriodicFunction, N: int, samples: int = 2048) -> float:
    """Max of |f - reconstruction| over samples+1 equispaced points of [-1, 1]."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if samples < 2:
        raise ValueError(f"samples >= 2 required, got {samples}")
    xs = np.linspace(-1.0, 1.0, samples + 1)
    coeffs = _coefficient_vector(f, N)
    recon = _partial_sums(coeffs, N, xs)
    fvals = np.asarray([f.eval(float(x)) for x in xs], dtype=np.complex128)
    return float(np.max(np.abs(fvals - recon)))


def m_test_majorant(H: float, N: int) -> float:
    """Uniform bound on the truncation error implied by |ghat(m)| <= H/m^2.

    Returns (1/2) * sum_{N < |m| <= 1e6} H/m^2 plus an explicit 2*H*1e-6
    term covering the discarded modes beyond the cutoff, so the result is
    a rigorous majorant of |f - reconstruct(f, N, .)|.
    """
    if N < 1:
        raise ValueError(f"N >= 1 required, got {N}")
    if H < 0:
        raise ValueError(f"H must be nonnegative, got {H}")
    ms = np.arange(N + 1, MAJORANT_MODE_CUTOFF + 1, dtype=np.float64)
    tail = float(np.sum(1.0 / (ms * ms)))
    return H * tail + 2.0 * H * 1e-6


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
        phase = cmath.exp(-2j * math.pi * self.a * m / self.length)
        parity = -1.0 if m % 2 else 1.0
        return 0.5 * phase * parity * coefficient(self.pulled, m)

    def coefficient_vector(self, N: int) -> np.ndarray:
        ms = np.arange(-N, N + 1)
        phases = np.exp(-2j * np.pi * self.a * ms / self.length)
        parity = np.where(ms % 2 == 0, 1.0, -1.0)
        return 0.5 * phases * parity * _coefficient_vector(self.pulled, N)

    def reconstruct(self, N: int, x: float) -> complex:
        """sum_{m=-N}^{N} ghat_[a,b](m) exp(2 pi i x m / L) at x in [a, b]."""
        coeffs = self.coefficient_vector(N)
        ms = np.arange(-N, N + 1)
        phases = np.exp(2j * np.pi * float(x) * ms / self.length)
        return complex(np.sum(coeffs * phases))


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
    1e-12).  Derivative evaluators, when given, are rescaled by the
    chain-rule factors L/2 and (L/2)^2.
    """
    # written so that a NaN end fails the test
    if not (b > a and math.isfinite(b - a)):
        raise ValueError(f"need a < b with b - a finite, got a={a}, b={b}")
    L = b - a
    fa = complex(f(a))
    fb = complex(f(b))
    if abs(fa - fb) > 1e-12:
        raise ValueError(f"f(a) != f(b): |{fa} - {fb}| = {abs(fa - fb):.3e}")

    def to_x(t: float) -> float:
        return a + L * (t + 1.0) / 2.0

    def ev(t):
        return f(to_x(t))

    pulled_d1 = None
    if d1 is not None:
        def pulled_d1(t):
            return (L / 2.0) * d1(to_x(t))

    pulled_d2 = None
    if d2 is not None:
        def pulled_d2(t):
            return (L / 2.0) ** 2 * d2(to_x(t))

    pulled = SmoothPeriodicFunction(
        name=f"{name}[{a},{b}]",
        eval=ev,
        d1=pulled_d1,
        d2=pulled_d2,
        exact_coefficient=None,
        endpoint_value=complex(ev(1.0)),
    )
    return RescaledFunction(pulled=pulled, a=float(a), b=float(b))


def discrete_to_continuous_gap(f: SmoothPeriodicFunction, m: int, n: int) -> float:
    """|grid coefficient at size n - continuous coefficient| at mode m."""
    if not -n <= m <= n - 1:
        raise ValueError(f"mode {m} outside [{-n}, {n - 1}]")
    grid_value = discrete_coefficients(sample(f, build_grid(n))).coeff(m)
    return abs(grid_value - coefficient(f, m))


def integral_gap(f: SmoothPeriodicFunction, n: int) -> float:
    """|grid integral - integral of f| = |grid mean-mode - ghat(0)|."""
    return abs(integrate(sample(f, build_grid(n))) - coefficient(f, 0))
