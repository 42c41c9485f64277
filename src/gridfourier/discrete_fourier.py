"""Discrete Fourier coefficients on the 2n-point grid and exact inversion.

Conventions (circle of circumference 2, modes m = -n .. n-1):

    ghat(m) = (1/n) * sum_{j=-n}^{n-1} g(j/n) exp(-i pi j m / n)
    g(j/n)  = (1/2) * sum_{m=-n}^{n-1} ghat(m) exp(+i pi j m / n)

Both directions are one shifted 2n-point DFT computed by numpy's pocketfft
for every n >= 1, with Bluestein's algorithm taking sizes 2n that have large
prime factors; there is no size gate and no second path.  The FFT's
rounding error grows like O(u log n), below that of a direct sum with
rounded twiddles (Schatzman, SIAM J. Sci. Comput. 17, 1996).  pocketfft is
deterministic for a fixed numpy build, and the byte-identical-rerun tests
guard that.  ``np.fft`` is reached only inside the transform, so importing
this module does not load pocketfft.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .grid import GridFunction, _check_integer, _frozen, build_grid

__all__ = ["Spectrum", "discrete_coefficients", "invert"]


class Spectrum(Record):
    """Discrete Fourier data: coefficient for each mode m = -n .. n-1."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        n = _check_integer(self.n, "spectrum size", 1)
        object.__setattr__(self, "n", n)
        coeffs = np.array(self.coefficients, dtype=np.complex128, copy=True).reshape(-1)
        object.__setattr__(self, "coefficients", _frozen(coeffs, n, "coefficients"))

    @classmethod
    def _adopt(cls, n: int, coefficients: np.ndarray) -> Spectrum:
        """A spectrum holding ``coefficients`` itself, without the constructor's copy.

        Only for a complex128 array of 2n coefficients, n >= 1, that the
        caller has just made and hands over: its shape is checked and it is
        made read-only.
        """
        spectrum = cls.__new__(cls)
        object.__setattr__(spectrum, "n", n)
        object.__setattr__(spectrum, "coefficients", _frozen(coefficients, n, "coefficients"))
        return spectrum

    def __eq__(self, other):
        """Same n and exactly equal coefficients; a spectrum is unhashable."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coefficients, other.coefficients)

    __hash__ = None

    def modes(self) -> np.ndarray:
        return np.arange(-self.n, self.n)

    def coeff(self, m: int) -> complex:
        n = self.n
        return complex(self.coefficients[_check_integer(m, "mode", -n, n - 1) + n])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coefficients)))


def _shifted_dft(values: np.ndarray, n: int, sign: int) -> np.ndarray:
    """sum_j values[j] exp(sign * i pi j k / n) for every output k = -n .. n-1.

    The index shift p = j + n, q = k + n turns the character kernel into
    the standard 2n-point DFT kernel times (-1)^p (-1)^q (-1)^n, so one
    FFT (sign -1) or unscaled inverse FFT (sign +1) does the whole sum,
    written over a new array that the caller may go on to scale in place.
    """
    signs = np.where(np.arange(2 * n) % 2 == 0, 1.0, -1.0)
    out = values * signs
    if sign < 0:
        np.fft.fft(out, out=out)
    else:
        # norm="forward" leaves the inverse unscaled: ifft times 2n
        np.fft.ifft(out, norm="forward", out=out)
    out *= np.negative(signs, out=signs) if n % 2 else signs
    return out


def discrete_coefficients(gf: GridFunction) -> Spectrum:
    """Transform a grid function into its 2n discrete coefficients.

    Returns
    -------
    Spectrum
        coefficients[m] = (1/n) sum_j gf[j] exp(-i pi (j/n) m).
    """
    n = gf.grid.n
    coefficients = _shifted_dft(gf.values, n, -1)
    return Spectrum._adopt(n, np.divide(coefficients, n, out=coefficients))


def invert(s: Spectrum) -> GridFunction:
    """Exact inversion: values[j] = (1/2) sum_m coefficients[m] exp(i pi (j/n) m)."""
    values = _shifted_dft(s.coefficients, s.n, +1)
    return GridFunction._adopt(build_grid(s.n), np.multiply(values, 0.5, out=values))


def _alias_fold_table(modes: tuple[int, ...], coeffs: np.ndarray, n: int) -> np.ndarray:
    """The alias fold at every mode m = -n .. n-1, from the coefficients of ``modes``.

    Slot m is the sum of the exact coefficients over all modes congruent to
    m mod 2n.  ``modes`` ascend and hold every mode whose coefficient is
    nonzero.  Each mode k is added into the slot (k + n) mod 2n in
    increasing k, the real and imaginary parts apart, which is the order of
    the scalar oracle ``tests/_oracles.alias_fold``; a left-out zero never
    changes a partial sum that starts from +0.0, so every slot equals that
    oracle with cutoff max|k| bit for bit.
    """
    bins = np.remainder(np.add(modes, n), 2 * n)
    folded = np.empty(2 * n, dtype=np.complex128)
    folded.real = np.bincount(bins, weights=coeffs.real, minlength=2 * n)
    folded.imag = np.bincount(bins, weights=coeffs.imag, minlength=2 * n)
    return folded
