"""Boundary-term algebra and explicit decay bounds for grid coefficients.

The forward difference maps the mode exp(i pi x m) to psi_n(m) times
itself, where psi_n(m) = n*(exp(i pi m / n) - 1) plays the role of i*pi*m
on the grid; its conjugate phi_n(m) = psi_n(-m) shows up when the
difference is summed by parts.  Because the derivative and shift are
forced to zero at the last grid point, summation by parts leaves
boundary corrections C, D (values of g) and C', D' (values of g'), which
combine into E and F so that, exactly,

    psi * ghat(m)   = ghat'(m)  + E(m)
    psi^2 * ghat(m) = ghat''(m) + F(m)      (m != 0)

From these and |psi_n(m)|^2 >= 4 m^2 follow the uniform bounds
|F| <= 5*D_norm, |ghat''| <= M + 2*B and the decay |ghat(m)| <= H/m^2.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .discrete_calculus import derivative
from .discrete_fourier import Spectrum, discrete_coefficients
from .grid import GridFunction, _check_integer, _check_real

__all__ = [
    "DecayCheck",
    "forward_symbol",
    "adjoint_symbol",
    "dft_identity_residual_arrays",
    "tail_threshold",
    "tail_sum",
    "decay_bound_check",
]


def forward_symbol(n: int, m):
    """psi_n(m) = n*(exp(i pi m / n) - 1): the forward-difference multiplier.

    Satisfies |psi_n(m)|^2 = 4 n^2 sin^2(pi m / 2n) >= 4 m^2 for |m| <= n.
    Accepts a scalar or an array of modes.
    """
    return n * (np.exp(1j * np.pi * np.asarray(m) / n) - 1.0)


def adjoint_symbol(n: int, m):
    """phi_n(m) = psi_n(-m) = n*(exp(-i pi m / n) - 1): conjugate symbol from parts."""
    return forward_symbol(n, -np.asarray(m))


def _boundary_arrays(gf: GridFunction, psi: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(C, D, Cp, Dp, E, F) for every mode m = -n .. n-1; psi, if given, is psi_n there.

    C, D come from the values of g at the two ends of the grid, Cp, Dp from
    those of the discrete derivative; E = phi*D - C and
    F = psi*phi*D - psi*C + phi*Dp - Cp enter the transform identities.
    """
    n = gf.grid.n
    modes = np.arange(-n, n)
    g_last = complex(gf.values[-1])
    g_first = complex(gf.values[0])
    gp_first = complex(n * (gf.values[1] - gf.values[0]))

    # exp(+-i pi m) for integer m, without trig rounding
    par = np.where(modes % 2 == 0, 1.0, -1.0)
    # exp(-i pi (n-1) m / n) and exp(i pi m / n), phases reduced exactly modulo 2n
    e_right = np.exp(1j * np.pi * ((-(n - 1) * modes) % (2 * n)) / n)
    e_step = np.exp(1j * np.pi * (modes % (2 * n)) / n)

    C = g_last * e_right - g_first * par
    D = -(1.0 / n) * g_first * e_step * par
    Cp = -gp_first * par
    Dp = -(1.0 / n) * gp_first * e_step * par

    phi = adjoint_symbol(n, modes)
    psi = forward_symbol(n, modes) if psi is None else psi
    E = phi * D - C
    F = psi * phi * D - psi * C + phi * Dp - Cp
    return C, D, Cp, Dp, E, F


def dft_identity_residual_arrays(gf: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two transform identities over all modes.

        r1 = ghat(m) - (ghat'(m) + E(m)) / psi(m)
        r2 = ghat(m) - (ghat''(m) + F(m)) / psi(m)^2

    The identities are undefined at m = 0, where psi vanishes; that slot is
    set to 0.  Computed on the multiplied-through form and normalized afterwards, to
    avoid cancellation in the reported values.
    """
    return _dft_identity_residuals(gf, discrete_coefficients(gf))


def _dft_identity_residuals(gf: GridFunction, spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """``dft_identity_residual_arrays`` of gf, reading its given spectrum."""
    n = gf.grid.n
    modes = np.arange(-n, n)
    psi = forward_symbol(n, modes)
    *_, E, F = _boundary_arrays(gf, psi)
    d1 = derivative(gf)
    s0 = spectrum.coefficients
    s1 = discrete_coefficients(d1).coefficients
    s2 = discrete_coefficients(derivative(d1)).coefficients
    r1 = np.zeros(2 * n, dtype=np.complex128)
    r2 = np.zeros(2 * n, dtype=np.complex128)
    nz = modes != 0
    # operands masked first: numpy's complex arithmetic is not bit-stable across array lengths
    r1[nz] = (s0[nz] * psi[nz] - (s1[nz] + E[nz])) / psi[nz]
    r2[nz] = (s0[nz] * psi[nz] ** 2 - (s2[nz] + F[nz])) / psi[nz] ** 2
    return r1, r2


def tail_threshold(H: float, epsilon: float) -> float:
    """Mode threshold 2H/epsilon + 1 beyond which coefficient tails sum below epsilon."""
    H = _check_real(H, "H")
    return 2.0 * H / _check_real(epsilon, "epsilon", positive=True) + 1.0


def tail_sum(s: Spectrum, L: int, Lp: int) -> float:
    """sum_{m=L}^{Lp} |coefficients[m]| over a same-sign mode range."""
    L = _check_integer(L, "L", -s.n, s.n - 1)
    Lp = _check_integer(Lp, "Lp", -s.n, s.n - 1)
    if L > Lp:
        raise ValueError(f"need L <= Lp, got L={L}, Lp={Lp}")
    if L * Lp <= 0:
        raise ValueError(f"range [{L}, {Lp}] must not contain or touch 0")
    block = s.coefficients[L + s.n : Lp + s.n + 1]
    return float(np.sum(np.abs(block)))


def canonical_mode_order(n: int, include_zero: bool = False) -> np.ndarray:
    """Modes ordered by |m| ascending, negative before positive.

    The order is 0, -1, 1, -2, 2, ..., -(n-1), n-1, -n: position k holds
    -(k+1)//2 for odd k and k//2 for even k, whatever n is, so the order of
    n is the first 2n terms of one sequence.  Worst-case selections take
    the first maximum in this order, so ties resolve to the smallest |m|
    and then to the negative mode.
    """
    k = np.arange(0 if include_zero else 1, 2 * n)
    return np.where(k % 2 == 1, -(k + 1) // 2, k // 2)


def _worst_mode(values_by_mode: np.ndarray, n: int, include_zero: bool = False):
    order = canonical_mode_order(n, include_zero)
    vals = values_by_mode[order + n]
    k = int(np.argmax(vals))
    return float(vals[k]), int(order[k])


class DecayCheck(Record):
    """Result of the quadratic-decay test |coefficients[m]| <= H/m^2, to rounding.

    worst_ratio is max_m |c(m)| m^2 / max(H, beta m^2) over m != 0, where beta =
    log2(2n) sum_m ulp|c(m)| bounds the FFT's rounding of one coefficient (Higham
    2002, section 24.1); the bound holds iff worst_ratio <= 1.
    """

    worst_ratio: float
    worst_m: int
    passed: bool


def decay_bound_check(s: Spectrum, H: float) -> DecayCheck:
    """Check |coefficients[m]| <= H / m^2 for every mode m != 0, to rounding (see DecayCheck)."""
    H = _check_real(H, "H")
    modes = s.modes()
    mags = np.abs(s.coefficients)
    # > 0 for a finite spectrum, and NaN, which fails, for one that is not
    beta = np.log2(2 * s.n) * np.sum(np.spacing(mags))
    ratios = mags / beta
    # the modes where H > beta m^2, compared by square roots so that nothing overflows
    over_H = np.sqrt(beta) * np.abs(modes) < np.sqrt(H)
    m2 = modes.astype(float) ** 2
    with np.errstate(over="ignore"):  # a |c| m^2 that overflows is redone below
        ratios[over_H] = mags[over_H] * m2[over_H] / H
    # there H > beta m^2 keeps the ratio below |c| / beta < 2^53, so |c| / H m^2 is finite
    redo = over_H & np.isinf(ratios)
    ratios[redo] = mags[redo] / H * m2[redo]
    worst, worst_m = _worst_mode(ratios, s.n, include_zero=False)
    return DecayCheck(worst_ratio=worst, worst_m=worst_m, passed=worst <= 1.0)


def _uniform_maxima(gf: GridFunction) -> tuple[float, int, float, int]:
    """(max|F|, its mode, max|ghat''|, its mode) of the grid function gf.

    For gf sampled from a function whose endpoints vanish, max|F| <= 5*D and
    max|ghat''| <= M + 2*B, the constants of ``bound_constants``.
    """
    n = gf.grid.n
    *_, F = _boundary_arrays(gf)
    second_hat = discrete_coefficients(derivative(derivative(gf))).coefficients
    max_F, m_F = _worst_mode(np.abs(F), n, include_zero=True)
    max_g2, m_g2 = _worst_mode(np.abs(second_hat), n, include_zero=True)
    return max_F, m_F, max_g2, m_g2
