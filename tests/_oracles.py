"""Independent brute-force oracles used by the tests.

The transform oracles deliberately avoid the library's code paths: plain
cmath phases (no modular reduction), naive left-to-right summation, no
compensation.  The per-N oracles instead repeat the numpy arithmetic of
one truncation order computed on its own, so that the batched forms can
be compared with them bit for bit.
"""

import cmath
import math

import numpy as np


def brute_coefficients(values, n):
    """Direct (1/n) sum_j values[j] exp(-i pi j m / n) for m = -n .. n-1."""
    out = []
    for m in range(-n, n):
        acc = 0j
        for pos, j in enumerate(range(-n, n)):
            acc += complex(values[pos]) * cmath.exp(-1j * math.pi * j * m / n)
        out.append(acc / n)
    return out


def brute_invert(coeffs, n):
    """Direct (1/2) sum_m coeffs[m] exp(i pi j m / n) for j = -n .. n-1."""
    out = []
    for j in range(-n, n):
        acc = 0j
        for pos, m in enumerate(range(-n, n)):
            acc += complex(coeffs[pos]) * cmath.exp(1j * math.pi * j * m / n)
        out.append(acc / 2)
    return out


def per_n_sup_errors(f, orders, samples):
    """Sup error at each truncation order, each computed as on its own.

    f is evaluated point by point (its values do not depend on N), and the
    coefficients and the (samples+1) x (2N+1) phase matrix are built
    afresh for every N; f must carry an exact coefficient map.
    """
    xs = np.linspace(-1.0, 1.0, samples + 1)
    fvals = np.asarray([f.eval(float(x)) for x in xs], dtype=np.complex128)
    out = []
    for N in orders:
        ms = np.arange(-N, N + 1)
        coeffs = np.asarray([f.exact_coefficient(m) for m in ms], dtype=np.complex128)
        phases = np.exp(1j * np.pi * np.outer(np.where(xs == 1.0, -1.0, xs), ms))
        recon = 0.5 * np.sum(phases * coeffs, axis=1)
        out.append(float(np.max(np.abs(fvals - recon))))
    return out


def per_n_majorant(H, N, cutoff=10**6):
    """H * sum_{N < m <= cutoff} 1/m^2 + 2*H*1e-6, the terms built for this N alone.

    H may be an array of constants; each slot then equals the scalar result.
    """
    ms = np.arange(N + 1, cutoff + 1, dtype=np.float64)
    return H * float(np.sum(1.0 / (ms * ms))) + 2.0 * H * 1e-6
