"""Independent brute-force oracles used by the tests.

The transform oracles deliberately avoid the library's code paths: plain
cmath phases (no modular reduction), naive left-to-right summation, no
compensation.  ``per_n_sup_errors`` instead repeats the numpy arithmetic
of one truncation order computed on its own, so that the batched form
can be compared with it bit for bit, and the ``mp_`` oracles give the
convergence tables in 200-bit mpmath.  ``reference_boundary_arrays`` and
``reference_identity_residuals`` likewise spell out the boundary and
transform-identity arithmetic step by step, each symbol from its own
exp formula and each difference taken afresh, for bitwise comparison,
and ``reference_symbol_sweep`` is the symbol sweep one size at a time.
``splitmix64`` and ``reference_random_values`` replay the seeded random
grid functions in plain Python ints, one generator step at a time.
``character`` and ``alias_fold`` are the scalar forms of the grid
character and of the alias fold that ``_alias_fold_table`` vectorizes.
``reference_worst`` is the worst-case reduction as a fold over the
candidates, one comparison at a time, with no numpy.
"""

import cmath
import math

import mpmath
import numpy as np

from gridfourier.discrete_calculus import derivative
from gridfourier.discrete_fourier import discrete_coefficients
from gridfourier.spectral_bounds import adjoint_symbol, canonical_mode_order, forward_symbol


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


def _check_mode(n, m):
    if not -n <= m <= n - 1:
        raise ValueError(f"mode {m} outside [{-n}, {n - 1}]")


def character(n: int, m: int, j: int) -> complex:
    """Group character exp(i pi (j/n) m) of the 2n-point grid.

    Multiplicative in j modulo the 2n-point wraparound.  Rejects m or j
    outside -n .. n-1.
    """
    if n < 1:
        raise ValueError(f"n >= 1 required, got {n}")
    _check_mode(n, m)
    if not -n <= j <= n - 1:
        raise ValueError(f"index {j} outside [{-n}, {n - 1}]")
    r = (j * m) % (2 * n)
    return cmath.exp(1j * math.pi * r / n)


def alias_fold(f, n: int, m: int, cutoff: int) -> complex:
    """Sum of exact coefficients over all modes congruent to m mod 2n.

    Independent oracle for grid coefficients: for a trigonometric
    polynomial whose support lies in |m| <= ``cutoff`` this equals
    ``discrete_coefficients(sample(f, grid))`` at mode m exactly.
    """
    if f.exact_coefficient is None:
        raise ValueError(f"{f.name}: no exact coefficient oracle available")
    if n < 1:
        raise ValueError(f"n >= 1 required, got {n}")
    _check_mode(n, m)
    if cutoff < 1:
        raise ValueError(f"cutoff >= 1 required, got {cutoff}")
    period = 2 * n
    t_low = math.ceil((-cutoff - m) / period)
    t_high = math.floor((cutoff - m) / period)
    total = 0.0 + 0.0j
    for t in range(t_low, t_high + 1):
        total += complex(f.exact_coefficient(m + period * t))
    return total


def per_n_sup_errors(f, orders, samples):
    """Sup error at each truncation order, each computed as on its own.

    f is evaluated point by point (its values do not depend on N).  For
    every N the phases of each mode are rebuilt by the direct formula
    exp(i pi x m), negative modes included, and the order-N sum is run
    up mode by mode: c_0 e_0, then c_m e_m + c_{-m} e_{-m} for m = 1 .. N;
    f must carry an exact coefficient map.
    """
    xs = np.linspace(-1.0, 1.0, samples + 1)
    fvals = np.asarray([f.eval(float(x)) for x in xs], dtype=np.complex128)
    px = np.where(xs == 1.0, -1.0, xs)

    def term(m):
        return complex(f.exact_coefficient(m)) * np.exp(1j * np.pi * (px * m))

    out = []
    for N in orders:
        acc = term(0)
        for m in range(1, N + 1):
            acc = acc + (term(m) + term(-m))
        out.append(float(np.max(np.abs(fvals - 0.5 * acc))))
    return out


def mp_majorant(H, N):
    """H * zeta(2, N+1), the tail (1/2) sum_{|m| > N} H/m^2, in 200-bit mpmath."""
    with mpmath.workprec(200):
        return mpmath.mpf(H) * mpmath.zeta(2, N + 1)


def mp_sup_errors(f, orders, samples):
    """Sup error at each order, the partial sums taken in 200-bit mpmath.

    f's values and coefficients are the float ones; only the phases and
    the running sum are exact to 200 bits, so the result is the sup error
    the float arithmetic approximates.
    """
    xs = np.linspace(-1.0, 1.0, samples + 1)
    fvals = [complex(f.eval(float(x))) for x in xs]
    K = max(orders)
    coeffs = {m: mpmath.mpc(complex(f.exact_coefficient(m))) for m in range(-K, K + 1)}
    worst = dict.fromkeys(orders, mpmath.mpf(0))
    with mpmath.workprec(200):
        for x, fx in zip(xs, fvals):
            x = -1.0 if x == 1.0 else float(x)
            acc = coeffs[0]
            for m in range(1, K + 1):
                phase = mpmath.expjpi(mpmath.mpf(x) * m)
                acc += coeffs[m] * phase + coeffs[-m] * mpmath.conj(phase)
                if m in worst:
                    worst[m] = max(worst[m], abs(mpmath.mpc(fx) - acc / 2))
    return [float(worst[N]) for N in orders]


def interval_partial_sum(coeffs, length, x):
    """sum_{m=-N}^{N} coeffs[m] exp(2 pi i x m / length) at one x.

    The per-point [a, b] partial sum, phases rebuilt for each x, against
    which the circle-model reconstruction on [a, b] is checked.
    """
    ms = np.arange(len(coeffs)) - len(coeffs) // 2
    phases = np.exp(2j * np.pi * float(x) * ms / length)
    return complex(np.sum(coeffs * phases))


def reference_symbol_sweep(sizes):
    """(check, residual, n, m) candidates of the symbol sweep, one size at a time.

    The per-n loop the blocked sweep replaced: psi and phi at every mode of
    n's canonical order, each from its own evaluation, all four terms of
    phi_psi_mag at every mode, and a first maximum per size.
    """
    sizes = sorted(sizes)
    order = canonical_mode_order(sizes[-1], include_zero=True)
    out = []
    for n in sizes:
        modes = order[: 2 * n]
        psi = forward_symbol(n, modes)
        phi = adjoint_symbol(n, modes)
        abs_psi = np.abs(psi)
        abs_phi = np.abs(phi)

        msq = 4.0 * modes[1:].astype(float) ** 2
        lower = (msq - abs_psi[1:] ** 2) / msq
        k = int(np.argmax(lower))
        out.append(("psi_lower", float(lower[k]), n, int(modes[1 + k])))

        mag = np.maximum.reduce(
            [
                np.abs(psi - np.conj(phi)),
                abs_phi - 2.0 * n,
                abs_psi - 2.0 * n,
                np.abs(abs_phi - abs_psi),
            ]
        ) / n
        k = int(np.argmax(mag))
        out.append(("phi_psi_mag", float(mag[k]), n, int(modes[k])))
    return out


def reference_boundary_arrays(gf):
    """(C, D, Cp, Dp, E, F) over m = -n .. n-1, every term built on its own.

    g' is the full forward difference, read at its first point; psi and
    phi are n*(exp(+-i pi m / n) - 1), each with its own exp.
    """
    n = gf.grid.n
    modes = np.arange(-n, n)
    g_last = complex(gf.values[-1])
    g_first = complex(gf.values[0])
    gp_first = complex(derivative(gf).values[0])
    par = np.where(modes % 2 == 0, 1.0, -1.0)
    e_right = np.exp(1j * np.pi * ((-(n - 1) * modes) % (2 * n)) / n)
    e_step = np.exp(1j * np.pi * (modes % (2 * n)) / n)
    C = g_last * e_right - g_first * par
    D = -(1.0 / n) * g_first * e_step * par
    Cp = -gp_first * par
    Dp = -(1.0 / n) * gp_first * e_step * par
    phi = n * (np.exp(-1j * np.pi * modes / n) - 1.0)
    psi = n * (np.exp(1j * np.pi * modes / n) - 1.0)
    E = phi * D - C
    F = psi * phi * D - psi * C + phi * Dp - Cp
    return C, D, Cp, Dp, E, F


def reference_identity_residuals(gf):
    """(r1, r2) of the two transform identities, the m = 0 slot 0.

    Both differences are taken from gf afresh, and psi is evaluated again
    after the boundary terms.
    """
    n = gf.grid.n
    modes = np.arange(-n, n)
    s0 = discrete_coefficients(gf).coefficients
    s1 = discrete_coefficients(derivative(gf)).coefficients
    s2 = discrete_coefficients(derivative(derivative(gf))).coefficients
    *_, E, F = reference_boundary_arrays(gf)
    psi = n * (np.exp(1j * np.pi * modes / n) - 1.0)
    r1 = np.zeros(2 * n, dtype=np.complex128)
    r2 = np.zeros(2 * n, dtype=np.complex128)
    nz = modes != 0
    r1[nz] = (s0[nz] * psi[nz] - (s1[nz] + E[nz])) / psi[nz]
    r2[nz] = (s0[nz] * psi[nz] ** 2 - (s2[nz] + F[nz])) / psi[nz] ** 2
    return r1, r2


def splitmix64(state, count):
    """SplitMix64 from ``state``: (its next ``count`` outputs, the state after them).

    Steele, Lea and Flood, "Fast splittable pseudorandom number
    generators" (OOPSLA 2014): each step adds the golden gamma to the
    state mod 2^64, and the output is the state run through the mix64
    finalizer (two xorshift-multiply rounds and a last xorshift).
    """
    outputs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        outputs.append(z ^ (z >> 31))
    return outputs, state


def reference_random_values(seed, stream_id, n, rep, part):
    """The 2n complex values of ``random_grid_function`` at this key, step by step.

    The key words are the seed's count of 64-bit words, its words low
    first, then stream_id, n, rep and part.  Each word is XORed into the
    state (from 0), and the state becomes the next SplitMix64 output.
    From there 4n outputs z map to -1 + 2 * ((z >> 11) * 2^-53): the
    first 2n are the real parts, the next 2n the imaginary parts.
    """
    seed_words = []
    while seed:
        seed_words.append(seed % 2**64)
        seed //= 2**64
    state = 0
    for word in [len(seed_words), *seed_words, stream_id, n, rep, part]:
        (state,), _ = splitmix64(state ^ word, 1)
    outputs, _ = splitmix64(state, 4 * n)
    floats = [-1.0 + 2.0 * ((z >> 11) * 2.0**-53) for z in outputs]
    return [complex(re, im) for re, im in zip(floats[: 2 * n], floats[2 * n :])]


def reference_worst(candidates):
    """check -> (residual, location) of its worst candidate, folding (check, residual, location).

    A candidate replaces its check's current worst only when its residual is
    strictly larger, or is a NaN while the current worst is not: so a NaN is
    never dropped, and among equal residuals (or NaNs) the earliest stays.
    """
    worst = {}
    for check, residual, loc in candidates:
        residual = float(residual)
        current = worst.get(check)
        if (
            current is None
            or residual > current[0]
            or (math.isnan(residual) and not math.isnan(current[0]))
        ):
            worst[check] = (residual, loc)
    return worst
