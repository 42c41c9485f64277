import cmath
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import alias_fold, brute_coefficients, brute_invert, character
from gridfourier import (
    GridFunction,
    Spectrum,
    build_grid,
    combine,
    cosine,
    discrete_coefficients,
    exp_cos,
    invert,
    sample,
    trig_monomial,
)
from gridfourier.functions import SmoothPeriodicFunction


def _random_gf(rng, n):
    g = build_grid(n)
    return GridFunction(g, rng.uniform(-1, 1, 2 * n) + 1j * rng.uniform(-1, 1, 2 * n))


def test_constant_concentrates_at_zero_mode():
    s = discrete_coefficients(sample(lambda x: 1.0, build_grid(4)))
    assert s.coeff(0) == pytest.approx(2.0, abs=1e-13)
    for m in range(-4, 4):
        if m != 0:
            assert abs(s.coeff(m)) <= 1e-13


def test_monomial_concentrates_at_its_mode():
    s = discrete_coefficients(sample(trig_monomial(1), build_grid(4)))
    assert s.coeff(1) == pytest.approx(2.0, abs=1e-13)
    for m in range(-4, 4):
        if m != 1:
            assert abs(s.coeff(m)) <= 1e-13


def test_zero_function():
    s = discrete_coefficients(GridFunction(build_grid(3), np.zeros(6)))
    assert s.max_abs() == 0.0


# odd and prime n, and n whose 2n is not a power of two (Bluestein sizes)
ORACLE_SIZES = [1, 2, 3, 5, 7, 8, 12, 31, 100]


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_matches_bruteforce_oracle(n):
    rng = np.random.default_rng(100 + n)
    gf = _random_gf(rng, n)
    got = discrete_coefficients(gf).coefficients
    want = brute_coefficients(gf.values, n)
    assert np.max(np.abs(got - np.asarray(want))) <= 1e-12


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_invert_matches_bruteforce_oracle(n):
    rng = np.random.default_rng(400 + n)
    s = Spectrum(n, rng.uniform(-1, 1, 2 * n) + 1j * rng.uniform(-1, 1, 2 * n))
    got = invert(s).values
    want = np.asarray(brute_invert(s.coefficients, n))
    # the oracle's own phase rounding grows with j*m/n, so scale by |values|
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def _mp_character_sums(values, n, sign):
    """sum_j values[j] exp(sign i pi j k / n), k = -n .. n-1, in 200-bit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        roots = [mpmath.expjpi(mpmath.mpf(sign * r) / n) for r in range(2 * n)]
        xs = [mpmath.mpc(complex(v)) for v in values]
        sums = []
        for k in range(-n, n):
            # j*k mod 2n is exact integer arithmetic: no phase rounding
            terms = (x * roots[(j * k) % (2 * n)] for x, j in zip(xs, range(-n, n)))
            sums.append(complex(mpmath.fsum(terms)))
        return np.array(sums)


@pytest.mark.parametrize("n", [64, 97])
def test_transform_matches_mpmath_reference(n):
    rng = np.random.default_rng(500 + n)
    gf = _random_gf(rng, n)
    want = _mp_character_sums(gf.values, n, -1) / n
    got = discrete_coefficients(gf).coefficients
    assert np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))

    s = Spectrum(n, gf.values)
    want = _mp_character_sums(s.coefficients, n, +1) / 2
    got = invert(s).values
    assert np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))


def test_invert_single_mode_gives_constant():
    coeffs = np.zeros(8, dtype=complex)
    coeffs[4] = 2.0  # mode m = 0
    gf = invert(Spectrum(4, coeffs))
    assert np.allclose(gf.values, 1.0, atol=1e-14)


def test_invert_zero_spectrum():
    gf = invert(Spectrum(4, np.zeros(8)))
    assert gf.max_abs() == 0.0


def test_roundtrip_smooth_function():
    gf = sample(exp_cos(), build_grid(64))
    back = invert(discrete_coefficients(gf))
    assert np.max(np.abs(back.values - gf.values)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
def test_roundtrip_random(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(32):
        gf = _random_gf(rng, n)
        back = invert(discrete_coefficients(gf))
        err = np.max(np.abs(back.values - gf.values))
        assert err <= 1e-10 * (1.0 + gf.max_abs())


def test_transform_linear():
    rng = np.random.default_rng(5)
    n = 16
    u, v = _random_gf(rng, n), _random_gf(rng, n)
    a, b = 1.5 - 0.5j, -0.25 + 2j
    lhs = discrete_coefficients(a * u + b * v).coefficients
    rhs = a * discrete_coefficients(u).coefficients + b * discrete_coefficients(v).coefficients
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 4, 32])
def test_coefficient_modulus_bound(n):
    rng = np.random.default_rng(200 + n)
    gf = _random_gf(rng, n)
    bound = float(np.sum(np.abs(gf.values))) / n
    s = discrete_coefficients(gf)
    assert s.max_abs() <= bound * (1 + 1e-12)


def test_character_values():
    assert all(character(4, 0, j) == 1 for j in range(-4, 4))
    assert character(2, 1, 1) == pytest.approx(1j)
    assert character(4, -4, -4) == pytest.approx(1.0)


def test_character_multiplicative():
    n = 6
    for m in (-6, -1, 3, 5):
        for j1 in range(-n, n):
            for j2 in range(-n, n):
                wrapped = (j1 + j2 + n) % (2 * n) - n
                lhs = character(n, m, wrapped)
                rhs = character(n, m, j1) * character(n, m, j2)
                assert cmath.isclose(lhs, rhs, abs_tol=1e-12)


def test_character_rejects_out_of_range():
    with pytest.raises(ValueError):
        character(4, 4, 0)
    with pytest.raises(ValueError):
        character(4, 0, -5)


def test_alias_fold_examples():
    assert alias_fold(trig_monomial(1), 4, 1, 16) == pytest.approx(2.0)
    # mode 9 aliases onto mode 1 at 2n = 8
    assert alias_fold(trig_monomial(9), 4, 1, 16) == pytest.approx(2.0)
    assert alias_fold(cosine(1), 8, 0, 16) == 0.0


def test_alias_fold_requires_oracle():
    bare = SmoothPeriodicFunction(
        name="bare", eval=lambda x: x, d1=None, d2=None,
        exact_coefficient=None,
    )
    with pytest.raises(ValueError):
        alias_fold(bare, 4, 0, 16)
    with pytest.raises(ValueError):
        alias_fold(trig_monomial(1), 4, 4, 16)
    with pytest.raises(ValueError):
        alias_fold(trig_monomial(1), 4, 0, 0)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_alias_fold_equals_grid_transform(n):
    rng = np.random.default_rng(n)
    weights = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
    poly = combine([(w, trig_monomial(k)) for w, k in zip(weights, range(-4, 5))])
    s = discrete_coefficients(sample(poly, build_grid(n)))
    for m in range(-n, n):
        assert abs(s.coeff(m) - alias_fold(poly, n, m, 32)) <= 1e-12


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(3, np.zeros(5))
    s = Spectrum(3, np.zeros(6))
    with pytest.raises(ValueError):
        s.coeff(3)


def test_transform_results_are_adopted_read_only():
    gf = sample(trig_monomial(1), build_grid(4))
    s = discrete_coefficients(gf)
    back = invert(s)
    for array in (s.coefficients, back.values):
        assert array.base is None
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="expected 8 coefficients for n=4, got 6"):
        Spectrum._adopt(4, np.zeros(6, dtype=np.complex128))


@pytest.mark.parametrize("n", [65535, 65536])
def test_transform_holds_only_its_result_and_the_signs(n):
    # the FFT writes over its signed input and is scaled in place: the 2n
    # complex results and the 2n real signs, 3 MiB at n = 65536, plus headroom
    gf = sample(trig_monomial(3), build_grid(n))
    s = discrete_coefficients(gf)
    for run in (lambda: discrete_coefficients(gf), lambda: invert(s)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * (16 + 8) + 2**18


def test_spectrum_constructor_copies_the_callers_array():
    coeffs = np.arange(6, dtype=np.complex128)
    s = Spectrum(3, coeffs)
    coeffs[0] = 9.0
    assert s.coeff(-3) == 0.0
