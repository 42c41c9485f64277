import math
import re

import numpy as np
import pytest

from gridfourier import (
    DecayCheck,
    GridFunction,
    Spectrum,
    adjoint_symbol,
    bound_constants,
    build_grid,
    combine,
    cosine,
    decay_bound_check,
    discrete_coefficients,
    exp_cos,
    forward_symbol,
    get_function,
    sample,
    shift_to_zero_endpoints,
    tail_sum,
    tail_threshold,
    trig_monomial,
)
from gridfourier.functions import DEFAULT_CATALOG
from gridfourier.grid import _check_integer
from gridfourier.spectral_bounds import (
    _boundary_arrays,
    _uniform_maxima,
    canonical_mode_order,
    dft_identity_residual_arrays,
)
from gridfourier.verification import SuiteConfig, random_grid_function

from _oracles import reference_boundary_arrays, reference_identity_residuals


def _random_gf(rng, n):
    return GridFunction(build_grid(n), rng.uniform(-1, 1, 2 * n) + 1j * rng.uniform(-1, 1, 2 * n))


def _boundary_terms(gf, m):
    """(C, D, Cp, Dp, E, F) at a mode m of the grid: slot m + n of ``_boundary_arrays``."""
    n = gf.grid.n
    return tuple(complex(a[_check_integer(m, "mode", -n, n - 1) + n]) for a in _boundary_arrays(gf))


def _uniform_slacks(f, n):
    """(5D + 1e-9 - max|F|, M + 2B + 1e-9 - max|ghat''|) at grid size n.

    f's endpoints must vanish, the hypothesis of both bounds.
    """
    if abs(complex(f.eval(1.0))) > 1e-12 or abs(complex(f.eval(-1.0))) > 1e-12:
        raise ValueError(f"{f.name}: endpoint values must vanish (within 1e-12)")
    c = bound_constants(f)
    max_F, _, max_g2, _ = _uniform_maxima(sample(f, build_grid(n)))
    return 5.0 * c.D + 1e-9 - max_F, c.M + 2.0 * c.B + 1e-9 - max_g2


def test_symbol_values():
    assert adjoint_symbol(5, 0) == 0
    assert adjoint_symbol(1, 1) == pytest.approx(-2.0)
    assert forward_symbol(3, 0) == 0
    assert forward_symbol(2, 1) == pytest.approx(2 * (1j - 1))
    assert abs(forward_symbol(2, 1)) ** 2 == pytest.approx(8.0)


def test_symbol_squared_magnitude_formula():
    # |psi_n(m)|^2 = 4 n^2 sin^2(pi m / 2n)
    val = abs(forward_symbol(4, 3)) ** 2
    assert val == pytest.approx(64 * math.sin(3 * math.pi / 8) ** 2)
    assert val >= 4 * 9


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_symbols_conjugate_and_bounded(n):
    modes = np.arange(-n, n)
    psi = forward_symbol(n, modes)
    phi = adjoint_symbol(n, modes)
    assert np.max(np.abs(psi - np.conj(phi))) <= 1e-12 * n
    assert np.max(np.abs(phi)) <= 2 * n * (1 + 1e-12)
    assert np.max(np.abs(np.abs(phi) - np.abs(psi))) <= 1e-12 * n


def test_adjoint_symbol_bytes_equal_its_own_exp_formula():
    # phi_n(m) = psi_n(-m) takes the same bits as n*(exp(-i pi m / n) - 1)
    for n in [*range(1, 513), 1000, 4096, 65536]:
        modes = np.arange(-n, n)
        want = n * (np.exp(-1j * np.pi * modes / n) - 1.0)
        assert adjoint_symbol(n, modes).tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n", [1, 2, 3, 64, 333, 1000])
def test_boundary_and_identity_arrays_bytes_equal_reference(n):
    # the one-difference, one-symbol-evaluation forms keep every bit
    for rep in range(3):
        gf = random_grid_function(2024, "dft", n, rep)
        got = _boundary_arrays(gf)
        want = reference_boundary_arrays(gf)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], rep
        got = dft_identity_residual_arrays(gf)
        want = reference_identity_residuals(gf)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], rep


def test_boundary_terms_zero_function():
    C, D, Cp, Dp, E, F = _boundary_terms(GridFunction(build_grid(4), np.zeros(8)), 2)
    assert C == D == Cp == Dp == E == F == 0


def test_boundary_terms_zero_left_endpoint_kills_D():
    values = np.ones(8, dtype=complex)
    values[0] = 0.0
    _, D, *_ = _boundary_terms(GridFunction(build_grid(4), values), 3)
    assert D == 0


def test_boundary_terms_hand_value():
    # g = x on the 4-point grid, m = 1: C = (1/2) e^{-i pi/2} - (-1) e^{i pi}
    gf = sample(lambda x: x, build_grid(2))
    C, *_ = _boundary_terms(gf, 1)
    assert C == pytest.approx(-0.5j - 1.0, abs=1e-15)


def test_boundary_terms_recombine():
    rng = np.random.default_rng(31)
    n = 8
    gf = _random_gf(rng, n)
    for m in (-8, -3, 0, 5, 7):
        C, D, Cp, Dp, E, F = _boundary_terms(gf, m)
        phi = complex(adjoint_symbol(n, m))
        psi = complex(forward_symbol(n, m))
        assert E == pytest.approx(phi * D - C, abs=1e-13)
        want_F = psi * phi * D - psi * C + phi * Dp - Cp
        assert F == pytest.approx(want_F, abs=1e-12)


def test_boundary_terms_rejects_out_of_range():
    gf = sample(lambda x: x, build_grid(2))
    with pytest.raises(ValueError, match=re.escape("mode 2 outside [-2, 1]")):
        _boundary_terms(gf, 2)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_scalar_views_equal_array_slots(n):
    gf = _random_gf(np.random.default_rng(70 + n), n)
    s = discrete_coefficients(gf)
    for m in range(-n, n):
        for index in (m, np.int64(m)):
            assert s.coeff(index) == s.coefficients[m + n]
            assert gf.at(index) == gf.values[m + n]


def test_identity_residuals_zero_function():
    r1, r2 = dft_identity_residual_arrays(GridFunction(build_grid(4), np.zeros(8)))
    assert (r1[1 + 4], r2[1 + 4]) == (0, 0)


def test_identity_residuals_monomial():
    n = 8
    r1, r2 = dft_identity_residual_arrays(sample(trig_monomial(1), build_grid(n)))
    for m in range(-n, n):
        if m == 0:
            continue
        assert abs(r1[m + n]) <= 1e-10
        assert abs(r2[m + n]) <= 1e-10


@pytest.mark.parametrize("n", [4, 16, 64])
def test_identity_residuals_random(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(8):
        gf = _random_gf(rng, n)
        r1, r2 = dft_identity_residual_arrays(gf)
        scale = 1.0 + gf.max_abs()
        assert np.max(np.abs(r1)) <= 1e-9 * scale
        assert np.max(np.abs(r2)) <= 1e-9 * scale


def test_identity_residuals_reject_zero_mode():
    # psi vanishes at m = 0, where the identities are undefined: the array
    # form reports no residual there, its slot m + n = n holds 0
    r1, r2 = dft_identity_residual_arrays(sample(lambda x: x, build_grid(2)))
    assert (r1[2], r2[2]) == (0, 0)


def _sorted_mode_order(n, include_zero):
    # the sort-key definition of the order, kept as the oracle
    ms = sorted(range(-n, n), key=lambda m: (abs(m), m > 0))
    if not include_zero:
        ms.remove(0)
    return ms


@pytest.mark.parametrize("include_zero", [False, True])
def test_canonical_mode_order_matches_sort_key(include_zero):
    for n in range(1, 65):
        got = canonical_mode_order(n, include_zero)
        assert got.tolist() == _sorted_mode_order(n, include_zero), f"n={n}"


@pytest.mark.parametrize("include_zero", [False, True])
def test_canonical_mode_order_is_a_prefix_of_the_longest(include_zero):
    # position k does not depend on n, so one order serves every smaller size
    longest = canonical_mode_order(4096, include_zero)
    for n in range(1, 4097):
        length = 2 * n if include_zero else 2 * n - 1
        assert np.array_equal(canonical_mode_order(n, include_zero), longest[:length]), n


def test_tail_threshold():
    assert tail_threshold(10.0, 0.1) == pytest.approx(201.0)
    assert tail_threshold(0.0, 0.3) == 1.0
    H = bound_constants(cosine(1)).H
    assert tail_threshold(H, 0.01) == pytest.approx(1614.72, abs=0.05)
    with pytest.raises(ValueError):
        tail_threshold(1.0, 0.0)
    with pytest.raises(ValueError):
        tail_threshold(-1.0, 0.1)


def test_tail_sum_zero_spectrum():
    s = Spectrum(8, np.zeros(16))
    assert tail_sum(s, 2, 7) == 0.0


def test_tail_sum_monomial():
    s = discrete_coefficients(sample(trig_monomial(1), build_grid(8)))
    assert tail_sum(s, 2, 7) <= 1e-12


def test_tail_sum_validation():
    s = Spectrum(8, np.zeros(16))
    with pytest.raises(ValueError):
        tail_sum(s, -2, 3)  # mixed sign
    with pytest.raises(ValueError):
        tail_sum(s, 0, 3)  # touches zero
    with pytest.raises(ValueError):
        tail_sum(s, 5, 2)  # reversed
    with pytest.raises(ValueError):
        tail_sum(s, 2, 8)  # out of range


def test_tail_sum_monotone_in_lower_end():
    s = discrete_coefficients(sample(exp_cos(), build_grid(32)))
    sums = [tail_sum(s, L, 31) for L in range(1, 30)]
    assert all(b <= a + 1e-15 for a, b in zip(sums, sums[1:]))


def test_decay_check_constant():
    s = discrete_coefficients(sample(lambda x: 1.0, build_grid(16)))
    check = decay_bound_check(s, 0.0)
    assert check.passed


def test_decay_check_cosine():
    H = bound_constants(cosine(1)).H
    for n in (4, 16, 64):
        s = discrete_coefficients(sample(cosine(1), build_grid(n)))
        check = decay_bound_check(s, H)
        assert check.passed, f"n={n}: ratio {check.worst_ratio} at m={check.worst_m}"


# functions whose decay_H ratios must not move when scaled by 2^k: a budget
# read from the spectrum's own scale scales with it, exactly
_SCALED_NAMES = ["cos:1", "trig:3", "expcos", "combo:0.731*trig:0+1.9*cos:2", "trig:0",
                 "combo:3*trig:0+1e-9*cos:5"]


@pytest.mark.parametrize("name", _SCALED_NAMES)
def test_decay_check_is_invariant_under_power_of_two_scaling(name):
    f = get_function(name)
    H = bound_constants(f).H
    for n in (3, 5, 100, 333):
        check = decay_bound_check(discrete_coefficients(sample(f, build_grid(n))), H)
        for k in (-40, -7, 10, 200):
            g = combine([(2.0**k, f)])
            scaled = decay_bound_check(discrete_coefficients(sample(g, build_grid(n))),
                                       bound_constants(g).H)
            assert scaled == check, f"n={n}, k={k}"


@pytest.mark.parametrize("K", [1.0, 9.316692462759197e19, 1.0755043539175863e266])
def test_transform_rounding_of_a_constant_stays_in_its_budget(K):
    # the FFT's error bound u log2(2n) sum|c| (Higham 2002, section 24.1) on the
    # exactly vanishing coefficients m != 0 of a constant, over every small n and
    # a few large sizes with large prime factors; decay_bound_check budgets at
    # least that much, so with H = 0 it passes
    for n in [*range(1, 513), 4093, 4099, 5003, 6151]:
        s = discrete_coefficients(GridFunction(build_grid(n), np.full(2 * n, K, dtype=complex)))
        mags = np.abs(s.coefficients)
        budget = np.log2(2 * n) * np.sum(mags * 2.0**-53)
        assert np.max(np.delete(mags, n)) <= budget, f"n={n}"
        assert decay_bound_check(s, 0.0).passed, f"n={n}"


def test_decay_check_budgets_the_underflow_of_a_subnormal_spectrum():
    # u|c| underflows to 0 for every coefficient of this constant, while the
    # transform leaves one subnormal step at m = 2: each ulp of the budget is
    # at least that step
    s = discrete_coefficients(sample(get_function("combo:1e-308*trig:0"), build_grid(13)))
    assert np.sum(np.abs(s.coefficients) * 2.0**-53) == 0.0
    assert abs(s.coeff(2)) == 5e-324
    check = decay_bound_check(s, 0.0)
    assert check.passed and check.worst_ratio > 0.0


def test_decay_check_of_a_nan_coefficient_is_nan():
    coefficients = np.ones(8, dtype=complex)
    coefficients[2] = math.nan
    for H in (0.0, 1e-300, 1.0):
        check = decay_bound_check(Spectrum(4, coefficients), H)
        assert math.isnan(check.worst_ratio) and not check.passed


@pytest.mark.filterwarnings("error")
def test_decay_check_of_a_huge_spectrum_does_not_overflow():
    # |c| m^2 = 1e308 * 16 overflowed with a RuntimeWarning, although H > beta m^2
    # bounds the ratio |c| m^2 / H, here 16, below |c| / beta
    check = decay_bound_check(Spectrum(4, np.full(8, 1e308)), 1e308)
    assert (check.worst_ratio, check.worst_m) == (16.0, -4)


@pytest.mark.parametrize("H", [0.0, 5e-324, 1.0])
def test_decay_check_of_a_zero_spectrum_is_zero(H):
    assert decay_bound_check(Spectrum(4, np.zeros(8)), H) == DecayCheck(0.0, -1, True)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
@pytest.mark.parametrize("n", SuiteConfig().grid_sizes)
def test_decay_check_of_a_catalog_cell_is_the_ratio_to_H(name, n):
    # H is far above the rounding budget on the catalog: the ratio is |c| m^2 / H,
    # bit for bit
    f = get_function(name)
    H = bound_constants(f).H
    s = discrete_coefficients(sample(f, build_grid(n)))
    ratios = np.abs(s.coefficients) * s.modes().astype(float) ** 2 / H
    assert decay_bound_check(s, H).worst_ratio == np.max(np.delete(ratios, n))


def test_decay_check_rejects_negative_H():
    s = Spectrum(4, np.zeros(8))
    with pytest.raises(ValueError):
        decay_bound_check(s, -1.0)


def test_decay_implies_tail_comparison():
    # with |c(m)| <= H/m^2 the tail from L is below H/(L-1)
    f = cosine(1)
    H = bound_constants(f).H
    s = discrete_coefficients(sample(f, build_grid(64)))
    assert decay_bound_check(s, H).passed
    for L in (2, 5, 17):
        assert tail_sum(s, L, 63) <= H / (L - 1) + 1e-12


def test_unifbounded_zero_function():
    zero = combine([(0.0, trig_monomial(0))])
    assert min(_uniform_slacks(zero, 8)) >= 0
    assert _uniform_maxima(sample(zero, build_grid(8)))[0] == 0.0
    assert bound_constants(zero).D == 0.0


def test_unifbounded_shifted_cosine():
    h = shift_to_zero_endpoints(cosine(1))  # cos(pi x) + 1
    for n in (4, 32):
        slacks = _uniform_slacks(h, n)
        assert min(slacks) >= 0, f"n={n}: slacks {slacks}"
        assert bound_constants(h).D == pytest.approx(math.pi, abs=1e-12)


def test_unifbounded_sine_squared_from_monomials():
    # sin^2(pi x) assembled from exponential modes; endpoints vanish
    h = combine(
        [(0.5, trig_monomial(0)), (-0.25, trig_monomial(2)), (-0.25, trig_monomial(-2))]
    )
    F_slack, second_hat_slack = _uniform_slacks(h, 64)
    assert F_slack >= 0 and second_hat_slack >= 0


def test_unifbounded_rejects_nonzero_endpoints():
    # the bounds are claims about zero-endpoint functions: cos(pi x) ends at -1
    with pytest.raises(ValueError, match="endpoint values must vanish"):
        _uniform_slacks(cosine(1), 8)
    assert min(_uniform_slacks(shift_to_zero_endpoints(cosine(1)), 8)) >= 0
