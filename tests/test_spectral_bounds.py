import cmath
import math

import numpy as np
import pytest

from gridfourier import (
    GridFunction,
    Spectrum,
    adjoint_symbol,
    bound_constants,
    boundary_terms,
    build_grid,
    combine,
    cosine,
    decay_bound_check,
    dft_identity_residuals,
    discrete_coefficients,
    exp_cos,
    forward_symbol,
    sample,
    shift_to_zero_endpoints,
    tail_sum,
    tail_threshold,
    trig_monomial,
    unifbounded_checks,
)
from gridfourier.spectral_bounds import (
    _boundary_arrays,
    canonical_mode_order,
    dft_identity_residual_arrays,
)
from gridfourier.verification import random_grid_function

from _oracles import reference_boundary_arrays, reference_identity_residuals


def _random_gf(rng, n):
    return GridFunction(build_grid(n), rng.uniform(-1, 1, 2 * n) + 1j * rng.uniform(-1, 1, 2 * n))


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
    bt = boundary_terms(GridFunction(build_grid(4), np.zeros(8)), 2)
    assert bt.C == bt.D == bt.Cp == bt.Dp == bt.E == bt.F == 0


def test_boundary_terms_zero_left_endpoint_kills_D():
    values = np.ones(8, dtype=complex)
    values[0] = 0.0
    bt = boundary_terms(GridFunction(build_grid(4), values), 3)
    assert bt.D == 0


def test_boundary_terms_hand_value():
    # g = x on the 4-point grid, m = 1: C = (1/2) e^{-i pi/2} - (-1) e^{i pi}
    gf = sample(lambda x: x, build_grid(2))
    bt = boundary_terms(gf, 1)
    assert bt.C == pytest.approx(-0.5j - 1.0, abs=1e-15)


def test_boundary_terms_recombine():
    rng = np.random.default_rng(31)
    n = 8
    gf = _random_gf(rng, n)
    for m in (-8, -3, 0, 5, 7):
        bt = boundary_terms(gf, m)
        phi = complex(adjoint_symbol(n, m))
        psi = complex(forward_symbol(n, m))
        assert bt.E == pytest.approx(phi * bt.D - bt.C, abs=1e-13)
        want_F = psi * phi * bt.D - psi * bt.C + phi * bt.Dp - bt.Cp
        assert bt.F == pytest.approx(want_F, abs=1e-12)


def test_boundary_terms_rejects_out_of_range():
    gf = sample(lambda x: x, build_grid(2))
    with pytest.raises(ValueError):
        boundary_terms(gf, 2)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_scalar_views_equal_array_slots(n):
    gf = _random_gf(np.random.default_rng(70 + n), n)
    arrays = _boundary_arrays(gf)
    r1, r2 = dft_identity_residual_arrays(gf)
    for m in range(-n, n):
        bt = boundary_terms(gf, m)
        assert (bt.C, bt.D, bt.Cp, bt.Dp, bt.E, bt.F) == tuple(a[m + n] for a in arrays)
        if m != 0:
            assert dft_identity_residuals(gf, m) == (r1[m + n], r2[m + n])


def test_identity_residuals_zero_function():
    gf = GridFunction(build_grid(4), np.zeros(8))
    assert dft_identity_residuals(gf, 1) == (0, 0)


def test_identity_residuals_monomial():
    gf = sample(trig_monomial(1), build_grid(8))
    for m in range(-8, 8):
        if m == 0:
            continue
        r1, r2 = dft_identity_residuals(gf, m)
        assert abs(r1) <= 1e-10
        assert abs(r2) <= 1e-10


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
    gf = sample(lambda x: x, build_grid(2))
    with pytest.raises(ValueError):
        dft_identity_residuals(gf, 0)


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
    report = unifbounded_checks(zero, 8)
    assert report.passed
    assert report.max_F == 0.0
    assert report.sup_derivative == 0.0


def test_unifbounded_shifted_cosine():
    h = shift_to_zero_endpoints(cosine(1))  # cos(pi x) + 1
    for n in (4, 32):
        report = unifbounded_checks(h, n)
        assert report.passed, f"n={n}: slacks {report.F_slack}, {report.second_hat_slack}"
        assert report.sup_derivative == pytest.approx(math.pi, abs=1e-12)


def test_unifbounded_sine_squared_from_monomials():
    # sin^2(pi x) assembled from exponential modes; endpoints vanish
    h = combine(
        [(0.5, trig_monomial(0)), (-0.25, trig_monomial(2)), (-0.25, trig_monomial(-2))]
    )
    report = unifbounded_checks(h, 64)
    assert report.passed
    assert report.F_slack >= 0 and report.second_hat_slack >= 0


def test_unifbounded_rejects_nonzero_endpoints():
    with pytest.raises(ValueError):
        unifbounded_checks(cosine(1), 8)
