import dataclasses
import math

import numpy as np
import pytest
from scipy.special import iv

from _oracles import interval_partial_sum, per_n_majorant, per_n_sup_errors
from gridfourier import (
    DEFAULT_CATALOG,
    bound_constants,
    coefficient,
    cosine,
    discrete_to_continuous_gap,
    exp_cos,
    get_function,
    integral_gap,
    m_test_majorant,
    reconstruct,
    rescale,
    sup_error,
    trig_monomial,
)
from gridfourier import continuous_fourier
from gridfourier.continuous_fourier import (
    MAJORANT_MODE_CUTOFF,
    MAX_PHASE_CELLS,
    _coefficient_vector,
    m_test_majorants,
    sup_errors,
)
from gridfourier.functions import SmoothPeriodicFunction


def test_coefficient_orthogonality():
    assert coefficient(trig_monomial(3), 3) == pytest.approx(2.0)
    assert coefficient(trig_monomial(3), 4) == 0.0
    assert coefficient(cosine(2), -2) == pytest.approx(1.0)


def test_coefficient_exp_cos():
    got = coefficient(exp_cos(), 0)
    assert got == pytest.approx(2.5321317555040164, abs=1e-12)
    assert got == pytest.approx(2 * iv(0, 1.0), abs=1e-12)


@pytest.mark.parametrize("name", ["expcos", "combo:0.731*trig:0+1.9*cos:2"])
@pytest.mark.parametrize("quadrature", [False, True], ids=["exact", "quadrature"])
def test_coefficient_is_view_on_vector(name, quadrature):
    f = get_function(name)
    if quadrature:
        f = dataclasses.replace(f, exact_coefficient=None)
    N = 6
    vector = _coefficient_vector(f, range(-N, N + 1))
    for m in range(-N, N + 1):
        if quadrature:
            # the quadrature grid follows the largest |m| requested
            k = abs(m)
            assert coefficient(f, m) == _coefficient_vector(f, range(-k, k + 1))[m + k]
        else:
            assert coefficient(f, m) == vector[m + N]


@pytest.mark.parametrize("name", ["expcos", "combo:0.731*trig:0+1.9*cos:2"])
def test_quadrature_vector_matches_exact_oracle(name):
    # one transform at the n* of the largest |m| serves every mode
    f = get_function(name)
    modes = range(-64, 65)
    exact = _coefficient_vector(f, modes)
    quadrature = _coefficient_vector(dataclasses.replace(f, exact_coefficient=None), modes)
    assert np.max(np.abs(quadrature - exact)) <= 1e-14


def test_reconstruct_array_is_view_of_scalar_calls():
    f = dataclasses.replace(exp_cos(), exact_coefficient=None)
    xs = np.linspace(-1.0, 1.0, 33).reshape(3, 11)
    values = reconstruct(f, 7, xs)
    assert values.shape == xs.shape
    assert values.tolist() == [[reconstruct(f, 7, x) for x in row] for row in xs.tolist()]


def test_reconstruct_monomial_is_exact():
    f = trig_monomial(1)
    for N in (1, 3):
        for x in (-1.0, -0.25, 0.0, 0.8):
            want = np.exp(1j * np.pi * x)
            assert abs(reconstruct(f, N, x) - want) <= 1e-12


def test_reconstruct_cosine_order_zero():
    assert reconstruct(cosine(1), 0, 0.0) == 0.0


def test_reconstruct_exp_cos_near_peak():
    assert abs(reconstruct(exp_cos(), 8, 0.0) - math.e) <= 1e-6


def test_reconstruct_periodic_at_right_endpoint():
    f = exp_cos()
    assert reconstruct(f, 6, 1.0) == reconstruct(f, 6, -1.0)


def test_sup_error_exact_truncation():
    assert sup_error(trig_monomial(2), 2) <= 1e-12


@pytest.mark.parametrize("f,deg", [(trig_monomial(2), 2), (cosine(3), 3)])
def test_truncation_exactness_beyond_degree(f, deg):
    for N in (deg, deg + 1, deg + 3):
        assert sup_error(f, N, 1024) <= 1e-11


def test_sup_error_improves_with_order():
    f = exp_cos()
    assert sup_error(f, 8) < sup_error(f, 4)


def test_sup_error_below_oracle_tail():
    # triangle inequality against the Bessel tail, via an independent
    # oracle; 1e-12 budgets the rounding of the measured sup
    tail = 2.0 * sum(float(iv(m, 1.0)) for m in range(9, 40))
    assert sup_error(exp_cos(), 8, 2048) <= tail + 1e-12


def test_sup_error_validates_samples():
    with pytest.raises(ValueError):
        sup_error(cosine(1), 2, samples=1)


def test_sup_error_rejects_non_finite_values():
    # with an exact coefficient map nothing is sampled on a grid, so the
    # sup error itself must see the nan (it used to return nan)
    f = SmoothPeriodicFunction(
        name="nan-valued", eval=lambda x: math.nan, d1=None, d2=None,
        exact_coefficient=lambda m: 0j, endpoint_value=0j,
    )
    with pytest.raises(ValueError, match=r"nan-valued: non-finite value at x=-1\.0"):
        sup_error(f, 2, 8)


def test_majorant_zero_H():
    assert m_test_majorant(0.0, 3) == 0.0


def test_majorant_basel_value():
    # (1/2) sum_{|m|>1} 4/m^2 = 4 (pi^2/6 - 1)
    want = 4.0 * (math.pi**2 / 6 - 1.0)
    assert m_test_majorant(4.0, 1) == pytest.approx(want, abs=1e-4)


def test_majorant_matches_independent_sum():
    H, N = 3.5, 7
    tail = 0.0
    for m in range(MAJORANT_MODE_CUTOFF, N, -1):
        tail += 1.0 / (m * m)
    want = H * tail + 2.0 * H * 1e-6
    assert m_test_majorant(H, N) == pytest.approx(want, rel=1e-12)


def test_majorant_monotone_and_vanishing():
    H = 8.0
    values = [m_test_majorant(H, N) for N in (1, 4, 64, 1024, 2**14)]
    assert all(b < a for a, b in zip(values, values[1:]))
    for N, val in zip((1, 4, 64, 1024, 2**14), values):
        assert val <= 2 * H / N


def test_majorant_validates_inputs():
    with pytest.raises(ValueError):
        m_test_majorant(1.0, 0)
    with pytest.raises(ValueError):
        m_test_majorant(-1.0, 4)


def test_rescale_unit_interval_exponential():
    two_pi = 2 * math.pi
    rf = rescale(
        lambda x: complex(math.cos(two_pi * x), math.sin(two_pi * x)), 0.0, 1.0
    )
    assert rf.coefficient(1) == pytest.approx(1.0, abs=1e-10)
    for m in (-2, -1, 0, 2):
        assert abs(rf.coefficient(m)) <= 1e-10
    for x in np.linspace(0.0, 1.0, 9):
        want = complex(math.cos(two_pi * x), math.sin(two_pi * x))
        assert abs(rf.reconstruct(2, x) - want) <= 1e-10


def test_rescale_constant():
    rf = rescale(lambda x: 4.25, 1.0, 3.5)
    assert rf.coefficient(0) == pytest.approx(4.25, abs=1e-12)


def test_rescale_cosine_long_interval():
    rf = rescale(lambda x: math.cos(2 * math.pi * x / 3), 0.0, 3.0)
    assert rf.coefficient(1) == pytest.approx(0.5, abs=1e-10)
    assert rf.coefficient(-1) == pytest.approx(0.5, abs=1e-10)
    assert abs(rf.coefficient(0)) <= 1e-10


def test_rescaled_coefficient_is_view_on_vector():
    rf = rescale(lambda x: math.exp(math.cos(2 * math.pi * x / 2.5)), -1.25, 1.25)
    N = 5
    for m in range(-N, N + 1):
        assert rf.coefficient(m) == rf.coefficient_vector(abs(m))[m + abs(m)]


@pytest.mark.parametrize("a, b, N", [(0.0, 3.0, 64), (-1.234, 2.5, 64), (-1.0, 1.0, 8)])
def test_rescaled_reconstruct_is_circle_partial_sum(a, b, N):
    w = 2 * math.pi / (b - a)
    rf = rescale(lambda x: math.exp(math.cos(w * (x - a))), a, b)
    xs = np.linspace(a, b, 257)
    values = rf.reconstruct(N, xs)
    assert values.tolist() == [rf.reconstruct(N, x) for x in xs]
    # the [a, b] sum of the same coefficients, point by point
    coeffs = rf.coefficient_vector(N)
    want = np.array([interval_partial_sum(coeffs, rf.length, x) for x in xs])
    assert np.max(np.abs(values - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))


def test_reconstruct_rejects_oversized_phase_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(continuous_fourier, "_coefficient_vector", refuse)
    monkeypatch.setattr(continuous_fourier, "_phase_matrix", refuse)
    # 257 x (2*8160 + 1) cells is just above 2**22: the rescale-demo limit
    assert 257 * 16321 > MAX_PHASE_CELLS >= 257 * 16319
    with pytest.raises(ValueError, match="phase matrix"):
        reconstruct(cosine(1), 8160, np.zeros(257))
    rf = rescale(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="phase matrix"):
        rf.reconstruct(10**12, 0.5)


def test_rescale_chain_rule_factors():
    # cos(2 pi x / 3) on [0, 3] pulls back to -cos(pi t), so the pulled
    # derivatives are pi sin(pi t) and pi^2 cos(pi t)
    w = 2 * math.pi / 3
    rf = rescale(
        lambda x: math.cos(w * x),
        0.0,
        3.0,
        d1=lambda x: -w * math.sin(w * x),
        d2=lambda x: -w * w * math.cos(w * x),
    )
    for t in np.linspace(-1.0, 1.0, 9):
        assert rf.pulled.eval(t) == pytest.approx(-math.cos(math.pi * t), abs=1e-12)
        assert rf.pulled.d1(t) == pytest.approx(math.pi * math.sin(math.pi * t), abs=1e-12)
        assert rf.pulled.d2(t) == pytest.approx(math.pi**2 * math.cos(math.pi * t), abs=1e-12)


def test_rescale_reproduces_circle_normalization():
    # pulling [-1, 1] through the rescale gives half the circle coefficients
    f = cosine(1)
    rf = rescale(f.eval, -1.0, 1.0)
    for m in range(-4, 5):
        assert abs(rf.coefficient(m) - 0.5 * coefficient(f, m)) <= 1e-10


def test_rescale_validation():
    with pytest.raises(ValueError):
        rescale(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        rescale(lambda x: x, 0.0, 1.0)  # f(0) != f(1)


@pytest.mark.parametrize(
    "a, b",
    [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)],
)
def test_rescale_rejects_non_finite_interval(a, b):
    with pytest.raises(ValueError, match="finite"):
        rescale(lambda x: 1.0, a, b)


def test_gap_monomial_exact():
    for n in (2, 4, 16):
        assert discrete_to_continuous_gap(trig_monomial(1), 1, n) <= 1e-12


def test_gap_decreases_with_grid_size():
    f = exp_cos()
    gaps = [discrete_to_continuous_gap(f, 0, n) for n in (4, 8, 16, 32)]
    assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    assert gaps[1] < gaps[0]  # the first step is a genuine drop


def test_gap_constant():
    for m, n in ((0, 4), (3, 8)):
        assert discrete_to_continuous_gap(trig_monomial(0), m, n) <= 1e-13


def test_gap_rejects_out_of_range_mode():
    with pytest.raises(ValueError):
        discrete_to_continuous_gap(exp_cos(), 4, 4)


def test_integral_gap_constant():
    assert integral_gap(trig_monomial(0), 5) == 0.0


def test_integral_gap_cosine_exact_cancellation():
    for n in (2, 4, 8, 16):
        assert integral_gap(cosine(1), n) <= 1e-12


def test_integral_gap_shrinks():
    f = exp_cos()
    assert integral_gap(f, 64) < integral_gap(f, 4)


BATCH_FUNCTIONS = [*DEFAULT_CATALOG, "combo:0.731*trig:0+1.9*cos:2"]
ORDERS = range(1, 65)


@pytest.mark.parametrize("samples", [2048, 257])
@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_sup_errors_bit_equal_to_per_n_oracle(name, samples):
    f = get_function(name)
    batched = sup_errors(f, ORDERS, samples).tolist()
    assert batched == per_n_sup_errors(f, ORDERS, samples)
    for N, got in zip(ORDERS, batched):
        assert sup_error(f, N, samples) == got, N


def test_m_test_majorants_bit_equal_to_per_n_oracle():
    Hs = [bound_constants(get_function(name)).H for name in BATCH_FUNCTIONS]
    batched = np.array([m_test_majorants(H, ORDERS) for H in Hs])
    for N, column in zip(ORDERS, batched.T.tolist()):
        # one oracle call serves every H: the tail sum does not depend on H
        assert column == per_n_majorant(np.array(Hs), N, MAJORANT_MODE_CUTOFF).tolist(), N
        assert m_test_majorant(Hs[0], N) == column[0], N


def test_sup_errors_rejects_oversized_phase_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(continuous_fourier, "_coefficient_vector", refuse)
    monkeypatch.setattr(continuous_fourier, "_phase_matrix", refuse)
    f = cosine(1)
    # (2048 + 1) * (2 * 1024 + 1) cells is just above 2**22
    assert 2049 * 2049 > MAX_PHASE_CELLS >= 2049 * 2047
    with pytest.raises(ValueError, match="phase matrix"):
        sup_errors(f, [1, 1024], 2048)
    with pytest.raises(ValueError, match="phase matrix"):
        sup_error(f, 10**12, 2048)


def test_rescale_scalar_callables():
    # math.cos and math.sin accept only one float: the pulled-back
    # evaluators call them point by point, on whole arrays too
    rf = rescale(math.cos, 0.0, 2.0 * math.pi, d1=lambda x: -math.sin(x))
    ts = np.linspace(-1.0, 1.0, 9)
    xs = math.pi * (ts + 1.0)
    np.testing.assert_allclose(rf.pulled.eval(ts), np.cos(xs), atol=1e-15)
    np.testing.assert_allclose(rf.pulled.d1(ts), -math.pi * np.sin(xs), atol=1e-14)
    assert complex(rf.pulled.eval(1.0)) == pytest.approx(1.0)
    assert rf.coefficient(1) == pytest.approx(0.5, abs=1e-12)
    assert rf.coefficient(2) == pytest.approx(0.0, abs=1e-12)
