import math

import numpy as np
import pytest
from scipy.special import iv

from gridfourier import (
    coefficient,
    cosine,
    discrete_to_continuous_gap,
    exp_cos,
    integral_gap,
    m_test_majorant,
    reconstruct,
    rescale,
    sup_error,
    trig_monomial,
)
from gridfourier.continuous_fourier import MAJORANT_MODE_CUTOFF


def test_coefficient_orthogonality():
    assert coefficient(trig_monomial(3), 3) == pytest.approx(2.0)
    assert coefficient(trig_monomial(3), 4) == 0.0
    assert coefficient(cosine(2), -2) == pytest.approx(1.0)


def test_coefficient_exp_cos():
    got = coefficient(exp_cos(), 0)
    assert got == pytest.approx(2.5321317555040164, abs=1e-12)
    assert got == pytest.approx(2 * iv(0, 1.0), abs=1e-12)


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
