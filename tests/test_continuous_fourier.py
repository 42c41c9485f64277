import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import iv, zeta

from _oracles import interval_partial_sum, mp_majorant, mp_sup_errors, per_n_sup_errors
from gridfourier import (
    DEFAULT_CATALOG,
    bound_constants,
    build_grid,
    coefficient,
    cosine,
    discrete_coefficients,
    exp_cos,
    get_function,
    integrate,
    m_test_majorant,
    reconstruct,
    rescale,
    sample,
    sup_error,
    trig_monomial,
)
from gridfourier import continuous_fourier
from gridfourier.continuous_fourier import (
    MAX_PHASE_CELLS,
    MAX_QUADRATURE_N,
    _coefficient_vector,
    m_test_majorants,
    sup_errors,
)
from gridfourier.functions import SmoothPeriodicFunction


def _rescaled_coefficient(rf, m):
    """ghat_[a,b](m), read from ``coefficient_vector(|m|)``."""
    return complex(rf.coefficient_vector(abs(m))[m + abs(m)])


def _gap(f, m, n):
    """|grid coefficient at size n - continuous coefficient| at mode m."""
    return abs(discrete_coefficients(sample(f, build_grid(n))).coeff(m) - coefficient(f, m))


def _integral_gap(f, n):
    """|grid integral - integral of f| = |grid mean-mode - ghat(0)|."""
    return abs(integrate(sample(f, build_grid(n))) - coefficient(f, 0))


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
        f = f.replace(exact_coefficient=None)
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
    quadrature = _coefficient_vector(f.replace(exact_coefficient=None), modes)
    assert np.max(np.abs(quadrature - exact)) <= 1e-14


def test_reconstruct_array_is_view_of_scalar_calls():
    f = exp_cos().replace(exact_coefficient=None)
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
        exact_coefficient=lambda m: 0j,
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
    # the terms up to 10^4 summed smallest first, and scipy's Hurwitz zeta past them
    H, N = 3.5, 7
    tail = 0.0
    for m in range(10**4, N, -1):
        tail += 1.0 / (m * m)
    want = H * (tail + zeta(2, 10**4 + 1))
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
    assert _rescaled_coefficient(rf, 1) == pytest.approx(1.0, abs=1e-10)
    for m in (-2, -1, 0, 2):
        assert abs(_rescaled_coefficient(rf, m)) <= 1e-10
    for x in np.linspace(0.0, 1.0, 9):
        want = complex(math.cos(two_pi * x), math.sin(two_pi * x))
        assert abs(rf.reconstruct(2, x) - want) <= 1e-10


def test_rescale_constant():
    rf = rescale(lambda x: 4.25, 1.0, 3.5)
    assert _rescaled_coefficient(rf, 0) == pytest.approx(4.25, abs=1e-12)
    # a pullback has no exact coefficient, hence no support
    assert rf.pulled.exact_coefficient is None and rf.pulled.support is None


def test_rescale_cosine_long_interval():
    rf = rescale(lambda x: math.cos(2 * math.pi * x / 3), 0.0, 3.0)
    assert _rescaled_coefficient(rf, 1) == pytest.approx(0.5, abs=1e-10)
    assert _rescaled_coefficient(rf, -1) == pytest.approx(0.5, abs=1e-10)
    assert abs(_rescaled_coefficient(rf, 0)) <= 1e-10


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


def test_reconstruct_memory_stays_in_chunks():
    # the largest rescale-demo order: 257 x 8160 phase cells, 32 MiB as one matrix
    f, xs = exp_cos(), np.linspace(-1.0, 1.0, 257)
    tracemalloc.start()
    try:
        reconstruct(f, 8159, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**21


def test_quadrature_grid_is_bounded_before_sampling():
    f = exp_cos().replace(exact_coefficient=None)
    # n* = 16 * (|m| + 1): 8191 is the largest mode admitted
    assert 16 * 8192 == MAX_QUADRATURE_N
    assert abs(coefficient(f, 8191)) < 1e-12
    for m in (8192, -8192, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"expcos: mode {m} needs a quadrature grid"):
                coefficient(f, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16, m
    rf = rescale(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="quadrature grid"):
        rf.coefficient_vector(8192)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_reconstruct_refuses_non_finite_points(monkeypatch, bad):
    def refuse(*args):
        raise AssertionError("coefficients read before the point check")

    monkeypatch.setattr(continuous_fourier, "_coefficient_vector", refuse)
    message = re.escape(f"points must be finite, got x={bad!r}")
    with pytest.raises(ValueError, match=message):
        reconstruct(cosine(1), 2, np.array([0.0, bad, 0.5]))
    with pytest.raises(ValueError, match=message):
        reconstruct(cosine(1), 2, bad)
    with pytest.raises(ValueError, match=message):
        rescale(lambda x: 1.0, 0.0, 1.0).reconstruct(2, [0.25, bad])


@pytest.mark.parametrize(
    "a, b, x",
    [(1e308, 1.5e308, -1.7e308), (0.0, 1e-300, 1e10), (0.0, 1.0, [0.5, 1e308])],
    ids=["x - a overflows", "(x - a) / L overflows", "doubling overflows"],
)
def test_rescaled_reconstruct_refuses_a_point_whose_pull_back_overflows(monkeypatch, a, b, x):
    # the caller's finite x is named with [a, b], with no numpy overflow
    # warning and no "points must be finite" about the pulled-back t
    def refuse(*args):
        raise AssertionError("coefficients read before the point check")

    rf = rescale(lambda x: 1.0, a, b)
    monkeypatch.setattr(continuous_fourier, "_coefficient_vector", refuse)
    bad = float(np.ravel(x)[-1])
    message = re.escape(f"point x={bad!r} is too far from [{a!r}, {b!r}]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            rf.reconstruct(2, x)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda bad: sup_error(cosine(1), bad), "truncation order must be an integer"),
        (lambda bad: m_test_majorants(1.0, [bad]).tolist(), "truncation order must be an integer"),
        (lambda bad: reconstruct(cosine(1), bad, 0.0), "truncation order must be an integer"),
        (lambda bad: (trig_monomial(bad).name, trig_monomial(bad).support), "k must be an integer"),
        (lambda bad: (cosine(bad).name, cosine(bad).support), "k must be an integer"),
    ],
    ids=["sup_error", "m_test_majorants", "reconstruct", "trig_monomial", "cosine"],
)
def test_non_integral_orders_and_modes_are_refused(call, message):
    # named, not truncated: at 1.5 each call would act as at 1
    for value in (1.5, 2.5, np.float64(2.0), True):
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {value!r}")):
            call(value)
    # numpy integers act as the int
    assert call(np.int64(2)) == call(2)
    assert call(np.int32(1)) == call(1)


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
        assert abs(_rescaled_coefficient(rf, m) - 0.5 * coefficient(f, m)) <= 1e-10


def test_rescale_of_float32_ends_maps_points_by_their_float_values():
    # L was b - a in float32 (3.2000000477), while RescaledFunction.length is
    # 3.19999995 in float64, so the pull-back and the reconstruction mapped
    # points apart by 1.4e-7
    a, b = np.float32(0.1), np.float32(3.3)
    lo, hi = float(a), float(b)
    w = 2 * math.pi / (hi - lo)
    rf = rescale(lambda x: math.cos(w * (x - lo)), a, b)
    xs = np.linspace(lo, hi, 33)
    assert np.max(np.abs(rf.reconstruct(8, xs) - np.cos(w * (xs - lo)))) <= 1e-14


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_rescale_refuses_non_finite_endpoint_values(value):
    # f(a) - f(b) is NaN here, so only a test that NaN fails can refuse it
    with pytest.raises(ValueError, match=r"f\(a\) != f\(b\)"):
        rescale(lambda x: value, 0.0, 1.0)


@pytest.mark.parametrize(
    "a, b",
    [(0, 10**400), (10**400, 10**400 + 1), ("0", "1"), (None, 1.0), (0.0, 1 + 0j), (False, True)],
    ids=["int-beyond-float", "both-beyond-float", "str", "None", "complex", "bool"],
)
def test_interval_ends_that_are_no_floats_are_refused_by_name(a, b):
    # each end is converted to a float before it is compared or subtracted;
    # an end that is no real number is named by its repr
    message = f"need a < b with b - a finite, got a={a!r}, b={b!r}"
    with pytest.raises(ValueError) as info:
        rescale(lambda x: 1.0, a, b)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        continuous_fourier.RescaledFunction(get_function("trig:1"), a, b)
    assert str(info.value) == message


@pytest.mark.parametrize("b", [1e308, 3e154])
def test_rescale_refuses_an_overflowing_chain_rule_factor(b):
    # (b/2)^2 overflows; b/2 itself does not, so d1 alone is taken
    def f(x):
        return math.cos(2 * math.pi * (x / b))

    def d(x):
        return 0.0

    with pytest.raises(ValueError, match=re.escape(f"derivative order 2 on [0.0, {b}]")):
        rescale(f, 0.0, b, d1=d, d2=d)
    assert rescale(f, 0.0, b, d1=d).pulled.d2 is None


def test_gap_monomial_exact():
    for n in (2, 4, 16):
        assert _gap(trig_monomial(1), 1, n) <= 1e-12


def test_gap_decreases_with_grid_size():
    f = exp_cos()
    gaps = [_gap(f, 0, n) for n in (4, 8, 16, 32)]
    assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    assert gaps[1] < gaps[0]  # the first step is a genuine drop


def test_gap_constant():
    for m, n in ((0, 4), (3, 8)):
        assert _gap(trig_monomial(0), m, n) <= 1e-13


def test_gap_rejects_out_of_range_mode():
    with pytest.raises(ValueError, match=re.escape("mode 4 outside [-4, 3]")):
        _gap(exp_cos(), 4, 4)


def test_integral_gap_constant():
    assert _integral_gap(trig_monomial(0), 5) == 0.0


def test_integral_gap_cosine_exact_cancellation():
    for n in (2, 4, 8, 16):
        assert _integral_gap(cosine(1), n) <= 1e-12


def test_integral_gap_shrinks():
    f = exp_cos()
    assert _integral_gap(f, 64) < _integral_gap(f, 4)


BATCH_FUNCTIONS = [*DEFAULT_CATALOG, "combo:0.731*trig:0+1.9*cos:2"]
ORDERS = range(1, 65)


@pytest.mark.parametrize("samples", [2048, 257])
@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_sup_errors_bit_equal_to_per_n_oracle(monkeypatch, name, samples):
    f = get_function(name)
    want = per_n_sup_errors(f, ORDERS, samples)
    batched = sup_errors(f, ORDERS, samples).tolist()
    assert batched == want
    for N, got in zip(ORDERS, batched):
        assert sup_error(f, N, samples) == got, N
    # 65 modes in chunks of 100 columns, which divide neither 2049 nor 258 points
    monkeypatch.setattr(continuous_fourier, "_CHUNK_CELLS", 65 * 100)
    assert sup_errors(f, ORDERS, samples).tolist() == want


@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_reconstruct_reads_the_sup_error_running_sum(monkeypatch, name):
    f = get_function(name)
    samples = 257
    xs = np.linspace(-1.0, 1.0, samples + 1)
    fvals = f.eval(xs)
    for chunk_cells in (continuous_fourier._CHUNK_CELLS, 65 * 100):
        # the second: chunks of 100 columns at N = 64, which do not divide 258 points
        monkeypatch.setattr(continuous_fourier, "_CHUNK_CELLS", chunk_cells)
        for N in (1, 2, 7, 64):
            want = float(np.max(np.abs(fvals - reconstruct(f, N, xs))))
            assert sup_error(f, N, samples) == want, (chunk_cells, N)


@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_sup_errors_match_mpmath_partial_sums(name):
    f = get_function(name)
    orders, samples = [1, 2, 5, 16, 24], 64
    got = sup_errors(f, orders, samples)
    want = np.array(mp_sup_errors(f, orders, samples))
    scale = max(1.0, float(np.max(np.abs(f.eval(np.linspace(-1.0, 1.0, samples + 1))))))
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


# ascending; past 2^53 an N + 1 is no longer an exact float, and 10^400 is no float at all
MAJORANT_ORDERS = [*range(1, 129), 10**3, 10**4, 10**5, 699050, 999999, 10**6, 10**7,
                   2**53 - 1, 2**53, 2**53 + 1, 10**16, 10**400]
MAJORANT_CONSTANTS = [1.0, 3.7, 1e300, 5e-300]


def test_m_test_majorants_match_mpmath_hurwitz_tail():
    for H in MAJORANT_CONSTANTS:
        batched = m_test_majorants(H, MAJORANT_ORDERS).tolist()
        for N, got in zip(MAJORANT_ORDERS, batched):
            want = mp_majorant(H, N)
            # a true majorant, subnormal results (H = 5e-300, N >= 10^16) included ...
            assert got >= want, (H, N)
            # ... and a tight one wherever the result is a normal float
            if got >= sys.float_info.min:
                assert got <= (1 + 2**-40) * want, (H, N)
            # the one-N view is its batched slot
            assert m_test_majorant(H, N) == got, (H, N)


@pytest.mark.parametrize("H", MAJORANT_CONSTANTS)
def test_majorant_is_nonincreasing_and_tends_to_zero(H):
    # no mode is cut off, so the bound keeps falling past 10^6
    values = m_test_majorants(H, MAJORANT_ORDERS).tolist()
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert m_test_majorant(H, 10**16) < H * 1e-15


def test_m_test_majorants_builds_no_term_array():
    tracemalloc.start()
    try:
        m_test_majorants(1.0, range(1, 65))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sup_errors_memory_stays_in_chunks():
    f = exp_cos()
    sup_errors(f, ORDERS)
    tracemalloc.start()
    try:
        sup_errors(f, ORDERS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**21


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
    assert _rescaled_coefficient(rf, 1) == pytest.approx(0.5, abs=1e-12)
    assert _rescaled_coefficient(rf, 2) == pytest.approx(0.0, abs=1e-12)
