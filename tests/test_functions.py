import math
import re

import numpy as np
import pytest
from scipy.special import iv

from gridfourier import (
    DEFAULT_CATALOG,
    BoundConstants,
    bound_constants,
    combine,
    cosine,
    exp_cos,
    get_function,
    shift_to_zero_endpoints,
    trig_monomial,
)
from gridfourier.continuous_fourier import _quadrature_coefficient

CATALOG = [trig_monomial(0), trig_monomial(1), trig_monomial(-3), cosine(1), cosine(2), exp_cos()]


def test_trig_monomial_basic():
    f0 = trig_monomial(0)
    assert f0.eval(0.37) == pytest.approx(1.0)
    assert f0.exact_coefficient(0) == 2.0

    f1 = trig_monomial(1)
    assert f1.eval(0.5) == pytest.approx(1j)

    f3 = trig_monomial(3)
    assert f3.exact_coefficient(3) == 2.0
    assert f3.exact_coefficient(2) == 0.0


def test_trig_monomial_rejects_huge_mode():
    with pytest.raises(ValueError):
        trig_monomial(10**6 + 1)


def test_cosine_basic():
    f = cosine(1)
    assert f.eval(0.0) == pytest.approx(1.0)
    assert f.exact_coefficient(1) == 1.0
    assert f.exact_coefficient(-1) == 1.0
    assert cosine(2).exact_coefficient(0) == 0.0
    with pytest.raises(ValueError):
        cosine(0)


def test_exp_cos_spectrum_matches_series_values():
    f = exp_cos()
    assert f.exact_coefficient(0) == pytest.approx(2.5321317555040164, abs=1e-15)
    assert f.exact_coefficient(1) == pytest.approx(1.1303182079849703, abs=1e-14)
    assert f.eval(1.0) == pytest.approx(math.exp(-1.0))


def test_exp_cos_spectrum_matches_scipy_bessel():
    f = exp_cos()
    for m in range(-8, 9):
        assert f.exact_coefficient(m) == pytest.approx(2.0 * iv(abs(m), 1.0), abs=1e-14)


def test_exp_cos_spectrum_underflows_cleanly():
    assert exp_cos().exact_coefficient(10**5) == 0.0


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_periodic_endpoints(f):
    assert abs(f.eval(-1.0) - f.eval(1.0)) <= 1e-12
    assert abs(f.endpoint_value - f.eval(1.0)) <= 1e-15


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_derivatives_match_finite_differences(f):
    h = 1e-5
    rng = np.random.default_rng(64)
    for x in rng.uniform(-0.9, 0.9, 64):
        fd1 = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
        assert abs(f.d1(x) - fd1) <= 1e-5 * max(1.0, abs(f.d1(x)))
        fd2 = (f.d1(x + h) - f.d1(x - h)) / (2 * h)
        assert abs(f.d2(x) - fd2) <= 1e-5 * max(1.0, abs(f.d2(x)))


def test_combine_single_term_is_identity():
    base = trig_monomial(1)
    c = combine([(1.0, base)])
    for x in (-1.0, -0.3, 0.0, 0.7):
        assert c.eval(x) == pytest.approx(base.eval(x), abs=1e-15)
    assert c.exact_coefficient(1) == base.exact_coefficient(1)


def test_combine_euler_formula():
    c = combine([(0.5, trig_monomial(1)), (0.5, trig_monomial(-1))])
    ref = cosine(1)
    for x in np.linspace(-1, 1, 33):
        assert abs(c.eval(x) - ref.eval(x)) <= 1e-15


def test_combine_coefficients_are_linear():
    c = combine([(2.0, cosine(1)), (3.0, cosine(2))])
    assert c.exact_coefficient(2) == pytest.approx(3.0)
    assert c.exact_coefficient(1) == pytest.approx(2.0)
    assert c.exact_coefficient(0) == 0.0


def test_combine_rejects_empty():
    with pytest.raises(ValueError):
        combine([])


def test_bound_constants_constant_function():
    bc = bound_constants(combine([(5.0, trig_monomial(0))]))
    assert bc.B == 0.0
    assert bc.D == 0.0
    assert bc.M == 0.0
    assert bc.H == 0.0


def test_bound_constants_cosine_closed_form():
    # h = cos(pi x) + 1: sup|h| = 2, sup|h'| = pi, int|h''| = 4 pi
    bc = bound_constants(cosine(1))
    assert bc.B == pytest.approx(2.0, abs=1e-12)
    assert bc.D == pytest.approx(math.pi, abs=1e-12)
    assert bc.M == pytest.approx(4 * math.pi, abs=1e-6)
    assert bc.W == pytest.approx(9 * math.pi + 4, abs=1e-5)
    assert bc.H == pytest.approx((9 * math.pi + 4) / 4, abs=1e-5)


def test_bound_constants_trig_monomial_closed_form():
    # h = exp(i pi x) + 1: sup|h| = 2, sup|h'| = pi, int|h''| = 2 pi^2
    bc = bound_constants(trig_monomial(1))
    assert bc.B == pytest.approx(2.0, abs=1e-12)
    assert bc.D == pytest.approx(math.pi, abs=1e-12)
    assert bc.M == pytest.approx(2 * math.pi**2, abs=1e-6)
    assert bc.H == pytest.approx((2 * math.pi**2 + 4 + 5 * math.pi) / 4, abs=1e-5)
    assert bc.H > 0


@pytest.mark.parametrize("scale", [0.5, 3.0, 17.25])
def test_bound_constants_homogeneous(scale):
    base = exp_cos()
    ref = bound_constants(base)
    scaled = bound_constants(combine([(scale, base)]))
    for name in ("B", "D", "M", "W", "H"):
        got = getattr(scaled, name)
        want = scale * getattr(ref, name)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_bound_constants_needs_derivatives():
    from gridfourier.functions import SmoothPeriodicFunction

    bare = SmoothPeriodicFunction(
        name="bare", eval=lambda x: 0.0, d1=None, d2=None,
        exact_coefficient=None, endpoint_value=0.0,
    )
    with pytest.raises(ValueError):
        bound_constants(bare)


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_quadrature_coefficient_matches_exact(f):
    for m in range(-16, 17):
        assert abs(_quadrature_coefficient(f, m) - f.exact_coefficient(m)) <= 1e-8


def test_shift_to_zero_endpoints():
    for f in (cosine(1), exp_cos(), trig_monomial(3)):
        h = shift_to_zero_endpoints(f)
        assert abs(h.eval(1.0)) <= 1e-15
        assert abs(h.eval(-1.0)) <= 1e-12


def test_get_function_names():
    assert get_function("trig:-2").name == "trig:-2"
    assert get_function("cos:3").name == "cos:3"
    assert get_function("expcos").name == "expcos"

    combo = get_function("combo:0.5*trig:0+-0.5*cos:2")  # sin^2(pi x)
    for x in np.linspace(-1, 1, 17):
        assert abs(combo.eval(x) - math.sin(math.pi * x) ** 2) <= 1e-14


@pytest.mark.parametrize(
    "bad",
    ["nosuch", "trig:abc", "cos:", "combo:", "combo:1*", "combo:1*combo:1*trig:0", "combo:x*trig:0"],
)
def test_get_function_rejects_bad_names(bad):
    with pytest.raises(ValueError):
        get_function(bad)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_get_function_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match=rf"non-finite combo weight in '{weight}\*cos:1'"):
        get_function(f"combo:0.5*trig:0+{weight}*cos:1")


def _dense_norms(f, center):
    # the fixed scheme the constants are defined by: sup norms over 4097
    # equispaced points, L1 norm by composite Simpson on 4096 panels
    xs = np.linspace(-1.0, 1.0, 4097)

    def values(fn):
        return np.asarray([fn(float(x)) for x in xs], dtype=np.complex128)

    weights = np.ones(4097)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    B = float(np.max(np.abs(values(f.eval) - center)))
    D = float(np.max(np.abs(values(f.d1))))
    M = float(np.sum(weights * np.abs(values(f.d2))) * (2.0 / 4096) / 3.0)
    return B, D, M


@pytest.mark.parametrize("name", [*DEFAULT_CATALOG, "combo:0.731*trig:0+1.9*cos:2"])
def test_bound_constants_bit_equal_to_dense_formula(name):
    # the engine's uniform bounds once computed these norms from the
    # endpoint-shifted function; both routes must give the same bits
    f = get_function(name)
    bc = bound_constants(f)
    assert (bc.B, bc.D, bc.M) == _dense_norms(f, f.endpoint_value)
    assert (bc.B, bc.D, bc.M) == _dense_norms(shift_to_zero_endpoints(f), 0.0)


@pytest.mark.parametrize("field", ["B", "D", "M", "W", "H"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_bound_constants_fields_must_be_finite_and_nonnegative(field, value):
    fields = {"B": 1.0, "D": 1.0, "M": 1.0, "W": 8.0, "H": 2.0}
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        BoundConstants(**fields)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bound_constants_reject_non_finite_values():
    # finite weights whose sum overflows to inf, then to nan
    f = get_function("combo:1e308*cos:1+1e308*cos:1")
    with pytest.raises(ValueError, match=re.escape(f.name)):
        bound_constants(f)
