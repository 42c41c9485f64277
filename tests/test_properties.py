"""Property tests for the rules every function is built by.

``combine`` is linear in each evaluator and in the coefficient map,
``rescale`` applies the chain-rule factors, every constructor records the
endpoint value as eval(1.0), and the grid transform inverts exactly at any
size.  Examples are derandomized, so a run is reproducible.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfourier import (
    combine,
    cosine,
    discrete_coefficients,
    exp_cos,
    invert,
    rescale,
    shift_to_zero_endpoints,
    trig_monomial,
)
from gridfourier.verification import CHECKS, random_grid_function

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

PART = st.one_of(
    st.integers(-40, 40).map(trig_monomial),
    st.integers(1, 40).map(cosine),
    st.builds(exp_cos),
)
WEIGHT = st.floats(-1e6, 1e6)
PARTS = st.lists(st.tuples(WEIGHT, PART), min_size=1, max_size=3)
POINTS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8).map(np.array)
INVERSION_TOLERANCE = next(c.tolerance for c in CHECKS if c.name == "inversion")


@SETTINGS
@given(parts=PARTS, xs=POINTS, m=st.integers(-60, 60))
def test_combine_is_the_weighted_sum(parts, xs, m):
    combo = combine(parts)
    for attr in ("eval", "d1", "d2"):
        want = sum(complex(c) * getattr(f, attr)(xs) for c, f in parts)
        np.testing.assert_array_equal(getattr(combo, attr)(xs), want)
    want = sum(complex(c) * f.exact_coefficient(m) for c, f in parts)
    assert combo.exact_coefficient(m) == want


@SETTINGS
@given(parts=PARTS)
def test_endpoint_value_is_eval_at_one(parts):
    for f in [f for _, f in parts] + [combine(parts), shift_to_zero_endpoints(combine(parts))]:
        assert f.endpoint_value == complex(f.eval(1.0))


@SETTINGS
@given(parts=PARTS, missing=st.sampled_from(["d1", "d2", "exact_coefficient"]))
def test_a_part_without_an_evaluator_gives_a_combo_without_it(parts, missing):
    parts = parts + [(1.0, dataclasses.replace(parts[0][1], **{missing: None}))]
    combo = combine(parts)
    for attr in ("d1", "d2", "exact_coefficient"):
        assert (getattr(combo, attr) is None) == (attr == missing)


@SETTINGS
@given(a=st.floats(-100.0, 100.0), length=st.floats(0.01, 100.0), ts=POINTS)
def test_rescale_applies_the_chain_rule_factors(a, length, ts):
    b = a + length
    L = b - a
    w = 2.0 * math.pi / L

    def f(x):
        return math.cos(w * (x - a))

    def d1(x):
        return -w * math.sin(w * (x - a))

    def d2(x):
        return -w * w * math.cos(w * (x - a))

    pulled = rescale(f, a, b, d1=d1, d2=d2).pulled
    xs = [a + L * (t + 1.0) / 2.0 for t in ts]
    np.testing.assert_array_equal(pulled.eval(ts), [f(x) for x in xs])
    np.testing.assert_array_equal(pulled.d1(ts), (L / 2.0) * np.array([d1(x) for x in xs]))
    np.testing.assert_array_equal(pulled.d2(ts), (L / 2.0) ** 2 * np.array([d2(x) for x in xs]))
    assert pulled.endpoint_value == complex(pulled.eval(1.0))
    # on the circle the pulled function is cos(pi (t+1)); rounding x - a
    # costs up to a few ulps of max(|a|, |b|), amplified by w
    tol = 1e-12 * (1.0 + max(abs(a), abs(b)) / L)
    phase = math.pi * (ts + 1.0)
    assert np.max(np.abs(pulled.d1(ts) + math.pi * np.sin(phase))) <= math.pi * tol
    assert np.max(np.abs(pulled.d2(ts) + math.pi**2 * np.cos(phase))) <= math.pi**2 * tol


@SETTINGS
@given(parts=PARTS)
def test_shift_to_zero_endpoints_vanishes_at_both_ends(parts):
    f = combine(parts)
    h = shift_to_zero_endpoints(f)
    # every catalog part has |f| <= e < 3
    scale = 1.0 + 3.0 * sum(abs(c) for c, _ in parts)
    assert h.eval(1.0) == 0
    assert abs(h.eval(-1.0)) <= 1e-13 * scale


@SETTINGS
@given(n=st.integers(1, 4096), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=3, seed=0)
@example(n=4093, seed=0)
@example(n=4096, seed=0)
def test_inversion_is_exact_within_its_budget(n, seed):
    gf = random_grid_function(seed, "inversion", n, 0)
    err = np.max(np.abs(invert(discrete_coefficients(gf)).values - gf.values))
    assert err / (1.0 + gf.max_abs()) <= INVERSION_TOLERANCE
