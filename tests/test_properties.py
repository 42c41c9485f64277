"""Property tests for the rules every function is built by and the uniform-in-n claims.

``combine`` is linear in each evaluator and in the coefficient map,
``rescale`` applies the chain-rule factors, every constructor records the
endpoint value as eval(1.0), and the grid transform inverts exactly at any
size.  The calculus and derivative-transform identities, the decay and
uniform bounds, and alias folding hold at random grid sizes within the
budgets of their ``CHECKS`` rows, on the engine's scales, and every check
passes on random verify suites over a stated domain.  Examples are
derandomized, so a run is reproducible.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfourier import (
    bound_constants,
    build_grid,
    combine,
    cosine,
    decay_bound_check,
    discrete_coefficients,
    exp_cos,
    ftc_residual,
    invert,
    parts_residual,
    product_rule_residual,
    rescale,
    sample,
    shift_to_zero_endpoints,
    trig_monomial,
)
from gridfourier.discrete_fourier import _alias_fold_table
from gridfourier.spectral_bounds import _uniform_maxima, dft_identity_residual_arrays
from gridfourier.verification import CHECKS, SuiteConfig, random_grid_function, run_lemma_suite

from _oracles import alias_fold

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

PART = st.one_of(
    st.integers(-40, 40).map(trig_monomial),
    st.integers(1, 40).map(cosine),
    st.builds(exp_cos),
)
WEIGHT = st.floats(-1e6, 1e6)
PARTS = st.lists(st.tuples(WEIGHT, PART), min_size=1, max_size=3)
POINTS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8).map(np.array)
SIZES = st.integers(1, 4096)
SEEDS = st.integers(0, 2**32 - 1)
# |k| <= 64: trigonometric polynomials with support in -64 .. 64, and combos with expcos
TRIG_PART = st.one_of(st.integers(-64, 64).map(trig_monomial), st.integers(1, 64).map(cosine))
TRIG_PARTS = st.lists(st.tuples(WEIGHT, TRIG_PART), min_size=1, max_size=3)
COMBO_PART = st.one_of(TRIG_PART, st.builds(exp_cos))
COMBO_PARTS = st.lists(st.tuples(WEIGHT, COMBO_PART), min_size=1, max_size=3)
TOLERANCE = {c.name: c.tolerance for c in CHECKS}
SUITE_TERMS = (*(f"cos:{k}" for k in range(1, 6)), *(f"trig:{k}" for k in range(-4, 5)), "expcos")
SUITE_COMBO = st.lists(
    st.tuples(st.integers(-2000, 2000), st.sampled_from(SUITE_TERMS)), min_size=1, max_size=3
).map(lambda terms: "combo:" + "+".join(f"{k / 1000}*{name}" for k, name in terms))


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
    parts = parts + [(1.0, parts[0][1].replace(**{missing: None}))]
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
    assert err / (1.0 + gf.max_abs()) <= TOLERANCE["inversion"]


@SETTINGS
@given(n=SIZES, seed=SEEDS)
def test_calculus_identities_hold_within_their_budgets(n, seed):
    u = random_grid_function(seed, "calculus", n, 0, part=0)
    v = random_grid_function(seed, "calculus", n, 0, part=1)
    su = max(u.max_abs(), 1e-300)
    sv = max(v.max_abs(), 1e-300)
    assert abs(ftc_residual(u)) / (n * su) <= TOLERANCE["ftc"]
    product = np.max(np.abs(product_rule_residual(u, v).values))
    assert product / (n * su * sv) <= TOLERANCE["product_rule"]
    assert abs(parts_residual(u, v)) / (n * su * sv) <= TOLERANCE["parts"]


@SETTINGS
@given(n=SIZES, seed=SEEDS)
def test_derivative_transform_identities_hold_within_their_budgets(n, seed):
    gf = random_grid_function(seed, "dft", n, 0)
    r1, r2 = dft_identity_residual_arrays(gf)
    scale = 1.0 + gf.max_abs()
    assert np.max(np.abs(r1)) / scale <= TOLERANCE["dft_identity_1"]
    assert np.max(np.abs(r2)) / scale <= TOLERANCE["dft_identity_2"]


@SETTINGS
@given(parts=COMBO_PARTS, n=SIZES)
def test_decay_and_uniform_bounds_hold_for_random_combos(parts, n):
    f = combine(parts)
    c = bound_constants(f)
    gf = sample(f, build_grid(n))
    assert decay_bound_check(discrete_coefficients(gf), c.H).worst_ratio <= TOLERANCE["decay_H"]
    max_F, _, max_g2, _ = _uniform_maxima(gf - f.endpoint_value)
    assert max_F - 5.0 * c.D <= TOLERANCE["F_bound"]
    assert max_g2 - (c.M + 2.0 * c.B) <= TOLERANCE["g2_bound"]


@SETTINGS
@given(parts=COMBO_PARTS, n=st.integers(1, 128))
@example(parts=[(1.0, trig_monomial(64))], n=4)
@example(parts=[(0.5, cosine(40)), (2.0, trig_monomial(-33))], n=3)
@example(parts=[(1.0, exp_cos()), (1.0, trig_monomial(64))], n=4)
def test_alias_fold_over_the_support_gives_the_grid_coefficients(parts, n):
    f = combine(parts)
    gf = sample(f, build_grid(n))
    spec = discrete_coefficients(gf)
    exact = np.array([f.exact_coefficient(k) for k in f.support], dtype=np.complex128)
    folded = _alias_fold_table(f.support, exact, n)
    worst = max(abs(spec.coeff(m) - folded[m + n]) for m in range(-n, n))
    assert worst / max(1.0, gf.max_abs()) <= TOLERANCE["alias_oracle"]


@SETTINGS
@given(parts=TRIG_PARTS, n=st.integers(1, 128))
@example(parts=[(-0.0, trig_monomial(0)), (1e-300, cosine(7))], n=1)
def test_alias_fold_table_is_alias_fold_bit_for_bit(parts, n):
    # the table skips the zeros off the support, the scalar fold adds them
    f = combine(parts)
    exact = np.array([f.exact_coefficient(k) for k in f.support], dtype=np.complex128)
    table = _alias_fold_table(f.support, exact, n).tolist()
    cutoff = max(1, max(map(abs, f.support)))
    scalar = [alias_fold(f, n, m, cutoff) for m in range(-n, n)]
    # repr tells signed zeros apart
    assert [repr(z) for z in table] == [repr(z) for z in scalar]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    names=st.lists(SUITE_COMBO, min_size=1, max_size=3),
    largest=st.integers(64, 700),
    sizes=st.lists(st.integers(1, 700), max_size=3),
    mode_limit=st.integers(2, 40),
    seed=st.integers(0, 2**40),
)
def test_every_check_passes_on_random_suites(names, largest, sizes, mode_limit, seed):
    """Every check passes on each verify suite of this domain.

    - 1-3 functions, each a combo of 1-3 terms ``w*name``, with w a
      multiple of 0.001 in [-2, 2] and the name one of ``cos:1`` ..
      ``cos:5``, ``trig:-4`` .. ``trig:4`` and ``expcos``;
    - 1-4 grid sizes in 1 .. 700, the largest at least 64;
    - a mode limit in 2 .. 40 and a seed in 0 .. 2^40.

    The README lists each known family of false fails outside it.
    """
    cfg = SuiteConfig(function_names=names, grid_sizes=(*sizes, largest), mode_limit=mode_limit, seed=seed)
    failed = [(r.check_name, r.worst_residual) for r in run_lemma_suite(cfg) if r.status != "pass"]
    assert not failed, (cfg, failed)
