import collections
import json
import math

import numpy as np
import pytest

from gridfourier import discrete_fourier, verification
from gridfourier.functions import get_function
from gridfourier.grid import build_grid, sample
from gridfourier.verification import (
    CHECK_NAMES,
    CHECKS,
    SuiteConfig,
    WorstLocation,
    random_grid_function,
    run_convergence,
    run_lemma_suite,
    run_spectrum_decay,
)

SMALL = SuiteConfig(
    function_names=("cos:1",),
    grid_sizes=(4,),
    mode_limit=3,
    epsilons=(0.5,),
    seed=7,
)

# the claims certified by the suite; the check table must cover exactly these
REQUIRED_CLAIMS = {
    "transform-roundtrip-exactness",
    "telescoping-fundamental-identity",
    "difference-product-rule",
    "summation-by-parts",
    "first-derivative-transform-identity",
    "second-derivative-transform-identity",
    "symbol-quadratic-lower-bound",
    "symbol-conjugacy-and-magnitude",
    "boundary-term-uniform-bound",
    "second-difference-spectrum-uniform-bound",
    "quadratic-coefficient-decay",
    "tail-sum-smallness",
    "alias-folding-identity",
    "grid-to-continuum-coefficient-limit",
    "grid-to-continuum-integral-limit",
    "uniform-convergence-majorant",
}


def _serialize(reports):
    return json.dumps([r.to_dict() for r in reports])


def test_minimal_suite_passes():
    cfg = SuiteConfig(function_names=("cos:1",), grid_sizes=(4,), mode_limit=3, seed=7)
    reports = run_lemma_suite(cfg)
    assert len(reports) == 16
    assert {r.check_name for r in reports} == set(CHECK_NAMES)
    assert all(r.status == "pass" for r in reports)
    names = [r.check_name for r in reports]
    assert names == sorted(names)
    tolerances = {check.name: check.tolerance for check in CHECKS}
    assert {r.check_name: r.tolerance_used for r in reports} == tolerances


def test_check_claim_table_is_total():
    assert CHECK_NAMES == tuple(check.name for check in CHECKS)
    assert len(set(CHECK_NAMES)) == len(CHECKS) == 16
    assert {check.claim for check in CHECKS} == REQUIRED_CLAIMS
    assert all(math.isfinite(check.tolerance) and check.tolerance > 0 for check in CHECKS)


def test_reduction_rejects_unknown_check():
    worst = {}
    with pytest.raises(KeyError, match="not_a_check"):
        verification._offer(worst, "not_a_check", 0.0, WorstLocation())
    assert worst == {}


def test_reports_deterministic_across_runs():
    first = _serialize(run_lemma_suite(SMALL))
    second = _serialize(run_lemma_suite(SMALL))
    assert first == second


def test_status_matches_tolerance():
    for r in run_lemma_suite(SMALL):
        assert (r.status == "pass") == (r.worst_residual <= r.tolerance_used)


def test_impossible_tolerance_fails_exactly_one_check():
    cfg = SuiteConfig(
        function_names=("cos:1",),
        grid_sizes=(4,),
        mode_limit=3,
        epsilons=(0.5,),
        seed=7,
        tolerance_overrides={"dft_identity_2": 1e-30},
    )
    reports = run_lemma_suite(cfg)
    failing = [r.check_name for r in reports if r.status == "fail"]
    assert failing == ["dft_identity_2"]
    baseline = {r.check_name: r.worst_residual for r in run_lemma_suite(SMALL)}
    for r in reports:
        assert r.worst_residual == baseline[r.check_name]


def test_config_validation():
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(function_names=()))
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(function_names=("nosuch",), grid_sizes=(4,)))
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(grid_sizes=(0,)))
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(tolerance_overrides={"dft_identity_2": -1.0}))
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(tolerance_overrides={"not_a_check": 1.0}))
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(epsilons=(0.0,)))
    with pytest.raises(ValueError):
        run_lemma_suite(SuiteConfig(mode_limit=0))
    for bad in (
        {"tolerance_overrides": {"ftc": math.nan}},
        {"tolerance_overrides": {"ftc": math.inf}},
        {"epsilons": (math.nan,)},
        {"epsilons": (0.1, math.inf)},
    ):
        with pytest.raises(ValueError, match="must be finite"):
            run_lemma_suite(SuiteConfig(**bad))


def test_grid_size_cap_is_checked_before_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the size check")

    monkeypatch.setattr(verification, "sample", refuse)
    monkeypatch.setattr(verification, "random_grid_function", refuse)
    for sizes in ((4, 2**16 + 1), (10**12,)):
        with pytest.raises(ValueError, match="65536"):
            run_lemma_suite(SuiteConfig(grid_sizes=sizes))


def test_each_catalog_sample_is_transformed_once(monkeypatch):
    # the transform-identity pass reads the spectrum the engine already holds
    forward_inputs = collections.Counter()
    real = discrete_fourier._shifted_dft

    def counting(values, n, sign):
        if sign < 0:
            forward_inputs[values.tobytes()] += 1
        return real(values, n, sign)

    monkeypatch.setattr(discrete_fourier, "_shifted_dft", counting)
    cfg = SuiteConfig()
    run_lemma_suite(cfg)
    for name in cfg.function_names:
        for n in cfg.grid_sizes:
            values = sample(get_function(name), build_grid(n)).values
            assert forward_inputs[values.tobytes()] == 1, (name, n)


def test_nan_residual_is_never_dropped(monkeypatch):
    # a NaN arriving after a finite candidate must rank worst, not lose
    # every comparison and leave the check reported as a pass
    real_gap = verification.integral_gap

    def gap(f, n):
        return math.nan if f.name == "trig:1" else real_gap(f, n)

    monkeypatch.setattr(verification, "integral_gap", gap)
    cfg = SuiteConfig(function_names=("cos:1", "trig:1"), grid_sizes=(4,), mode_limit=3, seed=7)
    reports = {r.check_name: r for r in run_lemma_suite(cfg)}
    darboux = reports["integral_darboux"]
    assert darboux.status == "fail"
    assert math.isnan(darboux.worst_residual)
    assert darboux.worst_location.function == "trig:1"
    assert all(r.status == "pass" for name, r in reports.items() if name != "integral_darboux")


def test_random_generator_reproducible():
    a = random_grid_function(42, "inversion", 8, 3)
    b = random_grid_function(42, "inversion", 8, 3)
    c = random_grid_function(42, "inversion", 8, 4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.max(np.abs(a.values.real)) <= 1.0
    assert np.max(np.abs(a.values.imag)) <= 1.0


def test_run_convergence_trig():
    rows = run_convergence("trig:2", [1, 2, 3], samples=512)
    assert [row.N for row in rows] == [1, 2, 3]
    assert rows[0].sup_error > 0.5
    assert rows[1].sup_error <= 1e-11
    assert rows[2].sup_error <= 1e-11


def test_run_convergence_exp_cos_strictly_improves():
    rows = run_convergence("expcos", [2, 4, 8, 16], samples=512)
    errs = [row.sup_error for row in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    for row in rows:
        assert row.sup_error <= row.m_test_bound


def test_run_convergence_empty():
    assert run_convergence("cos:1", []) == []


def test_run_convergence_validation():
    with pytest.raises(ValueError):
        run_convergence("nosuch", [1, 2])
    with pytest.raises(ValueError):
        run_convergence("cos:1", [2, 2])
    with pytest.raises(ValueError):
        run_convergence("cos:1", [0, 1])
    with pytest.raises(ValueError, match="phase matrix"):
        run_convergence("cos:1", [1, 1024])


def test_run_spectrum_decay_cosine():
    rows = run_spectrum_decay("cos:1", 16)
    assert len(rows) == 31  # 2n - 1 nonzero modes
    ms = [m for m, _, _ in rows]
    assert ms == sorted(ms) and 0 not in ms
    by_mode = {m: (a, b) for m, a, b in rows}
    abs_coeff, bound = by_mode[1]
    assert abs_coeff == pytest.approx(1.0, abs=1e-12)
    assert bound == pytest.approx(8.0686, abs=1e-3)
    assert bound >= 1.0


def test_run_spectrum_decay_constant():
    rows = run_spectrum_decay("trig:0", 8)
    assert all(abs_coeff <= 1e-12 for _, abs_coeff, _ in rows)


def test_run_spectrum_decay_bound_holds():
    for m, abs_coeff, bound in run_spectrum_decay("expcos", 64):
        assert abs_coeff <= bound, f"decay bound violated at m={m}"


def test_run_spectrum_decay_validation():
    with pytest.raises(ValueError):
        run_spectrum_decay("nosuch", 8)
    with pytest.raises(ValueError):
        run_spectrum_decay("cos:1", 0)
    with pytest.raises(ValueError, match="65536"):
        run_spectrum_decay("cos:1", 2**16 + 1)
