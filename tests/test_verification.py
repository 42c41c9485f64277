import collections
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from _oracles import (
    per_n_sup_errors,
    reference_random_values,
    reference_symbol_sweep,
    reference_worst,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfourier import continuous_fourier, discrete_fourier, spectral_bounds, verification
from gridfourier.functions import DEFAULT_CATALOG, get_function
from gridfourier.grid import build_grid, sample
from gridfourier.verification import (
    CHECK_NAMES,
    CHECKS,
    Check,
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


def test_reduction_rejects_unknown_check(monkeypatch):
    def run(suite):
        yield "not_a_check", 0.0, WorstLocation()

    table = (Check("ftc", "telescoping-fundamental-identity", 1e-12, run),)
    monkeypatch.setattr(verification, "CHECKS", table)
    with pytest.raises(KeyError, match="not_a_check"):
        run_lemma_suite(SMALL)


# residuals a ranking can get wrong: NaN, signed zeros and infinities,
# subnormals, and values drawn often enough to tie exactly
_EDGE_RESIDUALS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1030, 1.0, -1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("ftc", "parts")),
            st.one_of(st.sampled_from(_EDGE_RESIDUALS), st.floats(allow_subnormal=True)),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_reduction_picks_the_oracle_worst_case(drawn):
    # each candidate's location is its position, so a pick names its candidate
    candidates = [(name, residual, WorstLocation(m=k)) for k, (name, residual) in enumerate(drawn)]

    def run(suite):
        return iter(candidates)

    table = tuple(Check(name, "claim", 1.0, run) for name in dict.fromkeys(n for n, _ in drawn))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "CHECKS", table)
        reports = run_lemma_suite(SMALL)
    got = {r.check_name: (r.worst_residual.hex(), r.worst_location) for r in reports}
    want = reference_worst(candidates)
    assert got == {name: (residual.hex(), loc) for name, (residual, loc) in want.items()}


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
    for mode_limit in (0, 1):
        # below the smallest M-test order, m_test_domination has no candidate
        with pytest.raises(ValueError, match="mode_limit"):
            run_lemma_suite(SuiteConfig(mode_limit=mode_limit))
    for bad in (
        {"tolerance_overrides": {"ftc": math.nan}},
        {"tolerance_overrides": {"ftc": math.inf}},
        {"epsilons": (math.nan,)},
        {"epsilons": (0.1, math.inf)},
    ):
        with pytest.raises(ValueError, match="must be finite"):
            run_lemma_suite(SuiteConfig(**bad))
    # a size that is not an integer is refused by name, not truncated
    for bad in (4.5, 4.0, np.float64(16.0), True):
        with pytest.raises(ValueError, match=re.escape(f"grid size must be an integer, got {bad!r}")):
            run_lemma_suite(SuiteConfig(grid_sizes=(bad, 16)))
    cfg = SMALL.replace(grid_sizes=(np.int64(4),))
    assert _serialize(run_lemma_suite(cfg)) == _serialize(run_lemma_suite(SMALL))


@pytest.mark.parametrize("field", ["mode_limit", "seed"])
@pytest.mark.parametrize("bad", [31.9, math.nan, True], ids=["31.9", "nan", "True"])
def test_non_integral_mode_limit_or_seed_is_refused_before_the_suite(monkeypatch, field, bad):
    # refused by name, not truncated (31.9), left without an M-test order
    # (nan) or read as 1 (True), and before any sample is taken
    def refuse(*args):
        raise AssertionError("built the suite before refusing the config")

    monkeypatch.setattr(verification, "_build_suite", refuse)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
        run_lemma_suite(SMALL.replace(**{field: bad}))


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


@pytest.fixture
def sampled(monkeypatch):
    """A Counter of the cells the engine samples, by (function name, n)."""
    counts = collections.Counter()

    def counting(f, grid):
        counts[(f.name, grid.n)] += 1
        return sample(f, grid)

    monkeypatch.setattr(verification, "sample", counting)
    monkeypatch.setattr(continuous_fourier, "sample", counting)
    return counts


def test_each_catalog_cell_is_sampled_once(sampled):
    # every check reads the samples the engine already holds
    run_lemma_suite(SuiteConfig())
    assert sampled and set(sampled.values()) == {1}, sampled


@pytest.mark.parametrize("epsilons, tail_grids", [((0.1, 0.01), (4096,)), ((1e-300,), ())])
def test_only_grids_that_a_check_reads_are_sampled(sampled, epsilons, tail_grids):
    # each catalog cell and each tail grid a tail check reads, once; every
    # tail check of epsilon 1e-300 is vacuous, so it reads no tail grid
    cfg = SuiteConfig(epsilons=epsilons)
    run_lemma_suite(cfg)
    sizes = (*cfg.grid_sizes, *tail_grids)
    assert sampled == collections.Counter((name, n) for name in cfg.function_names for n in sizes)


# at epsilons 0.1 and 0.01, cos:1, trig:1 and expcos read their 256 grid
# and then their 4096 grid; trig:3 reads only its 4096 grid, at 0.1
_TAIL_256 = [(name, 256) for name in ("cos:1", "trig:1", "expcos")]
_TAIL_4096 = [(name, 4096) for name in DEFAULT_CATALOG]


@pytest.mark.parametrize("sizes, epsilons, tail_cells", [
    ((4, 16, 64, 256), (0.1, 0.01), _TAIL_4096),
    # two epsilons that share each 4096 grid; trig:3's tails are vacuous at both
    ((4, 16, 64, 256), (0.01, 0.02), [cell for cell in _TAIL_4096 if cell[0] != "trig:3"]),
    ((3, 100), (0.1, 0.01), _TAIL_256 + _TAIL_4096),
    ((4, 16, 64, 256, 4096), (0.1, 0.01), []),
])
def test_each_cell_is_sampled_once_and_held_while_a_runner_reads_it(
    sampled, sizes, epsilons, tail_cells
):
    # a tail grid off the grid sizes is dropped once the tail runner is done
    # with it; every cell at a grid size is held to the end of the run
    suite = verification._build_suite(SuiteConfig(grid_sizes=sizes, epsilons=epsilons))
    held = {(name, n) for name in suite.fns for n in suite.ns}
    for run in _RUNNERS:
        list(run(suite))
        if run is verification._tails:
            assert set(suite.cells) == held
    assert set(suite.cells) == held
    assert sampled == collections.Counter([*held, *tail_cells])


@pytest.mark.parametrize("name", ["expcos", "trig:40", "combo:0.5*cos:3+2*trig:-70"])
def test_alias_reads_each_exact_coefficient_once(name):
    # the folds of every grid size share one coefficient vector; the limit
    # runner then reads each convergence mode once, all of them within the
    # smallest grid's modes -3 .. 2, and m = 0 once more for the integral
    cfg = SuiteConfig(function_names=(name,), grid_sizes=(3, 4, 16, 64, 100))
    suite = verification._build_suite(cfg)
    f = suite.fns[name]
    calls = collections.Counter()

    def counting(m):
        calls[m] += 1
        return f.exact_coefficient(m)

    suite.fns[name] = f.replace(exact_coefficient=counting)
    rows = [loc.n for check, _, loc in verification._limits(suite) if check == "alias_oracle"]
    assert rows == list(cfg.grid_sizes)
    assert calls == collections.Counter([*f.support, *verification.CONVERGENCE_MODES, 0])


def test_hypot_is_the_scalar_abs_of_a_complex_value():
    # the limit runner's np.hypot is the libm call behind Python's complex abs,
    # which np.abs misses by an ulp on about a third of these random values
    rng = np.random.default_rng(2026)
    size = 100_000
    scale = 10.0 ** rng.uniform(-300, 300, size)
    values = rng.standard_normal(size) * scale + 1j * rng.standard_normal(size) * scale
    # and the differences the runner reads: each catalog spectrum, at every
    # grid size and at the tail grid, minus its alias fold
    suite = verification._build_suite(SuiteConfig(function_names=(*DEFAULT_CATALOG, "trig:3488")))
    diffs = []
    for name, f in suite.fns.items():
        exact = np.array([f.exact_coefficient(k) for k in f.support], dtype=np.complex128)
        for n in (*suite.ns, verification.TAIL_BIG_GRID):
            folded = discrete_fourier._alias_fold_table(f.support, exact, n)
            diffs.append(suite.cell(name, n)[1].coefficients - folded)
    for z in (values, *diffs):
        assert np.hypot(z.real, z.imag).tolist() == [abs(w) for w in z.tolist()]


def test_alias_runner_memory_does_not_grow_with_the_mode():
    # one coefficient per support mode: nothing of size k for trig:1000000,
    # with the runner's cells made inside the measured call
    suite = verification._build_suite(SuiteConfig(function_names=("trig:1000000",)))
    tracemalloc.start()
    try:
        rows = list(verification._limits(suite))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [loc.n for check, _, loc in rows if check == "alias_oracle"] == suite.ns
    assert peak < 2**20


@functools.lru_cache(maxsize=None)
def _default_rows():
    suite = verification._build_suite(SuiteConfig())
    return suite, {r.check_name: r for r in run_lemma_suite(SuiteConfig())}


_RUNNERS = tuple(dict.fromkeys(check.run for check in CHECKS))
_RUNNER_CHECKS = {run: frozenset(c.name for c in CHECKS if c.run is run) for run in _RUNNERS}
# each step that a runner joins with others, checked on its own under the
# name of the runner that once ran it alone
_STEPS = {
    "_uniform_bounds": {"F_bound", "g2_bound"},
    "_decay": {"decay_H"},
    "_alias": {"alias_oracle"},
    "_coeff_convergence": {"coeff_convergence"},
    "_darboux": {"integral_darboux"},
}
_CASES = {run.__name__: (run, checks) for run, checks in _RUNNER_CHECKS.items()} | {
    step: (next(run for run, checks in _RUNNER_CHECKS.items() if own <= checks), own)
    for step, own in _STEPS.items()
}


@pytest.mark.parametrize("run, own", _CASES.values(), ids=_CASES.keys())
def test_each_runner_alone_gives_its_rows_of_the_full_report(run, own):
    suite, full = _default_rows()
    rows = []
    for name, residual, loc in run(suite):
        assert name in _RUNNER_CHECKS[run], f"{run.__name__} yields {name}, a row of another runner"
        if name in own:
            rows.append((name, residual, loc))
    worst = reference_worst(rows)
    assert set(worst) == own
    for name, (residual, loc) in worst.items():
        assert repr(residual) == repr(full[name].worst_residual), name
        assert loc == full[name].worst_location, name


def test_nan_residual_is_never_dropped(monkeypatch):
    # a NaN arriving after a finite candidate must rank worst, not lose
    # every comparison and leave the check reported as a pass
    real_gap = verification._integral_gap

    def gap(f, gf):
        return math.nan if f.name == "trig:1" else real_gap(f, gf)

    monkeypatch.setattr(verification, "_integral_gap", gap)
    cfg = SuiteConfig(function_names=("cos:1", "trig:1"), grid_sizes=(4,), mode_limit=3, seed=7)
    reports = {r.check_name: r for r in run_lemma_suite(cfg)}
    darboux = reports["integral_darboux"]
    assert darboux.status == "fail"
    assert math.isnan(darboux.worst_residual)
    assert darboux.worst_location.function == "trig:1"
    assert all(r.status == "pass" for name, r in reports.items() if name != "integral_darboux")


def test_nan_negative_tail_is_never_dropped(monkeypatch):
    # both tail ranges are offered, so a NaN on the negative side fails the check
    real_tail_sum = verification.tail_sum

    def tail_sum(spec, L, Lp):
        return math.nan if L < 0 else real_tail_sum(spec, L, Lp)

    monkeypatch.setattr(verification, "tail_sum", tail_sum)
    cfg = SuiteConfig(function_names=("cos:1",), grid_sizes=(4,), mode_limit=3, seed=7)
    tails = {r.check_name: r for r in run_lemma_suite(cfg)}["tail_eps"]
    assert tails.status == "fail"
    assert math.isnan(tails.worst_residual)
    assert tails.worst_location.m < 0


# two functions, two grid sizes and two M-test orders give every check at
# least two candidates, so a NaN can sit between two of them
_NAN_CFG = SuiteConfig(
    function_names=("cos:1", "trig:1"), grid_sizes=(4, 16), mode_limit=4, epsilons=(0.5,), seed=7
)
_NAN_LOC = WorstLocation("injected-nan")


@functools.lru_cache(maxsize=None)
def _nan_cfg_rows():
    """Each runner's candidates on _NAN_CFG, and the suite's reports as JSON by check."""
    suite = verification._build_suite(_NAN_CFG)
    rows = {run: tuple(run(suite)) for run in _RUNNERS}
    return rows, {r.check_name: json.dumps(r.to_dict()) for r in run_lemma_suite(_NAN_CFG)}


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("check", CHECK_NAMES)
def test_a_nan_candidate_fails_exactly_its_check(monkeypatch, check, position):
    # every runner replays its candidates, with one NaN among those of check
    rows, baseline = _nan_cfg_rows()

    def replay(run):
        def patched(suite):
            out = list(rows[run])
            own = [k for k, row in enumerate(out) if row[0] == check]
            if own:
                at = {"first": own[0], "middle": own[len(own) // 2], "last": own[-1] + 1}
                out.insert(at[position], (check, math.nan, _NAN_LOC))
            return iter(out)

        return patched

    patched = {run: replay(run) for run in rows}
    table = tuple(c.replace(run=patched[c.run]) for c in CHECKS)
    monkeypatch.setattr(verification, "CHECKS", table)
    reports = {r.check_name: r for r in run_lemma_suite(_NAN_CFG)}
    assert [name for name, r in reports.items() if r.status == "fail"] == [check]
    assert math.isnan(reports[check].worst_residual)
    assert reports[check].worst_location == _NAN_LOC
    others = {name: json.dumps(r.to_dict()) for name, r in reports.items() if name != check}
    assert others == {name: text for name, text in baseline.items() if name != check}


def test_symbol_sweep_reads_canonical_order_without_reordering(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the symbol sweep reorders a mode array")

    suite, full = _default_rows()
    monkeypatch.setattr(verification, "_worst_mode", refuse)
    worst = reference_worst(verification._symbol_sweep(suite))
    for name, (residual, loc) in worst.items():
        assert (residual, loc) == (full[name].worst_residual, full[name].worst_location)


def test_symbol_sweep_never_orders_the_modes(monkeypatch):
    # the block arrays are already in canonical order: no mode array is built
    suite, _ = _default_rows()
    cases = [(ns, _reference_worst(ns)) for ns in ([4, 16, 64, 256], [1, 2, 513, 1000])]

    def refuse(*args, **kwargs):
        raise AssertionError("the symbol sweep builds a mode order")

    monkeypatch.setattr(spectral_bounds, "canonical_mode_order", refuse)
    # also under the name an import into verification would bind
    monkeypatch.setattr(verification, "canonical_mode_order", refuse, raising=False)
    for ns, want in cases:
        assert _sweep_worst(suite.replace(ns=ns)) == want


def test_phi_psi_mag_compares_two_symbol_evaluations(monkeypatch):
    # phi is evaluated on its own, so a perturbed phi fails the conjugacy half
    real = verification.adjoint_symbol
    monkeypatch.setattr(verification, "adjoint_symbol", lambda n, m: real(n, m) * np.exp(1e-9j))
    reports = {r.check_name: r for r in run_lemma_suite(SMALL)}
    assert reports["phi_psi_mag"].status == "fail"
    assert reports["phi_psi_mag"].worst_residual > 1e-10
    assert all(r.status == "pass" for name, r in reports.items() if name != "phi_psi_mag")


def test_phi_psi_mag_fails_on_a_perturbed_psi(monkeypatch):
    # the pair's one conjugacy value compares psi against the separate phi
    real = verification.forward_symbol
    monkeypatch.setattr(verification, "forward_symbol", lambda n, m: real(n, m) * np.exp(1e-9j))
    reports = {r.check_name: r for r in run_lemma_suite(SMALL)}
    assert reports["phi_psi_mag"].status == "fail"
    assert reports["phi_psi_mag"].worst_residual > 1e-10
    assert all(r.status == "pass" for name, r in reports.items() if name != "phi_psi_mag")


def _sweep_worst(suite):
    """Each sweep check's worst case, (residual bits, location), through the reference fold."""
    worst = reference_worst(verification._symbol_sweep(suite))
    return {name: (residual.hex(), loc) for name, (residual, loc) in worst.items()}


def _reference_worst(ns):
    """The per-size oracle's candidates over the swept sizes, through the reference fold."""
    sizes = set(range(1, verification.SYMBOL_SWEEP_MAX + 1)) | set(ns)
    worst = reference_worst(
        (name, residual, WorstLocation(None, n, m))
        for name, residual, n, m in reference_symbol_sweep(sizes)
    )
    return {name: (residual.hex(), loc) for name, (residual, loc) in worst.items()}


# 257 pairs cut through sizes; the default block holds several whole sizes
# below 64 and cuts every size above 2**11 into several blocks
_BLOCK_PAIRS = [257, verification._SWEEP_BLOCK_PAIRS]


@pytest.mark.parametrize("block_pairs", _BLOCK_PAIRS)
@pytest.mark.parametrize("ns", [[4, 16, 64, 256], [513, 1000, 4096]])
def test_symbol_sweep_candidates_equal_the_per_n_oracle(monkeypatch, block_pairs, ns):
    # the worst case of the block candidates is that of the per-size ones,
    # value bits and mode
    monkeypatch.setattr(verification, "_SWEEP_BLOCK_PAIRS", block_pairs)
    suite, _ = _default_rows()
    assert _sweep_worst(suite.replace(ns=ns)) == _reference_worst(ns)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.lists(st.integers(1, 4096), min_size=1, max_size=5))
def test_symbol_sweep_on_random_sizes_equals_the_per_n_oracle(ns):
    suite, _ = _default_rows()
    want = _reference_worst(ns)
    for block_pairs in _BLOCK_PAIRS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verification, "_SWEEP_BLOCK_PAIRS", block_pairs)
            assert _sweep_worst(suite.replace(ns=ns)) == want, block_pairs


@pytest.mark.parametrize("block_pairs", _BLOCK_PAIRS)
def test_symbol_sweep_reports_the_first_of_two_nans(monkeypatch, block_pairs):
    # psi_n(+j) is NaN at (100, 7) and at (300, 5), pairs 5056 and 45154 of
    # the sweep, which lie in different blocks; the first one is the worst
    real = verification.forward_symbol

    def poisoned(n, m):
        return np.where((n == 100) & (m == 7) | (n == 300) & (m == 5), np.nan, real(n, m))

    monkeypatch.setattr(verification, "forward_symbol", poisoned)
    monkeypatch.setattr(verification, "_SWEEP_BLOCK_PAIRS", block_pairs)
    suite, _ = _default_rows()
    worst = _sweep_worst(suite)
    assert worst["psi_lower"] == (math.nan.hex(), WorstLocation(None, 100, 7))
    assert worst["phi_psi_mag"] == (math.nan.hex(), WorstLocation(None, 100, -7))


def _peak_bytes(run) -> int:
    """Peak traced bytes of a second call of run, after one warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_symbol_sweep_memory_stays_in_blocks():
    suite, _ = _default_rows()
    assert _peak_bytes(lambda: list(verification._symbol_sweep(suite))) <= 2**19


def test_symbol_sweep_memory_does_not_grow_with_the_size():
    # one size of 65537 pairs is swept in blocks like any other
    suite, _ = _default_rows()
    suite = suite.replace(ns=[65536])
    assert _peak_bytes(lambda: list(verification._symbol_sweep(suite))) <= 2**19


def test_m_test_memory_stays_in_chunks():
    suite, _ = _default_rows()
    assert _peak_bytes(lambda: list(verification._m_test(suite))) < 2**19


def test_default_suite_memory_holds_no_tail_grid_past_the_tail_runner():
    # the four 4096-point tail cells alone take 1 MiB
    assert _peak_bytes(lambda: run_lemma_suite(SuiteConfig())) < 2**20


def test_dft_runner_holds_at_most_one_earlier_random_draw(monkeypatch):
    # the loop still holds the draw it last read while it makes the next one
    draw = verification.random_grid_function
    alive_at_draw, earlier = [], []

    def watched(seed, stream, *key, **part):
        gf = draw(seed, stream, *key, **part)
        if stream == "dft":
            alive_at_draw.append(sum(ref() is not None for ref in earlier))
            earlier.append(weakref.ref(gf.values))
        return gf

    monkeypatch.setattr(verification, "random_grid_function", watched)
    suite = verification._build_suite(SuiteConfig())
    list(verification._dft_identities(suite))
    assert len(alive_at_draw) == len(suite.ns) * verification.DFT_RANDOM_REPS == 16
    assert max(alive_at_draw) <= 1


@pytest.mark.parametrize("chunk_cells", [continuous_fourier._CHUNK_CELLS, 2**14, 33 * 100])
def test_m_test_rows_bit_equal_to_per_n_oracle(monkeypatch, chunk_cells):
    # 33 modes at 2049 points: chunks four times the default give the same
    # bits, and the last table takes chunks of 100 columns, the last of
    # which holds 49
    monkeypatch.setattr(continuous_fourier, "_CHUNK_CELLS", chunk_cells)
    names = (*DEFAULT_CATALOG, "combo:0.731*trig:0+1.9*cos:2")
    suite = verification._build_suite(SuiteConfig(function_names=names, grid_sizes=(4,)))
    orders = list(verification.MTEST_ORDERS)
    want = []
    for name, f in suite.fns.items():
        errs = per_n_sup_errors(f, orders, continuous_fourier.SUP_ERROR_SAMPLES)
        bounds = continuous_fourier.m_test_majorants(suite.consts[name].H, orders).tolist()
        for N, err, bound in zip(orders, errs, bounds):
            want.append((err - bound, WorstLocation(name, None, N)))
    got = [(residual, loc) for _, residual, loc in verification._m_test(suite)]
    assert got == want


def test_random_generator_reproducible():
    a = random_grid_function(42, "inversion", 8, 3)
    b = random_grid_function(42, "inversion", 8, 3)
    c = random_grid_function(42, "inversion", 8, 4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.max(np.abs(a.values.real)) <= 1.0
    assert np.max(np.abs(a.values.imag)) <= 1.0


STREAM_IDS = {"inversion": 1, "calculus": 2, "dft": 3}


@pytest.mark.parametrize(
    "seed, stream, n, rep, part",
    [
        (0, "inversion", 1, 0, 0),
        (42, "calculus", 16, 7, 1),
        (7, "dft", 100, 3, 0),
        (12345678901, "inversion", 5, 2, 0),
        (2**64, "calculus", 4, 0, 1),
        (3 + 2**130, "dft", 3, 1, 0),
        (2**64 - 1, "dft", 2, 2**64 - 1, 2**64 - 1),
    ],
)
def test_random_grid_function_is_bit_equal_to_the_splitmix64_reference(seed, stream, n, rep, part):
    got = random_grid_function(seed, stream, n, rep, part).values
    want = np.array(reference_random_values(seed, STREAM_IDS[stream], n, rep, part))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_random_grid_function_is_bit_equal_to_the_reference_at_both_ends_of_the_largest_grid():
    n = 65536
    got = random_grid_function(5, "dft", n, 3).values
    want = np.array(reference_random_values(5, STREAM_IDS["dft"], n, 3, 0))
    # the first and last values of the real and the imaginary half
    for part in (slice(0, 8), slice(2 * n - 8, 2 * n)):
        assert got[part].view(np.uint64).tolist() == want[part].view(np.uint64).tolist()
    assert np.array_equal(got, want)


def test_distinct_random_keys_draw_distinct_values():
    keys = [
        (5, "dft", 8, 0, 0),
        (6, "dft", 8, 0, 0),
        (5 + 2**64, "dft", 8, 0, 0),  # the two seeds differ only above bit 64
        (5 + 2**70, "dft", 8, 0, 0),
        (0, "dft", 8, 0, 0),
        (2**64, "dft", 8, 0, 0),
        (5, "inversion", 8, 0, 0),
        (5, "calculus", 8, 0, 0),
        (5, "dft", 8, 1, 0),
        (5, "dft", 8, 0, 1),
    ]
    draws = [random_grid_function(*key).values for key in keys]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j]), (keys[i], keys[j])
    # a different grid size draws a different stream, not a prefix of the same one
    assert not np.array_equal(random_grid_function(5, "dft", 4, 0).values, draws[0][:8])


@pytest.mark.parametrize("n", [1, 3, 256, 65536])
def test_random_values_lie_in_the_half_open_unit_square_and_draw_without_warnings(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            values = random_grid_function(2**64 + 9, "calculus", n, 5, 1).values
    parts = np.concatenate([values.real, values.imag])
    assert np.all(parts >= -1.0) and np.all(parts < 1.0)
    # 53-bit resolution: every value is -1 plus a multiple of 2^-52
    assert np.array_equal(np.ldexp(parts + 1.0, 52), np.floor(np.ldexp(parts + 1.0, 52)))


def test_unknown_random_stream_is_a_value_error_naming_the_known_streams():
    with pytest.raises(ValueError, match="'nosuch'.*inversion, calculus, dft"):
        random_grid_function(0, "nosuch", 4, 0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"seed": -1}, "seed must be nonnegative, got -1", id="seed-kwargs0"),
        pytest.param({"seed": 1.0}, "seed must be an integer, got 1.0", id="seed-kwargs1"),
        pytest.param({"seed": "3"}, "seed must be an integer, got '3'", id="seed-kwargs2"),
        pytest.param({"rep": -1}, "rep -1 outside [0, 18446744073709551615]", id="rep-kwargs3"),
        pytest.param({"rep": 0.5}, "rep must be an integer, got 0.5", id="rep-kwargs4"),
        pytest.param({"rep": 2**64}, "rep 18446744073709551616 outside [0, 18446744073709551615]",
                     id="rep-kwargs5"),
        pytest.param({"part": -2}, "part -2 outside [0, 18446744073709551615]", id="part-kwargs6"),
        pytest.param({"part": None}, "part must be an integer, got None", id="part-kwargs7"),
        pytest.param({"part": True}, "part must be an integer, got True", id="part-kwargs8"),
    ],
)
def test_bad_random_key_argument_is_a_value_error_naming_it(kwargs, message):
    key = {"seed": 1, "stream": "dft", "n": 4, "rep": 0, "part": 0, **kwargs}
    with pytest.raises(ValueError) as info:
        random_grid_function(**key)
    assert str(info.value) == message


def test_verify_leaves_numpy_random_and_hashlib_unloaded():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import contextlib, io, sys, gridfourier.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = gridfourier.cli.main(['verify'])\n"
        "print(code, *(m in sys.modules for m in ('numpy.random', 'secrets', 'hashlib')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False", "False"]


def test_check_rows_and_suite_context_are_records():
    check = CHECKS[0]
    with pytest.raises(AttributeError):
        check.tolerance = 1.0
    assert check.replace(tolerance=2.0) == CHECKS[0].replace(tolerance=2.0) != check
    # reports come in name order, which the rows carry no longer as tuples
    assert [r.check_name for r in run_lemma_suite(SMALL)] == sorted(CHECK_NAMES)
    suite = verification._build_suite(SMALL)
    assert suite.replace(ns=[8]).ns == [8] and suite.ns == [4]


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
    # an order that is not an integer is refused by name, not truncated
    for orders, bad in (([1.5, 2.9], 1.5), ([1, 2.0], 2.0), ([np.float64(3.0)], np.float64(3.0)),
                        ([True, 2], True)):
        with pytest.raises(ValueError, match=re.escape(f"truncation order must be an integer, got {bad!r}")):
            run_convergence("cos:1", orders)
    assert run_convergence("cos:1", [np.int64(1), np.int32(3)]) == run_convergence("cos:1", [1, 3])


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


@pytest.mark.parametrize("name", ["expcos", "cos:1", "combo:0.5*trig:0+-0.5*cos:2"])
@pytest.mark.parametrize("n", [1, 4, 4096])
def test_run_spectrum_decay_rows_equal_scalar_form(name, n):
    # the array form keeps the scalar abs and the bits of H / float(m * m)
    f = get_function(name)
    H = verification.bound_constants(f).H
    spec = verification.discrete_coefficients(sample(f, build_grid(n)))
    want = [(m, abs(spec.coeff(m)), H / float(m * m)) for m in range(-n, n) if m != 0]
    assert repr(run_spectrum_decay(name, n)) == repr(want)


@pytest.mark.parametrize("n", [1, 2, 5, verification._DECAY_BLOCK + 3])
def test_decay_table_iterates_the_rows_once_in_order(n):
    # the CLI writes this iterator; the last n crosses a block boundary on both signs
    rows = verification._decay_table("expcos", n)
    assert iter(rows) is rows
    assert [next(rows) for _ in range(2 * n - 1)] == run_spectrum_decay("expcos", n)
    assert next(rows, None) is None


def test_run_spectrum_decay_validation():
    with pytest.raises(ValueError):
        run_spectrum_decay("nosuch", 8)
    with pytest.raises(ValueError):
        run_spectrum_decay("cos:1", 0)
    with pytest.raises(ValueError, match="65536"):
        run_spectrum_decay("cos:1", 2**16 + 1)
