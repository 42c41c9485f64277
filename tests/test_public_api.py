"""The public names, and the one rule every integer argument meets.

Every name a module exports resolves, and star-import works for each
module.  The package exports the concatenation of its modules' lists, each
name listed once, in the module that defines it.  An integer argument (a
grid size, mode, index, order, sample count or random-stream key) is an
int or a numpy integer: a float, even an integral one, a NaN and a bool
are refused with a ValueError that names the value, at the public entry.
A bounded one is refused just outside each bound with the whole message
of ``grid._check_integer``, "... outside [low, high]" or "... must be >=
low, got ..." ("nonnegative" when low is 0), and admitted at the bound.
A decay constant, epsilon or tolerance that is NaN or not a real number
(a str, None, a complex or a bool) is refused in the same way, with the
value's repr.  So are a single string or a non-iterable given as one of a
``SuiteConfig``'s sequences, overrides that are not a mapping, and a
function name that is not a string.  A real argument meets one rule,
``grid._check_real``: it is refused unless a finite real >= 0 (> 0 for an
epsilon or a tolerance), an int beyond the float range too, and stored as
a float; a source scan keeps that rule the only test of a real's type.
"""

import ast
import importlib
import inspect
import math
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridfourier
from gridfourier import (
    BoundConstants,
    ConvergenceRow,
    Grid,
    GridFunction,
    Spectrum,
    SuiteConfig,
    build_grid,
    coefficient,
    cosine,
    decay_bound_check,
    exp_cos,
    get_function,
    m_test_majorant,
    m_test_majorants,
    random_grid_function,
    reconstruct,
    rescale,
    run_convergence,
    run_lemma_suite,
    run_spectrum_decay,
    sup_error,
    sup_errors,
    tail_sum,
    tail_threshold,
    trig_monomial,
)

MODULES = sorted(
    f"gridfourier.{info.name}"
    for info in pkgutil.iter_modules(gridfourier.__path__)
    if info.name != "__main__"  # running it starts the CLI
)

GF = GridFunction(build_grid(4), np.arange(8.0))
SPECTRUM = Spectrum(4, np.arange(8.0))
RESCALED = rescale(lambda x: math.cos(2 * math.pi * x / 3), 0.0, 3.0)
BARE_EXPCOS = exp_cos().replace(exact_coefficient=None)

# label -> the call with ``bad`` in one integer parameter; the label starts
# with the public name that is called
INTEGER_CALLS = {
    "Grid": lambda bad: Grid(bad),
    "build_grid": lambda bad: build_grid(bad),
    "GridFunction.at": lambda bad: GF.at(bad),
    "Spectrum": lambda bad: Spectrum(bad, np.zeros(4)),
    "Spectrum.coeff": lambda bad: SPECTRUM.coeff(bad),
    "trig_monomial": lambda bad: trig_monomial(bad),
    "cosine": lambda bad: cosine(bad),
    "tail_sum-L": lambda bad: tail_sum(SPECTRUM, bad, 3),
    "tail_sum-Lp": lambda bad: tail_sum(SPECTRUM, 1, bad),
    "coefficient-exact": lambda bad: coefficient(cosine(1), bad),
    "coefficient-quadrature": lambda bad: coefficient(BARE_EXPCOS, bad),
    "reconstruct": lambda bad: reconstruct(cosine(1), bad, 0.0),
    "sup_error-N": lambda bad: sup_error(cosine(1), bad),
    "sup_error-samples": lambda bad: sup_error(cosine(1), 2, samples=bad),
    "sup_errors-samples": lambda bad: sup_errors(cosine(1), [1], samples=bad),
    "m_test_majorant": lambda bad: m_test_majorant(1.0, bad),
    "m_test_majorants": lambda bad: m_test_majorants(1.0, [1, bad]),
    "RescaledFunction.coefficient_vector": lambda bad: RESCALED.coefficient_vector(bad),
    "RescaledFunction.reconstruct": lambda bad: RESCALED.reconstruct(bad, 1.0),
    "random_grid_function-seed": lambda bad: random_grid_function(bad, "dft", 4, 0),
    "random_grid_function-n": lambda bad: random_grid_function(0, "dft", bad, 0),
    "random_grid_function-rep": lambda bad: random_grid_function(0, "dft", 4, bad),
    "random_grid_function-part": lambda bad: random_grid_function(0, "dft", 4, 0, bad),
    "run_lemma_suite-grid_sizes": lambda bad: run_lemma_suite(SuiteConfig(grid_sizes=(4, bad))),
    "run_lemma_suite-mode_limit": lambda bad: run_lemma_suite(SuiteConfig(mode_limit=bad)),
    "run_lemma_suite-seed": lambda bad: run_lemma_suite(SuiteConfig(seed=bad)),
    "run_convergence-N": lambda bad: run_convergence("cos:1", [1, bad]),
    "run_convergence-samples": lambda bad: run_convergence("cos:1", [1], samples=bad),
    "run_spectrum_decay": lambda bad: run_spectrum_decay("cos:1", bad),
}

# the exported callables with no integer parameter
NO_INTEGER_PARAMETER = {
    # values, points, weights, tolerances and names
    "GridFunction", "sample", "integrate", "SmoothPeriodicFunction", "BoundConstants",
    "exp_cos", "combine", "bound_constants", "shift_to_zero_endpoints", "get_function",
    "discrete_coefficients", "invert", "derivative", "shift", "ftc_residual",
    "product_rule_residual", "parts_residual", "dft_identity_residual_arrays",
    "decay_bound_check", "tail_threshold", "rescale", "RescaledFunction",
    # formulas in n and m, evaluated elementwise on arrays of sizes and of
    # modes; the symbol sweep also evaluates them at j = n, not a mode
    "forward_symbol", "adjoint_symbol",
    # result records, filled by the library from checked integers
    "DecayCheck", "ConvergenceRow", "WorstLocation", "LemmaReport",
    # checked when built, which the run_lemma_suite calls above do with each
    # bad integer field
    "SuiteConfig",
    # a row of the check table: a name, a claim, a tolerance and a runner
    "Check",
}

NON_INTEGERS = st.one_of(
    st.floats(),
    st.booleans(),
    st.integers(-(2**53), 2**53).map(np.float64),
    st.floats(width=32).map(np.float32),
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves_and_star_import_works(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


def test_package_exports_resolve():
    assert len(gridfourier.__all__) == 49 == len(set(gridfourier.__all__))
    namespace = {}
    exec("from gridfourier import *", namespace)
    assert [name for name in gridfourier.__all__ if name not in namespace] == []


def test_package_exports_each_module_list_in_order():
    order = ("grid", "functions", "discrete_fourier", "discrete_calculus", "spectral_bounds",
             "continuous_fourier", "verification")
    modules = [importlib.import_module(f"gridfourier.{name}") for name in order]
    assert gridfourier.__all__ == [name for mod in modules for name in mod.__all__]
    for mod in modules:
        for name in mod.__all__:
            assert getattr(gridfourier, name) is getattr(mod, name), name


def test_every_exported_callable_is_classified():
    # a label with a dot calls a method; the others call an exported name
    called = {label.split("-")[0] for label in INTEGER_CALLS if "." not in label}
    callables = {name for name in gridfourier.__all__ if callable(getattr(gridfourier, name))}
    assert called & NO_INTEGER_PARAMETER == set()
    assert called | NO_INTEGER_PARAMETER == callables


@pytest.mark.parametrize("label", INTEGER_CALLS)
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(bad=NON_INTEGERS)
@example(bad=1.5)
@example(bad=math.nan)
@example(bad=True)
@example(bad=np.float64(2.0))
def test_integer_parameters_refuse_non_integers(label, bad):
    with pytest.raises(ValueError) as info:
        INTEGER_CALLS[label](bad)
    assert repr(bad) in str(info.value)


_WORD = 2**64 - 1

# label -> (a call with one bounded integer parameter just outside a bound,
# its whole refusal): one row per bound of every bounded parameter
OUT_OF_RANGE = {
    "coeff-int": (lambda: SPECTRUM.coeff(4), "mode 4 outside [-4, 3]"),
    "coeff-int64": (lambda: SPECTRUM.coeff(np.int64(-5)), "mode -5 outside [-4, 3]"),
    "at-int": (lambda: GF.at(-5), "grid index -5 outside [-4, 3]"),
    "at-int32": (lambda: GF.at(np.int32(4)), "grid index 4 outside [-4, 3]"),
    "Grid": (lambda: Grid(0), "grid size must be >= 1, got 0"),
    "build_grid": (lambda: build_grid(0), "grid size must be >= 1, got 0"),
    "Spectrum": (lambda: Spectrum(0, []), "spectrum size must be >= 1, got 0"),
    "trig_monomial-low": (lambda: trig_monomial(-(10**6) - 1),
                          "k -1000001 outside [-1000000, 1000000]"),
    "trig_monomial-high": (lambda: trig_monomial(10**6 + 1),
                           "k 1000001 outside [-1000000, 1000000]"),
    "cosine-low": (lambda: cosine(0), "k 0 outside [1, 1000000]"),
    "cosine-high": (lambda: cosine(10**6 + 1), "k 1000001 outside [1, 1000000]"),
    "tail_sum-L-low": (lambda: tail_sum(SPECTRUM, -5, -1), "L -5 outside [-4, 3]"),
    "tail_sum-L-high": (lambda: tail_sum(SPECTRUM, 4, 3), "L 4 outside [-4, 3]"),
    "tail_sum-Lp-low": (lambda: tail_sum(SPECTRUM, -1, -5), "Lp -5 outside [-4, 3]"),
    "tail_sum-Lp-high": (lambda: tail_sum(SPECTRUM, 1, 4), "Lp 4 outside [-4, 3]"),
    "reconstruct": (lambda: reconstruct(cosine(1), -1, 0.0),
                    "truncation order must be nonnegative, got -1"),
    "sup_error-N": (lambda: sup_error(cosine(1), -1),
                    "truncation order must be nonnegative, got -1"),
    "sup_error-samples": (lambda: sup_error(cosine(1), 2, samples=1),
                          "samples must be >= 2, got 1"),
    "sup_errors-samples": (lambda: sup_errors(cosine(1), [1], samples=1),
                           "samples must be >= 2, got 1"),
    "m_test_majorant": (lambda: m_test_majorant(1.0, 0), "truncation order must be >= 1, got 0"),
    "m_test_majorants": (lambda: m_test_majorants(1.0, [1, 0]),
                         "truncation order must be >= 1, got 0"),
    "RescaledFunction.coefficient_vector": (lambda: RESCALED.coefficient_vector(-1),
                                            "truncation order must be nonnegative, got -1"),
    "RescaledFunction.reconstruct": (lambda: RESCALED.reconstruct(-1, 1.0),
                                     "truncation order must be nonnegative, got -1"),
    "random_grid_function-seed": (lambda: random_grid_function(-1, "dft", 4, 0),
                                  "seed must be nonnegative, got -1"),
    "random_grid_function-n": (lambda: random_grid_function(0, "dft", 0, 0),
                               "grid size must be >= 1, got 0"),
    "random_grid_function-rep-low": (lambda: random_grid_function(0, "dft", 4, -1),
                                     f"rep -1 outside [0, {_WORD}]"),
    "random_grid_function-rep-high": (lambda: random_grid_function(0, "dft", 4, _WORD + 1),
                                      f"rep {_WORD + 1} outside [0, {_WORD}]"),
    "random_grid_function-part-low": (lambda: random_grid_function(0, "dft", 4, 0, -1),
                                      f"part -1 outside [0, {_WORD}]"),
    "random_grid_function-part-high": (lambda: random_grid_function(0, "dft", 4, 0, _WORD + 1),
                                       f"part {_WORD + 1} outside [0, {_WORD}]"),
    "run_lemma_suite-grid_sizes-low": (lambda: run_lemma_suite(SuiteConfig(grid_sizes=(4, 0))),
                                       "grid size 0 outside [1, 65536]"),
    "run_lemma_suite-grid_sizes-high": (
        lambda: run_lemma_suite(SuiteConfig(grid_sizes=(4, 65537))),
        "grid size 65537 outside [1, 65536]",
    ),
    "run_lemma_suite-mode_limit": (lambda: run_lemma_suite(SuiteConfig(mode_limit=1)),
                                   "mode_limit must be >= 2, got 1"),
    "run_lemma_suite-seed": (lambda: run_lemma_suite(SuiteConfig(seed=-1)),
                             "seed must be nonnegative, got -1"),
    "run_convergence-N": (lambda: run_convergence("cos:1", [0, 1]),
                          "truncation order must be >= 1, got 0"),
    "run_convergence-samples": (lambda: run_convergence("cos:1", [1], samples=1),
                                "samples must be >= 2, got 1"),
    "run_spectrum_decay-low": (lambda: run_spectrum_decay("cos:1", 0),
                               "grid size 0 outside [1, 65536]"),
    "run_spectrum_decay-high": (lambda: run_spectrum_decay("cos:1", 65537),
                                "grid size 65537 outside [1, 65536]"),
}

# label -> a cheap call with one bounded integer parameter at a bound
AT_THE_BOUND = {
    "Grid": lambda: Grid(1),
    "Spectrum": lambda: Spectrum(1, np.zeros(2)),
    "GridFunction.at": lambda: (GF.at(-4), GF.at(3)),
    "Spectrum.coeff": lambda: (SPECTRUM.coeff(-4), SPECTRUM.coeff(3)),
    "trig_monomial": lambda: (trig_monomial(-(10**6)), trig_monomial(10**6)),
    "cosine": lambda: (cosine(1), cosine(10**6)),
    "tail_sum": lambda: (tail_sum(SPECTRUM, -4, -1), tail_sum(SPECTRUM, 1, 3)),
    "reconstruct": lambda: reconstruct(cosine(1), 0, 0.0),
    "sup_errors": lambda: sup_errors(cosine(1), [0], samples=2),
    "m_test_majorants": lambda: m_test_majorants(1.0, [1]),
    "random_grid_function": lambda: random_grid_function(0, "dft", 1, _WORD, _WORD),
    "run_lemma_suite": lambda: run_lemma_suite(
        SuiteConfig(function_names=("cos:1",), grid_sizes=(1,), mode_limit=2, seed=0)
    ),
    "run_convergence": lambda: run_convergence("cos:1", [1], samples=2),
    "run_spectrum_decay": lambda: run_spectrum_decay("cos:1", 1),
}


@pytest.mark.parametrize("label", OUT_OF_RANGE)
def test_out_of_range_integers_keep_their_messages(label):
    call, message = OUT_OF_RANGE[label]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("label", AT_THE_BOUND)
def test_integers_at_their_bounds_are_admitted(label):
    AT_THE_BOUND[label]()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: m_test_majorant(math.nan, 2), "H must be finite and nonnegative, got nan"),
        (lambda: m_test_majorants(math.nan, [2, 4]), "H must be finite and nonnegative, got nan"),
        (lambda: tail_threshold(math.nan, 0.1), "H must be finite and nonnegative, got nan"),
        (lambda: tail_threshold(1.0, math.nan), "invalid epsilon: nan (must be finite and > 0)"),
        (lambda: decay_bound_check(SPECTRUM, math.nan), "H must be finite and nonnegative, got nan"),
        (lambda: m_test_majorant(math.inf, 2), "H must be finite and nonnegative, got inf"),
        (lambda: tail_threshold(math.inf, 0.1), "H must be finite and nonnegative, got inf"),
        (lambda: decay_bound_check(SPECTRUM, math.inf), "H must be finite and nonnegative, got inf"),
        (lambda: m_test_majorant("1", 2), "H must be finite and nonnegative, got '1'"),
        (lambda: m_test_majorants(None, [2, 4]), "H must be finite and nonnegative, got None"),
        (lambda: tail_threshold(1j, 0.1), "H must be finite and nonnegative, got 1j"),
        (lambda: tail_threshold(1.0, "0.1"), "invalid epsilon: '0.1' (must be finite and > 0)"),
        (lambda: tail_threshold(1.0, None), "invalid epsilon: None (must be finite and > 0)"),
        (lambda: decay_bound_check(SPECTRUM, 2 + 0j), "H must be finite and nonnegative, got (2+0j)"),
        (lambda: run_lemma_suite(SuiteConfig(epsilons=(0.1, None))),
         "invalid epsilon: None (must be finite and > 0)"),
        (lambda: run_lemma_suite(SuiteConfig(epsilons=("0.1",))),
         "invalid epsilon: '0.1' (must be finite and > 0)"),
        (lambda: run_lemma_suite(SuiteConfig(tolerance_overrides={"ftc": None})),
         "invalid tolerance override for ftc: None (must be finite and > 0)"),
        (lambda: run_lemma_suite(SuiteConfig(tolerance_overrides={"ftc": 1e-9j})),
         "invalid tolerance override for ftc: 1e-09j (must be finite and > 0)"),
        (lambda: run_lemma_suite(SuiteConfig(function_names="expcos")),
         "function_names must be a sequence of names, got 'expcos'"),
        (lambda: SuiteConfig(grid_sizes="4"), "grid_sizes must be a sequence of sizes, got '4'"),
        (lambda: SuiteConfig(epsilons="0.1"),
         "epsilons must be a sequence of numbers, got '0.1'"),
        (lambda: SuiteConfig(grid_sizes=4), "grid_sizes must be a sequence of sizes, got 4"),
        (lambda: SuiteConfig(epsilons=0.1), "epsilons must be a sequence of numbers, got 0.1"),
        (lambda: SuiteConfig(tolerance_overrides=[("ftc", 1.0)]),
         "tolerance_overrides must be a mapping, got [('ftc', 1.0)]"),
        (lambda: SuiteConfig(tolerance_overrides=None),
         "tolerance_overrides must be a mapping, got None"),
        (lambda: get_function(3), "unknown function name: 3"),
        (lambda: run_lemma_suite(SuiteConfig(function_names=("cos:1", 3))),
         "unknown function name: 3"),
        (lambda: m_test_majorant(True, 3), "H must be finite and nonnegative, got True"),
        (lambda: m_test_majorants(True, [2, 4]), "H must be finite and nonnegative, got True"),
        (lambda: tail_threshold(True, 0.1), "H must be finite and nonnegative, got True"),
        (lambda: tail_threshold(1.0, True), "invalid epsilon: True (must be finite and > 0)"),
        (lambda: decay_bound_check(SPECTRUM, True), "H must be finite and nonnegative, got True"),
        (lambda: SuiteConfig(epsilons=(0.1, True)),
         "invalid epsilon: True (must be finite and > 0)"),
        (lambda: SuiteConfig(tolerance_overrides={"ftc": True}),
         "invalid tolerance override for ftc: True (must be finite and > 0)"),
    ],
    ids=["m_test_majorant", "m_test_majorants", "tail_threshold-H", "tail_threshold-epsilon",
         "decay_bound_check", "m_test_majorant-inf", "tail_threshold-inf", "decay_bound_check-inf",
         "m_test_majorant-str", "m_test_majorants-None", "tail_threshold-H-complex",
         "tail_threshold-epsilon-str", "tail_threshold-epsilon-None", "decay_bound_check-complex",
         "run_lemma_suite-epsilon-None", "run_lemma_suite-epsilon-str",
         "run_lemma_suite-tolerance-None", "run_lemma_suite-tolerance-complex",
         "run_lemma_suite-function_names-str", "SuiteConfig-grid_sizes-str",
         "SuiteConfig-epsilons-str", "SuiteConfig-grid_sizes-int", "SuiteConfig-epsilons-float",
         "SuiteConfig-tolerance-pairs", "SuiteConfig-tolerance-None", "get_function-int",
         "run_lemma_suite-function_names-int", "m_test_majorant-bool", "m_test_majorants-bool",
         "tail_threshold-H-bool", "tail_threshold-epsilon-bool", "decay_bound_check-bool",
         "SuiteConfig-epsilon-bool", "SuiteConfig-tolerance-bool"],
)
def test_nan_constants_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_infinite_tail_threshold_stays_legal():
    # a finite H over a tiny epsilon: the vacuous tail case of the engine
    assert tail_threshold(1.0, 1e-320) == math.inf


HUGE = 10**400

# label -> (a call with one real argument refused by grid._check_real, its
# whole message); an int beyond the float range raised OverflowError at each
# of the six checks the rule replaced, and an infinite epsilon was admitted
REAL_FAULTS = {
    "m_test_majorant": (lambda: m_test_majorant(HUGE, 2),
                        f"H must be finite and nonnegative, got {HUGE!r}"),
    "m_test_majorants": (lambda: m_test_majorants(HUGE, [2, 4]),
                         f"H must be finite and nonnegative, got {HUGE!r}"),
    "tail_threshold-H": (lambda: tail_threshold(HUGE, 0.1),
                         f"H must be finite and nonnegative, got {HUGE!r}"),
    "decay_bound_check": (lambda: decay_bound_check(SPECTRUM, HUGE),
                          f"H must be finite and nonnegative, got {HUGE!r}"),
    "tail_threshold-epsilon": (lambda: tail_threshold(1.0, HUGE),
                               f"invalid epsilon: {HUGE!r} (must be finite and > 0)"),
    "tail_threshold-epsilon-inf": (lambda: tail_threshold(1.0, math.inf),
                                   "invalid epsilon: inf (must be finite and > 0)"),
    "SuiteConfig-epsilon": (lambda: SuiteConfig(epsilons=(0.1, HUGE)),
                            f"invalid epsilon: {HUGE!r} (must be finite and > 0)"),
    "SuiteConfig-tolerance": (
        lambda: SuiteConfig(tolerance_overrides={"ftc": HUGE}),
        f"invalid tolerance override for ftc: {HUGE!r} (must be finite and > 0)",
    ),
    "BoundConstants": (lambda: BoundConstants(1.0, 1.0, HUGE, 1.0, 1.0),
                       f"M must be finite and nonnegative, got {HUGE!r}"),
    "ConvergenceRow": (lambda: ConvergenceRow(1, 0.5, HUGE),
                       f"m_test_bound must be finite and nonnegative, got {HUGE!r}"),
}


@pytest.mark.parametrize("label", REAL_FAULTS)
def test_real_arguments_meet_one_rule(label):
    call, message = REAL_FAULTS[label]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_admitted_reals_are_stored_as_floats():
    # a numpy float32 is converted before it is compared, so it warns nowhere
    bc = BoundConstants(np.float32(0.5), 1, Fraction(3, 2), np.float64(5.5), np.int64(1))
    assert [(type(v), v) for v in bc.to_dict().values()] == [
        (float, 0.5), (float, 1.0), (float, 1.5), (float, 5.5), (float, 1.0)]
    row = ConvergenceRow(np.int64(2), np.float32(0.25), 1)
    assert (type(row.N), type(row.sup_error), type(row.m_test_bound)) == (int, float, float)
    cfg = SuiteConfig(epsilons=(np.float32(0.5), 1))
    assert [(type(eps), eps) for eps in cfg.epsilons] == [(float, 0.5), (float, 1.0)]
    assert tail_threshold(np.float32(1.0), np.float32(0.5)) == 5.0


SRC = Path(gridfourier.__file__).parent
# the call -> the (module, top-level function) pairs allowed to make it: the
# two rules of grid, the interval rule, and the sites that parse text
ALLOWED_CALLS = {
    "_is_integer": {("grid", "_check_integer")},
    "_is_real": {("grid", "_check_real"), ("continuous_fourier", "_check_interval")},
    "math.isfinite": {
        ("grid", "_check_real"), ("continuous_fourier", "_check_interval"),
        ("cli", "_demo_function"), ("functions", "get_function"),
    },
}


def _callers(tree: ast.Module, module: str):
    """(call, (module, top-level definition)) for each call of a name in ALLOWED_CALLS."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in ALLOWED_CALLS:
                    yield name, (module, getattr(top, "name", None))


def test_each_number_rule_is_written_once():
    found = {name: set() for name in ALLOWED_CALLS}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "_check_constant" not in text and "_make_function" not in text, path.name
        for name, site in _callers(ast.parse(text), path.stem):
            found[name].add(site)
    assert found == ALLOWED_CALLS


def test_numpy_floor_has_the_fft_out_argument():
    # the transform passes out= to np.fft.fft and np.fft.ifft, new in numpy 2.0;
    # read as text, since tomllib needs Python 3.11
    assert "out" in inspect.signature(np.fft.fft).parameters
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', text)
    assert tuple(map(int, floor.split("."))) >= (2, 0)
