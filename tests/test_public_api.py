"""The public names, and the one rule every integer argument meets.

Every name a module exports resolves, and star-import works for each
module.  An integer argument (a grid size, mode, index, order, sample
count or random-stream key) is an int or a numpy integer: a float, even
an integral one, a NaN and a bool are refused with a ValueError that
names the value, at the public entry.  NaN decay constants and
tolerances are refused in the same way.
"""

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridfourier
from gridfourier import (
    Grid,
    GridFunction,
    Spectrum,
    SuiteConfig,
    build_grid,
    coefficient,
    cosine,
    decay_bound_check,
    exp_cos,
    m_test_majorant,
    random_grid_function,
    reconstruct,
    rescale,
    run_convergence,
    run_lemma_suite,
    run_spectrum_decay,
    sup_error,
    tail_sum,
    tail_threshold,
    trig_monomial,
)
from gridfourier.continuous_fourier import m_test_majorants, sup_errors

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
    "product_rule_residual", "parts_residual", "decay_bound_check", "tail_threshold",
    "rescale", "RescaledFunction",
    # formulas in n and m, evaluated elementwise on arrays of sizes and of
    # modes; the symbol sweep also evaluates them at j = n, not a mode
    "forward_symbol", "adjoint_symbol",
    # result records, filled by the library from checked integers
    "DecayCheck", "ConvergenceRow", "WorstLocation", "LemmaReport",
    # checked by run_lemma_suite, whose calls above cover its integer fields
    "SuiteConfig",
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
    assert len(gridfourier.__all__) == 44 == len(set(gridfourier.__all__))
    namespace = {}
    exec("from gridfourier import *", namespace)
    assert [name for name in gridfourier.__all__ if name not in namespace] == []


def test_every_exported_callable_is_classified():
    # a label with a dot calls a method; the others call an exported name
    called = {label.split("-")[0] for label in INTEGER_CALLS if "." not in label}
    callables = {name for name in gridfourier.__all__ if callable(getattr(gridfourier, name))}
    assert called & NO_INTEGER_PARAMETER == set()
    assert called | NO_INTEGER_PARAMETER == callables | {"sup_errors"}


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SPECTRUM.coeff(4), "mode 4 outside [-4, 3]"),
        (lambda: SPECTRUM.coeff(np.int64(-5)), "mode -5 outside [-4, 3]"),
        (lambda: GF.at(-5), "grid index -5 outside [-4, 3]"),
        (lambda: GF.at(np.int32(4)), "grid index 4 outside [-4, 3]"),
    ],
    ids=["coeff-int", "coeff-int64", "at-int", "at-int32"],
)
def test_out_of_range_integers_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: m_test_majorant(math.nan, 2), "H must be nonnegative, got nan"),
        (lambda: m_test_majorants(math.nan, [2, 4]), "H must be nonnegative, got nan"),
        (lambda: tail_threshold(math.nan, 0.1), "H must be nonnegative, got nan"),
        (lambda: tail_threshold(1.0, math.nan), "epsilon must be positive, got nan"),
        (lambda: decay_bound_check(SPECTRUM, math.nan), "H must be nonnegative, got nan"),
        (lambda: m_test_majorant(math.inf, 2), "H must be finite, got inf"),
        (lambda: tail_threshold(math.inf, 0.1), "H must be finite, got inf"),
        (lambda: decay_bound_check(SPECTRUM, math.inf), "H must be finite, got inf"),
    ],
    ids=["m_test_majorant", "m_test_majorants", "tail_threshold-H", "tail_threshold-epsilon",
         "decay_bound_check", "m_test_majorant-inf", "tail_threshold-inf", "decay_bound_check-inf"],
)
def test_nan_constants_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_infinite_tail_threshold_stays_legal():
    # a finite H over a tiny epsilon: the vacuous tail case of the engine
    assert tail_threshold(1.0, 1e-320) == math.inf
