"""Finite-grid Fourier analysis on the circle modelled by [-1, 1).

The grid with points j/n (j = -n .. n-1) carries an exactly invertible
Fourier transform, a forward-difference calculus whose identities hold to
rounding, and explicit constants bounding coefficient decay; sweeping the
grid size turns those exact finite statements into convergence
experiments for the classical Fourier series.
"""

from .continuous_fourier import (
    ConvergenceRow,
    RescaledFunction,
    coefficient,
    m_test_majorant,
    reconstruct,
    rescale,
    sup_error,
)
from .discrete_calculus import (
    derivative,
    ftc_residual,
    parts_residual,
    product_rule_residual,
    shift,
)
from .discrete_fourier import Spectrum, discrete_coefficients, invert
from .functions import (
    BoundConstants,
    DEFAULT_CATALOG,
    SmoothPeriodicFunction,
    bound_constants,
    combine,
    cosine,
    exp_cos,
    get_function,
    shift_to_zero_endpoints,
    trig_monomial,
)
from .grid import Grid, GridFunction, build_grid, integrate, sample
from .spectral_bounds import (
    DecayCheck,
    adjoint_symbol,
    decay_bound_check,
    forward_symbol,
    tail_sum,
    tail_threshold,
)
from .verification import (
    CHECK_NAMES,
    LemmaReport,
    SuiteConfig,
    WorstLocation,
    random_grid_function,
    run_convergence,
    run_lemma_suite,
    run_spectrum_decay,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridFunction",
    "build_grid",
    "sample",
    "integrate",
    "SmoothPeriodicFunction",
    "BoundConstants",
    "trig_monomial",
    "cosine",
    "exp_cos",
    "combine",
    "bound_constants",
    "shift_to_zero_endpoints",
    "get_function",
    "DEFAULT_CATALOG",
    "Spectrum",
    "discrete_coefficients",
    "invert",
    "derivative",
    "shift",
    "ftc_residual",
    "product_rule_residual",
    "parts_residual",
    "DecayCheck",
    "forward_symbol",
    "adjoint_symbol",
    "tail_threshold",
    "tail_sum",
    "decay_bound_check",
    "ConvergenceRow",
    "RescaledFunction",
    "coefficient",
    "reconstruct",
    "sup_error",
    "m_test_majorant",
    "rescale",
    "CHECK_NAMES",
    "SuiteConfig",
    "WorstLocation",
    "LemmaReport",
    "random_grid_function",
    "run_lemma_suite",
    "run_convergence",
    "run_spectrum_decay",
]
