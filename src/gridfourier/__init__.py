"""Finite-grid Fourier analysis on the circle modelled by [-1, 1).

The grid with points j/n (j = -n .. n-1) carries an exactly invertible
Fourier transform, a forward-difference calculus whose identities hold to
rounding, and explicit constants bounding coefficient decay; sweeping the
grid size turns those exact finite statements into convergence
experiments for the classical Fourier series.

The package exports every name in its modules' ``__all__``, each listed
once, in the module that defines it.
"""

from . import continuous_fourier, discrete_calculus, discrete_fourier, functions, grid
from . import spectral_bounds, verification
from .continuous_fourier import *
from .discrete_calculus import *
from .discrete_fourier import *
from .functions import *
from .grid import *
from .spectral_bounds import *
from .verification import *

__version__ = "0.1.0"

__all__ = [
    *grid.__all__,
    *functions.__all__,
    *discrete_fourier.__all__,
    *discrete_calculus.__all__,
    *spectral_bounds.__all__,
    *continuous_fourier.__all__,
    *verification.__all__,
]
