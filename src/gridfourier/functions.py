"""Catalog of smooth periodic test functions on [-1, 1] with derivatives.

Every catalog entry carries first and second derivative evaluators and,
where a closed form exists, an exact Fourier-coefficient oracle for the
normalization ghat(m) = integral_{-1}^{1} g(x) exp(-i pi x m) dx.
Evaluators are pure, so concurrent use is safe.

Functions are addressable by string name for CLI use:

    "trig:k"        exp(i pi k x)
    "cos:k"         cos(pi k x), k >= 1
    "expcos"        exp(cos(pi x))
    "combo:<spec>"  linear combination, terms "<coeff>*<name>" joined by "+"
                    (e.g. "combo:0.5*trig:0+-0.5*cos:2"); coefficients are
                    real literals without an explicit "+" exponent sign.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
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
]

# Default function set exercised by the verification CLI and acceptance suite.
DEFAULT_CATALOG = ("cos:1", "trig:1", "trig:3", "expcos")

# Resolution of the deterministic norm computations: sup norms by dense
# sampling at SUP_NORM_POINTS equispaced points, L1 norms by composite
# Simpson quadrature on SIMPSON_PANELS uniform panels.  Both fixed so that
# BoundConstants are reproducible bit for bit.
SUP_NORM_POINTS = 4096 + 1
SIMPSON_PANELS = 4096

_BESSEL_TERM_FLOOR = 1e-18
_MAX_MONOMIAL_DEGREE = 10**6


@dataclass(frozen=True)
class SmoothPeriodicFunction:
    """Smooth function on the circle modelled by [-1, 1] with endpoints glued.

    Attributes
    ----------
    name : str
        Catalog identifier.
    eval : callable
        x in [-1, 1] -> complex value.
    d1, d2 : callable or None
        First and second derivative evaluators (None when unavailable,
        e.g. for pulled-back functions without supplied derivatives).
    exact_coefficient : callable or None
        m -> closed-form Fourier coefficient, when one exists.
    endpoint_value : complex
        The common value g(-1) = g(1), recorded as eval(1).
    """

    name: str
    eval: Callable[[float], complex]
    d1: Optional[Callable[[float], complex]]
    d2: Optional[Callable[[float], complex]]
    exact_coefficient: Optional[Callable[[int], complex]]
    endpoint_value: complex

    def __call__(self, x: float) -> complex:
        return self.eval(x)


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants controlling coefficient decay.

    B, D are sup norms of the endpoint-centered function and its
    derivative, M is the L1 norm of the second derivative, and
    W = M + 2B + 5D, H = W/4 give the quadratic decay bound
    |ghat_n(m)| <= H / m^2 uniformly in n.
    """

    B: float
    D: float
    M: float
    W: float
    H: float

    def __post_init__(self):
        for field_name in ("B", "D", "M", "W", "H"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{field_name} must be finite and nonnegative, got {value}")


def trig_monomial(k: int) -> SmoothPeriodicFunction:
    """exp(i pi k x): the grid transform's eigenfunction at mode k."""
    k = int(k)
    if abs(k) > _MAX_MONOMIAL_DEGREE:
        raise ValueError(f"|k| <= {_MAX_MONOMIAL_DEGREE} required, got k={k}")
    w = math.pi * k

    def ev(x):
        return np.exp(1j * w * x)

    def d1(x):
        return 1j * w * np.exp(1j * w * x)

    def d2(x):
        return -(w * w) * np.exp(1j * w * x)

    def coeff(m):
        return 2.0 + 0.0j if m == k else 0.0j

    return SmoothPeriodicFunction(
        name=f"trig:{k}",
        eval=ev,
        d1=d1,
        d2=d2,
        exact_coefficient=coeff,
        endpoint_value=complex(ev(1.0)),
    )


def cosine(k: int) -> SmoothPeriodicFunction:
    """cos(pi k x) for k >= 1; coefficients 1 at m = +-k, 0 elsewhere."""
    k = int(k)
    if k < 1:
        raise ValueError(f"cosine needs k >= 1, got k={k}")
    w = math.pi * k

    def ev(x):
        return np.cos(w * x) + 0.0j

    def d1(x):
        return -w * np.sin(w * x) + 0.0j

    def d2(x):
        return -(w * w) * np.cos(w * x) + 0.0j

    def coeff(m):
        return 1.0 + 0.0j if abs(m) == k else 0.0j

    return SmoothPeriodicFunction(
        name=f"cos:{k}",
        eval=ev,
        d1=d1,
        d2=d2,
        exact_coefficient=coeff,
        endpoint_value=complex(ev(1.0)),
    )


def _bessel_i_at_one(order: int) -> float:
    """I_order(1) by the ascending series sum_j (1/2)^(2j+a) / (j! (j+a)!).

    Terms are generated by recurrence and the sum stops once a term falls
    below 1e-18, so the oracle is independent of any library special
    function.
    """
    a = abs(int(order))
    term = 1.0
    for i in range(1, a + 1):
        term *= 0.5 / i
        if term == 0.0:
            return 0.0
    total = 0.0
    j = 0
    while term >= _BESSEL_TERM_FLOOR:
        total += term
        j += 1
        term *= 0.25 / (j * (j + a))
    return total


def exp_cos() -> SmoothPeriodicFunction:
    """exp(cos(pi x)): entire, non-polynomial, with Bessel-series spectrum.

    The exact coefficient is ghat(m) = 2 * I_m(1) with I_m evaluated by the
    truncated ascending series, so grid results can be compared against an
    independently computable spectrum.
    """

    def ev(x):
        return np.exp(np.cos(np.pi * x)) + 0.0j

    def d1(x):
        return -np.pi * np.sin(np.pi * x) * np.exp(np.cos(np.pi * x)) + 0.0j

    def d2(x):
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        return (np.pi**2) * (s * s - c) * np.exp(c) + 0.0j

    def coeff(m):
        return complex(2.0 * _bessel_i_at_one(m))

    return SmoothPeriodicFunction(
        name="expcos",
        eval=ev,
        d1=d1,
        d2=d2,
        exact_coefficient=coeff,
        endpoint_value=complex(ev(1.0)),
    )


def combine(parts) -> SmoothPeriodicFunction:
    """Pointwise linear combination of catalog functions.

    ``parts`` is a nonempty sequence of (weight, function) pairs.  The
    derivatives combine linearly; the exact coefficient map is present
    iff every part carries one.
    """
    parts = [(complex(c), f) for c, f in parts]
    if not parts:
        raise ValueError("combine needs at least one (weight, function) pair")

    def ev(x):
        return sum(c * f.eval(x) for c, f in parts)

    d1 = None
    if all(f.d1 is not None for _, f in parts):

        def d1(x):
            return sum(c * f.d1(x) for c, f in parts)

    d2 = None
    if all(f.d2 is not None for _, f in parts):

        def d2(x):
            return sum(c * f.d2(x) for c, f in parts)

    coeff = None
    if all(f.exact_coefficient is not None for _, f in parts):

        def coeff(m):
            return sum(c * f.exact_coefficient(m) for c, f in parts)

    name = "combo:" + "+".join(f"{c.real:g}*{f.name}" for c, f in parts)
    return SmoothPeriodicFunction(
        name=name,
        eval=ev,
        d1=d1,
        d2=d2,
        exact_coefficient=coeff,
        endpoint_value=complex(ev(1.0)),
    )


def shift_to_zero_endpoints(f: SmoothPeriodicFunction) -> SmoothPeriodicFunction:
    """f minus its endpoint value: vanishes at x = -1 and x = 1."""
    return combine([(1.0, f), (-f.endpoint_value, trig_monomial(0))])


def _dense_points() -> np.ndarray:
    return np.linspace(-1.0, 1.0, SUP_NORM_POINTS)


def _eval_on(fn, xs: np.ndarray) -> np.ndarray:
    return np.asarray([fn(float(x)) for x in xs], dtype=np.complex128)


def _simpson_abs(values: np.ndarray) -> float:
    # composite Simpson of |values| over [-1, 1] on SIMPSON_PANELS panels
    weights = np.ones(SIMPSON_PANELS + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = 2.0 / SIMPSON_PANELS
    return float(np.sum(weights * np.abs(values)) * h / 3.0)


def bound_constants(f: SmoothPeriodicFunction) -> BoundConstants:
    """Decay constants of f computed from h = f - f(1).

    Parameters
    ----------
    f : SmoothPeriodicFunction
        Must carry d1 and d2.

    Returns
    -------
    BoundConstants
        B = sup|h|, D = sup|h'|, M = integral |h''|, with
        W = M + 2B + 5D and H = W/4.

    Notes
    -----
    The centering constant is the endpoint value g(1) (= g(-1) on the
    circle), so h vanishes at both endpoints.  Shifting by a constant
    leaves D and M unchanged.
    """
    if f.d1 is None or f.d2 is None:
        raise ValueError(f"{f.name}: derivative evaluators required")
    c = f.endpoint_value
    xs = _dense_points()
    B = float(np.max(np.abs(_eval_on(f.eval, xs) - c)))
    D = float(np.max(np.abs(_eval_on(f.d1, xs))))
    M = _simpson_abs(_eval_on(f.d2, xs))
    W = M + 2.0 * B + 5.0 * D
    try:
        return BoundConstants(B=B, D=D, M=M, W=W, H=W / 4.0)
    except ValueError as exc:
        raise ValueError(f"{f.name}: {exc}") from None


_COMBO_TERM = re.compile(r"^(?P<coeff>[^*]+)\*(?P<name>.+)$")


def get_function(name: str) -> SmoothPeriodicFunction:
    """Resolve a catalog identifier to a function; raises ValueError if unknown."""
    if name == "expcos":
        return exp_cos()
    if name.startswith("trig:"):
        try:
            return trig_monomial(int(name[5:]))
        except ValueError as exc:
            raise ValueError(f"bad trig monomial name {name!r}") from exc
    if name.startswith("cos:"):
        try:
            return cosine(int(name[4:]))
        except ValueError as exc:
            raise ValueError(f"bad cosine name {name!r}") from exc
    if name.startswith("combo:"):
        spec = name[len("combo:") :]
        # split on '+' term separators, leaving 'e+' exponents intact
        raw_terms = [t for t in re.split(r"(?<![eE])\+", spec) if t]
        if not raw_terms:
            raise ValueError(f"empty combo spec in {name!r}")
        parts = []
        for term in raw_terms:
            match = _COMBO_TERM.match(term)
            if match is None:
                raise ValueError(f"bad combo term {term!r} in {name!r}")
            try:
                weight = float(match.group("coeff"))
            except ValueError as exc:
                raise ValueError(f"bad combo weight in {term!r}") from exc
            if not math.isfinite(weight):
                raise ValueError(f"non-finite combo weight in {term!r} of {name!r}")
            sub = match.group("name")
            if sub.startswith("combo:"):
                raise ValueError(f"nested combos are not supported: {name!r}")
            parts.append((weight, get_function(sub)))
        return combine(parts)
    raise ValueError(f"unknown function name: {name!r}")
