"""Discrete derivative and shift on the grid, with exact-identity residuals.

Both operators force the value 0 at the last grid point j = n-1 (no
wraparound); this boundary convention is what makes the boundary terms in
the transform identities nonzero, so no periodic variant is offered.  The
second discrete derivative is simply ``derivative(derivative(gf))``.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, integrate

__all__ = [
    "derivative",
    "shift",
    "ftc_residual",
    "product_rule_residual",
    "parts_residual",
]


def derivative(gf: GridFunction) -> GridFunction:
    """Forward difference n*(gf[j+1] - gf[j]); zero at the last point."""
    v = gf.values
    out = np.empty(v.shape, dtype=np.complex128)
    out[:-1] = gf.grid.n * (v[1:] - v[:-1])
    out[-1] = 0.0
    return GridFunction._adopt(gf.grid, out)


def shift(gf: GridFunction) -> GridFunction:
    """Index shift gf[j+1]; zero at the last point."""
    v = gf.values
    out = np.empty(v.shape, dtype=np.complex128)
    out[:-1] = v[1:]
    out[-1] = 0.0
    return GridFunction._adopt(gf.grid, out)


def ftc_residual(gf: GridFunction) -> complex:
    """integrate(gf') - (gf[n-1] - gf[-n]); zero by telescoping."""
    v = gf.values
    return integrate(derivative(gf)) - complex(v[-1] - v[0])


def product_rule_residual(u: GridFunction, v: GridFunction) -> GridFunction:
    """(u*v)' - (u'*shift(v) + u*v') pointwise; the zero function exactly."""
    u._require_same_grid(v)
    return derivative(u * v) - (derivative(u) * shift(v) + u * derivative(v))


def parts_residual(u: GridFunction, v: GridFunction) -> complex:
    """Residual of discrete integration by parts.

    integrate(u'*v) + integrate(shift(u)*v') telescopes to the boundary
    difference (u*v)[n-1] - (u*v)[-n]; returns LHS - RHS of that identity.
    """
    u._require_same_grid(v)
    lhs = integrate(derivative(u) * v)
    boundary = complex(u.values[-1] * v.values[-1] - u.values[0] * v.values[0])
    rhs = -integrate(shift(u) * derivative(v)) + boundary
    return lhs - rhs
