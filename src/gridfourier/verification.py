"""Orchestrates the lemma checks and convergence experiments.

Every check is one row of ``CHECKS``: its name, the claim it certifies
and its default tolerance.  A check's worst residual is normalized by the
scale stated for that check (grid size, input magnitude), so the
tolerance column is a plain number.  Runs are deterministic: randomized
grid functions come from named PCG64 streams keyed by (seed, stream id,
grid size, replicate), the checks run serially in a fixed order and feed
one worst-case reduction, and worst-case ties resolve to the smallest |m|
with the negative mode first, then to the earliest (function, n) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .continuous_fourier import (
    ConvergenceRow,
    coefficient,
    integral_gap,
    m_test_majorants,
    sup_errors,
)
from .discrete_calculus import ftc_residual, parts_residual, product_rule_residual
from .discrete_fourier import alias_fold, discrete_coefficients, invert
from .functions import bound_constants, get_function, shift_to_zero_endpoints
from .grid import GridFunction, build_grid, sample
from .spectral_bounds import (
    _uniform_maxima,
    _worst_mode,
    adjoint_symbol,
    decay_bound_check,
    dft_identity_residual_arrays,
    forward_symbol,
    tail_sum,
    tail_threshold,
)

__all__ = [
    "Check",
    "CHECKS",
    "CHECK_NAMES",
    "SuiteConfig",
    "WorstLocation",
    "LemmaReport",
    "random_grid_function",
    "run_lemma_suite",
    "run_convergence",
    "run_spectrum_decay",
]


class Check(NamedTuple):
    """One row of the check table: name, certified claim, default tolerance."""

    name: str
    claim: str
    tolerance: float


# Budgets: 1e-12*scale for the purely algebraic identities, 1e-10*scale
# once a symbol division enters, 1e-9*scale for the squared-symbol
# identity, and the explicit slacks of the bound checks.
CHECKS = (
    Check("inversion", "transform-roundtrip-exactness", 1e-10),
    Check("ftc", "telescoping-fundamental-identity", 1e-12),
    Check("product_rule", "difference-product-rule", 1e-12),
    Check("parts", "summation-by-parts", 1e-12),
    Check("dft_identity_1", "first-derivative-transform-identity", 1e-10),
    Check("dft_identity_2", "second-derivative-transform-identity", 1e-9),
    Check("psi_lower", "symbol-quadratic-lower-bound", 1e-9),
    Check("phi_psi_mag", "symbol-conjugacy-and-magnitude", 1e-12),
    Check("F_bound", "boundary-term-uniform-bound", 1e-9),
    Check("g2_bound", "second-difference-spectrum-uniform-bound", 1e-9),
    Check("decay_H", "quadratic-coefficient-decay", 1.0),
    Check("tail_eps", "tail-sum-smallness", 1.0),
    Check("alias_oracle", "alias-folding-identity", 1e-12),
    Check("coeff_convergence", "grid-to-continuum-coefficient-limit", 1e-10),
    Check("integral_darboux", "grid-to-continuum-integral-limit", 1e-10),
    Check("m_test_domination", "uniform-convergence-majorant", 1e-9),
)
_CHECK_BY_NAME = {check.name: check for check in CHECKS}
CHECK_NAMES = tuple(_CHECK_BY_NAME)

_STREAMS = {"inversion": 1, "calculus": 2, "dft": 3}

RANDOM_REPS = 8
DFT_RANDOM_REPS = 4
SYMBOL_SWEEP_MAX = 512
ALIAS_CUTOFF = 32
MTEST_ORDERS = (2, 4, 8, 16, 32)
CONVERGENCE_MODES = (0, -1, 1, -2, 2)
TAIL_BASE_GRID = 256
TAIL_BIG_GRID = 4096
SUP_ERROR_SAMPLES = 2048
# Largest grid size of a spectrum table: 2n rows, checked before sampling.
MAX_SPECTRUM_N = 2**16


@dataclass(frozen=True)
class SuiteConfig:
    """Inputs of a verification run; identical configs give identical reports."""

    function_names: tuple[str, ...] = ("cos:1", "trig:1", "trig:3", "expcos")
    grid_sizes: tuple[int, ...] = (4, 16, 64, 256)
    mode_limit: int = 32
    epsilons: tuple[float, ...] = (0.1, 0.01)
    seed: int = 42
    tolerance_overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WorstLocation:
    function: Optional[str] = None
    n: Optional[int] = None
    m: Optional[int] = None
    x: Optional[float] = None

    def to_dict(self) -> dict:
        return {"function": self.function, "n": self.n, "m": self.m, "x": self.x}


@dataclass(frozen=True)
class LemmaReport:
    check_name: str
    status: str
    worst_residual: float
    worst_location: WorstLocation
    tolerance_used: float

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "status": self.status,
            "worst_residual": self.worst_residual,
            "worst_location": self.worst_location.to_dict(),
            "tolerance_used": self.tolerance_used,
        }


def random_grid_function(seed: int, stream: str, n: int, rep: int, part: int = 0) -> GridFunction:
    """Seeded random grid function: re/im parts uniform on [-1, 1].

    The generator is PCG64 with SeedSequence entropy ``seed`` and spawn
    key (stream id, n, rep, part), so any draw is replayable from the
    suite seed alone.
    """
    key = (_STREAMS[stream], n, rep, part)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    re = rng.uniform(-1.0, 1.0, 2 * n)
    im = rng.uniform(-1.0, 1.0, 2 * n)
    return GridFunction(build_grid(n), re + 1j * im)


def _validate_config(cfg: SuiteConfig) -> None:
    if not cfg.function_names:
        raise ValueError("function_names must be nonempty")
    if not cfg.grid_sizes:
        raise ValueError("grid_sizes must be nonempty")
    for n in cfg.grid_sizes:
        if n < 1:
            raise ValueError(f"invalid grid size: {n} (must be >= 1)")
    if cfg.mode_limit < 1:
        raise ValueError(f"mode_limit must be >= 1, got {cfg.mode_limit}")
    if not cfg.epsilons:
        raise ValueError("epsilons must be nonempty")
    for eps in cfg.epsilons:
        if not math.isfinite(eps) or eps <= 0:
            raise ValueError(f"invalid epsilon: {eps} (must be finite and > 0)")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")
    for name, tol in cfg.tolerance_overrides.items():
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check in tolerance override: {name!r}")
        if not math.isfinite(tol) or tol <= 0:
            raise ValueError(
                f"invalid tolerance override for {name}: {tol} (must be finite and > 0)"
            )


def _ranks_worse(residual: float, current: float) -> bool:
    """Strict improvement on the current worst, with NaN ranked worst of all.

    A NaN residual must never be dropped and reported as a pass; among
    equal residuals (or NaNs) the earliest candidate stays.
    """
    return residual > current or (math.isnan(residual) and not math.isnan(current))


def _offer(worst: dict, check: str, residual: float, loc: WorstLocation) -> None:
    """Feed one candidate to the running worst case of its check."""
    if check not in _CHECK_BY_NAME:
        raise KeyError(f"candidate for {check!r}, which is not in the check table")
    residual = float(residual)
    if check not in worst or _ranks_worse(residual, worst[check][0]):
        worst[check] = (residual, loc)


def _worst_grid_point(values: np.ndarray, n: int) -> float:
    j = int(np.argmax(values)) - n
    return j / n


def run_lemma_suite(cfg: SuiteConfig) -> list[LemmaReport]:
    """Run every check over the configured cross-product.

    Returns one report per check name, sorted by check name.  Raises
    ValueError for unknown function names or invalid overrides.
    """
    _validate_config(cfg)
    names = list(cfg.function_names)
    fns = {name: get_function(name) for name in names}
    ns = sorted(set(int(n) for n in cfg.grid_sizes))
    n_max = ns[-1]
    n_min = ns[0]

    consts = {name: bound_constants(fns[name]) for name in names}

    # tail grids are pinned by the threshold rule, independent of grid_sizes
    tail_plan = {}
    for name in names:
        for eps in cfg.epsilons:
            thr = tail_threshold(consts[name].H, eps)
            n_tail = TAIL_BASE_GRID if thr <= TAIL_BASE_GRID else TAIL_BIG_GRID
            tail_plan[(name, eps)] = (thr, n_tail)

    spectra_keys = [(name, n) for name in names for n in ns]
    spectra_keys += [(name, n_tail) for (name, _), (_, n_tail) in tail_plan.items()]
    samples = {
        (name, n): sample(fns[name], build_grid(n)) for name, n in dict.fromkeys(spectra_keys)
    }
    spectra = {key: discrete_coefficients(gf) for key, gf in samples.items()}

    worst: dict[str, tuple[float, WorstLocation]] = {}

    # --- roundtrip and calculus identities on seeded random data -------
    for n in ns:
        for rep in range(RANDOM_REPS):
            gf = random_grid_function(cfg.seed, "inversion", n, rep)
            err = np.abs(invert(discrete_coefficients(gf)).values - gf.values)
            raw = float(np.max(err))
            loc = WorstLocation(f"random:{rep}", n, None, _worst_grid_point(err, n))
            _offer(worst, "inversion", raw / (1.0 + gf.max_abs()), loc)

    for n in ns:
        for rep in range(RANDOM_REPS):
            u = random_grid_function(cfg.seed, "calculus", n, rep, part=0)
            v = random_grid_function(cfg.seed, "calculus", n, rep, part=1)
            su = max(u.max_abs(), 1e-300)
            sv = max(v.max_abs(), 1e-300)
            loc = WorstLocation(f"random:{rep}", n)
            _offer(worst, "ftc", abs(ftc_residual(u)) / (n * su), loc)
            pr = np.abs(product_rule_residual(u, v).values)
            _offer(
                worst,
                "product_rule",
                float(np.max(pr)) / (n * su * sv),
                WorstLocation(f"random:{rep}", n, None, _worst_grid_point(pr, n)),
            )
            _offer(worst, "parts", abs(parts_residual(u, v)) / (n * su * sv), loc)

    # --- transform identities on the catalog, then on random data ------
    dft_inputs = [(samples[(name, n)], name, n) for name in names for n in ns]
    dft_inputs += [
        (random_grid_function(cfg.seed, "dft", n, rep), f"random:{rep}", n)
        for n in ns
        for rep in range(DFT_RANDOM_REPS)
    ]
    for gf, label, n in dft_inputs:
        r1, r2 = dft_identity_residual_arrays(gf)
        scale = 1.0 + gf.max_abs()
        w1, m1 = _worst_mode(np.abs(r1), n)
        w2, m2 = _worst_mode(np.abs(r2), n)
        _offer(worst, "dft_identity_1", w1 / scale, WorstLocation(label, n, m1))
        _offer(worst, "dft_identity_2", w2 / scale, WorstLocation(label, n, m2))

    # --- symbol sweep ---------------------------------------------------
    for n in sorted(set(range(1, SYMBOL_SWEEP_MAX + 1)) | set(ns)):
        modes = np.arange(-n, n)
        psi = forward_symbol(n, modes)
        phi = adjoint_symbol(n, modes)
        abs_psi = np.abs(psi)
        abs_phi = np.abs(phi)

        lower = np.zeros(2 * n)
        nz = modes != 0
        msq = 4.0 * modes[nz].astype(float) ** 2
        lower[nz] = (msq - abs_psi[nz] ** 2) / msq
        val, mode = _worst_mode(lower, n)
        _offer(worst, "psi_lower", val, WorstLocation(None, n, mode))

        mag = np.maximum.reduce(
            [
                np.abs(psi - np.conj(phi)),
                abs_phi - 2.0 * n,
                abs_psi - 2.0 * n,
                np.abs(abs_phi - abs_psi),
            ]
        ) / n
        val, mode = _worst_mode(mag, n, include_zero=True)
        _offer(worst, "phi_psi_mag", val, WorstLocation(None, n, mode))

    # --- uniform bounds on the endpoint-centered catalog ----------------
    for name in names:
        shifted = shift_to_zero_endpoints(fns[name])
        c = consts[name]
        for n in ns:
            max_F, m_F, max_g2, m_g2 = _uniform_maxima(shifted, n)
            _offer(worst, "F_bound", max_F - 5.0 * c.D, WorstLocation(name, n, m_F))
            _offer(worst, "g2_bound", max_g2 - (c.M + 2.0 * c.B), WorstLocation(name, n, m_g2))

    # --- decay, tails, aliasing, convergence ----------------------------
    for name in names:
        for n in ns:
            check = decay_bound_check(spectra[(name, n)], consts[name].H)
            _offer(worst, "decay_H", check.worst_ratio, WorstLocation(name, n, check.worst_m))

    for name in names:
        for eps in cfg.epsilons:
            thr, n_tail = tail_plan[(name, eps)]
            L = math.floor(thr) + 1
            if L > n_tail - 1:
                # no admissible range below this grid size: vacuous
                _offer(worst, "tail_eps", 0.0, WorstLocation(name, n_tail))
                continue
            spec = spectra[(name, n_tail)]
            pos = tail_sum(spec, L, n_tail - 1)
            neg = tail_sum(spec, -(n_tail - 1), -L)
            if neg >= pos:
                _offer(worst, "tail_eps", neg / eps, WorstLocation(name, n_tail, -L))
            else:
                _offer(worst, "tail_eps", pos / eps, WorstLocation(name, n_tail, L))

    for name in names:
        for n in ns:
            spec = spectra[(name, n)]
            # scalar abs on purpose: np.abs can differ in the last ulp
            diffs = np.array(
                [
                    abs(spec.coeff(m) - alias_fold(fns[name], n, m, ALIAS_CUTOFF))
                    for m in range(-n, n)
                ]
            )
            diff, m = _worst_mode(diffs, n, include_zero=True)
            _offer(worst, "alias_oracle", diff, WorstLocation(name, n, m))

    convergence_modes = [m for m in CONVERGENCE_MODES if -n_min <= m <= n_min - 1]
    for name in names:
        for m in convergence_modes:
            exact = coefficient(fns[name], m)
            gaps = [abs(spectra[(name, n)].coeff(m) - exact) for n in ns]
            _offer(worst, "coeff_convergence", gaps[-1], WorstLocation(name, n_max, m))
            for k in range(1, len(ns)):
                inc = gaps[k] - gaps[k - 1]
                _offer(worst, "coeff_convergence", inc, WorstLocation(name, ns[k], m))

    for name in names:
        gap = integral_gap(fns[name], n_max)
        _offer(worst, "integral_darboux", gap, WorstLocation(name, n_max))

    orders = [N for N in MTEST_ORDERS if N <= cfg.mode_limit]
    for name in names:
        errs = sup_errors(fns[name], orders, SUP_ERROR_SAMPLES)
        bounds = m_test_majorants(consts[name].H, orders)
        for N, err, bound in zip(orders, errs.tolist(), bounds.tolist()):
            _offer(worst, "m_test_domination", err - bound, WorstLocation(name, None, N))

    # --- reports ---------------------------------------------------------
    reports = []
    for check in sorted(CHECKS):
        tol = float(cfg.tolerance_overrides.get(check.name, check.tolerance))
        residual, loc = worst.get(check.name, (0.0, WorstLocation()))
        reports.append(
            LemmaReport(
                check_name=check.name,
                status="pass" if residual <= tol else "fail",
                worst_residual=residual,
                worst_location=loc,
                tolerance_used=tol,
            )
        )
    return reports


def run_convergence(function_name: str, N_values, samples: int = SUP_ERROR_SAMPLES) -> list[ConvergenceRow]:
    """Sup-error and majorant rows for strictly increasing truncation orders."""
    f = get_function(function_name)
    N_values = [int(N) for N in N_values]
    for N in N_values:
        if N < 1:
            raise ValueError(f"truncation orders must be >= 1, got {N}")
    if any(b <= a for a, b in zip(N_values, N_values[1:])):
        raise ValueError(f"N values must be strictly increasing, got {N_values}")
    if not N_values:
        return []
    H = bound_constants(f).H
    errs = sup_errors(f, N_values, samples)
    bounds = m_test_majorants(H, N_values)
    return [
        ConvergenceRow(N=N, sup_error=err, m_test_bound=bound)
        for N, err, bound in zip(N_values, errs.tolist(), bounds.tolist())
    ]


def run_spectrum_decay(function_name: str, n: int) -> list[tuple[int, float, float]]:
    """Rows (m, |ghat_n(m)|, H/m^2) for every nonzero mode, ascending m."""
    f = get_function(function_name)
    if not 1 <= n <= MAX_SPECTRUM_N:
        raise ValueError(f"1 <= n <= {MAX_SPECTRUM_N} required, got {n}")
    H = bound_constants(f).H
    spec = discrete_coefficients(sample(f, build_grid(n)))
    rows = []
    for m in range(-n, n):
        if m == 0:
            continue
        rows.append((m, abs(spec.coeff(m)), H / float(m * m)))
    return rows
