"""Orchestrates the lemma checks and convergence experiments.

Every check gets one report; a report's worst residual is normalized by
the scale stated for that check (grid size, input magnitude), so the
tolerance column is a plain number.  Runs are deterministic: randomized
grid functions come from named PCG64 streams keyed by (seed, stream id,
grid size, replicate), job results are reduced in a fixed order, and
worst-case ties resolve to the smallest |m| with the negative mode first,
then to the earliest (function, n) cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .continuous_fourier import (
    ConvergenceRow,
    coefficient,
    integral_gap,
    m_test_majorant,
    sup_error,
)
from .discrete_calculus import derivative, ftc_residual, parts_residual, product_rule_residual
from .discrete_fourier import Spectrum, alias_fold, discrete_coefficients, invert
from .functions import bound_constants, function_norms, get_function, shift_to_zero_endpoints
from .grid import GridFunction, build_grid, sample
from .spectral_bounds import (
    _boundary_E_F_arrays,
    _worst_mode,
    adjoint_symbol,
    canonical_mode_order,
    decay_bound_check,
    dft_identity_residual_arrays,
    forward_symbol,
    tail_sum,
    tail_threshold,
)

__all__ = [
    "CHECK_NAMES",
    "CHECK_CLAIMS",
    "DEFAULT_TOLERANCES",
    "SuiteConfig",
    "WorstLocation",
    "LemmaReport",
    "random_grid_function",
    "run_lemma_suite",
    "run_convergence",
    "run_spectrum_decay",
]

CHECK_NAMES = (
    "inversion",
    "ftc",
    "product_rule",
    "parts",
    "dft_identity_1",
    "dft_identity_2",
    "psi_lower",
    "phi_psi_mag",
    "F_bound",
    "g2_bound",
    "decay_H",
    "tail_eps",
    "alias_oracle",
    "coeff_convergence",
    "integral_darboux",
    "m_test_domination",
)

# What each check certifies; the unit suite asserts this table is total.
CHECK_CLAIMS = {
    "inversion": "transform-roundtrip-exactness",
    "ftc": "telescoping-fundamental-identity",
    "product_rule": "difference-product-rule",
    "parts": "summation-by-parts",
    "dft_identity_1": "first-derivative-transform-identity",
    "dft_identity_2": "second-derivative-transform-identity",
    "psi_lower": "symbol-quadratic-lower-bound",
    "phi_psi_mag": "symbol-conjugacy-and-magnitude",
    "F_bound": "boundary-term-uniform-bound",
    "g2_bound": "second-difference-spectrum-uniform-bound",
    "decay_H": "quadratic-coefficient-decay",
    "tail_eps": "tail-sum-smallness",
    "alias_oracle": "alias-folding-identity",
    "coeff_convergence": "grid-to-continuum-coefficient-limit",
    "integral_darboux": "grid-to-continuum-integral-limit",
    "m_test_domination": "uniform-convergence-majorant",
}

# Budgets: 1e-12*scale for the purely algebraic identities, 1e-10*scale
# once a symbol division enters, 1e-9*scale for the squared-symbol
# identity, and the explicit slacks of the bound checks.
DEFAULT_TOLERANCES = {
    "inversion": 1e-10,
    "ftc": 1e-12,
    "product_rule": 1e-12,
    "parts": 1e-12,
    "dft_identity_1": 1e-10,
    "dft_identity_2": 1e-9,
    "psi_lower": 1e-9,
    "phi_psi_mag": 1e-12,
    "F_bound": 1e-9,
    "g2_bound": 1e-9,
    "decay_H": 1.0,
    "tail_eps": 1.0,
    "alias_oracle": 1e-12,
    "coeff_convergence": 1e-10,
    "integral_darboux": 1e-10,
    "m_test_domination": 1e-9,
}

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


def _run_jobs(jobs, workers):
    thunks = [job for _, job in jobs]
    if workers is not None and workers > 1 and len(thunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda fn: fn(), thunks))
    return [fn() for fn in thunks]


def _ranks_worse(residual: float, current: float) -> bool:
    """Strict improvement on the current worst, with NaN ranked worst of all.

    A NaN residual must never be dropped and reported as a pass; among
    equal residuals (or NaNs) the earliest candidate stays.
    """
    return residual > current or (math.isnan(residual) and not math.isnan(current))


def _worst_grid_point(values: np.ndarray, n: int) -> float:
    j = int(np.argmax(values)) - n
    return j / n


def run_lemma_suite(cfg: SuiteConfig, workers: Optional[int] = None) -> list[LemmaReport]:
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
    shifted = {name: shift_to_zero_endpoints(fns[name]) for name in names}
    shifted_norms = {name: function_norms(shifted[name]) for name in names}

    # tail grids are pinned by the threshold rule, independent of grid_sizes
    tail_plan = {}
    for name in names:
        for eps in cfg.epsilons:
            thr = tail_threshold(consts[name].H, eps)
            n_tail = TAIL_BASE_GRID if thr <= TAIL_BASE_GRID else TAIL_BIG_GRID
            tail_plan[(name, eps)] = (thr, n_tail)

    spectra_keys = [(name, n) for name in names for n in ns]
    for (name, _), (_, n_tail) in sorted(tail_plan.items(), key=lambda kv: (names.index(kv[0][0]), kv[0][1])):
        if (name, n_tail) not in spectra_keys:
            spectra_keys.append((name, n_tail))

    def _spectrum_job(name, n):
        def job():
            return discrete_coefficients(sample(fns[name], build_grid(n)))
        return job

    spectra_results = _run_jobs(
        [((name, n), _spectrum_job(name, n)) for name, n in spectra_keys], workers
    )
    spectra: dict[tuple[str, int], Spectrum] = dict(zip(spectra_keys, spectra_results))

    jobs = []

    def add_job(thunk):
        jobs.append((len(jobs), thunk))

    # --- roundtrip and calculus identities on seeded random data -------
    for n in ns:
        for rep in range(RANDOM_REPS):
            def inversion_job(n=n, rep=rep):
                gf = random_grid_function(cfg.seed, "inversion", n, rep)
                back = invert(discrete_coefficients(gf))
                err = np.abs(back.values - gf.values)
                raw = float(np.max(err))
                loc = WorstLocation(f"random:{rep}", n, None, _worst_grid_point(err, n))
                return [("inversion", raw / (1.0 + gf.max_abs()), loc)]

            add_job(inversion_job)

    for n in ns:
        for rep in range(RANDOM_REPS):
            def calculus_job(n=n, rep=rep):
                u = random_grid_function(cfg.seed, "calculus", n, rep, part=0)
                v = random_grid_function(cfg.seed, "calculus", n, rep, part=1)
                su = max(u.max_abs(), 1e-300)
                sv = max(v.max_abs(), 1e-300)
                out = []
                out.append(
                    ("ftc", abs(ftc_residual(u)) / (n * su), WorstLocation(f"random:{rep}", n))
                )
                pr = np.abs(product_rule_residual(u, v).values)
                out.append(
                    (
                        "product_rule",
                        float(np.max(pr)) / (n * su * sv),
                        WorstLocation(f"random:{rep}", n, None, _worst_grid_point(pr, n)),
                    )
                )
                out.append(
                    (
                        "parts",
                        abs(parts_residual(u, v)) / (n * su * sv),
                        WorstLocation(f"random:{rep}", n),
                    )
                )
                return out

            add_job(calculus_job)

    # --- transform identities on the catalog and on random data --------
    def dft_candidates(gf, label, n):
        r1, r2 = dft_identity_residual_arrays(gf)
        scale = 1.0 + gf.max_abs()
        w1, m1 = _worst_mode(np.abs(r1), n)
        w2, m2 = _worst_mode(np.abs(r2), n)
        return [
            ("dft_identity_1", w1 / scale, WorstLocation(label, n, m1)),
            ("dft_identity_2", w2 / scale, WorstLocation(label, n, m2)),
        ]

    for name in names:
        for n in ns:
            def dft_catalog_job(name=name, n=n):
                return dft_candidates(sample(fns[name], build_grid(n)), name, n)

            add_job(dft_catalog_job)
    for n in ns:
        for rep in range(DFT_RANDOM_REPS):
            def dft_random_job(n=n, rep=rep):
                gf = random_grid_function(cfg.seed, "dft", n, rep)
                return dft_candidates(gf, f"random:{rep}", n)

            add_job(dft_random_job)

    # --- symbol sweep ---------------------------------------------------
    def symbol_job():
        out = []
        worst_lower = (-math.inf, None)
        worst_mag = (-math.inf, None)
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
            if _ranks_worse(val, worst_lower[0]):
                worst_lower = (val, WorstLocation(None, n, mode))

            mag = np.maximum.reduce(
                [
                    np.abs(psi - np.conj(phi)),
                    abs_phi - 2.0 * n,
                    abs_psi - 2.0 * n,
                    np.abs(abs_phi - abs_psi),
                ]
            ) / n
            val, mode = _worst_mode(mag, n, include_zero=True)
            if _ranks_worse(val, worst_mag[0]):
                worst_mag = (val, WorstLocation(None, n, mode))
        out.append(("psi_lower", worst_lower[0], worst_lower[1]))
        out.append(("phi_psi_mag", worst_mag[0], worst_mag[1]))
        return out

    add_job(symbol_job)

    # --- uniform bounds on the endpoint-centered catalog ----------------
    for name in names:
        for n in ns:
            def uniform_job(name=name, n=n):
                sup_f, sup_d1, l1_d2 = shifted_norms[name]
                gf = sample(shifted[name], build_grid(n))
                _, F = _boundary_E_F_arrays(gf)
                second_hat = discrete_coefficients(derivative(derivative(gf))).coefficients
                max_F, m_F = _worst_mode(np.abs(F), n, include_zero=True)
                max_g2, m_g2 = _worst_mode(np.abs(second_hat), n, include_zero=True)
                return [
                    ("F_bound", max_F - 5.0 * sup_d1, WorstLocation(name, n, m_F)),
                    (
                        "g2_bound",
                        max_g2 - (l1_d2 + 2.0 * sup_f),
                        WorstLocation(name, n, m_g2),
                    ),
                ]

            add_job(uniform_job)

    # --- decay, tails, aliasing, convergence ----------------------------
    for name in names:
        for n in ns:
            def decay_job(name=name, n=n):
                check = decay_bound_check(spectra[(name, n)], consts[name].H)
                return [("decay_H", check.worst_ratio, WorstLocation(name, n, check.worst_m))]

            add_job(decay_job)

    for name in names:
        for eps in cfg.epsilons:
            def tail_job(name=name, eps=eps):
                thr, n_tail = tail_plan[(name, eps)]
                L = math.floor(thr) + 1
                if L > n_tail - 1:
                    # no admissible range below this grid size: vacuous
                    return [("tail_eps", 0.0, WorstLocation(name, n_tail))]
                spec = spectra[(name, n_tail)]
                pos = tail_sum(spec, L, n_tail - 1)
                neg = tail_sum(spec, -(n_tail - 1), -L)
                if neg >= pos:
                    return [("tail_eps", neg / eps, WorstLocation(name, n_tail, -L))]
                return [("tail_eps", pos / eps, WorstLocation(name, n_tail, L))]

            add_job(tail_job)

    for name in names:
        for n in ns:
            def alias_job(name=name, n=n):
                spec = spectra[(name, n)]
                worst = (-math.inf, None)
                for m in canonical_mode_order(n, include_zero=True):
                    folded = alias_fold(fns[name], n, m, ALIAS_CUTOFF)
                    diff = abs(spec.coeff(m) - folded)
                    if _ranks_worse(diff, worst[0]):
                        worst = (diff, m)
                return [("alias_oracle", worst[0], WorstLocation(name, n, worst[1]))]

            add_job(alias_job)

    for name in names:
        def convergence_job(name=name):
            modes = [m for m in CONVERGENCE_MODES if -n_min <= m <= n_min - 1]
            worst = (-math.inf, None)
            for m in modes:
                exact = coefficient(fns[name], m)
                gaps = [abs(spectra[(name, n)].coeff(m) - exact) for n in ns]
                if _ranks_worse(gaps[-1], worst[0]):
                    worst = (gaps[-1], WorstLocation(name, n_max, m))
                for k in range(1, len(ns)):
                    inc = gaps[k] - gaps[k - 1]
                    if _ranks_worse(inc, worst[0]):
                        worst = (inc, WorstLocation(name, ns[k], m))
            return [("coeff_convergence", worst[0], worst[1])]

        add_job(convergence_job)

    for name in names:
        def integral_job(name=name):
            return [
                ("integral_darboux", integral_gap(fns[name], n_max), WorstLocation(name, n_max))
            ]

        add_job(integral_job)

    orders = [N for N in MTEST_ORDERS if N <= cfg.mode_limit]
    for name in names:
        for N in orders:
            def mtest_job(name=name, N=N):
                err = sup_error(fns[name], N, SUP_ERROR_SAMPLES)
                bound = m_test_majorant(consts[name].H, N)
                return [("m_test_domination", err - bound, WorstLocation(name, None, N))]

            add_job(mtest_job)

    # --- reduce ----------------------------------------------------------
    results = _run_jobs(jobs, workers)
    worst: dict[str, tuple[float, WorstLocation]] = {}
    for candidates in results:
        for check, residual, loc in candidates:
            residual = float(residual)
            if check not in worst or _ranks_worse(residual, worst[check][0]):
                worst[check] = (residual, loc)

    reports = []
    for check in sorted(CHECK_NAMES):
        tol = float(cfg.tolerance_overrides.get(check, DEFAULT_TOLERANCES[check]))
        residual, loc = worst.get(check, (0.0, WorstLocation()))
        status = "pass" if residual <= tol else "fail"
        reports.append(
            LemmaReport(
                check_name=check,
                status=status,
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
    return [
        ConvergenceRow(N=N, sup_error=sup_error(f, N, samples), m_test_bound=m_test_majorant(H, N))
        for N in N_values
    ]


def run_spectrum_decay(function_name: str, n: int) -> list[tuple[int, float, float]]:
    """Rows (m, |ghat_n(m)|, H/m^2) for every nonzero mode, ascending m."""
    f = get_function(function_name)
    if n < 1:
        raise ValueError(f"n >= 1 required, got {n}")
    H = bound_constants(f).H
    spec = discrete_coefficients(sample(f, build_grid(n)))
    rows = []
    for m in range(-n, n):
        if m == 0:
            continue
        rows.append((m, abs(spec.coeff(m)), H / float(m * m)))
    return rows
