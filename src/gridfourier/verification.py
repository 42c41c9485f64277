"""Orchestrates the lemma checks and convergence experiments.

Every check is one row of ``CHECKS``: its name, the claim it certifies,
its default tolerance, and ``run``, its runner.  Each step of the paper
has one runner, run once for all of its rows: ``_inversion`` (exact
inversion on the 2n-point grid), ``_calculus`` (summation by parts),
``_dft_identities`` (the two derivative-transform identities),
``_symbol_sweep`` (|psi_n(m)|^2 >= 4m^2), ``_decay_lemma`` (|F| <= 5D
and |g''| <= M + 2B give |ghat_n(m)| <= H/m^2), ``_tails`` (small
tails), ``_limits`` (the grid-to-continuum limit) and ``_m_test`` (the
Weierstrass M-test).  A runner yields (check name, residual, location)
candidates from the suite context: config, functions, bound constants,
grid sizes, and ``_Suite.cell``, which samples and transforms a
(function, n) cell on its first read, so a grid that no check reads is
never sampled.  A cell at a configured grid size is kept for the run, as
several runners read it; a tail grid off those sizes is read by
``_tails`` alone, which drops it once it is done with that function.  A
check's worst residual is normalized by the scale stated for that check
(grid size, input magnitude; max(1, max|f|) for the checks against
continuum values, so a function with |f| <= 1 keeps an absolute budget),
and the tolerance column is a plain number.  Runs are deterministic: randomized grid
functions come from SplitMix64 streams keyed by (seed, stream id, grid
size, replicate, part), and the runners run serially in table order.
Every worst case, of a check as of one array, is ``np.argmax`` over
values laid out in tie order: its first maximum, with the first NaN
ranked above every number, so that a NaN is never reported as a pass.
A check's candidates are laid out in the order the runners yield them,
so a tie resolves to the smallest |m| with the negative mode first, then
to the earliest (function, n) cell.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterator, Optional

import numpy as np

from ._record import Record
from .continuous_fourier import (
    SUP_ERROR_SAMPLES,
    ConvergenceRow,
    _integral_gap,
    _orders,
    _sup_error_table,
    coefficient,
    m_test_majorants,
)
from .discrete_calculus import ftc_residual, parts_residual, product_rule_residual
from .discrete_fourier import _alias_fold_table, discrete_coefficients, invert
from .functions import DEFAULT_CATALOG, bound_constants, get_function
from .grid import GridFunction, _check_integer, _check_real, build_grid, sample
from .spectral_bounds import (
    _dft_identity_residuals,
    _uniform_maxima,
    _worst_mode,
    adjoint_symbol,
    decay_bound_check,
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


class Check(Record):
    """One row of the check table: name, certified claim, default tolerance, runner."""

    name: str
    claim: str
    tolerance: float
    run: Callable[[_Suite], Iterator[tuple[str, float, WorstLocation]]]


_STREAMS = {"inversion": 1, "calculus": 2, "dft": 3}
# SplitMix64's increment (the golden gamma) and its finalizer's two multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_WORD = 2**64 - 1

RANDOM_REPS = 8
DFT_RANDOM_REPS = 4
SYMBOL_SWEEP_MAX = 512
# Pairs (n, j) of one symbol-sweep block, so that a block's arrays (32 KiB
# per complex column) stay in cache.  On the default sizes the sweep peaks
# at 0.36 MiB under tracemalloc, against 0.68 MiB at 2**12 pairs, whose time
# was within noise of this, and 0.21 MiB at 2**10, about 20% slower.
_SWEEP_BLOCK_PAIRS = 2**11
MTEST_ORDERS = (2, 4, 8, 16, 32)
CONVERGENCE_MODES = (0, -1, 1, -2, 2)
TAIL_BASE_GRID = 256
TAIL_BIG_GRID = 4096
# Largest grid size of a spectrum table (2n rows) and of a verify grid,
# checked before sampling.
MAX_SPECTRUM_N = 2**16
# Modes per block of a decay table: bounds the Python list that one ``.tolist()`` builds.
_DECAY_BLOCK = 512


def _nonempty_tuple(value, field: str, kind: str) -> tuple:
    """The items of value; a str, a non-iterable or no items raises ValueError naming the field."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ValueError(f"{field} must be a sequence of {kind}, got {value!r}")
    items = tuple(value)
    if not items:
        raise ValueError(f"{field} must be nonempty")
    return items


class SuiteConfig(Record):
    """Inputs of a verification run; identical configs give identical reports.

    Checked field by field when built, and so by ``replace``, copy and
    pickle, each bad field raising a ValueError that names it; stored as
    tuples, ints, floats and a new dict of float overrides, which leaves it
    unhashable.  ``run_lemma_suite`` refuses an unknown function name.
    """

    function_names: tuple[str, ...] = DEFAULT_CATALOG
    grid_sizes: tuple[int, ...] = (4, 16, 64, 256)
    mode_limit: int = 32
    epsilons: tuple[float, ...] = (0.1, 0.01)
    seed: int = 42
    tolerance_overrides: dict = MappingProxyType({})

    __hash__ = None

    def __post_init__(self):
        names = _nonempty_tuple(self.function_names, "function_names", "names")
        sizes = _nonempty_tuple(self.grid_sizes, "grid_sizes", "sizes")
        sizes = tuple(_check_integer(n, "grid size", 1, MAX_SPECTRUM_N) for n in sizes)
        mode_limit = _check_integer(self.mode_limit, "mode_limit", MTEST_ORDERS[0])
        epsilons = _nonempty_tuple(self.epsilons, "epsilons", "numbers")
        epsilons = tuple(_check_real(eps, "epsilon", positive=True) for eps in epsilons)
        seed = _check_integer(self.seed, "seed", 0)
        given = self.tolerance_overrides
        if not isinstance(given, Mapping):
            raise ValueError(f"tolerance_overrides must be a mapping, got {given!r}")
        overrides = {}
        for name, tol in given.items():
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check in tolerance override: {name!r}")
            overrides[name] = _check_real(tol, f"tolerance override for {name}", positive=True)
        values = (names, sizes, mode_limit, epsilons, seed, overrides)
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)


class WorstLocation(Record):
    function: Optional[str] = None
    n: Optional[int] = None
    m: Optional[int] = None
    x: Optional[float] = None


class LemmaReport(Record):
    check_name: str
    status: str
    worst_residual: float
    worst_location: WorstLocation
    tolerance_used: float


def _mix64(z):
    """SplitMix64's output finalizer, on a Python int or in place on uint64 words.

    The masks keep a Python int within 64 bits; uint64 words wrap silently.
    The key fold runs it on ints, as on one-element arrays it took 20 times as long.
    """
    z ^= z >> 30
    z *= _MIX_1
    z &= _WORD
    z ^= z >> 27
    z *= _MIX_2
    z &= _WORD
    z ^= z >> 31
    return z


def random_grid_function(seed: int, stream: str, n: int, rep: int, part: int = 0) -> GridFunction:
    """Seeded random grid function: re/im parts uniform on [-1, 1) with 53-bit resolution.

    The values are a SplitMix64 stream (Steele, Lea and Flood, OOPSLA
    2014) whose start state hashes the key: the seed's count of 64-bit
    words, its words low first, then the stream id, n, rep and part.
    Each key word is XORed into the state (from 0), which then takes one
    SplitMix64 step.  Draw k = 1 .. 4n is the finalizer of start + k*gamma
    mod 2^64, and its top 53 bits z give -1 + 2*(z * 2^-53); the first 2n
    draws are the real parts and the next 2n the imaginary parts.  Any
    draw is replayable from the key alone, and every nonnegative seed
    keys its own stream.  Raises ValueError for an unknown stream or a
    negative or non-integer seed, rep or part.
    """
    if stream not in _STREAMS:
        raise ValueError(f"unknown stream {stream!r}; known streams: {', '.join(_STREAMS)}")
    seed = _check_integer(seed, "seed", 0)
    rep = _check_integer(rep, "rep", 0, _WORD)
    part = _check_integer(part, "part", 0, _WORD)
    grid = build_grid(n)
    n = grid.n
    seed_words = []
    while seed:
        seed_words.append(seed & _WORD)
        seed >>= 64
    state = 0
    for word in (len(seed_words), *seed_words, _STREAMS[stream], n, rep, part):
        state = _mix64((state ^ word) + _GAMMA & _WORD)

    z = np.arange(1, 4 * n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += state
    _mix64(z)
    z >>= 11
    # each array is freed before the next one of its size is made, so at
    # most two of 4n words are held at once
    u = z.astype(np.float64)
    del z
    u *= 2.0**-52  # exact: (z * 2^-53) doubled
    u -= 1.0
    values = np.empty(2 * n, dtype=np.complex128)
    values.real = u[: 2 * n]
    values.imag = u[2 * n :]
    del u
    return GridFunction._adopt(grid, values)


def _worst_grid_point(values: np.ndarray, n: int) -> tuple[float, float]:
    """The first maximum of values over the grid points x_j = j/n, j = -n .. n-1, and its x."""
    k = int(np.argmax(values))
    return float(values[k]), (k - n) / n


class _Suite(Record):
    """What every runner reads.

    ``cells`` holds the (function name, n) cells that ``cell`` has made and
    no runner has dropped.
    """

    cfg: SuiteConfig
    fns: dict
    ns: list
    consts: dict
    cells: dict

    def cell(self, name: str, n: int) -> tuple:
        """The sample and spectrum of the cell (name, n), made on its first read.

        The cell stays in ``cells`` until a runner drops it: for the run at
        a configured grid size, and until ``_tails`` is done with the
        function at a tail grid off those sizes.
        """
        if (name, n) not in self.cells:
            gf = sample(self.fns[name], build_grid(n))
            self.cells[(name, n)] = gf, discrete_coefficients(gf)
        return self.cells[(name, n)]


def _build_suite(cfg: SuiteConfig) -> _Suite:
    fns = {name: get_function(name) for name in cfg.function_names}
    ns = sorted(set(cfg.grid_sizes))
    consts = {name: bound_constants(f) for name, f in fns.items()}
    return _Suite(cfg, fns, ns, consts, {})


def _inversion(s: _Suite):
    for n in s.ns:
        for rep in range(RANDOM_REPS):
            gf = random_grid_function(s.cfg.seed, "inversion", n, rep)
            err = np.abs(invert(discrete_coefficients(gf)).values - gf.values)
            worst, x = _worst_grid_point(err, n)
            loc = WorstLocation(f"random:{rep}", n, None, x)
            yield "inversion", worst / (1.0 + gf.max_abs()), loc


def _calculus(s: _Suite):
    for n in s.ns:
        for rep in range(RANDOM_REPS):
            u = random_grid_function(s.cfg.seed, "calculus", n, rep, part=0)
            v = random_grid_function(s.cfg.seed, "calculus", n, rep, part=1)
            su = max(u.max_abs(), 1e-300)
            sv = max(v.max_abs(), 1e-300)
            loc = WorstLocation(f"random:{rep}", n)
            yield "ftc", abs(ftc_residual(u)) / (n * su), loc
            worst, x = _worst_grid_point(np.abs(product_rule_residual(u, v).values), n)
            pr_loc = WorstLocation(f"random:{rep}", n, None, x)
            yield "product_rule", worst / (n * su * sv), pr_loc
            yield "parts", abs(parts_residual(u, v)) / (n * su * sv), loc


def _dft_identities(s: _Suite):
    # the catalog cells first, then seeded random data, each draw made when
    # the loop reads it, so no more than one earlier draw is held
    catalog = ((*s.cell(name, n), name, n) for name in s.fns for n in s.ns)
    draws = (
        (gf, discrete_coefficients(gf), f"random:{rep}", n)
        for n in s.ns
        for rep in range(DFT_RANDOM_REPS)
        for gf in (random_grid_function(s.cfg.seed, "dft", n, rep),)
    )
    for gf, spectrum, label, n in chain(catalog, draws):
        r1, r2 = _dft_identity_residuals(gf, spectrum)
        scale = 1.0 + gf.max_abs()
        w1, m1 = _worst_mode(np.abs(r1), n)
        w2, m2 = _worst_mode(np.abs(r2), n)
        yield "dft_identity_1", w1 / scale, WorstLocation(label, n, m1)
        yield "dft_identity_2", w2 / scale, WorstLocation(label, n, m2)


def _symbol_sweep(s: _Suite):
    sizes = np.array(sorted(set(range(1, SYMBOL_SWEEP_MAX + 1)) | set(s.ns)))
    # one sequence of the pairs (n, j), j = 0 .. n, sizes ascending; the pair
    # (sizes[i], 0) is number starts[i]
    counts = sizes + 1
    starts = np.cumsum(counts) - counts
    total = int(starts[-1] + counts[-1])
    for first in range(0, total, _SWEEP_BLOCK_PAIRS):
        pairs = np.arange(first, min(first + _SWEEP_BLOCK_PAIRS, total))
        size = np.searchsorted(starts, pairs, side="right") - 1
        nn = sizes[size]
        jj = pairs - starts[size]
        # column 0 holds psi_n(-j) = phi_n(+j), from its own exp, and column 1 psi_n(+j)
        psi = np.empty((len(nn), 2), dtype=np.complex128)
        psi[:, 0] = adjoint_symbol(nn, jj)
        psi[:, 1] = forward_symbol(nn, jj)
        abs_psi = np.abs(psi)

        # at -j, psi is column 0 and phi column 1; the four terms at +j are the
        # same floats, so one value serves the pair
        mag = np.abs(psi[:, 0] - np.conj(psi[:, 1]))
        del psi  # freed before the real temporaries: it bounds the block's peak
        two_n = 2.0 * nn
        neg, pos = abs_psi[:, 0], abs_psi[:, 1]
        for term in (pos - two_n, neg - two_n, np.abs(pos - neg)):
            np.maximum(mag, term, out=mag)
        mag /= nn

        msq = (4.0 * jj.astype(float) ** 2)[:, None]
        lower = np.square(abs_psi, out=abs_psi)
        np.subtract(msq, lower, out=lower)
        with np.errstate(invalid="ignore"):  # 0/0 at j = 0
            np.divide(lower, msq, out=lower)
        # neither j = 0 nor +n, which is not a mode of the 2n-point grid, is read
        lower[jj == 0] = -np.inf
        lower[jj == nn, 1] = -np.inf

        # flattened, the rows run through each size's modes in canonical order,
        # -j before +j, so the first maximum of a block (a NaN first of all) is
        # the first maximum of the per-size first maxima
        pair, positive = divmod(int(lower.argmax()), 2)
        j = int(jj[pair])
        loc = WorstLocation(None, int(nn[pair]), j if positive else -j)
        yield "psi_lower", float(lower[pair, positive]), loc
        k = int(mag.argmax())
        yield "phi_psi_mag", float(mag[k]), WorstLocation(None, int(nn[k]), -int(jj[k]))


def _decay_lemma(s: _Suite):
    for name, f in s.fns.items():
        c = s.consts[name]
        for n in s.ns:
            gf, spectrum = s.cell(name, n)
            # on the endpoint-centered catalog
            max_F, m_F, max_g2, m_g2 = _uniform_maxima(gf - f.endpoint_value)
            yield "F_bound", max_F - 5.0 * c.D, WorstLocation(name, n, m_F)
            yield "g2_bound", max_g2 - (c.M + 2.0 * c.B), WorstLocation(name, n, m_g2)
            check = decay_bound_check(spectrum, c.H)
            yield "decay_H", check.worst_ratio, WorstLocation(name, n, check.worst_m)


def _tails(s: _Suite):
    for name in s.fns:
        for eps in s.cfg.epsilons:
            thr = tail_threshold(s.consts[name].H, eps)
            # the tail grid is pinned by the threshold, independent of grid_sizes
            n_tail = TAIL_BASE_GRID if thr <= TAIL_BASE_GRID else TAIL_BIG_GRID
            # tested before the floor, which an infinite threshold overflows
            if thr >= n_tail - 1:
                # no admissible range below this grid size: vacuous
                yield "tail_eps", 0.0, WorstLocation(name, n_tail)
                continue
            L = math.floor(thr) + 1
            spec = s.cell(name, n_tail)[1]
            # negative range first: the first maximum keeps it on a tie
            neg = tail_sum(spec, -(n_tail - 1), -L)
            yield "tail_eps", neg / eps, WorstLocation(name, n_tail, -L)
            pos = tail_sum(spec, L, n_tail - 1)
            yield "tail_eps", pos / eps, WorstLocation(name, n_tail, L)
        # the epsilons share a tail grid; off the grid sizes no later runner reads it
        for n_tail in (TAIL_BASE_GRID, TAIL_BIG_GRID):
            if n_tail not in s.ns:
                s.cells.pop((name, n_tail), None)


def _limits(s: _Suite):
    n_min, n_max = s.ns[0], s.ns[-1]
    modes = [m for m in CONVERGENCE_MODES if -n_min <= m <= n_min - 1]
    for name, f in s.fns.items():
        # the exact coefficients of the support, evaluated once for all n
        exact = np.fromiter(map(f.exact_coefficient, f.support), np.complex128, len(f.support))
        for n in s.ns:
            gf, spectrum = s.cell(name, n)
            d = spectrum.coefficients - _alias_fold_table(f.support, exact, n)
            # hypot, the libm call of Python's complex abs, which np.abs can miss by an ulp
            diffs = np.hypot(d.real, d.imag)
            diff, m = _worst_mode(diffs, n, include_zero=True)
            yield "alias_oracle", diff / max(1.0, gf.max_abs()), WorstLocation(name, n, m)
        # the limits are read at the scale of the largest grid's sample
        gf = s.cell(name, n_max)[0]
        scale = max(1.0, gf.max_abs())
        for m in modes:
            exact_m = coefficient(f, m)
            gaps = [abs(s.cell(name, n)[1].coeff(m) - exact_m) / scale for n in s.ns]
            yield "coeff_convergence", gaps[-1], WorstLocation(name, n_max, m)
            for k in range(1, len(s.ns)):
                inc = gaps[k] - gaps[k - 1]
                yield "coeff_convergence", inc, WorstLocation(name, s.ns[k], m)
        yield "integral_darboux", _integral_gap(f, gf) / scale, WorstLocation(name, n_max)


def _m_test(s: _Suite):
    orders = [N for N in MTEST_ORDERS if N <= s.cfg.mode_limit]
    table = _sup_error_table(list(s.fns.values()), orders, SUP_ERROR_SAMPLES)
    for name, errs in zip(s.fns, table):
        residuals = errs - m_test_majorants(s.consts[name].H, orders)
        for N, residual in zip(orders, residuals.tolist()):
            yield "m_test_domination", residual, WorstLocation(name, None, N)


# Budgets: 1e-12*scale for the purely algebraic identities, 1e-10*scale
# once a symbol division enters, 1e-9*scale for the squared-symbol
# identity, and the explicit slacks of the bound checks.  The three
# checks against continuum values (alias_oracle, coeff_convergence,
# integral_darboux) take scale = max(1, max|f|) over the cell's sample.
CHECKS = (
    Check("inversion", "transform-roundtrip-exactness", 1e-10, _inversion),
    Check("ftc", "telescoping-fundamental-identity", 1e-12, _calculus),
    Check("product_rule", "difference-product-rule", 1e-12, _calculus),
    Check("parts", "summation-by-parts", 1e-12, _calculus),
    Check("dft_identity_1", "first-derivative-transform-identity", 1e-10, _dft_identities),
    Check("dft_identity_2", "second-derivative-transform-identity", 1e-9, _dft_identities),
    Check("psi_lower", "symbol-quadratic-lower-bound", 1e-9, _symbol_sweep),
    Check("phi_psi_mag", "symbol-conjugacy-and-magnitude", 1e-12, _symbol_sweep),
    Check("F_bound", "boundary-term-uniform-bound", 1e-9, _decay_lemma),
    Check("g2_bound", "second-difference-spectrum-uniform-bound", 1e-9, _decay_lemma),
    Check("decay_H", "quadratic-coefficient-decay", 1.0, _decay_lemma),
    Check("tail_eps", "tail-sum-smallness", 1.0, _tails),
    Check("alias_oracle", "alias-folding-identity", 1e-12, _limits),
    Check("coeff_convergence", "grid-to-continuum-coefficient-limit", 1e-10, _limits),
    Check("integral_darboux", "grid-to-continuum-integral-limit", 1e-10, _limits),
    Check("m_test_domination", "uniform-convergence-majorant", 1e-9, _m_test),
)
CHECK_NAMES = tuple(check.name for check in CHECKS)


def run_lemma_suite(cfg: SuiteConfig) -> list[LemmaReport]:
    """Run every check over the configured cross-product.

    Returns one report per check name, sorted by check name.  Raises
    ValueError for an unknown function name; the config checked the rest.
    """
    suite = _build_suite(cfg)
    found = {check.name: [] for check in CHECKS}
    for run in dict.fromkeys(check.run for check in CHECKS):
        for name, residual, loc in run(suite):
            found[name].append((residual, loc))
    reports = []
    for check in sorted(CHECKS, key=attrgetter("name")):
        tol = cfg.tolerance_overrides.get(check.name, check.tolerance)
        residuals, locs = zip(*found[check.name])
        k = int(np.argmax(residuals))
        residual = float(residuals[k])
        status = "pass" if residual <= tol else "fail"
        reports.append(LemmaReport(check.name, status, residual, locs[k], tol))
    return reports


def run_convergence(function_name: str, N_values, samples: int = SUP_ERROR_SAMPLES) -> list[ConvergenceRow]:
    """Sup-error and majorant rows for strictly increasing truncation orders."""
    f = get_function(function_name)
    N_values = _orders(N_values, 1)
    if any(b <= a for a, b in zip(N_values, N_values[1:])):
        raise ValueError(f"N values must be strictly increasing, got {N_values}")
    bounds = m_test_majorants(bound_constants(f).H, N_values).tolist()
    errs = _sup_error_table([f], N_values, samples)[0].tolist()
    return [ConvergenceRow(*row) for row in zip(N_values, errs, bounds)]


def _decay_table(function_name: str, n: int) -> Iterator[tuple[int, float, float]]:
    """Check the inputs, sample and transform; return an iterator over the decay table's rows.

    The table has one row (m, |ghat_n(m)|, H/m^2) per nonzero mode m = -n .. n-1,
    ascending; the rows are made _DECAY_BLOCK modes at a time, as they are read.
    """
    f = get_function(function_name)
    n = _check_integer(n, "grid size", 1, MAX_SPECTRUM_N)
    H = bound_constants(f).H
    coeffs = discrete_coefficients(sample(f, build_grid(n))).coefficients

    def block(start: int) -> Iterator[tuple[int, float, float]]:
        # modes from start up to the next block, 0 or n; mode m sits at m + n
        ms = range(start, min(start + _DECAY_BLOCK, 0 if start < 0 else n))
        cs = coeffs[start + n : ms.stop + n].tolist()
        # scalar abs on purpose (np.abs can differ in the last ulp); m * m is
        # exact in float64 for |m| <= 2^16
        return zip(ms, map(abs, cs), [H / (m * m) for m in ms])

    starts = chain(range(-n, 0, _DECAY_BLOCK), range(1, n, _DECAY_BLOCK))
    return chain.from_iterable(map(block, starts))


def run_spectrum_decay(function_name: str, n: int) -> list[tuple[int, float, float]]:
    """Rows (m, |ghat_n(m)|, H/m^2) for every nonzero mode, ascending m.

    The rows of the decay table that ``gridfourier spectrum`` writes, as one list.
    """
    return list(_decay_table(function_name, n))
