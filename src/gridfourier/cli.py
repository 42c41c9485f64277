"""Command-line entry point: verification suites and convergence tables.

Subcommands: ``verify`` (JSON lemma reports), ``converge`` (CSV sup-error
table), ``spectrum`` (CSV coefficient-decay dump), ``rescale-demo`` (CSV
reconstruction on a general interval).  Output is locale-independent with
LF line endings and 17-significant-digit floats; rerunning a command with
identical flags yields byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Bad input has one error path: every check, here and in the library,
raises ValueError, and ``main`` alone turns it into one ``error:`` line
on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from . import continuous_fourier
from .continuous_fourier import SUP_ERROR_SAMPLES, rescale
from .grid import _evaluate, _pointwise
from .verification import (
    MAX_SPECTRUM_N,
    SuiteConfig,
    _decay_table,
    run_convergence,
    run_lemma_suite,
)

JSON_SCHEMA_VERSION = 1
WORKER_ENV_VAR = "FOURIER_WORKERS"

_RESCALE_DEMO_POINTS = 257
# Rows of a CSV table formatted and written at once.  The time per row is
# flat from 127 to 16383 rows, while the writer's tracemalloc peak grows with
# the chunk: 0.12 MiB at 511 rows, 0.7 MiB at 4095.  Odd, so that a spectrum
# table of 2n - 1 rows can end on a chunk boundary (n = 256 or 767).
_CHUNK_ROWS = 511


def _write_output(pieces, out: str | None) -> None:
    """Write the text pieces in order to stdout, or to the file ``out``, opened only now.

    A write error on ``out`` raises ValueError("--out: ...").  When the
    reader of stdout closes it early, the writing stops there and stdout is
    pointed at devnull, so that neither the exit code nor stderr changes
    and the flush at exit has nowhere to fail.
    """
    if out is None or out == "-":
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None


def _write_table(header: str, row_format: str, rows, out: str | None) -> None:
    """Write a CSV table through ``_write_output``: the header, then the value tuples of ``rows``.

    ``rows`` is any iterable, read once and in order.  The rows are
    formatted _CHUNK_ROWS at a time, each chunk by one ``%`` on row_format
    repeated, and written before the next chunk is read, so the whole text
    is never held.
    """
    rows = iter(rows)

    def chunks():
        yield header + "\n"
        while chunk := tuple(islice(rows, _CHUNK_ROWS)):
            yield (row_format * len(chunk)) % tuple(chain.from_iterable(chunk))

    _write_output(chunks(), out)


def _parse_list(raw: str, flag: str, convert, what: str, check) -> list:
    """Convert the nonempty comma-separated pieces in order; check(value, piece) vets each."""
    items = []
    for piece in filter(None, map(str.strip, raw.split(","))):
        try:
            value = convert(piece)
        except ValueError:
            raise ValueError(f"{flag}: {what}: {piece!r}") from None
        check(value, piece)
        items.append(value)
    if not items:
        raise ValueError(f"{flag}: empty list")
    return items


def _parse_int_list(raw: str, flag: str, minimum: int, maximum: float = math.inf) -> list[int]:
    def check(value, _):
        if value < minimum:
            raise ValueError(f"{flag}: invalid value {value} (must be >= {minimum})")
        if value > maximum:
            raise ValueError(f"{flag}: invalid value {value} (must be <= {maximum})")

    return _parse_list(raw, flag, int, "not an integer", check)


def _parse_float_list(raw: str, flag: str) -> list[float]:
    def check(value, piece):
        if not math.isfinite(value):
            raise ValueError(f"{flag}: non-finite value {piece!r}")
        if value <= 0:
            raise ValueError(f"{flag}: invalid value {value} (must be > 0)")

    return _parse_list(raw, flag, float, "not a number", check)


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--tolerance: expected name=value, got {pair!r}")
        try:
            tol = float(value)
        except ValueError:
            raise ValueError(f"--tolerance: not a number: {value!r}") from None
        if not math.isfinite(tol):
            raise ValueError(f"--tolerance: non-finite value for {name}: {value!r}")
        overrides[name] = tol
    return overrides


def _validate_worker_env() -> None:
    # the engine runs serially; the variable is still checked so that a
    # bad value keeps failing as a usage error
    raw = os.environ.get(WORKER_ENV_VAR)
    if raw is None:
        return
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{WORKER_ENV_VAR}: not an integer: {raw!r}") from None
    if count < 1:
        raise ValueError(f"{WORKER_ENV_VAR}: must be a positive integer, got {count}")


def _cmd_verify(args) -> int:
    if args.format != "json":
        raise ValueError(f"--format: only 'json' is supported, got {args.format!r}")
    # the flags are parsed, then the environment checked, then the config built
    fields = dict(
        function_names=[s.strip() for s in args.functions.split(",") if s.strip()],
        grid_sizes=_parse_int_list(args.grid_sizes, "--grid-sizes", 1, MAX_SPECTRUM_N),
        mode_limit=args.mode_limit,
        epsilons=_parse_float_list(args.epsilons, "--epsilons"),
        seed=args.seed,
        tolerance_overrides=_parse_overrides(args.tolerance),
    )
    _validate_worker_env()
    reports = run_lemma_suite(SuiteConfig(**fields))
    # imported here, in the one command that writes JSON, so that the others
    # start without it (about 2.7 ms on 2 shared vCPUs)
    import json

    payload = {
        "schema": JSON_SCHEMA_VERSION,
        "reports": [r.to_dict() for r in reports],
    }
    _write_output([json.dumps(payload, indent=2) + "\n"], args.out)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _check_phase_cells(flag: str, points: int, N: int) -> None:
    continuous_fourier._check_phase_cells(points, N, f"{flag}: {points} points and N={N}")


def _cmd_converge(args) -> int:
    orders = _parse_int_list(args.N, "--N", 1)
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"--N: values must be strictly increasing, got {orders}")
    if args.samples < 2:
        raise ValueError(f"--samples: must be >= 2, got {args.samples}")
    _check_phase_cells("--samples/--N", args.samples + 1, orders[-1])
    rows = run_convergence(args.function, orders, args.samples)
    values = attrgetter("N", "sup_error", "m_test_bound")
    _write_table("N,sup_error,m_test_bound", "%d,%.17g,%.17g\n", map(values, rows), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if not 1 <= args.n <= MAX_SPECTRUM_N:
        raise ValueError(f"--n: must be in [1, {MAX_SPECTRUM_N}], got {args.n}")
    rows = _decay_table(args.function, args.n)
    _write_table("m,abs_coeff,decay_bound", "%d,%.17g,%.17g\n", rows, args.out)
    return 0


def _demo_function(kind: str, a: float, b: float):
    w = 2.0 * math.pi / (b - a)
    if not math.isfinite(w):
        raise ValueError(f"interval too short: 2*pi/(b - a) overflows for a={a}, b={b}")
    if kind == "cos-period":
        return lambda x: math.cos(w * (x - a))
    if kind == "exp-cos-period":
        return lambda x: math.exp(math.cos(w * (x - a)))
    raise ValueError(f"--function: unknown demo function {kind!r}")


def _cmd_rescale_demo(args) -> int:
    continuous_fourier._check_interval(args.a, args.b)
    if args.N < 0:
        raise ValueError(f"--N: must be >= 0, got {args.N}")
    _check_phase_cells("--N", _RESCALE_DEMO_POINTS, args.N)
    ev = _demo_function(args.function, args.a, args.b)
    scaled = rescale(ev, args.a, args.b, name=args.function)
    xs = np.linspace(args.a, args.b, _RESCALE_DEMO_POINTS)
    fvals = _evaluate(_pointwise(ev), xs, args.function)
    recons = scaled.reconstruct(args.N, xs)
    # scalar abs on purpose: np.abs can differ in the last ulp
    table = [
        (x, fx.real, recon.real, abs(fx - recon))
        for x, fx, recon in zip(xs.tolist(), fvals.tolist(), recons.tolist())
    ]
    _write_table("x,f,reconstruction,abs_error", "%.17g,%.17g,%.17g,%.17g\n", table, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfourier",
        description="Finite-grid Fourier analysis: lemma verification and convergence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SuiteConfig()
    p_verify = sub.add_parser("verify", help="run the lemma suite, emit JSON reports")
    p_verify.add_argument("--functions", default=",".join(defaults.function_names))
    p_verify.add_argument("--grid-sizes", default=",".join(map(str, defaults.grid_sizes)))
    p_verify.add_argument("--mode-limit", type=int, default=defaults.mode_limit)
    p_verify.add_argument("--epsilons", default=",".join(map(str, defaults.epsilons)))
    p_verify.add_argument("--seed", type=int, default=defaults.seed)
    p_verify.add_argument("--tolerance", action="append", metavar="CHECK=TOL")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_conv = sub.add_parser("converge", help="sup-error vs truncation order, CSV")
    p_conv.add_argument("--function", required=True)
    p_conv.add_argument("--N", default="1,2,4,8,16,32")
    p_conv.add_argument("--samples", type=int, default=SUP_ERROR_SAMPLES)
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(func=_cmd_converge)

    p_spec = sub.add_parser("spectrum", help="coefficient magnitudes vs decay bound, CSV")
    p_spec.add_argument("--function", required=True)
    p_spec.add_argument("--n", type=int, default=64)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_demo = sub.add_parser("rescale-demo", help="reconstruction on a general interval, CSV")
    p_demo.add_argument("--a", type=float, required=True)
    p_demo.add_argument("--b", type=float, required=True)
    p_demo.add_argument("--function", default="cos-period")
    p_demo.add_argument("--N", type=int, default=8)
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=_cmd_rescale_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Entry of ``python -m gridfourier`` and the ``gridfourier`` script: ``main`` in its own process.

    ``gc.freeze()`` first moves every object the imports made (about
    21,000, most of them numpy's) out of the collector's reach, so that
    the collections at exit do not walk them and their reference cycles
    just before the process ends; the OS frees them.  What a command
    creates is collected as usual.  ``main`` leaves the collector alone,
    so a program that calls it keeps its own GC state.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
