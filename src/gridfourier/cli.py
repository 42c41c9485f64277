"""Command-line entry point: verification suites and convergence tables.

Subcommands: ``verify`` (JSON lemma reports), ``converge`` (CSV sup-error
table), ``spectrum`` (CSV coefficient-decay dump), ``rescale-demo`` (CSV
reconstruction on a general interval).  Output is locale-independent with
LF line endings and 17-significant-digit floats; rerunning a command with
identical flags yields byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .continuous_fourier import MAX_PHASE_CELLS, rescale
from .grid import _evaluate, _pointwise
from .verification import (
    MAX_SPECTRUM_N,
    SuiteConfig,
    run_convergence,
    run_lemma_suite,
    run_spectrum_decay,
)

JSON_SCHEMA_VERSION = 1
WORKER_ENV_VAR = "FOURIER_WORKERS"

_RESCALE_DEMO_POINTS = 257


class _UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _parse_int_list(raw: str, flag: str, minimum: int, maximum: int | None = None) -> list[int]:
    items = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = int(piece)
        except ValueError:
            raise _UsageError(f"{flag}: not an integer: {piece!r}")
        if value < minimum:
            raise _UsageError(f"{flag}: invalid value {value} (must be >= {minimum})")
        if maximum is not None and value > maximum:
            raise _UsageError(f"{flag}: invalid value {value} (must be <= {maximum})")
        items.append(value)
    if not items:
        raise _UsageError(f"{flag}: empty list")
    return items


def _parse_float_list(raw: str, flag: str) -> list[float]:
    items = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(piece)
        except ValueError:
            raise _UsageError(f"{flag}: not a number: {piece!r}")
        if not math.isfinite(value):
            raise _UsageError(f"{flag}: non-finite value {piece!r}")
        if value <= 0:
            raise _UsageError(f"{flag}: invalid value {value} (must be > 0)")
        items.append(value)
    if not items:
        raise _UsageError(f"{flag}: empty list")
    return items


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise _UsageError(f"--tolerance: expected name=value, got {pair!r}")
        try:
            tol = float(value)
        except ValueError:
            raise _UsageError(f"--tolerance: not a number: {value!r}")
        if not math.isfinite(tol):
            raise _UsageError(f"--tolerance: non-finite value for {name}: {value!r}")
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
        raise _UsageError(f"{WORKER_ENV_VAR}: not an integer: {raw!r}")
    if count < 1:
        raise _UsageError(f"{WORKER_ENV_VAR}: must be a positive integer, got {count}")


def _cmd_verify(args) -> int:
    if args.format != "json":
        raise _UsageError(f"--format: only 'json' is supported, got {args.format!r}")
    cfg = SuiteConfig(
        function_names=tuple(s.strip() for s in args.functions.split(",") if s.strip()),
        grid_sizes=tuple(_parse_int_list(args.grid_sizes, "--grid-sizes", 1, MAX_SPECTRUM_N)),
        mode_limit=args.mode_limit,
        epsilons=tuple(_parse_float_list(args.epsilons, "--epsilons")),
        seed=args.seed,
        tolerance_overrides=_parse_overrides(args.tolerance),
    )
    _validate_worker_env()
    try:
        reports = run_lemma_suite(cfg)
    except ValueError as exc:
        raise _UsageError(str(exc))
    payload = {
        "schema": JSON_SCHEMA_VERSION,
        "reports": [r.to_dict() for r in reports],
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _check_phase_cells(flag: str, rows: int, rows_text: str, N: int) -> None:
    cells = rows * (2 * N + 1)
    if cells > MAX_PHASE_CELLS:
        raise _UsageError(
            f"{flag}: the {rows_text} x (2*{N}+1) phase matrix"
            f" has {cells} cells, above the limit of {MAX_PHASE_CELLS}"
        )


def _cmd_converge(args) -> int:
    orders = _parse_int_list(args.N, "--N", 1)
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise _UsageError(f"--N: values must be strictly increasing, got {orders}")
    if args.samples < 2:
        raise _UsageError(f"--samples: must be >= 2, got {args.samples}")
    _check_phase_cells("--samples/--N", args.samples + 1, f"({args.samples}+1)", orders[-1])
    try:
        rows = run_convergence(args.function, orders, args.samples)
    except ValueError as exc:
        raise _UsageError(str(exc))
    lines = ["N,sup_error,m_test_bound"]
    for row in rows:
        lines.append(f"{row.N},{_fmt(row.sup_error)},{_fmt(row.m_test_bound)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if not 1 <= args.n <= MAX_SPECTRUM_N:
        raise _UsageError(f"--n: must be in [1, {MAX_SPECTRUM_N}], got {args.n}")
    try:
        rows = run_spectrum_decay(args.function, args.n)
    except ValueError as exc:
        raise _UsageError(str(exc))
    lines = ["m,abs_coeff,decay_bound"]
    for m, abs_coeff, bound in rows:
        lines.append(f"{m},{_fmt(abs_coeff)},{_fmt(bound)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _demo_function(kind: str, a: float, b: float):
    w = 2.0 * math.pi / (b - a)
    if not math.isfinite(w):
        raise _UsageError(f"interval too short: 2*pi/(b - a) overflows for a={a}, b={b}")
    if kind == "cos-period":
        return lambda x: math.cos(w * (x - a))
    if kind == "exp-cos-period":
        return lambda x: math.exp(math.cos(w * (x - a)))
    raise _UsageError(f"--function: unknown demo function {kind!r}")


def _cmd_rescale_demo(args) -> int:
    if not (args.b > args.a and math.isfinite(args.b - args.a)):
        raise _UsageError(f"need a < b with b - a finite, got a={args.a}, b={args.b}")
    if args.N < 0:
        raise _UsageError(f"--N: must be >= 0, got {args.N}")
    _check_phase_cells("--N", _RESCALE_DEMO_POINTS, str(_RESCALE_DEMO_POINTS), args.N)
    ev = _demo_function(args.function, args.a, args.b)
    scaled = rescale(ev, args.a, args.b, name=args.function)
    xs = np.linspace(args.a, args.b, _RESCALE_DEMO_POINTS)
    fvals = _evaluate(_pointwise(ev), xs, args.function)
    recons = scaled.reconstruct(args.N, xs)
    lines = ["x,f,reconstruction,abs_error"]
    for x, fx, recon in zip(xs, fvals.tolist(), recons.tolist()):
        lines.append(
            f"{_fmt(x)},{_fmt(fx.real)},{_fmt(recon.real)},{_fmt(abs(fx - recon))}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfourier",
        description="Finite-grid Fourier analysis: lemma verification and convergence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the lemma suite, emit JSON reports")
    p_verify.add_argument("--functions", default="cos:1,trig:1,trig:3,expcos")
    p_verify.add_argument("--grid-sizes", default="4,16,64,256")
    p_verify.add_argument("--mode-limit", type=int, default=32)
    p_verify.add_argument("--epsilons", default="0.1,0.01")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tolerance", action="append", metavar="CHECK=TOL")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_conv = sub.add_parser("converge", help="sup-error vs truncation order, CSV")
    p_conv.add_argument("--function", required=True)
    p_conv.add_argument("--N", default="1,2,4,8,16,32")
    p_conv.add_argument("--samples", type=int, default=2048)
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
