"""Self-test of the benchmark: its checks catch bad output, its work ignores the seed.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py

Part 1 runs one real op per command under test, then feeds the op
bookkeeping corrupted copies of the output and shows that
``failed_ops_share`` rises from 0: a flipped digit in a spectrum row, a
loosened tolerance in the verify JSON, a nonzero exit, and a rerun whose
bytes differ in the last digit.  Part 2 runs one traced round of every
workload under two seeds and requires identical per-layer counts.
Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import sys

from run import WORKLOADS, Run, build, child_env, layer_metrics, PER_LAYER_UNITS

SEEDS = (11, 12)


def _flip_digit(text: str, pos: int) -> str:
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1 :]


def _spectrum_corruptions(stdout: bytes) -> dict:
    lines = stdout.decode().split("\n")
    row = next(k for k, line in enumerate(lines) if line.startswith("1,"))
    m, coeff, bound = lines[row].split(",")
    flipped = lines.copy()
    flipped[row] = ",".join([m, _flip_digit(coeff, 4), bound])
    last = lines.copy()
    last[row] = ",".join([m, _flip_digit(coeff, len(coeff) - 1), bound])
    return {"flipped digit": "\n".join(flipped).encode(), "last digit": "\n".join(last).encode()}


def _loosened_tolerance(stdout: bytes) -> bytes:
    payload = json.loads(stdout)
    for report in payload["reports"]:
        if report["check_name"] == "ftc":
            report["tolerance_used"] = 1e-6
    return (json.dumps(payload, indent=2) + "\n").encode()


def check_corruptions(env: dict) -> bool:
    spectrum = ["spectrum", "--function", "expcos", "--n", "4096"]
    verify = ["verify", "--seed", "7"]
    outputs = {}
    with Run(env) as clean:
        for argv in (spectrum, verify):
            clean.op(argv, traced=False)
            outputs[tuple(argv)] = clean.first_output[tuple(argv)]
    ok = clean.failed_share == 0.0
    print(f"clean outputs: failed_ops_share={clean.failed_share:.3f} (expect 0)")
    spectrum_bad = _spectrum_corruptions(outputs[tuple(spectrum)])
    cases = [
        ("spectrum, flipped digit", spectrum, 0, spectrum_bad["flipped digit"], False),
        ("verify, loosened tolerance", verify, 0, _loosened_tolerance(outputs[tuple(verify)]), False),
        ("verify, exit code 1", verify, 1, outputs[tuple(verify)], False),
        ("spectrum, rerun differs in last digit", spectrum, 0, spectrum_bad["last digit"], True),
    ]
    for label, argv, rc, stdout, after_clean in cases:
        run = Run(env)
        if after_clean:
            run.record(argv, False, 0, outputs[tuple(argv)])
        before = run.failed_share if run.attempted else 0.0
        run.record(argv, False, rc, stdout)
        rose = run.failed_share > before
        ok &= rose
        reason = run.failures[-1]["reason"] if run.failures else "accepted"
        print(f"{label}: failed_ops_share {before:.3f} -> {run.failed_share:.3f} ({reason})")
    return ok


def check_seed_independence(env: dict) -> bool:
    counted = [n for n, unit in PER_LAYER_UNITS.items() if unit == "count"]
    counted.append("discrete_fourier.repeat_share")
    ok = True
    for workload, make_argvs in WORKLOADS.items():
        seen = []
        for seed in SEEDS:
            with Run(env) as run:
                for argv in make_argvs(random.Random(seed)):
                    run.op(argv, traced=True)
            ok &= not run.failures
            metrics = layer_metrics(run.profiles)
            seen.append({name: metrics[name] for name in counted})
        same = seen[0] == seen[1]
        ok &= same
        diff = {k: (seen[0][k], seen[1][k]) for k in counted if seen[0][k] != seen[1][k]}
        print(f"{workload}: counts {'identical' if same else 'differ'} for seeds {SEEDS}" + (f" {diff}" if diff else ""))
    return ok


def main() -> int:
    env = child_env()
    build(env)
    ok = check_corruptions(env)
    ok &= check_seed_independence(env)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
