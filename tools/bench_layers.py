"""Time the convergence-table layers in process and write a BENCH json.

Usage:  python tools/bench_layers.py [--parent REV] [--runs K] [--out FILE]

Measures the gridfourier of this checkout (its ``src``) and, with
``--parent``, the one of git revision REV, extracted with ``git archive``
into a temporary directory.  Each tree is timed in its own interpreter:
every layer runs once as a warm-up and then K times (default 7, at
least 5), and the median is kept.  The import floor is the median of K
fresh interpreters timing ``import gridfourier.cli``, after one more that
warms the file cache; the two trees take turns.  The JSON on stdout, or in FILE, holds each layer's
seconds for the parent and the change side by side, with the git SHAs,
the numpy version and nproc.

Layers:
  m_test_majorants   m_test_majorants(H, 1..64), H of expcos
  sup_errors         sup_errors(expcos, 1..64) at the default 2048 samples
  run_convergence    run_convergence("expcos", 1..64)
  m_test_runner      the m_test_domination runner on the default verify suite
  alias_runner       the alias_oracle runner on trig:1000000 at 4 grid sizes
  import_cli         import gridfourier.cli in a fresh interpreter
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDERS = range(1, 65)
IMPORT_PROBE = "import time; t = time.perf_counter(); import gridfourier.cli; print(time.perf_counter() - t)"


def _layers():
    """Layer name -> a callable running it once, on the gridfourier importable here."""
    from gridfourier import verification
    from gridfourier.continuous_fourier import m_test_majorants, sup_errors
    from gridfourier.functions import bound_constants, get_function
    from gridfourier.verification import SuiteConfig, run_convergence

    f = get_function("expcos")
    H = bound_constants(f).H
    suite = verification._build_suite(SuiteConfig())
    alias_suite = verification._build_suite(SuiteConfig(function_names=("trig:1000000",)))
    return {
        "m_test_majorants": lambda: m_test_majorants(H, ORDERS),
        "sup_errors": lambda: sup_errors(f, ORDERS),
        "run_convergence": lambda: run_convergence("expcos", ORDERS),
        "m_test_runner": lambda: list(verification._m_test(suite)),
        "alias_runner": lambda: list(verification._alias(alias_suite)),
    }


def _child(runs: int) -> None:
    medians = {}
    for name, run in _layers().items():
        run()
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        medians[name] = statistics.median(times)
    print(json.dumps(medians))


def _run(src: Path, *args: str) -> str:
    """stdout of this interpreter run with args, importing gridfourier from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def _measure(srcs: dict, runs: int) -> dict:
    """Tree name -> layer medians, for every tree in srcs (tree name -> src path)."""
    results = {
        tree: json.loads(_run(src, __file__, "--child", "--runs", str(runs)).splitlines()[-1])
        for tree, src in srcs.items()
    }
    # the trees take turns, so a drift of the host speed reaches both alike;
    # the first round warms the file cache
    imports = {tree: [] for tree in srcs}
    for _ in range(runs + 1):
        for tree, src in srcs.items():
            imports[tree].append(float(_run(src, "-c", IMPORT_PROBE)))
    for tree in srcs:
        results[tree]["import_cli"] = statistics.median(imports[tree][1:])
    return results


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to time next to this checkout")
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    if args.child:
        _child(args.runs)
        return 0

    import numpy as np

    trees = {"change": {"sha": _git("rev-parse", "HEAD"),
                        "src_modified": bool(_git("status", "--porcelain", "--", "src"))}}
    srcs = {}
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            trees["parent"] = {"sha": _git("rev-parse", args.parent)}
            archive = Path(tmp) / "parent.tar"
            _git("archive", "--output", str(archive), trees["parent"]["sha"], "src")
            with tarfile.open(archive) as tar:
                tar.extractall(tmp, filter="data")
            srcs["parent"] = Path(tmp) / "src"
        srcs["change"] = ROOT / "src"
        results = _measure(srcs, args.runs)

    layers = {}
    for name in results["change"]:
        row = {side: results[side][name] for side in ("parent", "change") if side in results}
        if "parent" in row:
            row["change/parent"] = row["change"] / row["parent"]
        layers[name] = row
    payload = {
        "tool": "tools/bench_layers.py",
        "statistic": f"median seconds of {args.runs} runs after one warm-up",
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "trees": trees,
        "layers": layers,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
