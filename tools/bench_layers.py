"""Time the gridfourier layers in process and write a BENCH json.

Usage:  python tools/bench_layers.py [--parent REV] [--runs K] [--out FILE]

Measures the gridfourier of this checkout (its ``src``) and, with
``--parent``, the one of git revision REV, extracted with ``git archive``
into a temporary directory.  Both trees are byte-compiled first
(``compileall``), so that the import layers time loading, not the
compilation of a tree without current ``.pyc`` files.  Every layer, the
import floor included, is timed in one loop of K + 1 rounds (K defaults
to 7, at least 5).  Each round starts one fresh interpreter per tree, and
the tree that goes first flips from round to round, so a drift of the
host speed reaches both trees alike.  Each interpreter times ``import
numpy`` first, then ``import gridfourier.cli`` on top of it, so that
gridfourier's own import is not lost in numpy's noise, then the first
default suite, once, with whatever it imports on first use; then each
other layer after one warm-up call: the layer is called until MIN_ROUND_S
seconds have passed, at least once, and its time is the elapsed time
over the number of calls, so a layer far below a millisecond is timed
over many calls.  Each round then launches three commands for their max
RSS (the *_rss_mb rows) and the four commands of the benchmark's
workloads for their wall time as fresh processes, from spawn to exit
(the *_process_s rows: the median of PROCESS_REPEATS = 5 processes),
one tree right after the other, in the round's tree order.  Each goes
through ``perfbench/launch.py``, a numpy-free process whose only child
is that command.  Round 0 warms the file cache and is dropped; every
layer keeps the median of the other K rounds.  The JSON on stdout, or
in FILE, holds each layer's seconds per call (the three *_rss_mb rows in
MB) for the parent and the change side by side, with the git SHAs, the
numpy version and nproc.

Layers:
  import_numpy       import numpy, first thing in the interpreter
  import_own         import gridfourier.cli, right after numpy: gridfourier's own share
  verify_first       the first run_lemma_suite(SuiteConfig()), with the imports it triggers
  verify_rss_mb      max RSS in MB of a fresh `python -m gridfourier verify` (not seconds)
  random_inputs      the 112 random grid functions of the default verify suite
  m_test_majorants   m_test_majorants(H, 1..64), H of expcos
  sup_errors         sup_errors(expcos, 1..64) at the default 2048 samples
  run_convergence    run_convergence("expcos", 1..64)
  m_test_runner      the m_test_domination runner on the default verify suite
  alias_runner       the alias_oracle runner on trig:1000000 at 4 grid sizes
  symbol_sweep       the psi_lower / phi_psi_mag runner on the default verify suite
  dft_identities     the dft_identity runner on the default verify suite
  spectrum_rows      run_spectrum_decay("expcos", 4096)
  spectrum_text      the whole `spectrum --function expcos --n 4096` table, in process, to devnull
  spectrum_rss_mb    max RSS in MB of a fresh `python -m gridfourier spectrum --function expcos
                     --n 4096` (not seconds)
  rescale_rss_mb     max RSS in MB of a fresh `python -m gridfourier rescale-demo --a 0 --b 3
                     --function exp-cos-period --N 8159` (not seconds)
  verify_suite       run_lemma_suite(SuiteConfig()), the default verify in process
  verify_process_s   wall time of a fresh `python -m gridfourier verify`, start and exit included
  converge_process_s wall time of a fresh `python -m gridfourier converge --function expcos
                     --N 1,2,...,64`
  spectrum_process_s wall time of a fresh `python -m gridfourier spectrum --function expcos
                     --n 4096`
  rescale_process_s  wall time of a fresh `python -m gridfourier rescale-demo --function
                     exp-cos-period --N 64 --a=-0.75 --b=2.125`
"""

import argparse
import compileall
import contextlib
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
LAUNCHER = ROOT / "perfbench" / "launch.py"
ORDERS = range(1, 65)
SPECTRUM_ARGV = ["spectrum", "--function", "expcos", "--n", "4096"]
# Row name -> the gridfourier command whose max RSS it records.
RSS_COMMANDS = {
    "verify_rss_mb": ["verify"],
    "spectrum_rss_mb": SPECTRUM_ARGV,
    "rescale_rss_mb": ["rescale-demo", "--a", "0", "--b", "3", "--function", "exp-cos-period",
                       "--N", "8159"],
}
# Row name -> the gridfourier command whose wall time as a fresh process it
# records: one op of each perfbench workload, with a fixed seed and interval.
PROCESS_COMMANDS = {
    "verify_process_s": ["verify"],
    "converge_process_s": ["converge", "--function", "expcos", "--N", ",".join(map(str, ORDERS))],
    "spectrum_process_s": SPECTRUM_ARGV,
    "rescale_process_s": ["rescale-demo", "--function", "exp-cos-period", "--N", "64",
                          "--a=-0.75", "--b=2.125"],
}
# Fresh processes of one PROCESS_COMMANDS command per tree and round, whose
# median is the round's time.  One process's wall time spreads by tens of
# milliseconds on a shared host, as much as a change of its exit can save.
PROCESS_REPEATS = 5
# Least time spent in one layer per round; each import is timed once.
MIN_ROUND_S = 0.1


def _layers():
    """Layer name -> a callable running it once, on the gridfourier importable here."""
    from gridfourier import cli, verification
    from gridfourier.continuous_fourier import m_test_majorants, sup_errors
    from gridfourier.functions import bound_constants, get_function
    from gridfourier.verification import (
        SuiteConfig,
        run_convergence,
        run_lemma_suite,
        run_spectrum_decay,
    )

    f = get_function("expcos")
    H = bound_constants(f).H
    cfg = SuiteConfig()
    suite = verification._build_suite(cfg)
    # the 112 draws of the inversion, calculus and dft runners, in run order
    ns, reps = cfg.grid_sizes, range(verification.RANDOM_REPS)
    draws = [("inversion", n, rep, 0) for n in ns for rep in reps]
    draws += [("calculus", n, rep, part) for n in ns for rep in reps for part in (0, 1)]
    draws += [("dft", n, rep, 0) for n in ns for rep in range(verification.DFT_RANDOM_REPS)]
    alias_suite = verification._build_suite(SuiteConfig(function_names=("trig:1000000",)))

    def spectrum_text():
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            cli.main(SPECTRUM_ARGV)

    return {
        "random_inputs": lambda: [
            verification.random_grid_function(cfg.seed, *key) for key in draws
        ],
        "m_test_majorants": lambda: m_test_majorants(H, ORDERS),
        "sup_errors": lambda: sup_errors(f, ORDERS),
        "run_convergence": lambda: run_convergence("expcos", ORDERS),
        "m_test_runner": lambda: list(verification._m_test(suite)),
        "alias_runner": lambda: list(verification._alias(alias_suite)),
        "symbol_sweep": lambda: list(verification._symbol_sweep(suite)),
        "dft_identities": lambda: list(verification._dft_identities(suite)),
        "spectrum_rows": lambda: run_spectrum_decay("expcos", 4096),
        "spectrum_text": spectrum_text,
        "verify_suite": lambda: run_lemma_suite(SuiteConfig()),
    }


def _child() -> None:
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_done = time.perf_counter()
    import gridfourier.cli  # noqa: F401

    own_done = time.perf_counter()
    from gridfourier.verification import SuiteConfig, run_lemma_suite

    run_lemma_suite(SuiteConfig())
    seconds = {
        "import_numpy": numpy_done - start,
        "import_own": own_done - numpy_done,
        "verify_first": time.perf_counter() - own_done,
    }
    for name, run in _layers().items():
        run()
        calls = 0
        start = time.perf_counter()
        while calls == 0 or time.perf_counter() - start < MIN_ROUND_S:
            run()
            calls += 1
        seconds[name] = (time.perf_counter() - start) / calls
    print(json.dumps(seconds))


def _launch(args: list[str], env: dict, tmp: str) -> dict:
    """``{"seconds", "code", "maxrss_kib"}`` of one fresh ``python -m gridfourier ARGS``.

    The command is spawned by perfbench/launch.py, which stays far below
    it, because Linux charges a new process with the peak RSS of the
    process it was forked from.
    """
    request = {
        "cmd": [sys.executable, "-m", "gridfourier", *args],
        "cwd": tmp,
        "out": os.path.join(tmp, "launch.out"),
        "err": os.path.join(tmp, "launch.err"),
        "timeout": 600,
    }
    out = subprocess.run([sys.executable, "-I", "-S", str(LAUNCHER)], env=env,
                         input=json.dumps(request) + "\n", capture_output=True, text=True,
                         check=True).stdout
    reply = json.loads(out)
    if reply["code"] != 0:
        raise RuntimeError(f"{args[0]} exited {reply['code']}: {Path(request['err']).read_text()}")
    return reply


def _measure(srcs: dict, runs: int, tmp: str) -> dict:
    """Tree name -> layer medians, for every tree in srcs (tree name -> src path)."""
    envs = {tree: {**os.environ, "PYTHONPATH": str(src)} for tree, src in srcs.items()}
    rounds = {tree: [] for tree in srcs}
    order = list(srcs)
    for _ in range(runs + 1):
        for tree in order:
            out = subprocess.run([sys.executable, __file__, "--child"], env=envs[tree],
                                 capture_output=True, text=True, check=True).stdout
            rounds[tree].append(json.loads(out.splitlines()[-1]))
        # each command runs for one tree right after the other, so that the
        # host's drift over a round's children does not fall on one tree
        for name, args in RSS_COMMANDS.items():
            for tree in order:
                rounds[tree][-1][name] = _launch(args, envs[tree], tmp)["maxrss_kib"] / 1024.0
        for name, args in PROCESS_COMMANDS.items():
            seconds = {tree: [] for tree in order}
            for _ in range(PROCESS_REPEATS):
                for tree in order:
                    seconds[tree].append(_launch(args, envs[tree], tmp)["seconds"])
            for tree in order:
                rounds[tree][-1][name] = statistics.median(seconds[tree])
        order.reverse()
    # round 0 warmed the file cache
    return {
        tree: {name: statistics.median(r[name] for r in kept[1:]) for name in kept[0]}
        for tree, kept in rounds.items()
    }


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
    if args.child:
        _child()
        return 0
    if args.runs < 5:
        parser.error("--runs must be at least 5")

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
        for src in srcs.values():
            compileall.compile_dir(src / "gridfourier", quiet=1)
        results = _measure(srcs, args.runs, tmp)

    layers = {}
    for name in results["change"]:
        row = {side: results[side][name] for side in ("parent", "change") if side in results}
        if "parent" in row:
            row["change/parent"] = row["change"] / row["parent"]
        layers[name] = row
    payload = {
        "tool": "tools/bench_layers.py",
        "statistic": (f"median seconds per call over {args.runs} rounds after one warm-up "
                      "round; each round times every layer in one fresh interpreter per tree, "
                      f"after one warm-up call, over as many calls as fill {MIN_ROUND_S} s "
                      "(import_numpy, import_own and verify_first once; verify_rss_mb, "
                      "spectrum_rss_mb and rescale_rss_mb are the max RSS in MB of one fresh "
                      "verify, one fresh spectrum --n 4096 and one fresh rescale-demo "
                      "--N 8159; each *_process_s row is the median wall time of "
                      f"{PROCESS_REPEATS} fresh processes of that command per round), both "
                      "trees byte-compiled before round 0, and the tree that goes first "
                      "flips each round"),
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
