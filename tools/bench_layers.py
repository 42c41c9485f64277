"""Time the gridfourier layers in process and write a BENCH json.

Usage:  python tools/bench_layers.py [--parent REV] [--runs K] [--out FILE]

Measures the gridfourier of this checkout and, with ``--parent``, the
one of git revision REV.  Each tree is named by the git tree id of its
``src``, fixed when the run starts, and timed from a ``git archive`` copy
of that tree in a temporary directory.  This checkout's tree is ``src/``
as it stands in the working tree, untracked files included and ignored
ones not; it is written through a throwaway index, so the checkout's own
index is untouched, an edit made during the run reaches no timed tree,
and once the tree is committed its id is the commit's ``REV:src``.
REV's tree is ``REV:src``.  Both copies are byte-compiled first
(``compileall``), so that the import layers time loading, not the
compilation of a tree without current ``.pyc`` files.  Every layer, the
import floor included, is timed in one loop of K + 1 rounds (K defaults
to 7, at least 5).  Within a round, every measurement runs for one tree
right after the other, and the tree that goes first flips from round to
round, so a drift of the host speed reaches both trees alike:

- the import rows: one fresh interpreter per tree times ``import numpy``
  first, then ``import gridfourier.cli`` on top of it, so that
  gridfourier's own import is not lost in numpy's noise, then the first
  default suite, once, with whatever it imports on first use;
- each in-process layer, in turn: one fresh interpreter per tree builds
  the layers' inputs and times that layer alone, after one warm-up call
  and with no other layer run before it.  The layer is
  called until MIN_ROUND_S seconds have passed, at least once, and its
  time is the elapsed time over the number of calls, so a layer far below
  a millisecond is timed over many calls;
- each command of COMMANDS, in turn: PROCESS_REPEATS = 5 fresh processes
  per tree, whose medians give the command's three rows, its wall time
  from spawn to exit, its user plus system CPU time and its max RSS.

Every one of these processes, the import and layer interpreters
included, is started by ``_launch`` through ``perfbench/launch.py``, a
numpy-free process that spawns it and nothing else, so its max RSS is its
own; the CPU rows include the launcher's own, about 10 ms, read from
``RUSAGE_CHILDREN``.

Round 0 warms the file cache and is dropped; every layer keeps the
median of the other K rounds.  The JSON on stdout, or
in FILE, holds each layer's seconds per call (the *_rss_mb rows in MB)
for the parent and the change side by side, with the tree id of each
side, the numpy version and nproc.

Layers:
  import_numpy       import numpy, first thing in the interpreter
  import_own         import gridfourier.cli, right after numpy: gridfourier's own share
  verify_first       the first run_lemma_suite(SuiteConfig()), with the imports it triggers
  random_inputs      the 112 random grid functions of the default verify suite
  m_test_majorants   m_test_majorants(H, 1..64), H of expcos
  sup_errors         sup_errors(expcos, 1..64) at the default 2048 samples
  run_convergence    run_convergence("expcos", 1..64)
  m_test_runner      the m_test_domination runner on the default verify suite
  limits_runner      the runners of alias_oracle, coeff_convergence and integral_darboux
                     on trig:1000000 at 4 grid sizes
  symbol_sweep       the psi_lower / phi_psi_mag runner on the default verify suite
  dft_identities     the dft_identity runner on the default verify suite
  spectrum_rows      run_spectrum_decay("expcos", 4096)
  spectrum_text      the whole `spectrum --function expcos --n 4096` table, in process, to devnull
  verify_suite       run_lemma_suite(SuiteConfig()), the default verify in process
  <stem>_process_s, <stem>_process_cpu_s, <stem>_rss_mb
                     wall time (start and exit included), CPU time and max RSS in MB (not
                     seconds) of a fresh `python -m gridfourier ARGS`, for each stem:
    verify           verify
    verify_65536     verify --grid-sizes 65536
    converge         converge --function expcos --N 1,2,...,64
    spectrum         spectrum --function expcos --n 4096
    rescale_64       rescale-demo --function exp-cos-period --N 64 --a=-0.75 --b=2.125
    rescale_8159     rescale-demo --a 0 --b 3 --function exp-cos-period --N 8159

Each of the four runner layers runs the distinct runners of its checks
(RUNNER_CHECKS), looked up by check name in the timed tree's CHECKS, so
``_build_suite`` is the only private name of gridfourier that the tool
reads.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

TOOL = Path(__file__).resolve()
ROOT = TOOL.parent.parent
LAUNCHER = ROOT / "perfbench" / "launch.py"
ORDERS = range(1, 65)
CONVERGE_ARGV = ["converge", "--function", "expcos", "--N", ",".join(map(str, ORDERS))]
SPECTRUM_ARGV = ["spectrum", "--function", "expcos", "--n", "4096"]
# Row stem -> the gridfourier command whose fresh processes give the rows
# <stem>_process_s, <stem>_process_cpu_s and <stem>_rss_mb: one op of each
# perfbench workload, with a fixed seed and interval, the paper's largest
# admitted grid, and the largest grid that rescale-demo samples.
COMMANDS = {
    "verify": ["verify"],
    "verify_65536": ["verify", "--grid-sizes", "65536"],
    "converge": CONVERGE_ARGV,
    "spectrum": SPECTRUM_ARGV,
    "rescale_64": ["rescale-demo", "--function", "exp-cos-period", "--N", "64", "--a=-0.75",
                   "--b=2.125"],
    "rescale_8159": ["rescale-demo", "--a", "0", "--b", "3", "--function", "exp-cos-period",
                     "--N", "8159"],
}
# Fresh processes of one command per tree and round, whose medians are the
# round's rows.  One process's wall time spreads by tens of milliseconds on
# a shared host, as much as a change of its exit can save.
PROCESS_REPEATS = 5
# Least time spent in one layer per round; each import is timed once.
MIN_ROUND_S = 0.1
# The child argument of the import rows; every other child times the
# in-process layer of its name, one of the keys of _layers().
IMPORTS = "imports"
IN_PROCESS_LAYERS = (
    "random_inputs", "m_test_majorants", "sup_errors", "run_convergence", "m_test_runner",
    "limits_runner", "symbol_sweep", "dft_identities", "spectrum_rows", "spectrum_text",
    "verify_suite",
)
# Runner layer -> the checks whose runners it runs, each distinct runner once.
# The runners are looked up in the timed tree's own CHECKS, so a layer still
# runs on a tree whose runners have other names.
RUNNER_CHECKS = {
    "m_test_runner": ("m_test_domination",),
    "limits_runner": ("alias_oracle", "coeff_convergence", "integral_darboux"),
    "symbol_sweep": ("psi_lower", "phi_psi_mag"),
    "dft_identities": ("dft_identity_1", "dft_identity_2"),
}


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
    limits_suite = verification._build_suite(SuiteConfig(function_names=("trig:1000000",)))

    def runners(layer, on):
        checks = RUNNER_CHECKS[layer]
        runs = dict.fromkeys(c.run for c in verification.CHECKS if c.name in checks)
        return lambda: [list(run(on)) for run in runs]

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
        "m_test_runner": runners("m_test_runner", suite),
        "limits_runner": runners("limits_runner", limits_suite),
        "symbol_sweep": runners("symbol_sweep", suite),
        "dft_identities": runners("dft_identities", suite),
        "spectrum_rows": lambda: run_spectrum_decay("expcos", 4096),
        "spectrum_text": spectrum_text,
        "verify_suite": lambda: run_lemma_suite(SuiteConfig()),
    }


def _child(layer: str) -> None:
    """Print as JSON the import rows (layer IMPORTS) or the seconds per call of one layer."""
    if layer == IMPORTS:
        start = time.perf_counter()
        import numpy  # noqa: F401

        numpy_done = time.perf_counter()
        import gridfourier.cli  # noqa: F401

        own_done = time.perf_counter()
        from gridfourier.verification import SuiteConfig, run_lemma_suite

        run_lemma_suite(SuiteConfig())
        print(json.dumps({
            "import_numpy": numpy_done - start,
            "import_own": own_done - numpy_done,
            "verify_first": time.perf_counter() - own_done,
        }))
        return
    run = _layers()[layer]
    run()
    calls = 0
    start = time.perf_counter()
    while calls == 0 or time.perf_counter() - start < MIN_ROUND_S:
        run()
        calls += 1
    print(json.dumps({layer: (time.perf_counter() - start) / calls}))


def _launch(cmd: list[str], env: dict, tmp: str) -> dict:
    """``{"seconds", "code", "maxrss_kib", "cpu_s", "stdout"}`` of one fresh process of cmd.

    The command is spawned by perfbench/launch.py, which stays far below
    it, because Linux charges a new process with the peak RSS of the
    process it was forked from.  ``cpu_s`` is the user plus system time of
    the launcher and the command, which the launcher waits for.
    """
    request = {
        "cmd": cmd,
        "cwd": tmp,
        "out": os.path.join(tmp, "launch.out"),
        "err": os.path.join(tmp, "launch.err"),
        "timeout": 600,
    }
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run([sys.executable, "-I", "-S", str(LAUNCHER)], env=env,
                         input=json.dumps(request) + "\n", capture_output=True, text=True,
                         check=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    reply = json.loads(out)
    reply["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if reply["code"] != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {reply['code']}: "
                           f"{Path(request['err']).read_text()}")
    reply["stdout"] = Path(request["out"]).read_text()
    return reply


def _measure(srcs: dict, runs: int, tmp: str) -> dict:
    """Tree name -> layer medians, for every tree in srcs (tree name -> src path)."""
    envs = {tree: {**os.environ, "PYTHONPATH": str(src)} for tree, src in srcs.items()}
    rounds = {tree: [] for tree in srcs}
    order = list(srcs)
    for _ in range(runs + 1):
        for tree in order:
            rounds[tree].append({})
        # each child and command runs for one tree right after the other, so
        # that the host's drift over a round does not fall on one tree
        for layer in (IMPORTS, *IN_PROCESS_LAYERS):
            for tree in order:
                reply = _launch([sys.executable, str(TOOL), "--child", layer], envs[tree], tmp)
                rounds[tree][-1].update(json.loads(reply["stdout"]))
        for stem, args in COMMANDS.items():
            replies = {tree: [] for tree in order}
            for _ in range(PROCESS_REPEATS):
                for tree in order:
                    replies[tree].append(
                        _launch([sys.executable, "-m", "gridfourier", *args], envs[tree], tmp))
            for tree, runs_of_tree in replies.items():
                rounds[tree][-1].update({
                    f"{stem}_process_s": statistics.median(r["seconds"] for r in runs_of_tree),
                    f"{stem}_process_cpu_s": statistics.median(r["cpu_s"] for r in runs_of_tree),
                    f"{stem}_rss_mb": statistics.median(
                        r["maxrss_kib"] for r in runs_of_tree) / 1024.0,
                })
        order.reverse()
    # round 0 warmed the file cache
    return {
        tree: {name: statistics.median(r[name] for r in kept[1:]) for name in kept[0]}
        for tree, kept in rounds.items()
    }


def _git(*args: str, cwd: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def _working_tree(index: Path, repo: Path = ROOT) -> str:
    """The git tree id of ``src/`` as it stands in repo's working tree.

    Untracked files under ``src/`` count, ignored ones do not.  The tree is
    written through the throwaway index file ``index``, so repo's own index
    and working tree are left as they are; once that ``src/`` is committed,
    the id is the commit's ``REV:src``.
    """
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    _git("add", "--all", "--", "src", cwd=repo, env=env)
    return _git("write-tree", "--prefix=src/", cwd=repo, env=env)


def _snapshot(tree: str, dest: Path, repo: Path = ROOT) -> Path:
    """Extract the ``src`` tree id ``tree`` into dest/src and byte-compile it; its path.

    Nothing edits the copy, so its ``.pyc`` files stay current for the run.
    """
    dest.mkdir()
    archive = dest / "src.tar"
    _git("archive", "--output", str(archive), "--prefix=src/", tree, cwd=repo)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    compileall.compile_dir(dest / "src", quiet=1)
    return dest / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to time next to this checkout")
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--child", choices=(IMPORTS, *IN_PROCESS_LAYERS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # both trees are fixed before anything is timed
        trees = {"change": _working_tree(tmp / "index")}
        if args.parent:
            trees["parent"] = _git("rev-parse", f"{args.parent}:src")
        srcs = {side: _snapshot(tree, tmp / side) for side, tree in trees.items()}
        results = _measure(srcs, args.runs, str(tmp))

    layers = {}
    for name in results["change"]:
        row = {side: results[side][name] for side in ("parent", "change") if side in results}
        if "parent" in row:
            row["change/parent"] = row["change"] / row["parent"]
        layers[name] = row
    payload = {
        "tool": "tools/bench_layers.py",
        "statistic": (f"median seconds per call over {args.runs} rounds after one warm-up "
                      "round; each round times the import rows in one fresh interpreter per "
                      "tree and each other in-process layer in a fresh interpreter of its own "
                      "per tree, the two trees back to back layer by layer, after one warm-up "
                      f"call, over as many calls as fill {MIN_ROUND_S} s "
                      "(import_numpy, import_own and verify_first once; the *_process_s, "
                      "*_process_cpu_s and *_rss_mb rows of a command are the median wall "
                      "time, user plus system CPU time and max RSS in MB of the same "
                      f"{PROCESS_REPEATS} fresh processes of it per round), each tree a git "
                      "archive copy of the src tree id it is named by, byte-compiled before "
                      "round 0, and the tree that goes first flips each round"),
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
