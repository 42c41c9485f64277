"""Benchmark of the gridfourier command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

One op is one ``gridfourier`` invocation in a fresh interpreter
(``python3 -m gridfourier`` with ``PYTHONPATH=src``), timed from spawn to
exit.  A single client runs one op at a time (closed loop) with
``FOURIER_WORKERS`` removed from the environment, so the engine uses its
default thread count.  The seed picks verify's ``--seed``, the combo
weights, the rescale interval and the order of ops; it never changes how
much work an op does.  Every op's output is checked by ``checks.py``, and
repeats of the same argv must be byte-identical.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled by
a fixed reference task, independent of gridfourier, that runs between
every two ops: the host's speed drifts by tens of percent within
seconds, and the scaling cancels it (README.md, "Steadiness").
``--trace 1`` alternates untraced rounds with rounds traced by
``tracing.py`` and reports the per-layer metrics, per op.  The last stdout line is one JSON object with
keys correct, attempted, failed and metrics; the line before it holds
the details (environment, op count, tail percentile, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import launch
from checks import check_output
from tracing import BOUND_CONSTANTS, LAYERS, MAJORANT, layer_profile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracing.py"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

SETUP_PROBES = 7
# A fixed task of interpreter start, numpy import, a scalar Python loop and
# numpy array work, like the ops but independent of gridfourier.  It runs
# before and after every op; each op and set-up probe is scaled by
# REFERENCE_S over the mean of those two reference times, which cancels the
# speed of the shared host, drifting by tens of percent within seconds.
# The task runs in as many copies at once as the op keeps cores busy, so
# that it samples the same cores as the op.
REFERENCE_TASK = """
import math
import numpy as np
total = 0.0
for i in range(1, 100001):
    total += math.cos(0.001 * i) / i
ms = np.arange(1, 1_000_001, dtype=np.float64)
for _ in range(5):
    total += float(np.sum(1.0 / (ms * ms)))
x = np.linspace(-1.0, 1.0, 2049)
k = np.arange(-64, 65)
for _ in range(4):
    total += float(np.abs(np.sum(np.exp(1j * np.pi * np.outer(x, k)), axis=1)).max())
print(repr(total))
"""
# Timed end-to-end metrics are seconds on a host where one copy of the
# reference task takes this long (about its median on the 2-vCPU machine
# of README.md).
REFERENCE_S = 0.25
# commands still running this long after a run starts are killed, so that
# a run ends within its 180 s limit
RUN_BUDGET_S = 140.0
TAIL_BEYOND = 10
WORKER_ENV_VAR = "FOURIER_WORKERS"
CONVERGE_ORDERS = ",".join(str(N) for N in range(1, 65))


def _catalog(rng: random.Random) -> list[str]:
    a, b = (round(rng.uniform(0.25, 2.0), 3) for _ in range(2))
    return ["cos:1", "trig:1", "trig:3", "expcos", f"combo:{a}*trig:0+{b}*cos:2"]


def _rescale_interval(rng: random.Random) -> list[str]:
    a = round(rng.uniform(-2.0, 2.0), 3)
    b = round(a + rng.uniform(0.5, 4.0), 3)
    return [f"--a={a}", f"--b={b}"]


# Workload name -> the distinct argvs of one round, drawn from the seed.
WORKLOADS = {
    "verify-default": lambda rng: [["verify", "--seed", str(rng.randrange(2**31))]],
    "converge-sweep": lambda rng: [
        ["converge", "--function", f, "--N", CONVERGE_ORDERS] for f in _catalog(rng)
    ],
    "spectrum-large": lambda rng: [
        ["spectrum", "--function", f, "--n", "4096"] for f in _catalog(rng)
    ],
    "rescale-quadrature": lambda rng: [
        ["rescale-demo", "--function", "exp-cos-period", "--N", "64", *_rescale_interval(rng)]
    ],
}

# Workloads whose ops keep every core busy: verify's engine runs a pool of
# up to nproc threads.  The ops of the others run on one core.
PARALLEL_WORKLOADS = {"verify-default"}

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    **{
        f"{layer}.{metric}": unit
        for layer in LAYERS
        for metric, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
    },
    "discrete_fourier.points": "count",
    "discrete_fourier.sizes": "count",
    "discrete_fourier.repeat_share": "share",
    "grid.points": "count",
    "spectral_bounds.modes_ordered": "count",
    f"{MAJORANT}.calls": "count",
    f"{MAJORANT}.self_s": "s",
    f"{BOUND_CONSTANTS}.calls": "count",
    "trace.overhead_share": "share",
    "failed_ops_share": "share",
}


class SetupError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != WORKER_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict, timeout: float = RUN_BUDGET_S) -> tuple[float, int, bytes, int]:
    """Run cmd to completion: (wall seconds, exit code, stdout, max RSS in KiB).

    A command still running after ``timeout`` seconds is killed; it then
    reports the kill signal as a negative exit code.  The max RSS counts
    this process's own peak too (see launch.py).
    """
    out_path, err_path = WORK / "op.out", WORK / "op.err"
    elapsed, code, rss = launch.spawn(cmd, env, str(ROOT), str(out_path), str(err_path), timeout)
    return elapsed, code, out_path.read_bytes(), rss


class Launcher:
    """A launch.py process that spawns commands on behalf of this one."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def spawn(self, cmd: list[str], timeout: float) -> tuple[float, int, bytes, int]:
        """Like ``spawn``, with a max RSS that is the command's own."""
        out_path, err_path = WORK / "op.out", WORK / "op.err"
        request = {"cmd": cmd, "cwd": str(ROOT), "out": str(out_path), "err": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"launcher ended with exit code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["seconds"], reply["code"], out_path.read_bytes(), reply["maxrss_kib"]

    def close(self, abort: bool = False) -> None:
        """End the launcher: it exits when its input closes.

        With ``abort`` it is terminated too, which kills a command it may
        still be running.
        """
        self.proc.stdin.close()
        if abort:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def build(env: dict) -> None:
    """Byte-compile the package and check that ``import gridfourier`` finds it."""
    if not (SRC / "gridfourier" / "cli.py").is_file():
        raise SetupError(f"no gridfourier sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    code = "import sys, compileall, gridfourier.cli as c; compileall.compile_dir(sys.argv[1], quiet=1); print(c.__file__)"
    _, rc, out, _ = spawn([sys.executable, "-c", code, str(SRC / "gridfourier")], env)
    if rc != 0 or Path(out.decode().strip()).resolve() != (SRC / "gridfourier" / "cli.py").resolve():
        raise SetupError(f"cannot import gridfourier.cli from {SRC}: {(WORK / 'op.err').read_text()}")


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridfourier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    workers = os.environ.get(WORKER_ENV_VAR)
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(_git("status", "--porcelain", "--untracked-files=no")),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        WORKER_ENV_VAR: "unset" if workers is None else f"unset (removed {workers!r})",
    }


class Run:
    """Ops of one benchmark run, their checks, and the traced profiles.

    Untraced ops are spawned through a Launcher, so that their max RSS is
    their own; use the run in a ``with`` statement, which ends it.
    """

    def __init__(self, env: dict):
        self.env = env
        self.launcher = None
        self.hard_deadline = time.perf_counter() + RUN_BUDGET_S
        self.times = {False: [], True: []}
        self.rss_kib = []
        self.attempted = 0
        self.failures = []
        self.first_output = {}
        self.profiles = []

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self.launcher is not None:
            self.launcher.close(abort=exc_type is not None)

    @property
    def failed_share(self) -> float:
        return len(self.failures) / self.attempted

    def op(self, argv: list[str], traced: bool) -> float:
        """Run argv once, check its output, and return its wall seconds."""
        spans = WORK / "spans.json"
        spans.unlink(missing_ok=True)
        timeout = self.hard_deadline - time.perf_counter()
        if traced:
            cmd = [sys.executable, str(TRACER), str(spans), "--", *argv]
            elapsed, rc, stdout, rss = spawn(cmd, self.env, timeout)
        else:
            if self.launcher is None:
                self.launcher = Launcher(self.env)
            cmd = [sys.executable, "-m", "gridfourier", *argv]
            elapsed, rc, stdout, rss = self.launcher.spawn(cmd, timeout)
        self.times[traced].append(elapsed)
        self.record(argv, traced, rc, stdout)
        if traced:
            # a traced op killed before writing its spans has an empty profile
            # and has already failed on its exit code
            written = spans.is_file()
            self.profiles.append(layer_profile(json.loads(spans.read_text())["spans"] if written else []))
        else:
            self.rss_kib.append(rss)
        return elapsed

    def record(self, argv: list[str], traced: bool, rc: int, stdout: bytes) -> None:
        """Count one op; it fails on a nonzero exit, a failed check, or new bytes."""
        self.attempted += 1
        key = tuple(argv)
        if key not in self.first_output:
            reason = check_output(argv, rc, stdout)
            self.first_output[key] = stdout if reason is None else None
        elif self.first_output[key] is None:
            reason = "same argv failed earlier in this run"
        elif rc != 0:
            reason = f"exit code {rc}"
        elif stdout != self.first_output[key]:
            reason = "output differs from an earlier run of the same argv"
        else:
            reason = None
        if reason is not None:
            self.failures.append({"argv": argv, "traced": traced, "reason": reason})


def schedule(rng: random.Random, argvs: list[list[str]]):
    """Endless rounds, each a seed-shuffled pass over every argv."""
    while True:
        round_ = list(argvs)
        rng.shuffle(round_)
        yield round_


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND ops beyond it.

    Nearest rank N - TAIL_BEYOND, but never below the upper median: with
    2*TAIL_BEYOND + 2 ops or fewer, no rank above the median has that many
    ops beyond it.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Reference:
    """Times the reference task and scales neighbouring timings by it."""

    def __init__(self, run: Run, copies: int):
        self.run = run
        self.copies = copies
        self.seconds = []
        self.output = None
        self.measure()  # warm-up, its time is dropped
        self.seconds.clear()
        self.measure()

    def measure(self) -> float:
        """Run ``copies`` of the task at once; wall seconds until all have ended."""
        cmd = [sys.executable, "-c", REFERENCE_TASK]
        start = time.perf_counter()
        procs = [
            subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.run.env, cwd=ROOT)
            for _ in range(self.copies)
        ]
        try:
            outs = [
                proc.communicate(timeout=max(self.run.hard_deadline - time.perf_counter(), 1.0))[0]
                for proc in procs
            ]
        except subprocess.TimeoutExpired:
            raise SetupError("reference task did not finish within the run's time budget") from None
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        elapsed = time.perf_counter() - start
        codes = [proc.returncode for proc in procs]
        if any(codes) or any(out != (self.output or outs[0]) for out in outs):
            raise SetupError(f"reference task failed: exit codes {codes}, outputs {outs}")
        self.output = outs[0]
        self.seconds.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Time the task again; the scale for what ran since the previous time."""
        before, after = self.seconds[-1], self.measure()
        return REFERENCE_S / ((before + after) / 2)


def measure_end_to_end(run: Run, rng, argvs, seconds: float, copies: int) -> tuple[dict, dict]:
    """Whole rounds of ops for ``seconds``, each op after one set-up probe.

    Every op and probe is scaled by the reference task timed around it.
    Rounds are never cut, so every argv has the same number of ops.
    """
    setup, times, wall_setup = [], [], []
    by_argv = {}
    # the import-only probe runs on one core, whatever the ops do
    single = Reference(run, 1)
    reference = single if copies == 1 else Reference(run, copies)

    def scales() -> tuple[float, float]:
        """(op scale, probe scale) for what ran since the last call."""
        op_scale = reference.scale()
        return op_scale, op_scale if reference is single else single.scale()

    def probe():
        elapsed = spawn([sys.executable, "-c", "import gridfourier.cli"], run.env)[0]
        wall_setup.append(elapsed)
        return elapsed

    deadline = time.perf_counter() + seconds
    longest_round = 0.0
    for round_ in schedule(rng, argvs):
        started = time.perf_counter()
        if times and started + longest_round > deadline:
            break
        for argv in round_:
            probe_s = probe()
            op_s = run.op(argv, traced=False)
            op_scale, probe_scale = scales()
            setup.append(probe_s * probe_scale)
            times.append(op_s * op_scale)
            by_argv.setdefault(tuple(argv), []).append(times[-1])
        longest_round = max(longest_round, time.perf_counter() - started)
    while len(setup) < SETUP_PROBES:
        probe_s = probe()
        setup.append(probe_s * single.scale())
    # Per argv, then averaged over the round: a workload whose commands
    # differ in cost would otherwise have a pooled median that jumps
    # between them from run to run.
    tails = [tail(argv_times) for argv_times in by_argv.values()]
    metrics = {
        "op_s_p50": statistics.fmean(statistics.median(v) for v in by_argv.values()),
        "op_s_tail": statistics.fmean(value for value, _ in tails),
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(run.rss_kib) / 1024.0,
    }
    details = {
        "ops": len(times),
        "ops_per_argv": len(times) // len(by_argv),
        "tail_percentile": tails[0][1],
        "failed_ops_share": run.failed_share,
        "op_s": times,
        "setup_probe_s": setup,
        "wall_op_s": run.times[False],
        "wall_op_s_p50": statistics.median(run.times[False]),
        "wall_setup_probe_s": wall_setup,
        "reference_copies": copies,
        "reference_s": reference.seconds,
        "single_reference_s": single.seconds,
    }
    return metrics, details


def measure_per_layer(run: Run, rng, argvs, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced rounds in turn for ``seconds``, at least one of each."""
    deadline = time.perf_counter() + seconds
    last_round = {}
    traced = False
    for round_ in schedule(rng, argvs):
        if len(last_round) == 2 and time.perf_counter() + last_round[traced] > deadline:
            break
        last_round[traced] = sum(run.op(argv, traced) for argv in round_)
        traced = not traced
    metrics = layer_metrics(run.profiles)
    plain, traced_p50 = statistics.median(run.times[False]), statistics.median(run.times[True])
    metrics["trace.overhead_share"] = (traced_p50 - plain) / plain
    metrics["failed_ops_share"] = run.failed_share
    details = {
        "traced_ops": len(run.profiles),
        "traced_op_s": run.times[True],
        "untraced_op_s": run.times[False],
    }
    return metrics, details


def layer_metrics(profiles: list[dict]) -> dict:
    """Per-op means of the traced profiles, plus the transform repeat share."""
    totals = {}
    for profile in profiles:
        for key, value in profile.items():
            totals[key] = totals.get(key, 0) + value
    metrics = {key: value / len(profiles) for key, value in totals.items()}
    transforms = totals["discrete_fourier.transforms"]
    metrics["discrete_fourier.repeat_share"] = (
        totals["discrete_fourier.repeats"] / transforms if transforms else 0.0
    )
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    build(env)
    rng = random.Random(seed)
    argvs = WORKLOADS[workload](rng)
    with Run(env) as run:
        if trace:
            values, details = measure_per_layer(run, rng, argvs, seconds)
            units = PER_LAYER_UNITS
        else:
            copies = len(os.sched_getaffinity(0)) if workload in PARALLEL_WORKLOADS else 1
            values, details = measure_end_to_end(run, rng, argvs, seconds, copies)
            units = END_TO_END_UNITS
    for name in units:
        print(f"{workload:<20} {name:<42} {values[name]:>16.6g} {units[name]}")
    details.update(workload=workload, argvs=argvs, failures=run.failures, environment=environment(seed))
    print(json.dumps({"details": details}))
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
