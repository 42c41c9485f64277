"""Spawn a command, wait for it, and report its wall time and rusage.

``run.py`` calls ``spawn`` directly, and also runs this file as a small
process of its own, through which it spawns the ops whose memory it
reports.  Linux charges a new process, through its exec, with the
peak resident size of the process it was forked from, so an op spawned
straight from run.py (which holds numpy and the outputs it checks)
reports run.py's peak when its own is smaller.  This process
imports nothing but the standard library and stays near 11 MB, below
any op, so the max-RSS of the ops it spawns is their own.

As a process it reads one JSON request per line on stdin,
``{"cmd": [...], "cwd": ..., "out": ..., "err": ..., "timeout": s}``, and
answers each with one JSON line on stdout,
``{"seconds": ..., "code": ..., "maxrss_kib": ...}``.  It exits when its
stdin closes, and on SIGTERM after killing the command it runs.  Run it as ``python3 -I -S perfbench/launch.py``, with the
environment the ops should get.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def _expire(signum, frame):
    raise TimeoutError


def spawn(cmd: list[str], env: dict, cwd: str, out_path: str, err_path: str, timeout: float) -> tuple[float, int, int]:
    """Run cmd to completion: (wall seconds, exit code, max RSS in KiB).

    Stdout and stderr go to the two files.  A command still running after
    ``timeout`` seconds is killed; it then reports the kill signal as a
    negative exit code.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        except BaseException as exc:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        elapsed = time.perf_counter() - start
    # os.wait4 reaped the child; recording its code stops Popen waiting again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def _terminate(signum, frame):
    # raised inside spawn, whose handler kills and reaps the running command
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    env = dict(os.environ)
    for line in sys.stdin:
        request = json.loads(line)
        elapsed, code, rss = spawn(
            request["cmd"], env, request["cwd"], request["out"], request["err"], request["timeout"]
        )
        print(json.dumps({"seconds": elapsed, "code": code, "maxrss_kib": rss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
