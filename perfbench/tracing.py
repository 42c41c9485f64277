"""Span tracing of one gridfourier CLI command, from outside the package.

Run as a script, this file executes one CLI command in its own interpreter
with every public module-level function of the eight layer modules wrapped
in a span, then writes the spans to a JSON file:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json -- spectrum --function cos:1 --n 64

Stdout and the exit code are those of the command itself.  Imported,
the module gives ``layer_profile``, which turns one spans file into
per-layer calls, self time, errors and the layer-specific counts.

Span record: [id, name, start_s, end_s, parent_id, thread_id, raised, extra].
``name`` is ``<layer>.<function>``; ``parent_id`` is -1 for a root span.
A span opened on a worker thread with nothing open on that thread takes
as parent the innermost open span of the main thread.  ``extra`` is
2n for ``discrete_coefficients`` / ``invert`` / ``sample``, the length of
the result of ``canonical_mode_order``, and otherwise null;
``discrete_coefficients`` additionally records whether the same input
(n and the bytes of its values) was already transformed in this process.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "verification",
    "continuous_fourier",
    "spectral_bounds",
    "functions",
    "discrete_calculus",
    "discrete_fourier",
    "grid",
)

# Per-function counters beyond calls and self time.
MAJORANT = "continuous_fourier.m_test_majorant"
BOUND_CONSTANTS = "functions.bound_constants"


class Recorder:
    """Collects closed spans in memory; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._seen_inputs = set()
        self._seen_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return -1

    def _first_transform(self, gf) -> bool:
        key = (gf.grid.n, hashlib.blake2b(gf.values.tobytes(), digest_size=16).digest())
        with self._seen_lock:
            if key in self._seen_inputs:
                return False
            self._seen_inputs.add(key)
            return True

    def wrap(self, name: str, fn):
        extra_of = _EXTRAS.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = recorder._parent(stack)
            extra = None
            if name == "discrete_fourier.discrete_coefficients":
                gf = args[0] if args else kwargs["gf"]
                extra = [2 * gf.grid.n, not recorder._first_transform(gf)]
            stack.append(span_id)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if extra is None and extra_of is not None and not raised:
                    extra = extra_of(args, kwargs, result)
                recorder.spans.append(
                    [span_id, name, start, end, parent, threading.get_ident(), raised, extra]
                )

        return traced


_EXTRAS = {
    "discrete_fourier.invert": lambda a, k, r: 2 * (a[0] if a else k["s"]).n,
    "grid.sample": lambda a, k, r: r.grid.size,
    "spectral_bounds.canonical_mode_order": lambda a, k, r: len(r),
}


def install(recorder: Recorder) -> None:
    """Wrap every public module-level function and rebind it everywhere.

    A function counts when it is defined in its layer module and its
    name has no leading underscore, whether or not ``__all__`` lists it.
    The wrapper replaces the original in every ``gridfourier`` namespace
    that holds it, so calls through ``from .x import f`` names are traced.
    """
    package = importlib.import_module("gridfourier")
    modules = {layer: importlib.import_module(f"gridfourier.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrappers[id(obj)] = (obj, recorder.wrap(f"{layer}.{attr}", obj))
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_profile(spans) -> dict:
    """Per-layer metrics of one traced command.

    Self time of a span is its duration minus the union of its children's
    intervals; a layer's self time sums that over its spans on every
    thread, so concurrent spans can add up to more than wall time.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    out.update({
        "discrete_fourier.points": 0,
        "discrete_fourier.sizes": 0,
        "discrete_fourier.transforms": 0,
        "discrete_fourier.repeats": 0,
        "grid.points": 0,
        "spectral_bounds.modes_ordered": 0,
        f"{MAJORANT}.calls": 0,
        f"{MAJORANT}.self_s": 0.0,
        f"{BOUND_CONSTANTS}.calls": 0,
    })
    sizes = set()
    for span_id, name, start, end, _, _, raised, extra in spans:
        layer, func = name.split(".", 1)
        self_s = (end - start) - _union_length(children.get(span_id, ()), start, end)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.errors"] += int(raised)
        if name == MAJORANT:
            out[f"{MAJORANT}.calls"] += 1
            out[f"{MAJORANT}.self_s"] += self_s
        elif name == BOUND_CONSTANTS:
            out[f"{BOUND_CONSTANTS}.calls"] += 1
        if extra is None:
            continue
        if func == "discrete_coefficients":
            out["discrete_fourier.points"] += extra[0]
            out["discrete_fourier.transforms"] += 1
            out["discrete_fourier.repeats"] += int(extra[1])
            sizes.add(extra[0])
        elif func == "invert":
            out["discrete_fourier.points"] += extra
            sizes.add(extra)
        elif func == "sample":
            out["grid.points"] += extra
        elif func == "canonical_mode_order":
            out["spectral_bounds.modes_ordered"] += extra
    out["discrete_fourier.sizes"] = len(sizes)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_OUT -- <gridfourier argv...>", file=sys.stderr)
        return 2
    recorder = Recorder()
    install(recorder)
    cli = importlib.import_module("gridfourier.cli")
    code = 2
    try:
        code = cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump({"argv": argv[2:], "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
