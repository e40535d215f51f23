"""Span tracer that times spindecoh's layers from outside the program.

`Tracer.install()` wraps every public function of the layer modules and
rebinds each name in every spindecoh module that holds it, so that
`estimation.sample_trajectory`, `recurrence.build_system` and the like
all call the wrapper. Spans (name, start, end, parent, thread) stay in
memory until `write_spans` is called at the end of a run. Nothing under
`src/` changes; an untraced child process never imports this module.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("model", "dynamics", "estimation", "recurrence", "oracle", "cli", "config")

# The child calls cli.main itself; the subcommand handlers are reached
# through a dispatch table, so wrapping them would record nothing.
_SKIP = {"cli.main", "cli.build_parser"}


def _is_equal_superposition(system) -> bool:
    p = np.abs(system.amp_a) ** 2
    q = np.abs(system.amp_b) ** 2
    return bool(np.all(np.abs(p - 0.5) < 1e-15) and np.all(np.abs(q - 0.5) < 1e-15))


def _probe_coherence_magnitudes(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    samples, n = result.shape
    mode = "equal-superposition" if _is_equal_superposition(system) else "random-complex"
    return {"pair_samples": samples * n * (n - 1), "mode": mode}


def _probe_fit_decay(args, kwargs, result):
    return {"iterations": result.n_iterations, "nonconverged": int(not result.converged)}


def _probe_recurrence_time(args, kwargs, result):
    return {"degenerate": int(result.degenerate)}


def _probe_evolve(args, kwargs, result):
    return {"states": int(result.shape[0])}


def _probe_write_csv(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Counters read from a call's arguments and result. pair_samples and
# states are computed from array sizes, not counted inside the kernel.
PROBES = {
    "dynamics.coherence_magnitudes": _probe_coherence_magnitudes,
    "estimation.fit_decay": _probe_fit_decay,
    "recurrence.recurrence_time": _probe_recurrence_time,
    "oracle.evolve": _probe_evolve,
    "cli.write_csv": _probe_write_csv,
}


class Tracer:
    """In-memory span recorder. One instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "parent": parent,
                        "thread": threading.get_ident(), "start": start, "end": end}
                if error is not None:
                    span["error"] = error
                self.spans.append(span)
            if probe is not None:
                span["attrs"] = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of each layer module and rebind every
        name that refers to them in spindecoh's modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spindecoh" or key.startswith("spindecoh."))]
        for layer in LAYERS:
            module = sys.modules[f"spindecoh.{layer}"]
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(name, obj)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            setattr(mod, key, wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[dict], main_thread: int, run_start: float, run_end: float) -> dict:
    """Per-function calls, self time and counter sums, plus trace coverage.

    Self time is per thread: a span's duration minus the durations of its
    direct children, which the stack puts in the same thread. Coverage is
    the share of the measured call spent under root spans of the calling
    thread.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    functions: dict[str, dict] = {}
    covered = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        self_s = duration - child_time.get(span["id"], 0.0)
        entry = functions.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in span.get("attrs", {}).items():
            if key == "mode":
                mode_key = f"self_s.{value}"
                entry[mode_key] = entry.get(mode_key, 0.0) + self_s
            else:
                entry[key] = entry.get(key, 0) + value
        if span["parent"] is None and span["thread"] == main_thread:
            covered += max(0.0, min(span["end"], run_end) - max(span["start"], run_start))
    return {"functions": functions, "covered_s": covered}
