"""Span tracer for the traced benchmark run.

The tracer wraps named public functions of tomolab from outside the
package: every module attribute bound to one of them, and every class
attribute for methods, is replaced by a wrapper that records one span
(group, start, end, parent) per call.  Spans stay in memory until
``summary`` folds them into per-group totals.

Two rules shape the numbers:

* A call nested in an open span of its own group is folded into that span,
  so ``sample_partial_er`` calling ``sample_er`` is one graph sample.
* A span opened on a pool thread that has no open span of its own takes the
  innermost span open on the main thread as its parent.  A driver's self
  time therefore excludes the trials its thread pool runs and keeps only
  the time no traced child covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

# (module under tomolab, attribute path, span group, argument holding a
# SimConfig whose burn-in plus n_max is the call's step count)
TARGETS = (
    ("graphs", "sample_er", "graphs.sample", None),
    ("graphs", "sample_partial_er", "graphs.sample", None),
    ("graphs", "hop_counts", "graphs.bfs", None),
    ("graphs", "local_disconnect", "graphs.bfs", None),
    ("weights", "build_matrix", "weights.build", None),
    ("dynamics", "analytic_correlations", "dynamics.analytic", None),
    ("dynamics", "simulate_and_accumulate", "dynamics.simulate", "cfg"),
    ("dynamics", "CorrelationSet.restrict", "dynamics.restrict", None),
    ("inference", "granger_truncated", "inference.solve", None),
    ("inference", "apply_classifier", "inference.classify", None),
    ("inference", "classify_kmeans2", "inference.classify", None),
    ("patchwork", "ReconstructionState.absorb", "patchwork.merge", None),
    ("patchwork", "ReconstructionState.estimated_graph", "patchwork.merge", None),
    ("patchwork", "graph_distance", "patchwork.merge", None),
    ("patchwork", "run_patch_catch", "patchwork.run", None),
    ("lab", "recovery_probability_experiment", "lab.driver", None),
    ("lab", "patch_catch_experiment", "lab.driver", None),
    ("lab", "check_small_distance_rarity", "lab.driver", None),
    ("cli", "main", "cli", None),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group, _ in TARGETS))


class TracerError(RuntimeError):
    """A traced name is missing or a span the workload needs never fired."""


class _Span:
    __slots__ = ("group", "parent", "steps", "start", "end")

    def __init__(self, group: str, parent: "_Span | None", steps: int):
        self.group = group
        self.parent = parent
        self.steps = steps
        self.start = 0.0
        self.end = 0.0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
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


class Tracer:
    """Records spans around the functions in ``TARGETS`` once installed."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._local = threading.local()
        self._main_stack: list[_Span] = []

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, group: str, steps_arg: str | None):
        signature = inspect.signature(fn) if steps_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1].group == group:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                tail = self._main_stack[-1:]
                parent = tail[0] if tail else None
            steps = 0
            if signature is not None:
                cfg = signature.bind(*args, **kwargs).arguments[steps_arg]
                steps = int(cfg.burn_in) + int(cfg.n_max)
            span = _Span(group, parent, steps)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target; raise ``TracerError`` if one no longer exists."""
        for module, path, group, steps_arg in TARGETS:
            mod = importlib.import_module(f"tomolab.{module}")
            *outer, attr = path.split(".")
            owner = mod
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise TracerError(
                    f"tomolab.{module}.{path} no longer exists; "
                    "update TARGETS in perfbench/tracer.py"
                )
            if steps_arg and steps_arg not in inspect.signature(fn).parameters:
                raise TracerError(
                    f"tomolab.{module}.{path} has no parameter {steps_arg!r}"
                )
            wrapped = self._wrap(fn, group, steps_arg)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for name, loaded in list(sys.modules.items()):
                if name != "tomolab" and not name.startswith("tomolab."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is fn:
                        setattr(loaded, key, wrapped)

    def summary(self) -> dict[str, dict]:
        """Calls, summed self time and summed steps per group, every group listed.

        Self time is a span's duration minus the part of it covered by the
        spans it caused, on any thread.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        out = {group: {"calls": 0, "self_s": 0.0, "steps": 0} for group in GROUPS}
        for span in self.spans:
            agg = out[span.group]
            agg["calls"] += 1
            agg["steps"] += span.steps
            agg["self_s"] += (span.end - span.start) - _covered(
                children[id(span)], span.start, span.end
            )
        return out
