"""Spans and counters around the library's public functions, installed from outside.

The package binds functions with `from .x import name`, so one function can
sit under several module attributes (`reachavoid.scribe.reach_times`,
`reachavoid.dominance.reach_times`, `reachavoid.reach_times`, ...).  `install`
replaces every such attribute with one wrapper, so calls from every caller
are seen.  Spans (name, start, end, parent span, operation id, raised) are
kept in memory and written out only at the end of a run.  The root-solver
gap functions run hundreds of thousands of times per map; they are counted,
not timed.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# library module -> reported layer; the output stage is reported as one layer
LAYER_OF = {"dynamics": "dynamics", "scribe": "scribe", "mrr": "mrr",
            "dominance": "dominance", "strategies": "strategies",
            "engine": "engine", "scenario_io": "io", "svgplot": "io",
            "cli": "io"}
COUNTED = {"scribe.gap", "scribe.gap_d1", "scribe.gap_d2"}
OP = "op"


def public_functions() -> dict[str, object]:
    """'module.name' -> function, for the public functions each layer defines."""
    found = {}
    for mod_name in LAYER_OF:
        mod = importlib.import_module(f"reachavoid.{mod_name}")
        for attr, val in vars(mod).items():
            if attr.startswith("_") or isinstance(val, type) or not callable(val):
                continue
            if getattr(val, "__module__", None) == mod.__name__:
                found[f"{mod_name}.{attr}"] = val
    return found


def lru_caches() -> dict[str, object]:
    """The functools caches among the public functions (cache_info/cache_clear)."""
    return {name: fn for name, fn in public_functions().items()
            if hasattr(fn, "cache_info") and hasattr(fn, "cache_clear")}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every module attribute bound to a public layer function."""
        wrapper_of = {}
        for name, fn in public_functions().items():
            make = self._counted if name in COUNTED else self._timed
            wrapper_of[id(fn)] = (fn, make(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "reachavoid" and not mod_name.startswith("reachavoid."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapper_of.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op, raised)
        return timed

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; tracing is on only inside."""
        self.op = op_id
        self.active = True
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (OP, start, end, -1, op_id, False)
            self.active = False

    def summary(self):
        """Per-name calls, inclusive seconds and raises; per-layer self seconds.

        A span's self time is its duration minus the durations of its child
        spans; a layer's self time sums that over the layer's spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, raised = Counter(), Counter()
        seconds, self_s = defaultdict(float), defaultdict(float)
        for sid, (name, start, end, _, _, err) in enumerate(self.spans):
            calls[name] += 1
            seconds[name] += end - start
            raised[name] += err
            self_s[LAYER_OF.get(name.split(".")[0], name)] += end - start - child[sid]
        return calls, seconds, raised, self_s

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op,raised\n")
            for sid, (name, start, end, parent, op, err) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op},{int(err)}\n")
