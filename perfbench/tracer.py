"""Spans and counters around the package's public functions, from outside.

The public functions are the ones ``metric_completer`` re-exports, plus the
CLI entry point ``metric_completer.cli.main``.  Installing the tracer replaces
each of them at every module binding that holds it, so calls between modules
and inside one module are both seen.  Generator functions are left alone;
their work is timed in the caller that consumes them.

Functions called once per triangle or per rank are counted instead of timed
(``COUNTED``): a span costs far more than their bodies.  Spans are kept in
memory as (name, start, end, parent) and written out by ``write``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import time
from array import array

LAYERS = ("params", "graphs", "completion", "obstacles", "cli")
COUNTED = frozenset({
    "params.validate_params",
    "params.classify_triangle",
    "params.require_acceptable",
    "params.distance_at_rank",
})


def public_functions(package) -> dict[str, object]:
    """Qualified name ("layer.function") -> function object."""
    found = {}
    for name, obj in vars(package).items():
        module = getattr(obj, "__module__", "") or ""
        if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                or not module.startswith(package.__name__ + ".")
                or inspect.isgeneratorfunction(obj)):
            continue
        found[f"{module.rsplit('.', 1)[1]}.{name}"] = obj
    found["cli.main"] = importlib.import_module(package.__name__ + ".cli").main
    return found


class Tracer:
    def __init__(self, package):
        self.functions = public_functions(package)
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        ]
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {name: 0 for name in COUNTED if name in self.functions}
        self.triangles = 0  # C(n, 3) summed over violations scans
        self.saved: list[tuple[object, str, object]] = []

    def _spanned(self, qualified: str, fn):
        ident = self.name_ids.setdefault(qualified, len(self.names))
        if ident == len(self.names):
            self.names.append(qualified)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter
        count_triangles = qualified == "graphs.violations"

        def wrapper(*args, **kwargs):
            index = len(start)
            span_name.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            if count_triangles:
                self.triangles += math.comb(args[0].vertex_count, 3)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def _counted(self, qualified: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qualified] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for qualified, fn in self.functions.items():
            make = self._counted if qualified in COUNTED else self._spanned
            wrappers[id(fn)] = make(qualified, fn)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total seconds and self seconds (total minus
        the time its child spans cover)."""
        child = [0.0] * len(self.start)
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        spans = list(zip(self.span_name, self.parent, self.start, self.end))
        for _, p, s, e in spans:
            if p >= 0:
                child[p] += e - s
        for i, (ident, _, s, e) in enumerate(spans):
            entry = totals[self.names[ident]]
            entry["calls"] += 1
            entry["s"] += e - s
            entry["self_s"] += e - s - child[i]
        for name, calls in self.counts.items():
            totals[name] = {"calls": calls}
        return totals

    def children_of(self, parent_name: str, child_name: str) -> int:
        """How many ``child_name`` spans ran directly under ``parent_name``."""
        if parent_name not in self.name_ids or child_name not in self.name_ids:
            return 0
        want_parent = self.name_ids[parent_name]
        want_child = self.name_ids[child_name]
        span_name = self.span_name
        return sum(
            1 for ident, p in zip(span_name, self.parent)
            if ident == want_child and p >= 0 and span_name[p] == want_parent
        )

    def write(self, path) -> None:
        """All spans as gzip text: a JSON header naming the columns and the
        span names, then one tab-separated row per span in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({
                "columns": ["name", "parent", "start_s", "end_s"],
                "names": self.names,
                "counts": self.counts,
            }) + "\n")
            for row in zip(self.span_name, self.parent, self.start, self.end):
                handle.write("%d\t%d\t%.9f\t%.9f\n" % row)
