"""In-memory call spans and exact work counters, recorded from outside the
program by wrapping its functions at every place they are bound.

The package binds many functions by name at import (``from .network import
backward``), so wrapping only the defining module would miss most calls.
``Tracer.install`` therefore replaces every module-level binding of the
original function inside the package.  Spans are kept as
``[name_id, start, end, parent]`` lists and written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None, inline_under: str | None = None):
        """Span around ``fn``.  ``after(tracer, args, kwargs, result)`` runs
        once the span has closed.  A call made directly from a span named
        ``inline_under`` gets no span of its own: its time stays with the
        caller, which only delegates to it."""
        nid = self._name_id(name)
        inline_id = None if inline_under is None else self._name_id(inline_under)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inline_id is not None and stack and spans[stack[-1]][0] == inline_id:
                return fn(*args, **kwargs)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, target: str, name: str, after=None,
                inline_under: str | None = None) -> None:
        """Wrap ``module:qualname`` (a function or a class attribute) and
        rebind every module-level reference to it inside ``package``.  A
        missing target raises, so a rename in the program fails loudly."""
        modname, qualname = target.split(":")
        holder = importlib.import_module(modname)
        *path, attr = qualname.split(".")
        for part in path:
            holder = getattr(holder, part)
        original = getattr(holder, attr)
        wrapper = self.wrap(name, original, after=after, inline_under=inline_under)
        setattr(holder, attr, wrapper)
        rebound = 1
        for modkey, module in list(sys.modules.items()):
            if module is None or not (modkey == package or modkey.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    rebound += 1
        self.bindings[name] = rebound

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, "bindings": self.bindings}, fh)


def summarize(trace: dict) -> dict:
    """Per span name: calls, total seconds and self seconds (duration minus
    the time its direct children cover), call counts per ``parent>child``
    edge, and ``below_roots_s``, the self time of every span that has a
    parent: the time attributed to named layers below the root spans.
    Spans come from one thread, so children of a span never overlap."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    edges: dict[str, int] = {}
    below_roots_s = 0.0
    for i, (nid, start, end, parent) in enumerate(spans):
        entry = per_name[names[nid]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if parent >= 0:
            below_roots_s += end - start - child_time[i]
        pname = names[spans[parent][0]] if parent >= 0 else ""
        key = f"{pname}>{names[nid]}"
        edges[key] = edges.get(key, 0) + 1
    return {"layers": per_name, "edges": edges, "below_roots_s": below_roots_s}
