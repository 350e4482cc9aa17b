"""In-memory span tracer that instruments waldrates from the outside.

``Tracer.install()`` wraps every public function of the traced layers, plus a
few hot methods, and rebinds each wrapper under every name that refers to the
original in any loaded ``waldrates`` module.  A function imported by name into
another module (``verify.symmetric_eigenvalues``, ``simulate.jacobian``) is a
separate binding: patching only the defining module would miss those calls.

A span is ``(name, start, end, parent index, operation id)``; spans stay in a
list until ``dump`` writes them out at the end of the run.  Products of
``MultiPoly`` happen millions of times per run, so they are counted, not
spanned.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "polycore", "restriction", "rates", "simulate", "verify")
TRACED_METHODS = (("simulate", "CompiledSystem", "g_at"),
                  ("simulate", "CompiledSystem", "jacobian_at"))
COUNTED_METHODS = (("polycore", "MultiPoly", "__mul__", "polycore.MultiPoly.mul"),)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    # -- instrumentation -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> int:
        """Patch the loaded waldrates modules; returns the number of bindings."""
        for layer in LAYERS:
            importlib.import_module(f"waldrates.{layer}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "waldrates" or name.startswith("waldrates.")}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[f"waldrates.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._span_wrapper(f"{layer}.{attr}", obj)
        patched = 0
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched += 1
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[f"waldrates.{layer}"], cls_name)
            setattr(cls, meth, self._span_wrapper(f"{layer}.{cls_name}.{meth}",
                                                  getattr(cls, meth)))
            patched += 1
        for layer, cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(modules[f"waldrates.{layer}"], cls_name)
            original = getattr(cls, meth)
            wrapper = self._count_wrapper(name, original)
            for attr, obj in list(vars(cls).items()):
                if obj is original:  # __rmul__ is an alias of __mul__
                    setattr(cls, attr, wrapper)
                    patched += 1
        return patched

    # -- analysis --------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure a later window from."""
        return len(self.spans), Counter(self.counts)

    def window(self, mark: tuple[int, Counter]) -> dict:
        """Per-name calls and self time of the spans recorded since ``mark``.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a window add up to its traced time.
        """
        first, counts_before = mark
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child.get(first + offset, 0.0)
        counted = Counter(self.counts)
        counted.subtract(counts_before)
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(counted)}

    def dump(self, path) -> None:
        """Write all spans as gzipped JSON with names interned."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, round(start, 9), round(end, 9), parent, op])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(names), "fields": ["name", "start", "end",
                                                        "parent", "op"],
                       "spans": rows, "counts": dict(self.counts)}, fh)
