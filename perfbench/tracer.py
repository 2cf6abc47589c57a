"""Per-layer spans recorded from outside the package.

While a ``Tracer`` is active, each function named in ``layers.LAYERS`` is
replaced by a wrapper in every ``kippenhahn`` module namespace that bound it
(functions) or on its class (methods, and ``__init__`` for constructions).
A wrapper appends one span ``[layer, start, end, parent]`` per call; spans
stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from layers import COUNTER_KEYS, LAYERS, RESULT_COUNTERS


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for a layer; owner is the class for
    methods and constructions, else the defining module."""
    module = sys.modules[f"kippenhahn.{module_name}"]
    parts = qualname.split(".")
    if len(parts) == 2:
        return getattr(module, parts[0]), parts[1], getattr(getattr(module, parts[0]), parts[1])
    obj = getattr(module, parts[0])
    if isinstance(obj, type):
        return obj, "__init__", obj.__init__
    return module, parts[0], obj


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{q}" for m, q in LAYERS]
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer: int, fn, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if on_result is not None:
                on_result(result, self.counters)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "kippenhahn" or name.startswith("kippenhahn."))]
        for layer, (module_name, qualname) in enumerate(LAYERS):
            owner, attr, original = _resolve(module_name, qualname)
            wrapper = self._wrap(layer, original, RESULT_COUNTERS.get(self.names[layer]))
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def start_pass(self) -> int:
        """Reset the result counters and return the position in the span
        list; ``summary`` of that position gives the pass's figures."""
        self.counters.clear()
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, float]:
        """calls, busy_s (outermost spans of a layer only) and self_s (span
        time not covered by directly nested spans) per layer, plus the
        result counters, for spans recorded after ``since``."""
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        child = defaultdict(float)
        own = [0.0] * n
        spans = self.spans
        for i in range(since, len(spans)):
            layer, start, end, parent = spans[i]
            calls[layer] += 1
            if parent >= since:
                child[parent] += end - start
            # busy time counts a span only if no enclosing span is the same layer
            p = parent
            while p >= since and spans[p][0] != layer:
                p = spans[p][3]
            if p < since:
                busy[layer] += end - start
        for i in range(since, len(spans)):
            layer, start, end, _ = spans[i]
            own[layer] += end - start - child.get(i, 0.0)
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.busy_s"] = busy[k]
            out[f"{name}.self_s"] = own[k]
        for key in COUNTER_KEYS:
            out[key] = self.counters.get(key, 0)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans}, f, separators=(",", ":"))

