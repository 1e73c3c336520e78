"""Layer-boundary spans for lucaskit, installed from outside the package.

Every function that one lucaskit layer module imported from another is
replaced, in the importing module's namespace, by a wrapper that records a
span. Classes are never wrapped, so `isinstance` checks keep working. A
target's layer is read from its `__module__`, so spans sit exactly on layer
boundaries; a target that a later version renames or removes simply yields
no metric. `lucaskit.cli.main` is wrapped too and is the root span of each
operation.

Spans live in flat arrays until the run ends: target id, parent span index,
start and end (perf_counter seconds). A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

PACKAGE = "lucaskit"
LAYERS = ("cli", "congruences", "primality", "sequences", "residues")
# Functions whose public `counter=` parameter receives the tracer's OpCounter.
MULT_TARGETS = ("sequences.u_pair_mod",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # target id -> "layer.function"
        self.target = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.max_term_bits = 0
        self.counter = None
        self.counting = False  # True once a MULT_TARGETS function receives the counter

    def install(self) -> "Tracer":
        modules = {
            layer: sys.modules[f"{PACKAGE}.{layer}"]
            for layer in LAYERS
            if f"{PACKAGE}.{layer}" in sys.modules
        }
        owners = {module.__name__: layer for layer, module in modules.items()}
        sequences = modules.get("sequences")
        if sequences is not None and hasattr(sequences, "OpCounter"):
            self.counter = sequences.OpCounter()
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                owner = owners.get(getattr(obj, "__module__", None))
                if owner is None or owner == layer or isinstance(obj, type) or not callable(obj):
                    continue
                setattr(module, attr, self._wrap(obj, f"{owner}.{attr}"))
        cli = modules["cli"]
        cli.main = self._wrap(cli.main, "cli.main")
        return self

    def _wrap(self, fn, name: str):
        if name in self.names:
            tid = self.names.index(name)
        else:
            tid = len(self.names)
            self.names.append(name)
        target, parent, start, end, stack = (
            self.target, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        counter = None
        if name in MULT_TARGETS and self.counter is not None:
            if "counter" in inspect.signature(fn).parameters:
                counter = self.counter
                self.counting = True
        observe_bits = name.startswith("sequences.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            target.append(tid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if counter is not None and "counter" not in kwargs:
                kwargs["counter"] = counter
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe_bits and type(result) is int:
                bits = result.bit_length()
                if bits > self.max_term_bits:
                    self.max_term_bits = bits
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four arrays back to back."""
        with open(path, "wb") as fh:
            header = {
                "targets": self.names,
                "spans": len(self.start),
                "arrays": [["target", "h"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.target, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per-target calls and self time, plus the exact counters the run read."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent, target = self.start, self.end, self.parent, self.target
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            t = target[i]
            calls[t] += 1
            self_s[t] += end[i] - start[i] - child[i]
        out = {
            "targets": {
                name: {"calls": calls[t], "self_s": self_s[t]}
                for t, name in enumerate(self.names)
            },
            "max_term_bits": self.max_term_bits,
        }
        if self.counting:
            out["u_pair_mod_mults"] = self.counter.mults
        sequences = sys.modules.get(f"{PACKAGE}.sequences")
        caches = [
            obj.cache_info()
            for obj in (vars(sequences).values() if sequences else ())
            if callable(getattr(obj, "cache_info", None))
        ]
        if caches:
            out["term_cache"] = {
                "hits": sum(c.hits for c in caches),
                "misses": sum(c.misses for c in caches),
                "entries": sum(c.currsize for c in caches),
            }
        return out
