"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces every public function and method of the
minrank modules with a timing wrapper, on every module that imported the
name, and `uninstall()` puts the originals back.  Spans are aggregated in
memory per qualified name: call count, inclusive time and self time, where
self time is the duration minus the time covered by nested wrapped calls.
A few counters are read off return values (bnb and brute-force nodes, dp
oracle calls, recognition roots tried).
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = (
    "cli", "cnf", "dp", "exact", "families", "formats",
    "generator", "gf2", "graph", "recognizer", "structure",
)

# Accessors whose bodies take well under a microsecond and run millions of
# times per graph; a wrapper on them would cost more than the work it
# measures and swamp the self time of their callers.
UNWRAPPED = {
    "graph.Graph.neighbors",
    "graph.Graph.neighbor_set",
    "graph.Graph.degree",
    "graph.Graph.has_edge",
    "graph.Graph.adjacency_bits",
}


def _nodes(result) -> int:
    return result.stats.get("nodes", 0)


# name -> the counter read off its return value: search nodes, dp oracle
# calls, recognition roots tried.
COUNTERS = {
    "exact.minrank_bnb": _nodes,
    "exact.minrank_bruteforce": _nodes,
    "dp.dp_minrank": lambda r: r.stats.get("oracle_calls", 0),
    "recognizer.recognize": lambda r: r.roots_tried,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, counter]
        self._stack: list[list] = []  # per active span: [child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self.modules = {m: importlib.import_module(f"minrank.{m}") for m in LAYERS}

    def reset(self) -> None:
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0, 0]

    def totals(self) -> dict[str, list]:
        """Rows of the functions called since the last reset."""
        return {name: row[:] for name, row in self.stats.items() if row[0]}

    def delta(self, before: dict[str, list]) -> dict[str, list]:
        """What was added to each row since `before = totals()` was taken."""
        out = {}
        for name, row in self.stats.items():
            old = before.get(name, [0, 0.0, 0.0, 0])
            if row[0] != old[0]:
                out[name] = [a - b for a, b in zip(row, old)]
        return out

    def _wrap(self, name: str, fn):
        row = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1][0] += elapsed
                row[0] += 1
                if not depth[0]:  # recursion would count the same time twice
                    row[1] += elapsed
                row[2] += elapsed - children[0]
            if counter is not None:
                row[3] += counter(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """(owner, attribute, qualified name, original) for everything wrapped."""
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, f"{layer}.{attr}", obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in vars(obj).items():
                        qual = f"{layer}.{attr}.{meth}"
                        if meth.startswith("_") or qual in UNWRAPPED:
                            continue
                        if isinstance(raw, classmethod) or inspect.isfunction(raw):
                            yield obj, meth, qual, raw

    def install(self) -> None:
        if self._saved:
            return
        replaced = {}
        for owner, attr, qual, orig in list(self._targets()):
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(qual, orig.__func__))
            else:
                new = self._wrap(qual, orig)
                replaced[id(orig)] = (orig, new)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        # Rebind names other modules imported with `from .x import y`.
        package = importlib.import_module("minrank")
        for mod in (package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj and getattr(mod, attr) is not hit[1]:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []
