"""In-memory span tracing of burnkit's public functions, from outside.

`Tracer.install` replaces every public function of the layer modules
at every module binding that refers to it (so `burnkit.exact`'s own
`bfs_distances` import is traced too), plus `Graph.__init__`, and
returns an undo callable.  Untraced runs never call it, so they run
the program exactly as shipped.

Each span is (id, parent id, name, start, end, extra); `extra` holds
what the wrapper could read off the call: nodes explored by the exact
search, the length of a greedy schedule, edges of a built graph, the
exception type of a call that raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "graph",
    "burning",
    "exact",
    "grid",
    "partition",
    "interval_reduction",
    "permutation_reduction",
    "cli",
)

OP = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.family = ""

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, extra_of=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        extra: dict = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            extra["error"] = type(exc).__name__
            nodes = getattr(exc, "nodes_explored", None)
            if nodes is not None:
                extra["nodes"] = nodes
            raise
        else:
            if extra_of is not None:
                extra.update(extra_of(args, result))
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self.family:
                extra["family"] = self.family
            self.spans.append((sid, parent, name, start, end, extra))

    def run_op(self, family: str, fn):
        """Run one benchmark op under a root span tagged with its family."""
        self.family = family
        try:
            return self.span(OP, fn)
        finally:
            self.family = ""

    def _wrap(self, name: str, fn, extra_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, extra_of)

        return traced

    def install(self):
        """Patch the layer modules; return a callable that undoes it."""
        import burnkit
        from burnkit.graph import Graph

        modules = [burnkit] + [
            importlib.import_module(f"burnkit.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"burnkit.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(
                        f"{layer}.{attr}", fn, _EXTRAS.get(attr)
                    )
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, value))
        init = Graph.__init__
        Graph.__init__ = self._wrap(
            "graph.Graph", init, lambda args, _: {"edges": args[0].m}
        )
        undo.append((Graph, "__init__", init))

        def restore() -> None:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return restore

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, **extra,
                }) + "\n")


_EXTRAS = {
    "exact_burning_number": lambda args, r: {"nodes": r.nodes_explored},
    "greedy_burn": lambda args, r: {"rounds": len(r)},
}


# --- derived per-layer figures --------------------------------------------


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, inclusive and self seconds, summed extras.

    Self time is a span's duration minus the durations of its direct
    children; calls run one at a time, so children never overlap.
    Also counts, per (parent name, child name), direct-child calls.
    """
    names = {sid: name for sid, _, name, _, _, _ in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    nested: dict[tuple[str, str], int] = defaultdict(int)
    for sid, parent, name, start, end, extra in spans:
        keys = [name]
        family = extra.get("family")
        if family:
            keys.append(f"{name}.{family}")
        for key in keys:
            s = stats[key]
            s["calls"] += 1
            s["incl_s"] += end - start
            s["self_s"] += end - start - child_time[sid]
            s["failed"] += "error" in extra
            for field in ("nodes", "rounds", "edges"):
                s[field] += extra.get(field, 0)
        if parent >= 0:
            nested[(names[parent], name)] += 1
    return {"by_name": stats, "nested": nested}
