"""
Per-layer tracing of the matchdescents modules, installed from outside.

The tracer replaces each public function of a layer module, and the
``__post_init__`` of each dataclass defined there, by a timing wrapper
set as a module (or class) attribute.  Calls made inside the package go
through module globals or module attributes, so they reach the wrappers.

Memory stays bounded: per wrapped callable it keeps one aggregate
``[calls, objects, inclusive_ns, self_ns]``; per (caller layer, callee
layer) edge a count and inclusive time; and full spans only for the
first ``SPAN_CAP`` layer entries (a call whose caller is in another
layer).  ``child.py`` keeps the command spans and sets ``command`` to
the index of the running command, which tags the layer-entry spans.

A generator, or a function annotated to return an ``Iterator``, is
charged per yielded object: each ``next`` is timed as one span, and the
yielded objects are counted.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import time

LAYERS = ("perm", "matching", "tableau", "oscillating", "bijection", "cyclic", "symfun", "cli")
SPAN_CAP = 1000
COMMAND = "<command>"


class Tracer:
    def __init__(self) -> None:
        self.records: dict[str, list[int]] = {}  # name -> [calls, objects, incl_ns, self_ns]
        self.layer_of: dict[str, str] = {}
        self.edges: dict[tuple[str, str], list[int]] = {}  # (caller, callee) layer -> [calls, incl_ns]
        self.spans: list[dict] = []
        self.spans_dropped = 0
        self.missing_layers: list[str] = []
        self.command = -1
        # frame: [child_ns, layer, name]; the root frame collects covered time
        self._root = [0, COMMAND, COMMAND]
        self._stack = [self._root]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers for the rest of this process's life."""
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"matchdescents.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    setattr(module, attr, self._wrap(value, f"{layer}.{attr}", layer))
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)
                    and "__post_init__" in vars(value)
                ):
                    post = vars(value)["__post_init__"]
                    setattr(value, "__post_init__", self._wrap(post, f"{layer}.{attr}", layer))

    def _wrap(self, fn, name: str, layer: str):
        rec = self.records.setdefault(name, [0, 0, 0, 0])
        self.layer_of[name] = layer
        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                rec[0] += 1
                return self._iterate(fn(*args, **kwargs), rec, name, layer)

            return traced_gen

        returns_iterator = "Iterator" in str(getattr(fn, "__annotations__", {}).get("return", ""))
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [0, layer, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller[0] += elapsed
                rec[0] += 1
                rec[2] += elapsed
                rec[3] += elapsed - frame[0]
                if caller[1] != layer:
                    self._layer_entry(caller, name, layer, start, elapsed)
            if returns_iterator:
                return self._iterate(iter(result), rec, name, layer)
            return result

        return traced

    def _iterate(self, it, rec: list[int], name: str, layer: str):
        stack = self._stack
        clock = time.perf_counter_ns
        try:
            while True:
                caller = stack[-1]
                frame = [0, layer, name]
                stack.append(frame)
                start = clock()
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    caller[0] += elapsed
                    rec[2] += elapsed
                    rec[3] += elapsed - frame[0]
                    if caller[1] != layer:
                        self._layer_entry(caller, name, layer, start, elapsed)
                if done:
                    return
                rec[1] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _layer_entry(self, caller: list, name: str, layer: str, start: int, elapsed: int) -> None:
        edge = self.edges.setdefault((caller[1], layer), [0, 0])
        edge[0] += 1
        edge[1] += elapsed
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                {"command": self.command, "name": name, "parent": caller[2], "start_ns": start, "end_ns": start + elapsed}
            )
        else:
            self.spans_dropped += 1

    # -- results ----------------------------------------------------------

    @property
    def covered_ns(self) -> int:
        """Time spent inside top-level wrapped calls."""
        return self._root[0]

    def layer_totals(self) -> dict[str, dict[str, int]]:
        totals = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for name, (calls, _objects, _incl, self_ns) in self.records.items():
            entry = totals[self.layer_of[name]]
            entry["calls"] += calls
            entry["self_ns"] += self_ns
        return totals

    def snapshot(self) -> dict:
        return {
            "records": {name: list(rec) for name, rec in self.records.items()},
            "layers": self.layer_totals(),
            "covered_ns": self.covered_ns,
            "edges": {f"{a}->{b}": list(v) for (a, b), v in sorted(self.edges.items())},
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "missing_layers": self.missing_layers,
        }
