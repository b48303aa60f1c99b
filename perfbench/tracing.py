"""Span tracer for the benchmark's traced run.

install() replaces every public function of the cli, partition, monotone
and poset modules, in each of those module namespaces that binds it, by a
wrapper that records one span (name, start, end, parent) per call.  Private
names are left alone, so the trace keeps working when internals are
rewritten.  A generator function gets one span per resumption, so the time
spent producing its items is charged to it and not to its consumer.
MemoCache is swapped for a subclass that registers every instance, which
lets the benchmark read memo statistics of caches the package creates for
itself.  remove() restores every original binding.

Spans live in flat arrays in memory and are written out by save().  A
layer's self time is the summed duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "partition", "monotone", "poset")


class Tracer:
    def __init__(self, dk):
        self.modules = [getattr(dk, layer) for layer in LAYERS]
        self.names: list[str] = []
        self.calls = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.caches: list = []
        self._span_ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        calls, open_, close = self.calls, self._open, self._close

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(idx)
                        yield item
                finally:
                    it.close()
        else:
            def traced(*args, **kwargs):
                calls[nid] += 1
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        if name not in self._span_ids:
            self._span_ids[name] = self._name_id(name)
        nid = self._span_ids[name]
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        owners = {f"dedekind.{layer}": layer for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(f"{owners[obj.__module__]}.{obj.__name__}", obj)
                self._patch(mod, attr, wrapped[id(obj)])

        original = self.modules[LAYERS.index("partition")].MemoCache
        caches = self.caches

        class RecordingMemoCache(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                caches.append(self)

        for mod in self.modules:
            if getattr(mod, "MemoCache", None) is original:
                self._patch(mod, "MemoCache", RecordingMemoCache)

    def _patch(self, mod, attr: str, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def remove(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def memo_stats(self) -> dict[str, int]:
        hits = sum(c.stats()["hits"] for c in self.caches)
        misses = sum(c.stats()["misses"] for c in self.caches)
        return {"hits": hits, "misses": misses, "entries": sum(len(c) for c in self.caches)}

    def summary(self) -> tuple[dict[str, tuple[int, float]], dict[str, float]]:
        """Per function: (calls, seconds in its spans).  No public function
        calls itself, so no span nests in one of the same name.  Per layer:
        self time."""
        import numpy as np

        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_by_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        total_by_name = np.bincount(name, weights=dur, minlength=len(self.names))
        functions = {n: (self.calls[i], float(total_by_name[i])) for i, n in enumerate(self.names)}
        layers: dict[str, float] = {}
        for i, n in enumerate(self.names):
            layer = n.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + float(self_by_name[i])
        return functions, layers

    def save(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.array(self.span_start)
        origin = start.min() if len(start) else 0.0
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.span_name, dtype=np.int32),
                 parent=np.array(self.span_parent, dtype=np.int32),
                 start=start - origin, end=np.array(self.span_end) - origin)
