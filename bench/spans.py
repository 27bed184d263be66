"""In-memory span tracer that wraps psmc's layer functions from outside.

Wrapping happens in the benchmark process only, inside ``active()``
blocks: module functions are replaced in every psmc module that holds
them (so re-imports such as ``constructions.mat_mul`` are traced too) and
methods are replaced on their classes.  Each span records its name,
start, end and parent span in flat arrays; nothing is aggregated until
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when a span of the same name is already open
        self.work: dict[int, int] = {}  # per name: summed work units (rows, codewords)
        self.hits: dict[int, int] = {}  # per name: calls whose outcome predicate held
        self.wall = 0.0  # seconds spent with tracing enabled
        self.enabled = False
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []  # owner, key, original, wrapped

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.work[self._ids[name]] = 0
            self.hits[self._ids[name]] = 0
            self._open[self._ids[name]] = 0
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._open[nid] else 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, nid: int, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (a phase); no-op while disabled."""
        if not self.enabled:
            yield
            return
        nid = self._id(name)
        idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(nid, idx)

    @contextmanager
    def active(self):
        """Install the wrappers for the block and add its duration to ``wall``.

        Outside these blocks the program runs unwrapped, so untraced
        measurements in the same process pay no tracing cost.
        """
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)
        self.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - t0
            self.enabled = False
            for owner, key, original, _ in reversed(self._patches):
                setattr(owner, key, original)

    def wrap(self, name, fn, *, work=None, outcome=None, when=None):
        """Return fn wrapped in a span.

        work(args) adds work units to the name, outcome(result) counts a hit,
        and when(args) false skips the span (the call is then timed as part
        of its caller).
        """
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            if work is not None:
                tracer.work[nid] += work(args)
            idx = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(nid, idx)
            if outcome is not None and outcome(result):
                tracer.hits[nid] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap module.attr in every loaded psmc module that binds it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "psmc" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapped))

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original, self.wrap(name, original, **hooks)))

    # -- aggregation ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
        }

    def stats(self) -> dict:
        """Per name: calls, inclusive s, self_s, work and hits.

        Self time is a span's duration minus the durations of its direct
        children (children never overlap: the program is single-threaded).
        Inclusive time counts only the outermost span of a name.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        outer = a["nested"] == 0
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"][outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(a["name"], weights=self_t, minlength=k)
        parent_name = np.where(has_parent, a["name"][np.where(has_parent, a["parent"], 0)], -1)
        out = {
            name: {
                "calls": int(calls[i]),
                "s": float(incl[i]),
                "self_s": float(self_s[i]),
                "work": self.work[i],
                "hits": self.hits[i],
            }
            for i, name in enumerate(self.names)
        }
        return {
            "by_name": out,
            "self_total_s": float(self_t.sum()),
            "wall_s": self.wall,
            "spans": int(dur.size),
            "child_counts": _child_counts(self.names, a["name"], parent_name),
        }


def _child_counts(names, name, parent_name) -> dict[str, int]:
    """Number of spans per (parent name, child name) pair, keyed 'parent>child'."""
    mask = parent_name >= 0
    pairs = name[mask].astype(np.int64) * len(names) + parent_name[mask]
    uniq, counts = np.unique(pairs, return_counts=True)
    return {
        f"{names[p % len(names)]}>{names[p // len(names)]}": int(c)
        for p, c in zip(uniq, counts)
    }
