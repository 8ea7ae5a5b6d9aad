"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: a name, a start and end time, the span
that was open when it started (its parent), and the session or request
id it belongs to. Spans are appended to flat arrays while the workload
runs and are only processed after it has finished, so recording costs
two clock reads and a few appends per call.

Wrappers replace a name in a module's namespace (or a method on a class)
for the duration of a traced cycle; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

NO_PARENT = -1


class SpanRecorder:
    """Append-only span store for one traced cycle."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.ident = array("i")
        self._stack: list[int] = []
        self._next_ident = 1

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, new_ident: bool = False) -> int:
        """Start a span; ``new_ident`` gives it (and its children) a fresh id
        unless it already runs inside an identified span."""
        stack = self._stack
        idx = len(self.name)
        if stack:
            parent = stack[-1]
            ident = self.ident[parent]
        else:
            parent = NO_PARENT
            ident = 0
        if new_ident and ident == 0:
            ident = self._next_ident
            self._next_ident += 1
        self.name.append(nid)
        self.parent.append(parent)
        self.ident.append(ident)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def add(self, name: str, start: int, end: int, parent: int = NO_PARENT,
            ident: int = 0) -> int:
        """Append a finished span, for building span trees in tests."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.ident.append(ident)
        return idx

    def self_times(self) -> array:
        """Each span's duration minus the part of it covered by its children.

        Children are visited in the order they were opened, which is start
        order, so the covered part is a running union: a child that overlaps
        an earlier sibling only adds the part past that sibling's end, and
        anything outside the parent's own interval is clipped away.
        """
        n = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        covered = array("q", bytes(8 * n))
        covered_until = array("q", start)
        for i in range(n):
            p = parent[i]
            if p == NO_PARENT:
                continue
            s = start[i]
            if s < covered_until[p]:
                s = covered_until[p]
            e = end[i]
            if e > end[p]:
                e = end[p]
            if e > s:
                covered[p] += e - s
                covered_until[p] = e
        return array("q", (end[i] - start[i] - covered[i] for i in range(n)))

    def totals(self, keep_durations: frozenset[str] = frozenset()) -> dict[str, dict]:
        """Per span name: calls, total duration and self time (seconds).

        Names in ``keep_durations`` also get their list of durations in
        nanoseconds, for percentile metrics.
        """
        self_ns = self.self_times()
        kept = {self.name_id(n): [] for n in keep_durations}
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0] * n_names
        self_total = [0] * n_names
        start, end = self.start, self.end
        for i, nid in enumerate(self.name):
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            self_total[nid] += self_ns[i]
            if nid in kept:
                kept[nid].append(dur)
        return {
            name: {"calls": calls[nid], "total_s": total[nid] / 1e9,
                   "self_s": self_total[nid] / 1e9, "durations_ns": kept.get(nid, [])}
            for nid, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the spans as raw columns (``path``.bin, in the machine's byte
        order) plus a JSON header (``path``.json) naming them."""
        columns = [("name", self.name), ("start_ns", self.start), ("end_ns", self.end),
                   ("parent", self.parent), ("id", self.ident)]
        header = {
            "count": len(self),
            "byteorder": sys.byteorder,
            "names": self.names,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as f:
            for _, col in columns:
                col.tofile(f)


def traced(recorder: SpanRecorder, name: str, fn, *, new_ident: bool = False,
           on_call=None, on_result=None):
    """Wrap ``fn`` so each call records one span named ``name``.

    ``on_call(args)`` and ``on_result(args, result)`` let a layer count
    what passed through it (hits, matches, dispositions) at the boundary.
    """
    nid = recorder.name_id(name)
    open_, close = recorder.open, recorder.close

    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        idx = open_(nid, new_ident)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if on_result is not None:
            on_result(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Replace attributes for the life of a ``with`` block, then restore them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False
