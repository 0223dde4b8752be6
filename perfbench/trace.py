"""Span recording around each layer's public functions, and self time.

The serving process is single-threaded (one asyncio loop), so a plain
stack of open spans gives every span its parent.  Spans live in flat
arrays in memory and are written out once, when the server exits.

A span's *self time* is its duration minus the part of it that its
child spans cover; summing self times over every span never counts an
instant twice.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

_now = time.perf_counter_ns


class SpanRecorder:
    """Flat in-memory span store: name, parent, start, end, request id.

    ``aux`` carries one integer per span that the wrapper may set from
    the call's result (bytes in, items evicted, ...).
    """

    def __init__(self, request_id: Callable[[], int] = lambda: 0) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.request = array("q")
        self.aux = array("q")
        self.aux2 = array("q")
        self._stack: List[int] = []
        self.request_id = request_id

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, name: str, fn: Callable, measure: Callable = None) -> Callable:
        """``fn`` recorded as span ``name``; ``measure(args, result)``
        returns the span's (aux, aux2) integers."""
        ident = self.name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id())
            self.aux.append(0)
            self.aux2.append(0)
            self.end.append(0)
            stack.append(index)
            self.start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = _now()
                stack.pop()
            if measure is not None:
                self.aux[index], self.aux2[index] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        header = json.dumps({"names": self.names, "count": len(self.start)})
        with open(path, "wb") as stream:
            stream.write(header.encode() + b"\n")
            for column in self._columns():
                column.tofile(stream)

    def _columns(self):
        return (
            self.name, self.parent, self.start, self.end,
            self.request, self.aux, self.aux2,
        )

    @classmethod
    def load(cls, path: str) -> "SpanRecorder":
        recorder = cls()
        with open(path, "rb") as stream:
            header = json.loads(stream.readline())
            recorder.names = header["names"]
            count = header["count"]
            for column in recorder._columns():
                column.fromfile(stream, count)
        return recorder


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself (children may overlap or overhang)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(
    recorder: SpanRecorder, requests: Sequence[Tuple[int, int]]
) -> Dict[str, Dict[str, float]]:
    """Per span name over the requests in the ``(first, last)`` ranges:
    calls, total and self nanoseconds, and the summed aux columns."""
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    totals: Dict[str, Dict[str, float]] = {}
    for index, ident in enumerate(recorder.name):
        request = recorder.request[index]
        if not any(first <= request <= last for first, last in requests):
            continue
        entry = totals.setdefault(
            recorder.names[ident],
            {"calls": 0, "total_ns": 0, "self_ns": 0, "aux": 0, "aux2": 0},
        )
        entry["calls"] += 1
        entry["total_ns"] += recorder.end[index] - recorder.start[index]
        entry["self_ns"] += selfs[index]
        entry["aux"] += recorder.aux[index]
        entry["aux2"] += recorder.aux2[index]
    return totals
