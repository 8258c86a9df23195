"""Span recorder for the traced run.

The benchmark wraps the public functions of robomem's layers from outside:
each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory, and the spans are written out when the run ends. A
span's self time is its duration minus the time its child spans cover.

Only module and class attributes are replaced, so a call reaches the
wrapper only where robomem looks the function up at call time. That holds
for `segment.encode_record`, `decode_payload` and `read_segment` (called as
`segcodec.*` inside `store`), for `refine.associate`, for every `Store`
method, and for functions that one module imported from another by name,
which are wrapped once more in the importing module (`query.select_frames`,
`reprocess.run_refinement_pass`).
"""

from __future__ import annotations

import gzip
import math
import statistics
import time
from array import array


def read_proc_io() -> tuple[int, int]:
    """(bytes, write calls) this process has written so far, per /proc/self/io."""
    wchar = syscw = 0
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == "wchar":
                wchar = int(value)
            elif key == "syscw":
                syscw = int(value)
    return wchar, syscw


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, float] = {}
        self.paused = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrapper(self, fn, name, before=None, after=None):
        """A function that calls fn and records a span per call.

        `name` is a span name or a function of the call's arguments. `before`
        runs ahead of the span and its result is handed to `after`, which runs
        once the span has ended, so neither is timed.
        """
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            token = before(tracer, args, kwargs) if before else None
            i = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if after:
                after(tracer, args, kwargs, out, token)
            return out

        return wrapped

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace owner.attr, a module or class attribute, by self.wrapper(...)."""
        raw = owner.__dict__[attr]
        setattr(owner, attr, self.wrapper(getattr(owner, attr), name, before, after))
        self._undo.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- analysis

    def durations(self) -> dict[str, tuple[list[int], list[int]]]:
        """Per span name: (inclusive durations, self durations) in ns."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, tuple[list[int], list[int]]] = {name: ([], []) for name in self.names}
        for i in range(n):
            d = self.end[i] - self.start[i]
            incl, own = out[self.names[self.name_id[i]]]
            incl.append(d)
            own.append(d - child[i])
        return out

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")


def mean(values) -> float:
    return statistics.fmean(values) if values else float("nan")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    k = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[k - 1]
