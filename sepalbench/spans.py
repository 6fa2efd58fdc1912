"""Span recorder for the traced benchmark run.

The recorder wraps program functions at run time: each call becomes a span
with its name, start, end, parent span and job id.  Spans stay in memory,
in flat typed arrays so a run with a million spans stays small, and are
written out once the run ends.  Counters hooked to the same wrappers record
the work done at each boundary (terms multiplied, states explored, ...).

Nothing here edits program files: ``install`` swaps module and class
attributes and returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Tracer:
    """In-memory span store.  ``paused`` lets the benchmark call program
    code for its own checks without recording it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.current_job = -1
        self.paused = False
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Dump every span: a JSON header naming the columns, then the
        columns as raw arrays, in the header's order and byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = [("name", self.name_of), ("start", self.start),
                ("end", self.end), ("parent", self.parent), ("job", self.job)]
        header = {
            "spans": len(self),
            "names": self.names,
            "columns": [[name, col.typecode, col.itemsize] for name, col in cols],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in cols:
                col.tofile(fh)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans must be in order of their start, as the recorder appends them;
    a parent's children then arrive in start order too, so the union of
    the parts of the parent's interval they cover grows left to right.
    """
    n = len(start)
    cover = array("d", bytes(8 * n))
    reach = array("d", start)           # right end of the union so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi <= lo:
            continue
        cover[p] += hi - lo
        reach[p] = hi
    return [end[i] - start[i] - cover[i] for i in range(n)]


@dataclass
class SpanSummary:
    """Per-name totals over the spans of the traced jobs (job id >= 0) and,
    separately, over set-up spans (job id -1)."""
    calls: dict[str, int]
    self_s: dict[str, float]
    setup_s: dict[str, float]
    child_calls: dict[tuple[str, str], int]


def summarize(tracer: Tracer) -> SpanSummary:
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    setup_s: dict[str, float] = defaultdict(float)
    child_calls: dict[tuple[str, str], int] = defaultdict(int)
    for i, nid in enumerate(tracer.name_of):
        name = names[nid]
        if tracer.job[i] < 0:
            setup_s[name] += tracer.end[i] - tracer.start[i]
            continue
        calls[name] += 1
        self_s[name] += selfs[i]
        p = tracer.parent[i]
        if p >= 0:
            child_calls[(names[tracer.name_of[p]], name)] += 1
    return SpanSummary(dict(calls), dict(self_s), dict(setup_s),
                       dict(child_calls))


# ---------------------------------------------------------------------------
# wrapping program functions


CountHook = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One program function to wrap: ``attr`` of module ``module`` (a dotted
    ``Class.method`` for methods), recorded as span ``span``."""
    module: str
    attr: str
    span: str
    count: CountHook | None = None


def _wrap(tracer: Tracer, fn, nid: int, count: CountHook | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer, targets: list[Target], package: str) -> Callable[[], None]:
    """Wrap every target and return the function that undoes it.

    A function imported by name into another module of ``package`` is
    wrapped at that module's attribute too, so calls through either name
    are recorded.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    undo: list[tuple[object, str, object]] = []
    for t in targets:
        owner = sys.modules[t.module]
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, original, tracer.name_id(t.span), t.count)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if path:
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
    return restore
