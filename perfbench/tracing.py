"""In-memory span recorder and the span-tree analysis behind per-layer metrics.

A span is one call across a wrapped boundary: its name, start, end, parent
span and case id.  Spans are appended to flat arrays while the workload runs
and written out once, when the run ends.  Self time is a span's duration minus
the part of it covered by its child spans.

The recorder knows nothing about germcalc; ``layers.py`` decides what to wrap.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter


class Tracer:
    """Records spans at wrapped boundaries and plain counts at counted ones.

    ``active`` switches recording off without unwrapping, so the benchmark
    can check outputs between cases without tracing its own checks.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.case = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case_of = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # span index -> tag, for the few boundaries whose result matters
        self.tags: dict[int, object] = {}
        self.errors: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, fn, name: str, layer: str, tag=None):
        """Wrap fn so each call records a span.  ``tag(args, result)``, when
        given, returns a value stored against the span (or None)."""
        nid = self.name_id(name)
        tracer = self
        clock = self.clock
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.case_of.append(tracer.case)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = clock()
                stack.pop()
                if not stack or tracer.layer_of_span(stack[-1]) != layer:
                    tracer.errors[layer] += 1
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if tag is not None:
                value = tag(args, result)
                if value is not None:
                    tracer.tags[idx] = value
            return result

        return functools.wraps(fn)(wrapper)

    def count_wrapper(self, fn, name: str, layer: str, extra=None):
        """Wrap fn so each call only bumps a counter (for calls too frequent
        to span).  ``extra(args)``, when given, names a second counter to bump."""
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
                if extra is not None:
                    key = extra(args)
                    if key is not None:
                        counts[key] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stack = tracer._stack
                    if not stack or tracer.layer_of_span(stack[-1]) != layer:
                        tracer.errors[layer] += 1
                    raise
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def layer_of_span(self, idx: int) -> str:
        return self.names[self.name_of[idx]].split(".", 1)[0]

    def spans(self) -> "SpanTable":
        return SpanTable(self.names, self.name_of, self.start, self.end,
                         self.parent, self.case_of)

    def dump(self, path) -> None:
        """Write the spans, gzip-compressed: one JSON header line naming the
        columns, then each column as raw native-endian array bytes.  Read
        them back with ``load_spans``."""
        columns = [("name_of", self.name_of), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("case_of", self.case_of)]
        header = {
            "names": self.names,
            "columns": [[key, col.typecode, len(col)] for key, col in columns],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                fh.write(col.tobytes())


def load_spans(path) -> "SpanTable":
    """Read a file written by ``Tracer.dump``."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for key, typecode, count in header["columns"]:
            col = array(typecode)
            col.frombytes(fh.read(count * col.itemsize))
            cols[key] = list(col)
    return SpanTable(header["names"], cols["name_of"], cols["start"], cols["end"],
                     cols["parent"], cols["case_of"])


class SpanTable:
    """Column view of a finished trace with the derived per-span quantities.

    ``parent[i]`` is the index of the enclosing span, or -1 for a root.
    Spans are listed in start order (a parent before its children), which is
    how the recorder appends them.  Children of one span never overlap: the
    program is single-threaded, so one call returns before the next starts.
    """

    def __init__(self, names, name_of, start, end, parent, case_of):
        self.names = names
        self.name_of = name_of
        self.start = start
        self.end = end
        self.parent = parent
        self.case_of = case_of
        self.layer_names = [name.split(".", 1)[0] for name in names]

    def __len__(self):
        return len(self.start)

    def name(self, i: int) -> str:
        return self.names[self.name_of[i]]

    def layer(self, i: int) -> str:
        return self.layer_names[self.name_of[i]]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans."""
        start, end, parent = self.start, self.end, self.parent
        out = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                out[p] -= end[i] - start[i]
        return out

    def ids(self, predicate) -> set[int]:
        """Name ids whose span name satisfies predicate(name)."""
        return {k for k, name in enumerate(self.names) if predicate(name)}

    def outermost(self, ids: set[int]) -> list[int]:
        """Spans whose name id is in ids and no ancestor's is."""
        name_of, parent = self.name_of, self.parent
        out = []
        for i, k in enumerate(name_of):
            if k in ids:
                p = parent[i]
                while p >= 0 and name_of[p] not in ids:
                    p = parent[p]
                if p < 0:
                    out.append(i)
        return out

    def inclusive(self, ids: set[int]) -> float:
        """Time inside spans named by ids, each nested run counted once."""
        return sum(self.end[i] - self.start[i] for i in self.outermost(ids))

    def has_descendant(self, name: str) -> list[bool]:
        """For every span, whether some descendant span is called ``name``."""
        flag = [False] * len(self)
        if name not in self.names:
            return flag
        nid = self.names.index(name)
        for i, k in enumerate(self.name_of):
            if k == nid:
                p = self.parent[i]
                while p >= 0 and not flag[p]:
                    flag[p] = True
                    p = self.parent[p]
        return flag
