"""In-memory span recording and self-time arithmetic for the traced run.

A span has a name, a start, an end, a parent span and the index of
the CLI call it belongs to.  Spans live in flat arrays (about 30 bytes
each) so that the half a million spans of the ``brute`` workload fit
in a few megabytes; they are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import math
import time
from array import array
from collections import Counter
from typing import Callable, Iterator, Sequence

clock = time.perf_counter


class Tracer:
    """Records spans and counters while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.call_index = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_index)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self._stack.pop()

    def timed(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` wrapped in a span; ``name`` may compute the span name from the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def timed_iterator(self, fn: Callable, name: str, counter: str) -> Callable:
        """``fn`` returns an iterator; each ``next`` on it becomes a span and each item a count."""
        tracer = self

        def steps(items: Iterator) -> Iterator:
            while True:
                span = tracer.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            return steps(items) if tracer.active else items

        return wrapper

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def write(self, path, origin: float) -> None:
        """Every span as tab-separated text, times in seconds after ``origin``."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tcall\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.call[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n"
                )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap one another and may run past their parent;
    only the part of the union inside the parent's interval counts.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [e - s for s, e in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        reach = lo
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= max(s, reach):
                continue
            covered += e - max(s, reach)
            reach = e
        result[parent] -= covered
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by the nearest-rank rule; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
