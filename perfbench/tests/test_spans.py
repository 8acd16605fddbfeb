"""Self-time arithmetic and span recording of the traced run.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, percentile, self_times  # noqa: E402

# index: (start, end, parent)
TREE = [
    (0.0, 10.0, -1),  # 0: root
    (1.0, 4.0, 0),    # 1: child
    (3.0, 6.0, 0),    # 2: child overlapping child 1
    (8.0, 12.0, 0),   # 3: child running past the root's end
    (2.0, 3.5, 1),    # 4: grandchild inside child 1
    (11.0, 13.0, 0),  # 5: child wholly after the root's end
    (5.0, 5.5, 2),    # 6: grandchild inside child 2
]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    starts, ends, parents = zip(*TREE)
    selfs = self_times(starts, ends, parents)
    # children cover [1, 6] and [8, 10] of the root: 5 + 2 seconds
    assert selfs[0] == pytest.approx(10.0 - 7.0)
    # grandchildren count against their own parent only
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(2.0)


def test_tracer_records_nesting_and_iterator_steps():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def outer(xs):
        return [wrapped_leaf(x) for x in wrapped_items(xs)]

    wrapped_leaf = tracer.timed(leaf, "leaf")
    wrapped_items = tracer.timed_iterator(iter, "step", "items")
    wrapped_outer = tracer.timed(outer, lambda xs: f"outer.{len(xs)}")

    assert wrapped_outer([1, 2]) == [2, 3]
    assert len(tracer) == 0, "an inactive tracer records nothing"

    tracer.active = True
    assert wrapped_outer([1, 2]) == [2, 3]
    names = [tracer.names[i] for i in tracer.name]
    # two item steps plus the step that ends the iterator
    assert names == ["outer.2", "step", "leaf", "step", "leaf", "step"]
    assert list(tracer.parent) == [-1, 0, 0, 0, 0, 0]
    assert tracer.counts["items"] == 2
    assert all(d >= 0 for d in tracer.durations())
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    assert selfs[0] <= tracer.durations()[0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0
