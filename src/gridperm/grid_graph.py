"""Column-profile grid graphs of permutations and their degree statistics.

The graph of a word ``p`` has a column of height ``p[i-1]`` over slot
``i``, vertical edges between consecutive levels inside a column, and
horizontal edges between equal levels of adjacent columns.  Adjacency is
never materialized: every statistic is read off the height profile.
There is one degree histogram, :func:`degree_histogram`, with O(1) work
per column.
"""

from __future__ import annotations

from typing import Sequence

MAX_RENDER_COLUMNS = 40


def degree_histogram(word: Sequence[int]) -> tuple[list[int], int]:
    """(counts, H): vertices of degree 0..4, and horizontal edges, in one pass.

    The vertex at level s of a column of height b, between neighbor
    heights a and c (0 past an end), has degree
    (s > 1) + (s < b) + (s <= a) + (s <= c).  That is piecewise
    constant in s with breakpoints at 1, b, min(a, c) and max(a, c), so
    each column is counted piece by piece in O(1).  Every degree,
    Q2 and Q3 included, is counted directly.

    >>> degree_histogram((4, 1, 3, 2))
    ([0, 2, 6, 2, 0], 4)
    """
    counts = [0] * 5
    h = 0
    padded = (0, *word, 0)
    for a, b, c in zip(padded, word, padded[2:]):
        h += b if b < c else c
        ends = (a > 0) + (c > 0)
        if b == 1:
            counts[ends] += 1
            continue
        counts[1 + ends] += 1  # bottom: upward edge plus a tie per neighbor
        counts[1 + (b <= a) + (b <= c)] += 1  # top: downward edge plus ties
        if b > 2:
            # middle levels 2..b-1: both vertical edges, ties up to a and c
            lo, hi = (a, c) if a < c else (c, a)
            both = lo - 1 if lo < b else b - 2
            some = hi - 1 if hi < b else b - 2
            if both < 0:
                both = 0
            if some < 0:
                some = 0
            counts[4] += both
            counts[3] += some - both
            counts[2] += b - 2 - some
    return counts, h


# The benchmark's layer map still names the per-column histogram separately.
degree_histogram_fast = degree_histogram


def render_ascii(word: Sequence[int]) -> str:
    """Character drawing of the grid graph: columns, bars, and level ties.

    Vertices are ``o``, vertical edges ``|`` and horizontal edges
    ``---``.  Deterministic, and left-right symmetric so the drawing of
    a reversed word is the mirror image.
    """
    n = len(word)
    if n > MAX_RENDER_COLUMNS:
        raise ValueError(f"render_ascii supports n <= {MAX_RENDER_COLUMNS}")
    if n == 0:
        return ""
    lines = []
    for level in range(max(word), 0, -1):
        dots = []
        bars = []
        for i, h in enumerate(word):
            dots.append("o" if h >= level else " ")
            bars.append("|" if h >= level else " ")
            if i + 1 < n:
                dots.append("---" if min(h, word[i + 1]) >= level else "   ")
                bars.append("   ")
        lines.append("".join(dots).rstrip())
        if level > 1:
            lines.append("".join(bars).rstrip())
    return "\n".join(lines)
