"""Column-profile grid graphs of permutations and their degree statistics.

The graph of a word ``p`` has a column of height ``p[i-1]`` over slot
``i``, vertical edges between consecutive levels inside a column, and
horizontal edges between equal levels of adjacent columns.  Adjacency is
never materialized: every statistic is read off the height profile.
There is one degree histogram, :func:`degree_histogram`.  It slides a
window of three heights, a column and its two neighbors, along the word
and does per column only the comparisons and sums that depend on the
heights; the last column, whose right neighbor is empty, is finished
after the loop.  What depends only on the column position, the number
of height-1 columns and the total height is added once after that.
"""

from __future__ import annotations

from collections.abc import Sequence

MAX_RENDER_COLUMNS = 40


def degree_histogram(word: Sequence[int]) -> tuple[list[int], int]:
    """(counts, H): vertices of degree 0..4, and horizontal edges.

    The vertex at level s of a column of height b, between neighbor
    heights a and c (0 left of the first column and right of the last),
    has degree (s > 1) + (s < b) + (s <= a) + (s <= c).  With
    lo = min(a, c) and hi = max(a, c), a column of height b >= 2 is one
    of three cases:

    - valley, b <= lo: the top ties both sides (degree 3), and so does
      every middle level 2..b-1 (degree 4);
    - one side, lo < b <= hi: the top ties one side (degree 2); the
      middle levels up to lo tie both sides, the rest one side;
    - peak, b > hi: the top ties neither side (degree 1); the middle
      levels up to lo tie both sides, those up to hi one side, and the
      b - 1 - hi above hi none (degree 2).

    The loop does only this data-dependent work: per column it adds
    min(b, c) to H and min(a, b, c) to ``both``, counts valleys and
    peaks, and adds b - hi of each peak to ``free``.  It slides the
    window over ``word[1:]``, c stepping through the right neighbors and
    a, b = b, c moving it on, so it visits every column but the last.
    The last column has c = 0: it adds nothing to H or ``both``, and it
    is a peak iff b > a, with b - a levels above its neighbor.
    Everything that depends only on the column position,
    ``word.count(1)`` and ``sum(word)`` is added once after that: the
    bottom vertex of each column of height >= 2 (degree 1 + its
    neighbors), the single vertex of each height-1 column (degree = its
    neighbors), the sum of b - 2 middle levels over the columns, and the
    per-column offsets of ``both`` and ``free``.  Q2 and Q3 are counted
    from these pieces, not derived from the degree sum.

    >>> degree_histogram((4, 1, 3, 2))
    ([0, 2, 6, 2, 0], 4)
    """
    n = len(word)
    if n < 2:
        if not n:
            return [0] * 5, 0
        b = word[0]
        # a lone column: degree-1 bottom and top, untied middle levels
        return ([1, 0, 0, 0, 0] if b == 1 else [0, 2, b - 2, 0, 0]), 0
    h = both = free = valleys = peaks = 0
    # A height-1 column passes through the window like any other:
    # inside the word it counts as a valley, first in the word (a = 0)
    # as one side, and last (after the loop) as one side too; the
    # corrections below take it out again.
    a, b = 0, word[0]
    for c in word[1:]:
        if b <= c:
            h += b
            if b <= a:
                valleys += 1
                both += b
            else:
                both += a
        else:
            h += c
            if b <= a:
                both += c
            else:
                peaks += 1
                if a < c:
                    both += a
                    free += b - c
                else:
                    both += c
                    free += b - a
        a, b = b, c
    # the last column, c = 0
    if b > a:
        peaks += 1
        free += b - a
    ones = word.count(1)
    end_ones = (word[0] == 1) + (word[-1] == 1)
    inner_ones = ones - end_ones
    tall_ends = 2 - end_ones
    valleys -= inner_ones
    # min(a, b, c) is 0 at an end column; inside the word it is one more
    # than the middle levels tied on both sides, two more at a valley
    both -= n - 2 + valleys
    # only a peak has untied middle levels, b - 1 - hi of them
    free -= peaks
    middle = sum(word) - 2 * n + ones  # sum of b - 2 over columns with b >= 2
    sides = n - ones - valleys - peaks
    return [
        0,
        # height-1 end columns; peak tops
        end_ones + peaks,
        # height-1 inner columns; bottoms of the other end columns;
        # one-side tops; untied middle levels
        inner_ones + tall_ends + sides + free,
        # bottoms of the other inner columns; valley tops; middle levels
        # tied on one side
        n - 2 - inner_ones + valleys + middle - both - free,
        both,
    ], h


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
    lines = []
    for level in range(max(word, default=0), 0, -1):
        dots = "".join(
            ("o" if h >= level else " ") + ("---" if min(h, right) >= level else "   ")
            for h, right in zip(word, [*word[1:], 0])
        ).rstrip()
        lines += [dots, dots.replace("---", "   ").replace("o", "|")]
    return "\n".join(lines[:-1])  # no bar row below level 1
