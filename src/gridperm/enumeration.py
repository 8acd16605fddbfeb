"""The brute route: exhaustive generation of Av_n(213) and brute aggregates.

The generator builds each 213-avoider exactly once from the block
decomposition at the minimum (output-linear, no filtering), each block
at its final values.  Every block of at most ``SHORT_BLOCK`` = 7 values
(C_7 = 429 words) is built once per stream and kept in a dict keyed by
its size and lowest value, which ``enumerate_av213`` creates and the
stream alone holds: 4,683 tuples at the cap n = 14.  A word leaves
through C iterators (one ``map`` per left block over its right blocks),
not through a generator frame per level of its blocks.  The brute
aggregate adds one histogram per member into running integer totals.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .grid_graph import degree_histogram

DEFAULT_BRUTE_CAP = 14

# blocks of at most this many values (C_7 = 429 words) are built once per stream
SHORT_BLOCK = 7

CSV_FIELDS = (
    "n",
    "class_size",
    "H",
    "V",
    "Sigma",
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "D",
    "A",
    "J",
    "P",
)


def _splits(n: int, low: int, blocks: dict) -> Iterator[Iterator[tuple[int, ...]]]:
    # Av_n(213) on the values low..low+n-1 as alpha low beta, alpha on the
    # top i values; splits by increasing left-block size, blocks in
    # recursive order; the order is part of the contract (reproducible streams).
    # One map per left block glues it to each of its right blocks.
    for i in range(n):
        j = n - 1 - i
        right = _block(j, low + 1, blocks) if j <= SHORT_BLOCK else None
        for alpha in _generate(i, low + j + 1, blocks):
            # a long right block is streamed again for each left block
            yield map((alpha + (low,)).__add__, right or _generate(j, low + 1, blocks))


def _block(n: int, low: int, blocks: dict) -> tuple[tuple[int, ...], ...]:
    # every word of a short block, built at its first use in the stream
    words = blocks.get((n, low))
    if words is None:
        words = tuple(chain.from_iterable(_splits(n, low, blocks))) if n else ((),)
        blocks[n, low] = words
    return words


def _generate(n: int, low: int, blocks: dict) -> Iterator[tuple[int, ...]]:
    if n <= SHORT_BLOCK:
        return iter(_block(n, low, blocks))
    return chain.from_iterable(_splits(n, low, blocks))


def enumerate_av213(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every member of Av_n(213) exactly once, in a fixed order.

    Generated recursively by gluing smaller avoiders around a new
    minimum, so the stream is output-linear.  Each call creates its own
    dict of the blocks of at most ``SHORT_BLOCK`` values, built once and
    reused wherever the same block recurs; it lives as long as the
    stream and held 4,683 tuples at n = 14.  Guarded by ``cap``
    (default 14) because the class grows like 4^n; a negative ``n`` is
    refused.

    >>> list(enumerate_av213(3))
    [(1, 2, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)]
    """
    if n < 0:
        raise ValueError(f"n={n} is negative")
    limit = DEFAULT_BRUTE_CAP if cap is None else cap
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the brute-force cap {limit}; pass cap explicitly to raise it"
        )
    return _generate(n, 1, {})


def aggregate_stats(words: Iterable[Sequence[int]], n: int) -> dict[str, int]:
    """Class totals over a stream of words, one row keyed by ``CSV_FIELDS``.

    V counts degree-0 vertices too.  Each member's histogram is unpacked
    into running integer totals, so the memory is the stream's own: for
    ``enumerate_av213``, its dict of short blocks (4,683 tuples at
    n = 14).
    """
    size = h_total = descents = ascents = internal_min = 0
    q0 = q1 = q2 = q3 = q4 = 0
    for size, word in enumerate(words, 1):
        (c0, c1, c2, c3, c4), h = degree_histogram(word)
        q0 += c0
        q1 += c1
        q2 += c2
        q3 += c3
        q4 += c4
        h_total += h
        if n >= 2:
            descents += word[0] > word[1]
            ascents += word[-2] < word[-1]
            internal_min += 1 <= word.index(1) <= n - 2
    by_degree = (q0, q1, q2, q3, q4)
    # Only a column's top vertex can have degree 1 at an end of the word,
    # so a word's external degree-1 vertices number
    # [w_0 = 1] + [w_0 > w_1] + [w_{n-1} = 1] + [w_{n-2} < w_{n-1}].  For
    # n >= 2 the minimum sits first, last or inside, so over the class the
    # two end terms sum to class_size - J, and P = Q1 - D - A - (class_size - J).
    internal_deg1 = 0
    if n >= 2:
        internal_deg1 = q1 - descents - ascents - (size - internal_min)
    return {
        "n": n,
        "class_size": size,
        "H": h_total,
        "V": sum(by_degree),
        "Sigma": sum(r * count for r, count in enumerate(by_degree)),
        **{f"Q{r}": by_degree[r] for r in range(1, 5)},
        "D": descents,
        "A": ascents,
        "J": internal_min,
        "P": internal_deg1,
    }


def aggregate_brute(n: int, cap: int | None = None) -> dict[str, int]:
    """Class totals for Av_n(213) by direct enumeration."""
    return aggregate_stats(enumerate_av213(n, cap), n)
