"""The brute route: exhaustive generation of Av_n(213) and brute aggregates.

The generator builds each 213-avoider exactly once from the block
decomposition at the minimum (output-linear, no filtering), each block
at its final values.  A right block of at most ceil(n/2) values is built
once per split and glued to every left block, so the live caches hold
O(C_{ceil(n/2)}) tuples: at most 434 at the cap n = 14, C_7 = 429 of
them in the outermost cache.  The brute aggregate adds one histogram
per member.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Sequence

from .grid_graph import degree_histogram

DEFAULT_BRUTE_CAP = 14

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


def _generate(n: int, low: int = 1) -> Iterator[tuple[int, ...]]:
    # Av_n(213) on the values low..low+n-1 as alpha low beta, alpha on the
    # top i values; splits by increasing left-block size, blocks in
    # recursive order; the order is part of the contract (reproducible streams)
    if n == 0:
        yield ()
        return
    for i in range(n):
        j = n - 1 - i
        if i >= 2 and 2 * j <= n + 1:
            # several left blocks share one short right block: build it once
            tails = [(low,) + beta for beta in _generate(j, low + 1)]
            for alpha in _generate(i, low + j + 1):
                for tail in tails:
                    yield alpha + tail
        else:
            for alpha in _generate(i, low + j + 1):
                head = alpha + (low,)
                for beta in _generate(j, low + 1):
                    yield head + beta


def enumerate_av213(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every member of Av_n(213) exactly once, in a fixed order.

    Generated recursively by gluing smaller avoiders around a new
    minimum, so the stream is output-linear.  Right blocks of at most
    ceil(n/2) values are kept and reused, so memory is O(C_{ceil(n/2)})
    tuples.  Guarded by ``cap`` (default 14) because the class grows
    like 4^n; a negative ``n`` is refused.

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
    return _generate(n)


def aggregate_stats(words: Iterable[Sequence[int]], n: int) -> dict[str, int]:
    """Class totals over a stream of words, one row keyed by ``CSV_FIELDS``.

    V counts degree-0 vertices too.  Streams one histogram at a time, so
    the memory is the stream's own: O(C_{ceil(n/2)}) tuples for
    ``enumerate_av213``.
    """
    size = h_total = descents = ascents = internal_min = 0
    by_degree = [0] * 5
    for size, word in enumerate(words, 1):
        counts, h = degree_histogram(word)
        h_total += h
        by_degree = list(map(add, by_degree, counts))
        if n >= 2:
            descents += word[0] > word[1]
            ascents += word[-2] < word[-1]
            internal_min += 1 <= word.index(1) <= n - 2
    # Only a column's top vertex can have degree 1 at an end of the word,
    # so a word's external degree-1 vertices number
    # [w_0 = 1] + [w_0 > w_1] + [w_{n-1} = 1] + [w_{n-2} < w_{n-1}].  For
    # n >= 2 the minimum sits first, last or inside, so over the class the
    # two end terms sum to class_size - J, and P = Q1 - D - A - (class_size - J).
    internal_deg1 = 0
    if n >= 2:
        internal_deg1 = by_degree[1] - descents - ascents - (size - internal_min)
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
