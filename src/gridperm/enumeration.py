"""The brute route: exhaustive generation of Av_n(213) and brute aggregates.

The generator builds each 213-avoider exactly once from the block
decomposition at the minimum (output-linear, no filtering), each block
at its final values.  Every block of at most ``SHORT_BLOCK`` = 7 values
(C_7 = 429 words) is built once per stream and kept in a dict keyed by
its size and lowest value, which ``enumerate_av213`` creates and the
stream alone holds: 4,683 tuples at the cap n = 14.  A word leaves
through C iterators, not through a generator frame per level of its
blocks, and is built only where a short block is read: each level hands
its fixed values down as a prefix and a suffix, so a word takes at most
two concatenations, ``prefix + word + suffix``, whatever its depth.  The
brute aggregate adds one histogram per member into running integer
totals.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import add

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


def _splits(
    n: int, low: int, blocks: dict, prefix: tuple[int, ...], suffix: tuple[int, ...]
) -> Iterator[Iterator[tuple[int, ...]]]:
    # Av_n(213) on the values low..low+n-1 as alpha low beta, beta on the
    # j values above low and alpha on the n - 1 - j above those; splits by
    # decreasing j (increasing left-block size), blocks in recursive order;
    # the order is part of the contract (reproducible streams).  Each word
    # leaves as prefix + word + suffix, built only where a short block is
    # read: a right block of one word (j <= 1) joins the suffix of its left
    # blocks' stream, a long right block is streamed again for each left
    # block, which joins its prefix, and a short right block is glued to
    # each left block by one map, with a second for a nonempty suffix.
    for j in reversed(range(n)):
        if j > SHORT_BLOCK:
            for alpha in _generate(n - 1 - j, low + j + 1, blocks, prefix):
                yield _generate(j, low + 1, blocks, alpha + (low,), suffix)
            continue
        right = _block(j, low + 1, blocks)
        if j <= 1:
            yield _generate(n - 1 - j, low + j + 1, blocks, prefix, (low,) + right[0] + suffix)
            continue
        for alpha in _generate(n - 1 - j, low + j + 1, blocks, prefix):
            if suffix:
                yield map(add, map((alpha + (low,)).__add__, right), repeat(suffix))
            else:
                yield map((alpha + (low,)).__add__, right)


def _block(n: int, low: int, blocks: dict) -> tuple[tuple[int, ...], ...]:
    # every word of a short block, built at its first use in the stream
    words = blocks.get((n, low))
    if words is None:
        words = tuple(chain.from_iterable(_splits(n, low, blocks, (), ()))) if n else ((),)
        blocks[n, low] = words
    return words


def _generate(
    n: int, low: int, blocks: dict, prefix: tuple[int, ...] = (), suffix: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    # the words of Av_n(213) on low..low+n-1, each as prefix + word + suffix;
    # a block of one word is framed at once, any other is read through maps
    if n > SHORT_BLOCK:
        return chain.from_iterable(_splits(n, low, blocks, prefix, suffix))
    words = _block(n, low, blocks)
    if n <= 1:
        return iter((prefix + words[0] + suffix,))
    if prefix:
        words = map(prefix.__add__, words)
    if suffix:
        words = map(add, words, repeat(suffix))
    return iter(words)


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
