"""Catalan counting, exhaustive generation of Av_n(213), and brute aggregates.

The generator builds each 213-avoider exactly once from the block
decomposition (output-linear, no filtering).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .grid_graph import deg1_external_count, degree_histogram

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


def catalan(n: int) -> int:
    """The n-th Catalan number, binom(2n, n) / (n + 1), exactly.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return math.comb(2 * n, n) // (n + 1)


def catalan_list(n_max: int) -> list[int]:
    """Catalan numbers 0..n_max as one shared table, by the running
    product C_{k+1} = C_k 2(2k + 1) / (k + 2), every division exact."""
    table = [1] if n_max >= 0 else []
    for k in range(n_max):
        c, rem = divmod(table[-1] * 2 * (2 * k + 1), k + 2)
        if rem:
            raise RuntimeError(f"Catalan number {k + 1} is not an integer")
        table.append(c)
    return table


def central_binomial(n: int) -> int:
    """binom(2n, n), exactly."""
    return math.comb(2 * n, n)


def _generate(n: int) -> Iterator[tuple[int, ...]]:
    # splits by increasing left-block size, blocks in recursive order;
    # the order is part of the contract (reproducible streams)
    if n == 0:
        yield ()
        return
    for i in range(n):
        j = n - 1 - i
        for alpha in _generate(i):
            prefix = tuple(a + j + 1 for a in alpha) + (1,)
            if j == 0:
                yield prefix
            else:
                for beta in _generate(j):
                    yield prefix + tuple(b + 1 for b in beta)


def enumerate_av213(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every member of Av_n(213) exactly once, in a fixed order.

    Generated recursively by gluing smaller avoiders around a new
    minimum, so the stream is output-linear and needs O(n) memory.
    Guarded by ``cap`` (default 14) because the class grows like 4^n.
    """
    limit = DEFAULT_BRUTE_CAP if cap is None else cap
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the brute-force cap {limit}; pass cap explicitly to raise it"
        )
    return _generate(n)


def aggregate_stats(words: Iterable[Sequence[int]], n: int) -> dict[str, int]:
    """Class totals over a stream of words, one row keyed by ``CSV_FIELDS``.

    V counts degree-0 vertices too.  Streams one histogram at a time;
    memory stays O(n) no matter how large the class is.
    """
    size = 0
    h_total = 0
    vertices = 0
    degree_sum = 0
    by_degree = [0] * 5
    descents = ascents = internal_min = internal_deg1 = 0
    for word in words:
        size += 1
        counts, h = degree_histogram(word)
        h_total += h
        for r, count in enumerate(counts):
            by_degree[r] += count
            vertices += count
            degree_sum += r * count
        if n >= 2:
            descents += word[0] > word[1]
            ascents += word[-2] < word[-1]
            k = word.index(1)
            internal_min += 1 <= k <= n - 2
            # an internal column's only possible degree-1 vertex is a peak top
            internal_deg1 += counts[1] - deg1_external_count(word)
    return {
        "n": n,
        "class_size": size,
        "H": h_total,
        "V": vertices,
        "Sigma": degree_sum,
        **{f"Q{r}": by_degree[r] for r in range(1, 5)},
        "D": descents,
        "A": ascents,
        "J": internal_min,
        "P": internal_deg1,
    }


def aggregate_brute(n: int, cap: int | None = None) -> dict[str, int]:
    """Class totals for Av_n(213) by direct enumeration."""
    return aggregate_stats(enumerate_av213(n, cap), n)
