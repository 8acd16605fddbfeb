"""Catalan counting, exhaustive generation of Av_n(213), and brute aggregates.

The generator builds each 213-avoider exactly once from the block
decomposition (output-linear, no filtering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Catalan numbers 0..n_max as one shared table."""
    return [catalan(n) for n in range(n_max + 1)]


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


@dataclass(frozen=True)
class AggregateStats:
    """Grid-graph totals accumulated over a whole permutation class.

    ``by_degree`` maps degree r in 0..4 to the total number of degree-r
    vertices; the remaining fields are the class size, the horizontal
    edge total H, the vertex total V, the degree sum Sigma, and the
    boundary statistics D (initial descents), A (final ascents),
    J (minimum in an internal position) and P (internal degree-1
    vertices).
    """

    n: int
    class_size: int
    horizontal_edges: int
    vertices: int
    degree_sum: int
    by_degree: dict[int, int]
    initial_descents: int
    final_ascents: int
    internal_min: int
    internal_deg1: int

    def to_row(self) -> dict[str, int]:
        """Flatten to the frozen CSV/JSON field names."""
        return {
            "n": self.n,
            "class_size": self.class_size,
            "H": self.horizontal_edges,
            "V": self.vertices,
            "Sigma": self.degree_sum,
            "Q1": self.by_degree[1],
            "Q2": self.by_degree[2],
            "Q3": self.by_degree[3],
            "Q4": self.by_degree[4],
            "D": self.initial_descents,
            "A": self.final_ascents,
            "J": self.internal_min,
            "P": self.internal_deg1,
        }


def aggregate_stats(words: Iterable[Sequence[int]], n: int) -> AggregateStats:
    """Accumulate degree histograms and boundary indicators over a stream.

    Streams one histogram at a time; memory stays O(n) no matter how
    large the class is.
    """
    size = 0
    h_total = 0
    vertices = 0
    degree_sum = 0
    by_degree = {r: 0 for r in range(5)}
    descents = ascents = internal_min = internal_deg1 = 0
    for word in words:
        size += 1
        hist = degree_histogram(word)
        h_total += hist.horizontal_edges
        for r, count in hist.counts.items():
            by_degree[r] += count
            vertices += count
            degree_sum += r * count
        if n >= 2:
            descents += word[0] > word[1]
            ascents += word[-2] < word[-1]
            k = word.index(1)
            internal_min += 1 <= k <= n - 2
            # an internal column's only possible degree-1 vertex is a peak top
            internal_deg1 += hist.counts[1] - deg1_external_count(word)
    return AggregateStats(
        n=n,
        class_size=size,
        horizontal_edges=h_total,
        vertices=vertices,
        degree_sum=degree_sum,
        by_degree=by_degree,
        initial_descents=descents,
        final_ascents=ascents,
        internal_min=internal_min,
        internal_deg1=internal_deg1,
    )


def aggregate_brute(n: int, cap: int | None = None) -> AggregateStats:
    """Class totals for Av_n(213) by direct enumeration."""
    return aggregate_stats(enumerate_av213(n, cap), n)
