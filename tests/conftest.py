"""Shared oracles for the test suite.

The grid-graph oracle here builds explicit vertex and edge sets from
the adjacency definition, deliberately ignoring the production code's
indicator formulas, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from gridperm import aggregate_brute
from gridperm.permutations import check_permutation

FILTER_CAP = 8


def all_permutations(n):
    """Every word of S_n as a 1-based tuple, in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def contains_pattern(word, pattern):
    """Exhaustive check for a length-3 pattern occurrence.

    True iff some subsequence of ``word`` is order-isomorphic to
    ``pattern``.  This is the O(n^3) oracle; it is authoritative in
    tests, with ``contains_213`` / ``contains_312`` as the fast
    production routes.
    """
    pattern = tuple(pattern)
    if len(pattern) != 3:
        raise ValueError(f"pattern must have length 3, got {len(pattern)}")
    check_permutation(pattern)
    lt01 = pattern[0] < pattern[1]
    lt02 = pattern[0] < pattern[2]
    lt12 = pattern[1] < pattern[2]
    n = len(word)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            if (word[i] < word[j]) != lt01:
                continue
            for k in range(j + 1, n):
                if (word[i] < word[k]) == lt02 and (word[j] < word[k]) == lt12:
                    return True
    return False


def enumerate_by_filter(n, pattern):
    """All of Av_n(pattern) by filtering the n! words with the triple oracle.

    An independent check on ``enumerate_av213`` and on the reversal
    bijection with Av_n(312); hard-capped at n <= 8.
    """
    if n > FILTER_CAP:
        raise ValueError(f"filter oracle capped at n <= {FILTER_CAP}, got {n}")
    pattern = tuple(pattern)
    return (
        word
        for word in itertools.permutations(range(1, n + 1))
        if not contains_pattern(word, pattern)
    )


def adjacency_degrees(word):
    """Degree of every vertex (column, level), 1-based, from explicit adjacency sets."""
    vertices = {
        (i, s)
        for i in range(1, len(word) + 1)
        for s in range(1, word[i - 1] + 1)
    }
    return {
        (i, s): sum(
            (i + di, s + ds) in vertices
            for di, ds in ((1, 0), (-1, 0), (0, 1), (0, -1))
        )
        for i, s in vertices
    }


def adjacency_histogram(word):
    """(degree counts, horizontal edge count) from explicit adjacency sets."""
    degree = adjacency_degrees(word)
    counts = {r: 0 for r in range(5)}
    for d in degree.values():
        counts[d] += 1
    horizontal = sum(1 for i, s in degree if (i + 1, s) in degree)
    return counts, horizontal


def pascal_binomial(n, k):
    """binom(n, k) by the Pascal recurrence, independent of math.comb."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def catalan_by_convolution(n_max):
    """Catalan numbers 0..n_max from the convolution recurrence only."""
    cat = [1]
    for n in range(1, n_max + 1):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    return cat


@lru_cache(maxsize=None)
def brute_stats(n):
    """Cached brute-force aggregates, shared across test modules."""
    return aggregate_brute(n)
