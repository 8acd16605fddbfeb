"""Shared oracles for the test suite.

The grid-graph oracle here builds explicit vertex and edge sets from
the adjacency definition, deliberately ignoring the production code's
indicator formulas, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from dataclasses import dataclass
from functools import lru_cache

import pytest

from gridperm import aggregate_brute, series
from gridperm.permutations import check_permutation

FILTER_CAP = 8


def all_permutations(n):
    """Every word of S_n as a 1-based tuple, in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def contains_pattern(word, pattern):
    """Exhaustive check for a length-3 pattern occurrence.

    True iff some subsequence of ``word`` is order-isomorphic to
    ``pattern``.  This is the O(n^3) oracle; it is authoritative in
    tests, with ``contains_213`` and ``contains_312`` (below) as the
    fast routes.
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


# Word helpers that production does not use: the mirror, the 213 and 312
# checks, digit formatting, both directions of the block decomposition
# at the minimum and the external degree-1 count.  In a 213-avoiding
# word every entry left of the 1 exceeds every entry right of it, so the
# word factors as ``(alpha + j + 1) 1 (beta + 1)`` with both blocks
# again 213-avoiding.


class PatternViolationError(ValueError):
    """Input that was expected to avoid 213 demonstrably contains it."""


def standardize(values):
    """The permutation order-isomorphic to a word of distinct values."""
    if len(set(values)) != len(values):
        raise ValueError(f"entries must be distinct: {tuple(values)!r}")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def reverse(word):
    """Left-right mirror of a word; applying it twice is the identity."""
    return tuple(word[::-1])


def contains_213(word):
    """Linear-time 213 check via a monotone stack.

    Scans left to right keeping an increasing stack of candidate middle
    values; ``smallest_mid`` tracks the least value known to have a
    smaller entry somewhere to its right.  Any later value above it
    completes the pattern.
    """
    smallest_mid = None
    stack = []
    for v in word:
        if smallest_mid is not None and v > smallest_mid:
            return True
        while stack and stack[-1] > v:
            smallest_mid = stack.pop()
        stack.append(v)
    return False


def contains_312(word):
    """Linear-time 312 check; a word contains 312 iff its mirror contains 213."""
    return contains_213(word[::-1])


def format_permutation(word):
    """Inverse of ``parse_permutation``: digits for n <= 9, commas beyond."""
    if not word:
        return ""
    if max(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


@dataclass(frozen=True)
class Decomposition:
    """Blocks of a 213-avoider split at the position of its minimum.

    ``left`` has length ``min_position - 1`` and ``right`` has length
    ``n - min_position``; ``compose`` rebuilds the original word.
    """

    left: tuple
    right: tuple
    min_position: int


def decompose_by_min(word):
    """Split a 213-avoiding word at its minimum and standardize the blocks."""
    word = tuple(word)
    if not word:
        raise ValueError("decompose_by_min needs length >= 1")
    if 1 not in word:
        raise ValueError(f"word has no entry 1: {word!r}")
    k = word.index(1) + 1
    left = word[: k - 1]
    right = word[k:]
    if left and right and min(left) < max(right):
        raise PatternViolationError(
            f"entry {min(left)} left of the minimum is below entry "
            f"{max(right)} right of it; {word!r} contains 213"
        )
    j = len(right)
    alpha = tuple(v - j - 1 for v in left)
    beta = tuple(v - 1 for v in right)
    return Decomposition(left=alpha, right=beta, min_position=k)


def compose(alpha, beta):
    """Glue two 213-avoiding blocks around a fresh minimum: (alpha + j + 1) 1 (beta + 1)."""
    for name, block in (("alpha", alpha), ("beta", beta)):
        if contains_213(block):
            raise ValueError(f"{name} block contains 213: {tuple(block)!r}")
    j = len(beta)
    return tuple(a + j + 1 for a in alpha) + (1,) + tuple(b + 1 for b in beta)


def deg1_external_count(word):
    """Degree-1 vertices contributed by the first and last columns.

    Only the top vertex of an external column can have degree 1: in the
    first column that happens iff the column has height 1 or starts a
    descent, mirrored for the last column.  The brute aggregate derives
    P from this count summed over the class.
    """
    n = len(word)
    if n < 2:
        raise ValueError("deg1_external_count needs n >= 2")
    return (
        (word[0] == 1)
        + (word[0] > word[1])
        + (word[-1] == 1)
        + (word[-2] < word[-1])
    )


def adjacency_degrees(word):
    """Degree of every vertex (column, level), 1-based, from explicit adjacency sets."""
    vertices = {
        (i, s)
        for i in range(1, len(word) + 1)
        for s in range(1, word[i - 1] + 1)
    }
    return {
        (i, s): ((i + 1, s) in vertices)
        + ((i - 1, s) in vertices)
        + ((i, s + 1) in vertices)
        + ((i, s - 1) in vertices)
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


def placement_steps(n, placement):
    """The 2n+1 steps, +1 at each position of ``placement`` and -1 elsewhere."""
    steps = [-1] * (2 * n + 1)
    for i in placement:
        steps[i] = 1
    return steps


def first_lowest_point(steps):
    """Index of the first lowest prefix height; height i is taken after step i."""
    heights = list(itertools.accumulate(steps))
    return heights.index(min(heights))


def placement_word(n, placement):
    """The 213-avoider that a placement of n up-steps among 2n+1 steps maps to.

    The sampler's placement-to-word map read with plain lists, as the
    sampler computed it before it read the lowest point off a table:
    steps are +1/-1, heights are their prefix sums, the Dyck path starts
    just after the first lowest height, and the rotated path is read as
    stack moves (push on an up-step, pop to the output on a down-step),
    then reversed.
    """
    steps = placement_steps(n, placement)
    start = first_lowest_point(steps) + 1
    stack = []
    word = []
    value = 0
    for step in steps[start:] + steps[: start - 1]:
        if step > 0:
            value += 1
            stack.append(value)
        else:
            word.append(stack.pop())
    word.reverse()
    return tuple(word)


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


# Closed forms evaluated in rationals from math.comb, independently of the
# integer numerators and divmod of gridperm.closed_forms: an oracle for them.


def _integer(value):
    assert value.denominator == 1, value
    return value.numerator


def fraction_closed_row(n):
    """Every closed-form total at n >= 2 by Fraction arithmetic and math.comb."""
    b = math.comb(2 * n, n)
    c, c_below = b // (n + 1), math.comb(2 * n - 2, n - 1) // n
    four_n = 4**n
    v = _integer(Fraction(n, 2) * b)
    sigma = _integer(Fraction(2 * n * n, n + 1) * b - 2 * 4 ** (n - 1))
    q1 = _integer(Fraction(n + 2, 2 * (2 * n - 1)) * b)
    q4 = _integer(
        Fraction(4 * n**3 - 7 * n**2 + 29 * n - 20, 4 * (n + 1) * (2 * n - 1)) * b
        - 7 * 4 ** (n - 2)
    )
    q2 = _integer(
        Fraction(
            (12 * n**2 + 44 * n - 112) * b + (2 * n**2 + n - 1) * four_n,
            16 * (n + 1) * (2 * n - 1),
        )
    )
    q3 = _integer(
        Fraction(
            (8 * n**2 - 96 * n + 88) * b + (6 * n**2 + 3 * n - 3) * four_n,
            8 * (n + 1) * (2 * n - 1),
        )
    )
    return {
        "n": n,
        "class_size": c,
        "H": _integer(Fraction(n, 2) * b - 4 ** (n - 1)),
        "V": v,
        "Sigma": sigma,
        "Q1": q1,
        "Q2": q2,
        "Q3": q3,
        "Q4": q4,
        "D": c_below,
        "A": c_below,
        "J": c - 2 * c_below,
        "P": (n - 2) * c_below,
    }


def fraction_expectations(n):
    """Per-permutation expectations from ``fraction_closed_row``."""
    row = fraction_closed_row(n)
    return {s: Fraction(row[s], row["class_size"]) for s in ("H", "Q1", "Q2", "Q3", "Q4")}


def fraction_proportions(n):
    """Degree shares of the vertices from ``fraction_closed_row``."""
    row = fraction_closed_row(n)
    return {r: Fraction(row[f"Q{r}"], row["V"]) for r in range(1, 5)}


@pytest.fixture
def doubled_sqrt(monkeypatch):
    """Make ``series.half_power(1, order)`` return 2 sqrt(1 - 4x), so the Q4X
    numerator keeps the constant term 5 - 2 * 5 = -5."""
    half_power = series.half_power

    def doubled(k, order):
        root = half_power(k, order)
        return 2 * root if k == 1 else root

    monkeypatch.setattr(series, "half_power", doubled)
