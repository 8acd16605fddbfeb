"""Shared oracles for the test suite.

The grid-graph oracle here builds explicit vertex and edge sets from
the adjacency definition, deliberately ignoring the production code's
indicator formulas, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

import pytest

from gridperm import aggregate_brute, recurrences, series
from gridperm.permutations import check_permutation

FILTER_CAP = 8


def all_permutations(n):
    """Every word of S_n as a 1-based tuple, in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def contains_pattern(word, pattern):
    """Exhaustive check for a length-3 pattern occurrence.

    True iff some subsequence of ``word`` is order-isomorphic to
    ``pattern``.  This is the O(n^3) oracle; it is authoritative in
    tests, with ``contains_213`` (below) as the fast route.
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


# Word helpers that production does not use: the mirror, the linear 213
# check and the block composition at the minimum.  In a 213-avoiding
# word every entry left of the 1 exceeds every entry right of it, so the
# word factors as ``(alpha + j + 1) 1 (beta + 1)`` with both blocks
# again 213-avoiding.


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


def compose(alpha, beta):
    """Glue two 213-avoiding blocks around a fresh minimum: (alpha + j + 1) 1 (beta + 1)."""
    for name, block in (("alpha", alpha), ("beta", beta)):
        if contains_213(block):
            raise ValueError(f"{name} block contains 213: {tuple(block)!r}")
    j = len(beta)
    return tuple(a + j + 1 for a in alpha) + (1,) + tuple(b + 1 for b in beta)


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


def deg1_external_count(word):
    """Degree-1 vertices of the end columns of a word with positive heights.

    Read off the adjacency definition: at an end of a word of n >= 2
    columns, a height-1 column's one vertex ties only its neighbor, and
    a taller column's bottom has degree 2, so only its top can have
    degree 1, when it is above its neighbor.  They number
    [w_0 = 1] + [w_0 > w_1] + [w_{n-1} = 1] + [w_{n-2} < w_{n-1}].  A
    lone column has a degree-1 bottom and top if it is taller than 1,
    and none otherwise.
    """
    n = len(word)
    if n < 2:
        return 2 * (n == 1 and word[0] >= 2)
    return (word[0] == 1) + (word[0] > word[1]) + (word[-1] == 1) + (word[-2] < word[-1])


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


def literal_gluing_totals(n_max):
    """The gluing pass summed split by split: every glue function at every split.

    The oracle for ``recurrences.gluing_totals``, which sums each glue
    once per n from its Newton form on the interior splits.  It reads
    the glue functions from ``recurrences`` at call time, so it shares
    them and only the summation differs.
    """
    cat = [1]  # C_0 .. C_{n-1}; C_n is appended once the words of n are counted
    h, q4, d, jm, p = ([0] * (n_max + 1) for _ in recurrences.STATISTICS)
    for n in range(1, n_max + 1):
        # entry i of each list belongs to the split (i, j = n - 1 - i)
        i_s, j_s = range(n), range(n - 1, -1, -1)
        cj = cat[n - 1 :: -1]
        # C_i C_j is symmetric in the split: form the first ceil(n/2)
        # products and mirror them
        half = list(map(mul, cat[: (n + 1) // 2], cj))
        words = half + half[: n // 2][::-1]
        cat.append(sum(words))
        # C_j D_i; read backwards it is C_i D_j
        left_d = list(map(mul, cj, d))
        counts = (i_s, j_s, words, left_d, left_d[::-1])
        # every word keeps both blocks' own edges, degree-4 vertices
        # (less one at an internal block minimum) and peaks: summed
        # over all splits, sum_i (C_j S_i + C_i S_j) = 2 sum_i C_j S_i
        h[n] = 2 * sum(map(mul, cj, h)) + sum(map(recurrences._h_glue, *counts))
        q4[n] = 2 * sum(map(mul, cj, map(sub, q4, jm))) + sum(
            map(recurrences._q4_shift, *counts)
        )
        d[n] = sum(map(recurrences._descents, *counts))
        jm[n] = sum(map(recurrences._internal_min, *counts))
        p[n] = 2 * sum(map(mul, cj, p)) + sum(map(recurrences._new_peaks, *counts))
    return dict(zip(recurrences.STATISTICS, (h, q4, d, jm, p)))


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


@pytest.fixture
def forked_children(monkeypatch):
    """The pids of the children that this process forks while the test runs."""
    fork, children = os.fork, []

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children
