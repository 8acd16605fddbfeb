"""The glue functions of ``recurrences``, checked word by word.

For alpha in Av_i(213) and beta in Av_j(213), the word
w = (alpha + j + 1) 1 (beta + 1) glues them around a new minimum.  Each
glue, given the counts of that one word (words = 1, and left_d and
right_d its indicators), must give what the gluing adds to w:

    H(w)  = H(alpha) + H(beta) + _h_glue(i, j, 1, 0, 0)
    Q4(w) = Q4(alpha) + Q4(beta) + _q4_shift(i, j, 1, 0, 0) - J(alpha) - J(beta)
    J(w)  = _internal_min(i, j, 1, 0, 0)
    D(w)  = _descents(i, j, 1, D(alpha), 0)
    P(w)  = P(alpha) + P(beta) + _new_peaks(i, j, 0, A(alpha), D(beta))

J(x) is 1 iff the minimum of x is internal, D(x) iff x starts with a
descent and A(x) iff it ends with an ascent.  H, Q4 and Q1 come from
``degree_histogram``, and P is Q1 less the end columns' degree-1
vertices.  The routes compare only totals over the class, in which a
glue error can cancel: +1 at a split (1, j) and -1 at its mirror
(j, 1), which carry the same C_1 C_j words, or an error at an interior
split that the gluing pass reads off a quadratic and never evaluates.
Word by word, neither cancels.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from conftest import adjacency_degrees, compose, deg1_external_count
from gridperm import degree_histogram, enumerate_av213, gluing_totals, recurrences, sample_av213

# every pair of blocks with i + j + 1 <= EXHAUSTIVE_N: 6,917 words
EXHAUSTIVE_N = 9
# every split (i, j) of each n <= SPLIT_N gets one sampled pair, the
# range of the totals the fault tests compare
SPLIT_N = 40
# then SAMPLED_PAIRS pairs with blocks of up to LARGEST_BLOCK values
SAMPLED_PAIRS = 200
LARGEST_BLOCK = 400
SEED = 7


def word_stats(word):
    """The statistics of one word that the glue identities relate."""
    counts, h = degree_histogram(word)
    n = len(word)
    return {
        "H": h,
        "Q4": counts[4],
        "P": counts[1] - deg1_external_count(word),
        "J": n >= 3 and 0 < word.index(1) < n - 1,
        "D": n >= 2 and word[0] > word[1],
        "A": n >= 2 and word[-2] < word[-1],
    }


def glue_mismatches(pairs):
    """Each (i, j, statistic) at which the word of a pair breaks its glue identity."""
    mismatches = []
    for alpha, beta in pairs:
        i, j = len(alpha), len(beta)
        a, b, w = word_stats(alpha), word_stats(beta), word_stats(compose(alpha, beta))
        glued = {
            "H": a["H"] + b["H"] + recurrences._h_glue(i, j, 1, 0, 0),
            "Q4": a["Q4"] + b["Q4"] + recurrences._q4_shift(i, j, 1, 0, 0) - a["J"] - b["J"],
            "J": recurrences._internal_min(i, j, 1, 0, 0),
            "D": recurrences._descents(i, j, 1, a["D"], 0),
            "P": a["P"] + b["P"] + recurrences._new_peaks(i, j, 0, a["A"], b["D"]),
        }
        mismatches += [(i, j, name) for name in recurrences.STATISTICS if glued[name] != w[name]]
    return mismatches


@lru_cache(maxsize=None)
def exhaustive_pairs():
    return tuple(
        (alpha, beta)
        for n in range(1, EXHAUSTIVE_N + 1)
        for i in range(n)
        for alpha in enumerate_av213(i)
        for beta in enumerate_av213(n - 1 - i)
    )


@lru_cache(maxsize=None)
def sampled_pairs():
    rng = random.Random(SEED)
    sizes = [(i, n - 1 - i) for n in range(1, SPLIT_N + 1) for i in range(n)]
    sizes += [
        (rng.randrange(LARGEST_BLOCK + 1), rng.randrange(LARGEST_BLOCK + 1))
        for _ in range(SAMPLED_PAIRS)
    ]
    return tuple((sample_av213(i, rng), sample_av213(j, rng)) for i, j in sizes)


def test_external_deg1_count_matches_adjacency():
    words = [word for n in range(8) for word in enumerate_av213(n)]
    words += [word for n in range(5) for word in itertools.product(range(1, 4), repeat=n)]
    for word in words:
        n = len(word)
        degree = adjacency_degrees(word)
        external = sum(d == 1 for (column, _), d in degree.items() if column in (1, n))
        assert deg1_external_count(word) == external, word


def test_glue_identities_on_every_small_pair():
    pairs = exhaustive_pairs()
    assert len(pairs) == 6_917
    assert glue_mismatches(pairs) == []


def test_glue_identities_on_sampled_pairs():
    pairs = sampled_pairs()
    assert max(max(len(alpha), len(beta)) for alpha, beta in pairs) > LARGEST_BLOCK // 2
    assert glue_mismatches(pairs) == []


@pytest.mark.parametrize(
    "fault",
    [{(1, 5): 1, (5, 1): -1}, {(10, 20): 1}],
    ids=["mirror-splits", "interior-split"],
)
def test_glue_faults_the_totals_miss_fail_word_by_word(monkeypatch, fault):
    totals = gluing_totals(SPLIT_N)
    h_glue = recurrences._h_glue

    def faulty(i, j, words, left_d, right_d):
        return h_glue(i, j, words, left_d, right_d) + fault.get((i, j), 0) * words

    monkeypatch.setattr(recurrences, "_h_glue", faulty)
    assert gluing_totals(SPLIT_N) == totals
    mismatches = glue_mismatches(exhaustive_pairs() + sampled_pairs())
    assert {(i, j) for i, j, _ in mismatches} == set(fault)
    assert {name for _, _, name in mismatches} == {"H"}
