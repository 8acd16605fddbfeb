from __future__ import annotations

import pytest

from conftest import (
    adjacency_degrees,
    all_permutations,
    brute_stats,
    catalan_by_convolution,
    contains_pattern,
    enumerate_by_filter,
    pascal_binomial,
)
from gridperm import (
    aggregate_stats,
    catalan,
    central_binomial,
    enumerate_av213,
    reverse,
)
from gridperm.enumeration import CSV_FIELDS


@pytest.mark.parametrize("n, expected", [(0, 1), (4, 14), (10, 16796), (12, 208012)])
def test_catalan_values(n, expected):
    assert catalan(n) == expected


def test_catalan_matches_convolution():
    assert [catalan(n) for n in range(16)] == catalan_by_convolution(15)


@pytest.mark.parametrize("n, expected", [(0, 1), (4, 70), (10, 184756)])
def test_central_binomial_values(n, expected):
    assert central_binomial(n) == expected


@pytest.mark.parametrize("n", range(0, 12, 3))
def test_central_binomial_matches_pascal(n):
    assert central_binomial(n) == pascal_binomial(2 * n, n)


def test_enumerate_av213_small_cases():
    assert list(enumerate_av213(0)) == [()]
    members = set(enumerate_av213(3))
    assert members == {
        (1, 2, 3),
        (1, 3, 2),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    }
    four = list(enumerate_av213(4))
    assert len(four) == 14
    assert (4, 1, 3, 2) in four and (3, 4, 1, 2) in four


def test_enumeration_order_is_deterministic():
    first = list(enumerate_av213(5))
    assert first == list(enumerate_av213(5))
    # split by increasing left-block size, blocks in recursive order
    assert list(enumerate_av213(3)) == [
        (1, 2, 3),
        (1, 3, 2),
        (3, 1, 2),
        (2, 3, 1),
        (3, 2, 1),
    ]


@pytest.mark.parametrize("n", range(11))
def test_enumeration_count_is_catalan(n):
    seen = set()
    for word in enumerate_av213(n):
        assert word not in seen
        seen.add(word)
        assert not contains_pattern(word, (2, 1, 3))
    assert len(seen) == catalan(n)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_av213(15))
    # explicit cap overrides the default guard
    assert sum(1 for _ in enumerate_av213(5, cap=5)) == 42


@pytest.mark.parametrize("n", range(0, 9))
def test_filter_oracle_agrees(n):
    assert set(enumerate_by_filter(n, (2, 1, 3))) == set(enumerate_av213(n))


def test_filter_oracle_examples():
    assert set(enumerate_by_filter(2, (2, 1, 3))) == {(1, 2), (2, 1)}
    reversed_class = {reverse(w) for w in enumerate_av213(4)}
    assert set(enumerate_by_filter(4, (3, 1, 2))) == reversed_class


def test_filter_oracle_cap():
    with pytest.raises(ValueError):
        list(enumerate_by_filter(9, (2, 1, 3)))


def test_aggregate_brute_frozen_values():
    row3 = brute_stats(3).to_row()
    assert row3 == {
        "n": 3,
        "class_size": 5,
        "H": 14,
        "V": 30,
        "Sigma": 58,
        "Q1": 10,
        "Q2": 12,
        "Q3": 8,
        "Q4": 0,
        "D": 2,
        "A": 2,
        "J": 1,
        "P": 2,
    }
    row2 = brute_stats(2).to_row()
    assert (row2["Q1"], row2["Q2"], row2["Q3"], row2["Q4"]) == (4, 2, 0, 0)
    assert row2["H"] == 2
    row4 = brute_stats(4).to_row()
    assert row4["Q4"] == 8 and row4["H"] == 76


def test_csv_fields_are_frozen():
    assert CSV_FIELDS == (
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
    assert tuple(brute_stats(2).to_row().keys()) == CSV_FIELDS


@pytest.mark.parametrize("n", range(2, 9))
def test_aggregate_invariants(n):
    stats = brute_stats(n)
    q = stats.by_degree
    assert q[0] == 0
    assert q[1] + q[2] + q[3] + q[4] == stats.vertices
    assert q[1] + 2 * q[2] + 3 * q[3] + 4 * q[4] == stats.degree_sum
    assert stats.vertices == stats.class_size * n * (n + 1) // 2
    assert stats.degree_sum == stats.class_size * n * (n - 1) + 2 * stats.horizontal_edges


@pytest.mark.parametrize("n", range(2, 11))
def test_boundary_statistics_identities(n):
    stats = brute_stats(n)
    assert stats.initial_descents == catalan(n - 1)
    assert stats.final_ascents == catalan(n - 1)
    assert stats.internal_min == catalan(n) - 2 * catalan(n - 1)
    if n >= 3:
        assert stats.internal_deg1 == (n - 2) * catalan(n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_internal_deg1_is_q1_minus_external(n):
    # P counts the degree-1 vertices of columns 2..n-1, per word
    for word in all_permutations(n):
        degree = adjacency_degrees(word)
        internal = sum(d == 1 for (column, _), d in degree.items() if 1 < column < n)
        assert aggregate_stats([word], n).internal_deg1 == internal


@pytest.mark.parametrize("n", range(2, 7))
def test_reversal_transfer_small(n):
    stats_312 = aggregate_stats(enumerate_by_filter(n, (3, 1, 2)), n)
    assert stats_312.to_row() == brute_stats(n).to_row()


def test_aggregate_degenerate_lengths():
    assert brute_stats(0).to_row()["V"] == 0
    row1 = brute_stats(1).to_row()
    assert row1["class_size"] == 1 and row1["V"] == 1 and row1["Sigma"] == 0
    assert brute_stats(1).by_degree[0] == 1


def test_permutation_universe_sanity():
    # the filter oracle really scans all of S_n
    assert len(all_permutations(4)) == 24
