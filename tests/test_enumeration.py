from __future__ import annotations

import copy
import hashlib
import importlib.util
import itertools
import tracemalloc
from collections import deque
from functools import lru_cache

import pytest

from conftest import (
    adjacency_degrees,
    all_permutations,
    brute_stats,
    catalan_by_convolution,
    compose,
    contains_pattern,
    enumerate_by_filter,
    pascal_binomial,
    reverse,
)
import gridperm.enumeration
from gridperm import (
    aggregate_brute,
    aggregate_stats,
    catalan_series,
    central_binomial,
    closed_aggregate,
    enumerate_av213,
    gluing_totals,
)
from gridperm.enumeration import CSV_FIELDS

CATALAN = catalan_by_convolution(15)


@pytest.mark.parametrize("n, expected", [(0, 1), (4, 14), (10, 16796), (12, 208012)])
def test_catalan_values(n, expected):
    assert catalan_series(n).coeffs[n] == expected


def test_catalan_matches_convolution():
    assert list(catalan_series(15).coeffs) == CATALAN


def test_catalan_list_matches_catalan():
    expected = tuple(central_binomial(k) // (k + 1) for k in range(201))
    assert catalan_series(200).coeffs == expected


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


@lru_cache(maxsize=None)
def composed_stream(n):
    """Av_n(213) in the contract order, glued by the ``conftest.compose`` reference."""
    if n == 0:
        return ((),)
    return tuple(
        compose(alpha, beta)
        for i in range(n)
        for alpha in composed_stream(i)
        for beta in composed_stream(n - 1 - i)
    )


@pytest.mark.parametrize("n", range(11))
def test_enumeration_order_matches_composed_reference(n):
    assert list(enumerate_av213(n)) == list(composed_stream(n))


def test_enumeration_order_is_pinned_at_n_12():
    # sha256 of the words as bytes, one byte per value, in stream order
    stream = b"".join(map(bytes, enumerate_av213(12)))
    assert len(stream) == 12 * CATALAN[12]
    assert hashlib.sha256(stream).hexdigest() == (
        "804e01f89942aa482604c1750e9106554530fc6b870cd8a221851f56906cd89c"
    )


def test_streams_read_in_lockstep_are_independent():
    reference = list(composed_stream(9))
    first, second = zip(*zip(enumerate_av213(9), enumerate_av213(9)))
    assert list(first) == reference
    assert list(second) == reference


def test_a_dropped_stream_leaves_the_next_one_whole():
    reference = list(composed_stream(9))
    dropped = enumerate_av213(9)
    assert list(itertools.islice(dropped, len(reference) // 2)) == reference[: len(reference) // 2]
    del dropped
    assert list(enumerate_av213(9)) == reference


def test_a_stream_leaves_the_module_unchanged():
    # a fresh copy of the module, whose names no earlier stream has touched
    spec = importlib.util.spec_from_file_location(
        "gridperm._fresh_enumeration", gridperm.enumeration.__file__
    )
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    module = vars(fresh)
    before = dict(module)
    containers = {
        name: copy.copy(value)
        for name, value in module.items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }
    deque(fresh.enumerate_av213(10), maxlen=0)
    assert module == before
    assert {name: module[name] for name in containers} == containers


def test_stream_memory_is_bounded_by_its_short_blocks():
    # At n = 13 the stream keeps 4,057 words of short blocks (at most 7
    # values each, so at most 96 bytes on a 64-bit build) plus one tuple
    # per block and their dict: under 128 bytes per kept word.  Caching
    # blocks of 8 values instead keeps 11,207 words and peaks near 1.2 MB.
    tracemalloc.start()
    try:
        deque(enumerate_av213(13), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_057 * 128


@pytest.mark.parametrize("n", range(11))
def test_enumeration_count_is_catalan(n):
    seen = set()
    for word in enumerate_av213(n):
        assert word not in seen
        seen.add(word)
        assert not contains_pattern(word, (2, 1, 3))
    assert len(seen) == CATALAN[n]


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_av213(15))
    # explicit cap overrides the default guard
    assert sum(1 for _ in enumerate_av213(5, cap=5)) == 42


def test_negative_n_is_refused():
    with pytest.raises(ValueError, match="negative"):
        enumerate_av213(-1)
    with pytest.raises(ValueError, match="negative"):
        aggregate_brute(-2)


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
    row3 = brute_stats(3)
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
    row2 = brute_stats(2)
    assert (row2["Q1"], row2["Q2"], row2["Q3"], row2["Q4"]) == (4, 2, 0, 0)
    assert row2["H"] == 2
    row4 = brute_stats(4)
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
    assert tuple(brute_stats(2).keys()) == CSV_FIELDS


@pytest.mark.parametrize("n", [2, 5])
def test_every_route_gives_csv_field_rows(n):
    assert list(aggregate_brute(n)) == list(CSV_FIELDS)
    assert list(closed_aggregate(n)) == list(CSV_FIELDS)
    assert set(gluing_totals(5)) <= set(CSV_FIELDS)


@pytest.mark.parametrize("n", range(2, 9))
def test_aggregate_invariants(n):
    stats = brute_stats(n)
    q1, q2, q3, q4 = (stats[f"Q{r}"] for r in range(1, 5))
    # V counts degree-0 vertices too; for n >= 2 there are none
    assert q1 + q2 + q3 + q4 == stats["V"]
    assert q1 + 2 * q2 + 3 * q3 + 4 * q4 == stats["Sigma"]
    assert stats["V"] == stats["class_size"] * n * (n + 1) // 2
    assert stats["Sigma"] == stats["class_size"] * n * (n - 1) + 2 * stats["H"]


@pytest.mark.parametrize("n", range(2, 11))
def test_boundary_statistics_identities(n):
    stats = brute_stats(n)
    assert stats["D"] == CATALAN[n - 1]
    assert stats["A"] == CATALAN[n - 1]
    assert stats["J"] == CATALAN[n] - 2 * CATALAN[n - 1]
    if n >= 3:
        assert stats["P"] == (n - 2) * CATALAN[n - 1]


@pytest.mark.parametrize("n", range(2, 9))
def test_internal_deg1_is_q1_minus_external(n):
    # P counts the degree-1 vertices of columns 2..n-1, per word; production
    # sums it over Av_n(213) only, so n = 8 checks the class, not all of S_8
    words = enumerate_av213(n) if n == 8 else all_permutations(n)
    for word in words:
        degree = adjacency_degrees(word)
        internal = sum(d == 1 for (column, _), d in degree.items() if 1 < column < n)
        assert aggregate_stats([word], n)["P"] == internal


@pytest.mark.parametrize("n", range(2, 7))
def test_reversal_transfer_small(n):
    stats_312 = aggregate_stats(enumerate_by_filter(n, (3, 1, 2)), n)
    assert stats_312 == brute_stats(n)


def test_aggregate_degenerate_lengths():
    assert brute_stats(0)["V"] == 0
    row1 = brute_stats(1)
    assert row1["class_size"] == 1 and row1["V"] == 1 and row1["Sigma"] == 0
    # the single vertex has degree 0: V counts it, Q1..Q4 do not
    assert row1["V"] - sum(row1[f"Q{r}"] for r in range(1, 5)) == 1
    # no boundary statistic below n = 2
    for n in (0, 1):
        row = brute_stats(n)
        assert (row["D"], row["A"], row["J"], row["P"]) == (0, 0, 0, 0)
    # an empty stream gives an all-zero row, P included
    assert aggregate_stats(iter(()), 5) == {"n": 5, **dict.fromkeys(CSV_FIELDS[1:], 0)}


def test_permutation_universe_sanity():
    # the filter oracle really scans all of S_n
    assert len(all_permutations(4)) == 24
