from __future__ import annotations

import pytest

from conftest import brute_stats, catalan_by_convolution
from gridperm import closed_aggregate, gluing_totals

N_CHECK = 60
CATALAN = catalan_by_convolution(N_CHECK)


def test_horizontal_edges_examples():
    h = gluing_totals(4)["H"]
    assert h[0] == 0 and h[1] == 0
    assert h[2] == 2
    assert h[3] == 14
    assert h[4] == 76


def test_horizontal_edges_matches_closed_form():
    h = gluing_totals(N_CHECK)["H"]
    for n in range(2, N_CHECK + 1):
        assert h[n] == closed_aggregate(n)["H"]


def test_internal_deg1_examples():
    p = gluing_totals(4)["P"]
    assert p[:3] == [0, 0, 0]
    assert p[3] == 2
    assert p[4] == 10


def test_internal_deg1_matches_closed_form():
    p = gluing_totals(N_CHECK)["P"]
    for n in range(3, N_CHECK + 1):
        assert p[n] == (n - 2) * CATALAN[n - 1]


def test_initial_descents_examples():
    d = gluing_totals(5)["D"]
    assert d[2] == 1
    assert d[3] == 2
    assert d[4] == 5


def test_initial_descents_matches_closed_form():
    d = gluing_totals(N_CHECK)["D"]
    for m in range(2, N_CHECK + 1):
        assert d[m] == CATALAN[m - 1]


def test_internal_min_examples():
    j = gluing_totals(4)["J"]
    assert j[0] == 0 and j[1] == 0
    assert j[2] == 0
    assert j[3] == 1
    assert j[4] == 4


def test_deg4_examples():
    q4 = gluing_totals(4)["Q4"]
    assert q4[:4] == [0, 0, 0, 0]
    assert q4[4] == 8


def test_deg4_matches_closed_form():
    q4 = gluing_totals(N_CHECK)["Q4"]
    for n in range(2, N_CHECK + 1):
        assert q4[n] == closed_aggregate(n)["Q4"]


@pytest.mark.parametrize("n", range(0, 11))
def test_all_sequences_match_brute_force(n):
    stats = brute_stats(n)
    totals = gluing_totals(n)
    for stat in ("H", "P", "D", "J", "Q4"):
        assert totals[stat][n] == stats[stat], stat


def test_outputs_are_nonnegative():
    totals = gluing_totals(40)
    assert set(totals) == {"H", "Q4", "D", "J", "P"}
    for seq in totals.values():
        assert len(seq) == 41
        assert all(v >= 0 for v in seq)
