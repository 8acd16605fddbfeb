from __future__ import annotations

from fractions import Fraction

import pytest

from gridperm import (
    asymptotic_proportions,
    catalan,
    closed_aggregate,
    closed_form_report,
    deg1_total,
    deg2_deg3_totals,
    deg4_total,
    expectations,
    horizontal_edges_total,
    proportions,
    vertex_and_degree_totals,
)
from gridperm.closed_forms import (
    final_ascents_total,
    format_float,
    fraction_str,
    initial_descents_total,
    internal_deg1_total,
    internal_min_total,
)


@pytest.mark.parametrize("n, expected", [(1, 0), (2, 2), (3, 14), (4, 76)])
def test_horizontal_edges_total(n, expected):
    assert horizontal_edges_total(n) == expected


@pytest.mark.parametrize("n, expected", [(1, (1, 0)), (2, (6, 8)), (3, (30, 58))])
def test_vertex_and_degree_totals(n, expected):
    assert vertex_and_degree_totals(n) == expected


@pytest.mark.parametrize("n, expected", [(2, 4), (3, 10), (4, 30)])
def test_deg1_total(n, expected):
    assert deg1_total(n) == expected


@pytest.mark.parametrize("n, expected", [(2, 0), (3, 0), (4, 8), (5, 77)])
def test_deg4_total(n, expected):
    assert deg4_total(n) == expected


@pytest.mark.parametrize("n, expected", [(2, (2, 0)), (3, (12, 8)), (4, (48, 54))])
def test_deg2_deg3_totals(n, expected):
    assert deg2_deg3_totals(n) == expected


def test_degree_totals_close_the_vertex_count():
    for n in (2, 3, 4, 7, 25):
        v, sigma = vertex_and_degree_totals(n)
        q1 = deg1_total(n)
        q2, q3 = deg2_deg3_totals(n)
        q4 = deg4_total(n)
        assert q1 + q2 + q3 + q4 == v
        assert q1 + 2 * q2 + 3 * q3 + 4 * q4 == sigma


def test_domain_errors():
    for fn in (deg1_total, deg4_total, deg2_deg3_totals):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        horizontal_edges_total(0)


def test_boundary_totals():
    assert [initial_descents_total(n) for n in (2, 3, 4)] == [1, 2, 5]
    assert final_ascents_total(6) == initial_descents_total(6)
    assert internal_min_total(1) == 0
    assert [internal_min_total(n) for n in (2, 3, 4)] == [0, 1, 4]
    assert [internal_deg1_total(n) for n in (1, 2, 3, 4)] == [0, 0, 2, 10]


def test_expectations():
    assert expectations(2)["H"] == 1
    exp3 = expectations(3)
    assert exp3["H"] == Fraction(14, 5)
    assert exp3["Q1"] == 2


def test_proportions_sum_to_one():
    for n in (2, 3, 10, 50):
        assert sum(proportions(n).values()) == 1


def test_integrality_sweep():
    # each call raises internally if any quotient fails to be integral
    for n in range(2, 401):
        vertex_and_degree_totals(n)
        deg1_total(n)
        deg2_deg3_totals(n)
        deg4_total(n)
        horizontal_edges_total(n)


def test_asymptotic_examples():
    assert asymptotic_proportions(10_000)[4] == pytest.approx(0.98449103, abs=1e-7)
    assert asymptotic_proportions(100)[1] == pytest.approx(0.005, abs=1e-12)
    far = asymptotic_proportions(10**8)
    assert far[1] < 1e-7 and far[2] < 1e-3 and far[3] < 1e-3 and far[4] > 0.999


def test_closed_aggregate_matches_known_row():
    row = closed_aggregate(3).to_row()
    assert row == {
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
    assert catalan(3) == row["class_size"]


def test_report_serialization():
    report = closed_form_report(3)
    assert report.values.to_row()["H"] == 14
    assert report.expectations["H"] == Fraction(14, 5)
    assert fraction_str(report.proportions[1]) == "1/3"
    assert fraction_str(Fraction(3, 7)) == "3/7"
    assert format_float(0.9844910288045767) == "0.984491028805"
