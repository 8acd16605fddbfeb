from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    catalan_by_convolution,
    fraction_closed_row,
    fraction_expectations,
    fraction_proportions,
    pascal_binomial,
)
from gridperm import (
    asymptotic_proportions,
    central_binomial,
    closed_aggregate,
    closed_form_report,
    closed_forms,
    deg2_deg3_totals,
    expectations,
    proportions,
)
from gridperm.cli import main


@pytest.mark.parametrize("n, expected", [(2, 2), (3, 14), (4, 76)])
def test_horizontal_edges_total(n, expected):
    assert closed_aggregate(n)["H"] == expected


@pytest.mark.parametrize("n, expected", [(2, (6, 8)), (3, (30, 58))])
def test_vertex_and_degree_totals(n, expected):
    stats = closed_aggregate(n)
    assert (stats["V"], stats["Sigma"]) == expected


@pytest.mark.parametrize("n, expected", [(2, 4), (3, 10), (4, 30)])
def test_deg1_total(n, expected):
    assert closed_aggregate(n)["Q1"] == expected


@pytest.mark.parametrize("n, expected", [(2, 0), (3, 0), (4, 8), (5, 77)])
def test_deg4_total(n, expected):
    assert closed_aggregate(n)["Q4"] == expected


@pytest.mark.parametrize("n, expected", [(2, (2, 0)), (3, (12, 8)), (4, (48, 54))])
def test_deg2_deg3_totals(n, expected):
    assert deg2_deg3_totals(n) == expected


def test_degree_totals_close_the_vertex_count():
    for n in (2, 3, 4, 7, 25):
        stats = closed_aggregate(n)
        q1, q2, q3, q4 = (stats[f"Q{r}"] for r in range(1, 5))
        assert (q2, q3) == deg2_deg3_totals(n)
        # no degree-0 vertices: Q1..Q4 account for every vertex
        assert q1 + q2 + q3 + q4 == stats["V"]
        assert q1 + 2 * q2 + 3 * q3 + 4 * q4 == stats["Sigma"]


def test_domain_errors():
    for fn in (closed_aggregate, expectations, proportions,
               asymptotic_proportions, closed_form_report):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        deg2_deg3_totals(1)
    with pytest.raises(ValueError):
        closed_aggregate(0)
    with pytest.raises(ValueError):
        central_binomial(-1)


def test_boundary_totals():
    rows = {n: closed_aggregate(n) for n in (2, 3, 4, 6)}
    assert [rows[n]["D"] for n in (2, 3, 4)] == [1, 2, 5]
    assert rows[6]["A"] == rows[6]["D"]
    assert [rows[n]["J"] for n in (2, 3, 4)] == [0, 1, 4]
    assert [rows[n]["P"] for n in (2, 3, 4)] == [0, 2, 10]


def test_expectations():
    assert expectations(2)["H"] == 1
    exp3 = expectations(3)
    assert exp3["H"] == Fraction(14, 5)
    assert exp3["Q1"] == 2


def test_proportions_sum_to_one():
    for n in (2, 3, 10, 50):
        assert sum(proportions(n).values()) == 1


def test_a_row_evaluates_each_total_once(monkeypatch):
    evaluators = ("_vertices", "_degree_sum", "_deg1", "_deg4", "deg2_deg3_totals")
    calls = Counter()
    for name in evaluators:
        # (n, b) for the private evaluators, n alone for deg2_deg3_totals
        def counted(*args, name=name, evaluate=getattr(closed_forms, name)):
            calls[name] += 1
            return evaluate(*args)

        monkeypatch.setattr(closed_forms, name, counted)
    closed_aggregate(7)
    assert calls == Counter(evaluators)


@pytest.mark.parametrize("name", ["_vertices", "_degree_sum"])
def test_an_off_by_one_v_or_sigma_fails_the_q2q3_check(monkeypatch, name):
    evaluate = getattr(closed_forms, name)
    monkeypatch.setattr(closed_forms, name, lambda n, b: evaluate(n, b) + (n == 6))
    closed_aggregate(5)
    with pytest.raises(RuntimeError, match=r"^Q2/Q3 routes disagree at n=6: direct \("):
        closed_aggregate(6)


def test_central_binomial_steps_from_the_last_call(monkeypatch):
    comb = math.comb
    combed = []
    monkeypatch.setattr(math, "comb", lambda n, k: combed.append(n // 2) or comb(n, k))
    monkeypatch.setattr(closed_forms, "_last_binomial", (0, 1))
    with pytest.raises(TypeError):
        central_binomial(1.0)  # would step the kept pair into floats
    # up 0..300, a repeat, a step back, a jump to 5000, one step on and back
    for n in [*range(301), 300, 299, 5000, 5001, 300]:
        b = comb(2 * n, n)
        assert central_binomial(n) == b, n
        assert closed_forms._last_binomial == (n, b)
        if n <= 300 and (n % 50 == 0 or n in (1, 2, 299)):
            assert b == pascal_binomial(2 * n, n), n
    # only the step back and the two jumps reach math.comb
    assert combed == [299, 5000, 300]


def test_a_step_with_a_remainder_fails_and_keeps_the_pair(monkeypatch):
    monkeypatch.setattr(closed_forms, "_last_binomial", (6, 925))  # B(6) is 924
    with pytest.raises(RuntimeError, match=r"^integrality failure for B\(7\): 24050/7$"):
        central_binomial(7)
    assert closed_forms._last_binomial == (6, 925)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n-min", "2", "--n-max", "600"],
        ["verify", "--n-min", "2", "--n-max", "200", "--modes", "recurrence,closed"],
    ],
    ids=["table", "verify"],
)
def test_a_range_of_closed_rows_calls_math_comb_at_most_once(monkeypatch, capsys, argv):
    comb = math.comb
    calls = []
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) <= 1, calls


def test_integrality_sweep():
    # each call raises internally if any quotient fails to be integral,
    # or if the two Q2/Q3 routes disagree
    for n in range(2, 401):
        closed_aggregate(n)


def test_asymptotic_examples():
    assert asymptotic_proportions(10_000)[4] == pytest.approx(0.98449103, abs=1e-7)
    assert asymptotic_proportions(100)[1] == pytest.approx(0.005, abs=1e-12)
    far = asymptotic_proportions(10**8)
    assert far[1] < 1e-7 and far[2] < 1e-3 and far[3] < 1e-3 and far[4] > 0.999


def test_closed_aggregate_matches_known_row():
    row = closed_aggregate(3)
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
    assert catalan_by_convolution(3)[3] == row["class_size"]


def test_report_serialization(capsys):
    report = closed_form_report(3)
    assert report["values"]["H"] == 14
    assert report["expectations"]["H"] == Fraction(14, 5)
    assert main(["table", "--n-min", "3", "--n-max", "3"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["prop1"] == "1/3"
    assert [row[f"prop{r}"] for r in range(2, 5)] == ["2/5", "4/15", "0/1"]
    assert row["pred1"] == "0.166666666667"
    assert row["pred3"] == "0.76749503096"


def test_integer_closed_forms_match_the_fraction_oracle():
    for n in range(2, 401):
        assert closed_aggregate(n) == fraction_closed_row(n), n
        assert expectations(n) == fraction_expectations(n), n
        assert proportions(n) == fraction_proportions(n), n
