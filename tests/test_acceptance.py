"""End-to-end acceptance checks, one test per criterion.

Every test pins its tolerance (exact equality unless stated otherwise),
enforces its wall-clock budget, and prints one pass/fail line.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

from scipy.stats import chisquare

from conftest import catalan_by_convolution, enumerate_by_filter
from gridperm import (
    IDENTITY_IDS,
    aggregate_brute,
    aggregate_stats,
    asymptotic_proportions,
    closed_aggregate,
    deg2_deg3_totals,
    empirical_report,
    enumerate_av213,
    gluing_totals,
    proportions,
    sample_av213,
)
from gridperm.series import (
    catalan_series,
    check_identity,
    polynomial,
)

SEED = 20260808


def _finish(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    ok = elapsed <= budget
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_enumeration_count():
    started = time.time()
    convolution = catalan_by_convolution(12)
    assert convolution[12] == 208012
    for n in range(13):
        count = sum(1 for _ in enumerate_av213(n))
        assert count == convolution[n], f"|Av_{n}(213)| = {count} != {convolution[n]}"
    _finish("criterion 1 (enumeration count, n <= 12)", started, 60)


def test_criterion_2_brute_vs_closed():
    started = time.time()
    for n in range(2, 11):
        brute = aggregate_brute(n)
        closed = closed_aggregate(n)
        for stat in ("H", "V", "Sigma", "Q1", "Q2", "Q3", "Q4"):
            assert brute[stat] == closed[stat], (n, stat, brute[stat], closed[stat])
    # spot values fixed up front
    row2, row3, row4 = (closed_aggregate(n) for n in (2, 3, 4))
    assert row3["H"] == 14 and row4["H"] == 76
    assert (row3["V"], row3["Sigma"]) == (30, 58)
    assert [row2[f"Q{r}"] for r in range(1, 5)] == [4, 2, 0, 0]
    assert [row3[f"Q{r}"] for r in range(1, 5)] == [10, 12, 8, 0]
    for row in (row2, row3):  # no degree-0 vertices for n >= 2
        assert row["V"] == sum(row[f"Q{r}"] for r in range(1, 5))
    assert deg2_deg3_totals(2) == (2, 0)
    assert deg2_deg3_totals(3) == (12, 8)
    assert row4["Q4"] == 8
    _finish("criterion 2 (brute vs closed, 2 <= n <= 10)", started, 300)


def test_criterion_3_recurrence_vs_closed():
    started = time.time()
    top = 300
    totals = gluing_totals(top)
    catalan = catalan_by_convolution(top)
    h, p, d, j, q4 = (totals[stat] for stat in ("H", "P", "D", "J", "Q4"))
    for n in range(2, top + 1):
        closed = closed_aggregate(n)
        assert h[n] == closed["H"], ("H", n)
        # P, D and J against Catalan numbers, independently of closed_aggregate
        assert p[n] == (n - 2) * catalan[n - 1], ("P", n)
        assert d[n] == catalan[n - 1], ("D", n)
        assert j[n] == catalan[n] - 2 * catalan[n - 1], ("J", n)
        assert q4[n] == closed["Q4"], ("Q4", n)
    _finish("criterion 3 (recurrence vs closed, 2 <= n <= 300)", started, 30)


def test_criterion_4_series_residuals():
    started = time.time()
    order = 64
    totals = gluing_totals(order + 1)
    for name in IDENTITY_IDS:
        residual = check_identity(name, order, totals)
        assert residual.is_zero(), f"identity {name} has a nonzero residual"
    c = catalan_series(order)
    x = polynomial([0, 1], order)
    u = polynomial([1], order)
    assert (c - u - x * c * c).is_zero()
    lhs = u - 2 * x * c
    assert (lhs * lhs - polynomial([1, -4], order)).is_zero()
    _finish("criterion 4 (series residuals, order 64)", started, 10)


def test_criterion_5_integrality_and_linear_closure():
    started = time.time()
    for n in range(2, 2001):
        # every total is an asserted-exact quotient, Q2/Q3 by two routes
        stats = closed_aggregate(n)
        q1, q2, q3, q4 = (stats[f"Q{r}"] for r in range(1, 5))
        assert q1 + q2 + q3 + q4 == stats["V"], n
        assert q1 + 2 * q2 + 3 * q3 + 4 * q4 == stats["Sigma"], n
    _finish("criterion 5 (integrality and closure, 2 <= n <= 2000)", started, 60)


def test_criterion_6_reversal_transfer():
    started = time.time()
    for n in range(2, 9):
        stats_312 = aggregate_stats(enumerate_by_filter(n, (3, 1, 2)), n)
        stats_213 = aggregate_stats(enumerate_by_filter(n, (2, 1, 3)), n)
        assert stats_312 == stats_213, n
        assert stats_213 == aggregate_brute(n), n
    _finish("criterion 6 (reversal transfer, 2 <= n <= 8)", started, 120)


def test_criterion_7_asymptotics():
    started = time.time()
    grid = (100, 1000, 10_000)
    shares = {}
    for n in grid:
        exact = {r: float(v) for r, v in proportions(n).items()}
        predicted = asymptotic_proportions(n)
        for r in range(1, 5):
            gap = abs(exact[r] - predicted[r])
            assert gap <= 10 / n, (n, r, gap)
        shares[n] = exact
    # limits are approached monotonically across the grid
    assert shares[100][4] < shares[1000][4] < shares[10_000][4] < 1
    for r in (1, 2, 3):
        assert shares[100][r] > shares[1000][r] > shares[10_000][r] > 0
    _finish("criterion 7 (asymptotic proportions)", started, 60)


def test_criterion_8_sampler():
    started = time.time()
    for n in (3, 4, 5):
        rng = random.Random(SEED + n)
        counts = Counter(sample_av213(n, rng) for _ in range(100_000))
        members = list(enumerate_av213(n))
        assert set(counts) <= set(members)
        observed = [counts.get(word, 0) for word in members]
        _, pvalue = chisquare(observed)
        assert pvalue >= 1e-4, (n, pvalue)
    report = empirical_report(200, 50_000, SEED)
    exact = float(proportions(200)[4])
    gap = abs(report["mean_proportions"][4] - exact)
    assert gap <= 4 * report["std_errors"][4], (gap, report["std_errors"][4])
    again = empirical_report(200, 1, SEED)
    once_more = empirical_report(200, 1, SEED)
    assert json.dumps(again) == json.dumps(once_more)
    _finish("criterion 8 (sampler)", started, 300)
