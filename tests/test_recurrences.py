from __future__ import annotations

import re

import pytest

from conftest import brute_stats, catalan_by_convolution, literal_gluing_totals
from gridperm import cli, closed_aggregate, gluing_totals, recurrences

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


def test_negative_n_max_is_refused():
    with pytest.raises(ValueError, match="n_max=-3 is negative"):
        gluing_totals(-3)
    assert gluing_totals(0) == {stat: [0] for stat in recurrences.STATISTICS}


# n = 9 is the last n summed wholly split by split, and n = 10 the
# first with an interior read off the glue functions
@pytest.mark.parametrize("m", [*range(13), 150])
def test_matches_the_literal_pass(m):
    assert gluing_totals(m) == literal_gluing_totals(m)


def _cubic_on_the_interior(glue):
    def faulty(i, j, words, left_d, right_d):
        bump = i**3 * words if i >= 3 and j >= 3 else 0
        return glue(i, j, words, left_d, right_d) + bump

    return faulty


def _off_by_one_at(j_off):
    def fault(glue):
        def faulty(i, j, words, left_d, right_d):
            return glue(i, j, words, left_d, right_d) + (left_d if j == j_off else 0)

        return faulty

    return fault


def _linear_in_left_d(glue):
    def faulty(i, j, words, left_d, right_d):
        return glue(i, j, words, left_d * i, right_d)

    return faulty


# each fault is found at n = 10, the first n with an interior, whose
# splits are i = 3..6: off the quadratic read at i = 3, 4, 5 (with the
# fault at j = 4, the read itself is off), or of degree 1 in a count
# that the pass sums only in total
FAULTS = {
    "H cubic": (
        "_h_glue",
        _cubic_on_the_interior,
        r"^H glue weighs words by 240 at split \(6, 3\) of n = 10, not by 234 ",
    ),
    "P at j = 3": (
        "_new_peaks",
        _off_by_one_at(3),
        r"^P glue weighs left_d by 2 at split \(6, 3\) of n = 10, not by 1 ",
    ),
    "D at j = 4": (
        "_descents",
        _off_by_one_at(4),
        r"^D glue weighs left_d by 1 at split \(6, 3\) of n = 10, not by 4 ",
    ),
    "D linear in left_d": (
        "_descents",
        _linear_in_left_d,
        r"^D glue weighs left_d by a nonconstant on the interior of n = 10,",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_glue_off_its_interior_form_is_refused(fault, monkeypatch, capsys):
    name, make_faulty, message = FAULTS[fault]
    monkeypatch.setattr(recurrences, name, make_faulty(getattr(recurrences, name)))
    with pytest.raises(RuntimeError, match=message):
        gluing_totals(40)
    code = cli.main(["verify", "--n-max", "40", "--modes", "recurrence,closed"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    line = err.removesuffix("\n")
    assert line.startswith("FAIL: ") and "\n" not in line
    assert re.match(message, line.removeprefix("FAIL: "))
