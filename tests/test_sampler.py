from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    contains_213,
    first_lowest_point,
    placement_steps,
    placement_word,
    reference_draw,
)
from gridperm import (
    empirical_report,
    enumerate_av213,
    expectations,
    proportions,
    sample_av213,
)
from gridperm.cli import main
from gridperm.sampler import _lowest_point

SEED = 1729


def test_degenerate_sizes():
    rng = random.Random(SEED)
    assert sample_av213(0, rng) == ()
    assert sample_av213(1, rng) == (1,)


def test_samples_are_class_members():
    rng = random.Random(SEED)
    for n in (2, 5, 9, 12):
        for _ in range(50):
            word = sample_av213(n, rng)
            assert sorted(word) == list(range(1, n + 1))
            assert not contains_213(word)


def placement_bits(n, placement):
    """The integer whose bit 2n - i is set for each up-step position i."""
    return sum(1 << (2 * n - i) for i in placement)


class ScriptedRng:
    """Stands in for ``random.Random``: ``getrandbits`` returns ``x``, then
    ``picks`` in order, raising once they run out.

    The script goes by call order: the placement (2n+1 bits) first, then
    each pick ((2n+1).bit_length() bits).  At n = 0 both widths are 1, so
    the width alone cannot tell a pick from the placement.
    """

    def __init__(self, n, x, picks=()):
        self.n = n
        self.x = x
        self.picks = list(picks)

    def getrandbits(self, k):
        m = 2 * self.n + 1
        if self.x is not None:
            assert k == m
            x, self.x = self.x, None
            return x
        assert k == m.bit_length()
        if not self.picks:
            raise AssertionError("fix-up asked for a pick that was not scripted")
        pick = self.picks.pop(0)
        assert 0 <= pick < 1 << k, pick
        return pick


@pytest.mark.parametrize("n", range(0, 9))
def test_every_placement_maps_onto_the_class_evenly(n):
    counts = Counter()
    for placement in itertools.combinations(range(2 * n + 1), n):
        # exactly n up-steps: no fix-up may run, so no pick is scripted
        word = sample_av213(n, ScriptedRng(n, placement_bits(n, placement)))
        assert word == placement_word(n, placement), placement
        counts[word] += 1
    assert set(counts) == set(enumerate_av213(n))
    assert set(counts.values()) == {2 * n + 1}


@pytest.mark.parametrize(
    "ups, picks, final",
    [
        # k = n + 2: 3 is a down-step and 4 is picked again after its flip
        ((0, 1, 2, 4, 6, 8, 9), (3, 4, 4, 9), (0, 1, 2, 6, 8)),
        # k = n - 1: 5 is already an up-step
        ((1, 5, 7, 10), (5, 0), (0, 1, 5, 7, 10)),
        # k = n - 1: 11 and 15 fit the 4-bit pick but lie past the 11 steps
        ((1, 5, 7, 10), (11, 15, 0), (0, 1, 5, 7, 10)),
    ],
    ids=["surplus", "deficit", "redrawn"],
)
def test_fixup_skips_picks_of_the_wrong_kind(ups, picks, final):
    n = 5
    rng = ScriptedRng(n, placement_bits(n, ups), picks)
    assert sample_av213(n, rng) == placement_word(n, final)
    assert rng.picks == []


def _fixup_outcomes(n, ups, weight):
    """Every run of the fix-up from the up-step set ``ups``.

    Yields (accepted picks, final up-steps, probability of that run): each
    flip picks uniformly among the cells of the surplus kind, since a
    pick of the other kind changes nothing and is drawn again.
    """
    if len(ups) == n:
        yield (), ups, weight
        return
    cells = ups if len(ups) > n else frozenset(range(2 * n + 1)) - ups
    for i in sorted(cells):
        for picks, final, w in _fixup_outcomes(n, ups ^ {i}, weight / len(cells)):
            yield (i, *picks), final, w


@pytest.mark.parametrize("n", range(0, 5))
def test_fixup_placement_is_exactly_uniform(n):
    m = 2 * n + 1
    mass = Counter()
    for x in range(2**m):
        ups = frozenset(i for i in range(m) if x >> (m - 1 - i) & 1)
        for picks, final, weight in _fixup_outcomes(n, ups, Fraction(1, 2**m)):
            rng = ScriptedRng(n, x, picks)
            assert sample_av213(n, rng) == placement_word(n, final)
            assert rng.picks == []
            mass[final] += weight
    placements = {frozenset(c) for c in itertools.combinations(range(m), n)}
    assert set(mass) == placements
    assert set(mass.values()) == {Fraction(1, math.comb(m, n))}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 40, 1000])
def test_draws_keep_the_randrange_stream(n):
    for seed in (SEED, 5, 11):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(20 if n == 1000 else 200):
            assert sample_av213(n, rng) == reference_draw(n, reference)
            assert rng.getstate() == reference.getstate()


def test_draws_need_no_randrange(monkeypatch):
    reference = random.Random(SEED)
    expected = [reference_draw(40, reference) for _ in range(200)]

    def refuse(self, *args):
        raise AssertionError("sample_av213 called randrange")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    rng = random.Random(SEED)
    assert [sample_av213(40, rng) for _ in range(200)] == expected


def _placements_for_lowest_point(n):
    if n <= 8:
        return itertools.combinations(range(2 * n + 1), n)
    rng = random.Random(SEED + n)
    return (rng.sample(range(2 * n + 1), n) for _ in range(200))


@pytest.mark.parametrize("n", [*range(0, 9), 13, 40, 1000])
def test_table_lowest_point_matches_heights(n):
    # 2n+1 is 1, 3, 5 or 7 mod 8 over these n: every tail padding occurs
    for placement in _placements_for_lowest_point(n):
        expected = first_lowest_point(placement_steps(n, placement))
        assert _lowest_point(placement_bits(n, placement), 2 * n + 1) == expected, placement


def test_one_draw_memory_is_linear():
    n = 20_000
    rng = random.Random(SEED)
    tracemalloc.start()
    try:
        word = sample_av213(n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(word) == n
    assert peak < 80 * n, peak / n


def test_small_class_frequencies_are_flat():
    rng = random.Random(SEED)
    draws = 20_000
    counts = Counter(sample_av213(3, rng) for _ in range(draws))
    assert set(counts) == set(enumerate_av213(3))
    expected = draws / 5
    for word, seen in counts.items():
        assert abs(seen - expected) < 300, (word, seen)


def test_sampler_determinism():
    first = [sample_av213(8, random.Random(42)) for _ in range(20)]
    second = [sample_av213(8, random.Random(42)) for _ in range(20)]
    assert first == second
    different = [sample_av213(8, random.Random(43)) for _ in range(20)]
    assert first != different


def test_report_determinism_is_byte_exact():
    a = json.dumps(empirical_report(12, 200, SEED))
    b = json.dumps(empirical_report(12, 200, SEED))
    assert a == b


def test_report_single_sample():
    report = empirical_report(5, 1, SEED)
    assert report["sample_count"] == 1
    assert all(err == 0.0 for err in report["std_errors"].values())


def test_report_validates_arguments():
    with pytest.raises(ValueError):
        empirical_report(1, 10, SEED)
    with pytest.raises(ValueError):
        empirical_report(5, 0, SEED)
    with pytest.raises(ValueError):
        empirical_report(5, 10, -SEED - 1)


def test_report_matches_exact_expectations_at_n3():
    report = empirical_report(3, 30_000, SEED)
    assert report["mean_h"] == pytest.approx(float(expectations(3)["H"]), abs=0.02)
    # E[#degree-1] / #vertices = (10/5) / 6 = 1/3
    assert report["mean_proportions"][1] == pytest.approx(1 / 3, abs=0.01)
    total = sum(report["mean_proportions"].values())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_report_fields_round_trip_to_json():
    payload = json.loads(json.dumps(empirical_report(6, 50, SEED)))
    assert list(payload) == [
        "n",
        "sample_count",
        "seed",
        "generator",
        "mean_proportions",
        "std_errors",
        "mean_h",
    ]
    assert payload["n"] == 6
    assert payload["sample_count"] == 50
    assert payload["seed"] == SEED
    assert "mt19937" in payload["generator"]
    assert set(payload["mean_proportions"]) == {"0", "1", "2", "3", "4"}
    assert set(payload["std_errors"]) == {"0", "1", "2", "3", "4"}


def test_deep_words_need_no_recursion():
    word = sample_av213(100_000, random.Random(7))
    assert sorted(word) == list(range(1, 100_001))
    assert not contains_213(word)


def test_degree_four_share_grows_with_n():
    shares = []
    for n, count in ((50, 1500), (200, 800), (800, 300)):
        report = empirical_report(n, count, SEED)
        shares.append(report["mean_proportions"][4])
    assert shares[0] < shares[1] < shares[2]


def test_estimator_tracks_exact_proportion():
    n, count = 60, 4000
    report = empirical_report(n, count, SEED)
    exact = float(proportions(n)[4])
    assert abs(report["mean_proportions"][4] - exact) <= 5 * report["std_errors"][4]


def test_mean_proportions_exact_pre_aggregation():
    # rational pre-aggregation keeps the shares summing to one
    report = empirical_report(4, 777, SEED)
    assert sum(report["mean_proportions"].values()) == pytest.approx(1.0, abs=1e-12)


REPIN = "the seeded stream changed: if on purpose, bump sampler.GENERATOR_NAME and re-pin"


def test_seeded_stream_and_sample_report_are_pinned(capsys):
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for n, count in ((40, 100), (1000, 20)):
        for _ in range(count):
            digest.update((" ".join(map(str, sample_av213(n, rng))) + "\n").encode())
    assert digest.hexdigest() == (
        "6d01d082a9bb8923620a5dea3cc201bd3a8030d8a4233ca633387ea10852e14d"
    ), REPIN
    assert main(["sample", "--n", "200", "--count", "50", "--seed", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "3c488f3203542ca51028991406b85b21a3a1a42650bb537055156675f15b098c"
    ), REPIN
