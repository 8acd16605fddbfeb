from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest

from conftest import contains_213
from gridperm import (
    empirical_report,
    enumerate_av213,
    expectations,
    proportions,
    sample_av213,
)

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


class PlacementRng:
    """Stands in for ``random.Random``: ``sample`` returns a fixed placement."""

    def __init__(self, placement):
        self.placement = placement

    def sample(self, population, k):
        assert len(population) == 2 * k + 1 == 2 * len(self.placement) + 1
        return list(self.placement)


@pytest.mark.parametrize("n", range(0, 9))
def test_every_placement_maps_onto_the_class_evenly(n):
    counts = Counter(
        sample_av213(n, PlacementRng(placement))
        for placement in itertools.combinations(range(2 * n + 1), n)
    )
    assert set(counts) == set(enumerate_av213(n))
    assert set(counts.values()) == {2 * n + 1}


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
