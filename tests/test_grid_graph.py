from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    adjacency_histogram,
    all_permutations,
    reverse,
)
from gridperm import degree_histogram, render_ascii, sample_av213
from gridperm.cli import main

perm_words = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)
# column profiles beyond permutations: repeated heights, runs of 1s
general_words = st.lists(st.integers(min_value=1, max_value=6), max_size=12).map(tuple)


@pytest.mark.parametrize(
    "word, expected",
    [((1, 2), 1), ((4, 1, 3, 2), 4), ((3, 2, 1), 3), ((1,), 0), ((), 0)],
)
def test_horizontal_edge_count(word, expected):
    assert degree_histogram(word)[1] == expected


def test_degree_histogram_examples():
    assert degree_histogram((1, 2)) == ([0, 2, 1, 0, 0], 1)
    assert degree_histogram((4, 1, 3, 2)) == ([0, 2, 6, 2, 0], 4)
    assert degree_histogram((2, 3, 4, 1))[0][4] == 1
    assert degree_histogram((1,))[0] == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("n", range(2, 9))
def test_histogram_invariants(n):
    total_vertices = n * (n + 1) // 2
    vertical = n * (n - 1) // 2
    for word in all_permutations(n):
        counts, horizontal = degree_histogram(word)
        assert sum(counts) == total_vertices
        assert counts[0] == 0
        degree_total = sum(r * c for r, c in enumerate(counts))
        assert degree_total == 2 * (vertical + horizontal)


@pytest.mark.parametrize("n", range(1, 8))
def test_reversal_isomorphism(n):
    for word in all_permutations(n):
        assert degree_histogram(word) == degree_histogram(reverse(word))


def assert_matches_oracle(word):
    counts, horizontal = degree_histogram(word)
    oracle_counts, oracle_horizontal = adjacency_histogram(word)
    assert dict(enumerate(counts)) == oracle_counts
    assert horizontal == oracle_horizontal


@pytest.mark.parametrize("n", range(1, 8))
def test_fast_histogram_agrees_with_per_vertex_tally(n):
    for word in all_permutations(n):
        assert_matches_oracle(word)


@given(perm_words)
def test_fast_histogram_agrees_on_random_words(word):
    assert_matches_oracle(word)


@given(general_words)
def test_histogram_agrees_on_general_words(word):
    assert_matches_oracle(word)


@pytest.mark.parametrize("word", [(), (1,), (2,), (3,), (7,), (1, 1), (2, 2), (1, 1, 1)])
def test_histogram_agrees_on_short_and_flat_words(word):
    assert_matches_oracle(word)


def test_histogram_agrees_on_every_short_general_word():
    # all 5,461 words of heights 1..4 and length 0..6: ties, plateaus and
    # height-1 columns in every position, the last column included, which
    # the histogram finishes after its loop
    for n in range(7):
        for word in itertools.product(range(1, 5), repeat=n):
            assert_matches_oracle(word)


@pytest.mark.parametrize("n", [40, 200])
def test_histogram_agrees_on_long_sampled_words(n):
    rng = random.Random(n)
    for _ in range(30):
        assert_matches_oracle(sample_av213(n, rng))


# lifting every column by t >= 1 adds t degree-4 vertices per internal
# column, one fewer where that column had height 1: the law behind
# recurrences._q4_shift and its J correction
@given(general_words.filter(lambda w: len(w) >= 2), st.integers(min_value=1, max_value=8))
def test_shift_law(word, t):
    lifted = tuple(v + t for v in word)
    delta = degree_histogram(lifted)[0][4] - degree_histogram(word)[0][4]
    assert delta == t * (len(word) - 2) - word[1:-1].count(1)


def test_render_single_vertex():
    assert render_ascii((1,)) == "o"
    assert render_ascii(()) == ""


def test_render_two_columns():
    assert render_ascii((1, 2)) == "    o\n    |\no---o"
    assert render_ascii((2, 1)) == "o\n|\no---o"


def test_render_mirror_symmetry():
    for word in [(1, 2), (2, 1), (4, 1, 3, 2), (2, 1, 3, 4)]:
        width = 4 * (len(word) - 1) + 1
        mirrored = "\n".join(
            line.ljust(width)[::-1].rstrip()
            for line in render_ascii(word).splitlines()
        )
        assert render_ascii(reverse(word)) == mirrored


def test_render_line_structure():
    art = render_ascii((2, 1, 3, 4)).splitlines()
    assert len(art) == 2 * 4 - 1
    assert art[-1] == "o---o---o---o"


def test_render_refuses_oversized_words():
    with pytest.raises(ValueError):
        render_ascii(tuple(range(1, 42)))


def test_render_drawings_of_small_permutations_are_pinned():
    digest = hashlib.sha256()
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            digest.update(render_ascii(word).encode() + b"\n\n")
    # the drawings of all 873 permutations of length <= 6
    assert digest.hexdigest() == (
        "f2068912415d9bb8b99ed96bbb0dd182126d9c8d4028db49a44bf7cbb341578b"
    )


def test_histogram_json_schema(capsys):
    assert main(["degrees", "4132"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "n": 4,
        "counts": {"0": 0, "1": 2, "2": 6, "3": 2, "4": 0},
        "horizontal_edges": 4,
    }
