from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import adjacency_degrees, adjacency_histogram, all_permutations
from gridperm import (
    deg1_external_count,
    degree_histogram,
    render_ascii,
    reverse,
)

perm_words = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)


def deg4_count_internal(a, b, c):
    """Degree-4 vertices in an internal column of height b between heights a, c."""
    return max(0, min(a, c, b - 1) - 1)


@pytest.mark.parametrize(
    "word, expected",
    [((1, 2), 1), ((4, 1, 3, 2), 4), ((3, 2, 1), 3), ((1,), 0), ((), 0)],
)
def test_horizontal_edge_count(word, expected):
    assert degree_histogram(word).horizontal_edges == expected


def test_degree_histogram_examples():
    hist = degree_histogram((1, 2))
    assert hist.counts == {0: 0, 1: 2, 2: 1, 3: 0, 4: 0}
    assert hist.horizontal_edges == 1
    hist = degree_histogram((4, 1, 3, 2))
    assert hist.counts == {0: 0, 1: 2, 2: 6, 3: 2, 4: 0}
    assert hist.horizontal_edges == 4
    assert degree_histogram((2, 3, 4, 1)).counts[4] == 1
    assert degree_histogram((1,)).counts == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}


@pytest.mark.parametrize("n", range(1, 7))
def test_histogram_matches_adjacency_oracle(n):
    for word in all_permutations(n):
        hist = degree_histogram(word)
        counts, horizontal = adjacency_histogram(word)
        assert hist.counts == counts
        assert hist.horizontal_edges == horizontal


@pytest.mark.parametrize("n", range(2, 9))
def test_histogram_invariants(n):
    total_vertices = n * (n + 1) // 2
    vertical = n * (n - 1) // 2
    for word in all_permutations(n):
        hist = degree_histogram(word)
        assert sum(hist.counts.values()) == total_vertices
        assert hist.counts[0] == 0
        degree_total = sum(r * c for r, c in hist.counts.items())
        assert degree_total == 2 * (vertical + hist.horizontal_edges)


@pytest.mark.parametrize("n", range(1, 8))
def test_reversal_isomorphism(n):
    for word in all_permutations(n):
        mirrored = degree_histogram(reverse(word))
        hist = degree_histogram(word)
        assert hist.counts == mirrored.counts
        assert hist.horizontal_edges == mirrored.horizontal_edges


def assert_matches_oracle(word):
    hist = degree_histogram(word)
    counts, horizontal = adjacency_histogram(word)
    assert hist.counts == counts
    assert hist.horizontal_edges == horizontal


@pytest.mark.parametrize("n", range(1, 8))
def test_fast_histogram_agrees_with_per_vertex_tally(n):
    for word in all_permutations(n):
        assert_matches_oracle(word)


@given(perm_words)
def test_fast_histogram_agrees_on_random_words(word):
    assert_matches_oracle(word)


@pytest.mark.parametrize(
    "triple, expected",
    [((2, 3, 4), 1), ((1, 5, 9), 0), ((1, 2, 1), 0), ((4, 4, 4), 2), ((3, 9, 3), 2)],
)
def test_deg4_count_internal(triple, expected):
    assert deg4_count_internal(*triple) == expected


@pytest.mark.parametrize("n", range(3, 8))
def test_deg4_count_matches_per_column_tally(n):
    for word in all_permutations(n):
        degree = adjacency_degrees(word)
        for i in range(2, n):
            column_deg4 = sum(
                degree[(i, s)] == 4 for s in range(1, word[i - 1] + 1)
            )
            assert column_deg4 == deg4_count_internal(
                word[i - 2], word[i - 1], word[i]
            )


def test_shift_law():
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                for t in range(1, 5):
                    delta = deg4_count_internal(a + t, b + t, c + t) - deg4_count_internal(a, b, c)
                    assert delta == (t if b >= 2 else t - 1)


@pytest.mark.parametrize(
    "word, expected",
    [((2, 1), 2), ((1, 2), 2), ((4, 1, 3, 2), 1), ((2, 3, 4, 1), 1), ((3, 1, 2), 2)],
)
def test_deg1_external_count(word, expected):
    assert deg1_external_count(word) == expected


def test_deg1_external_count_needs_two_columns():
    with pytest.raises(ValueError):
        deg1_external_count((1,))


@pytest.mark.parametrize("n", range(2, 8))
def test_deg1_external_matches_boundary_columns(n):
    for word in all_permutations(n):
        degree = adjacency_degrees(word)
        boundary = sum(
            degree[(column, s)] == 1
            for column in (1, n)
            for s in range(1, word[column - 1] + 1)
        )
        assert deg1_external_count(word) == boundary


def test_render_single_vertex():
    assert render_ascii((1,)) == "o"


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


def test_histogram_json_schema():
    payload = degree_histogram((4, 1, 3, 2)).to_json_dict()
    assert payload == {
        "n": 4,
        "counts": {"0": 0, "1": 2, "2": 6, "3": 2, "4": 0},
        "horizontal_edges": 4,
    }
