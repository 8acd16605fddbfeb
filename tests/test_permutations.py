from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PatternViolationError,
    all_permutations,
    compose,
    contains_213,
    contains_312,
    contains_pattern,
    decompose_by_min,
    format_permutation,
    reverse,
    standardize,
)
from gridperm import enumerate_av213, parse_permutation

perm_words = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)


@pytest.mark.parametrize(
    "values, expected",
    [
        ((3, 2), (2, 1)),
        ((4,), (1,)),
        ((5, 7, 6), (1, 3, 2)),
        ((), ()),
        ((10, 2, 30, 4), (3, 1, 4, 2)),
    ],
)
def test_standardize(values, expected):
    assert standardize(values) == expected


def test_standardize_rejects_duplicates():
    with pytest.raises(ValueError):
        standardize((3, 1, 3))


@given(st.lists(st.integers(min_value=1, max_value=10**6), unique=True, max_size=20))
def test_standardize_preserves_order(values):
    result = standardize(values)
    assert sorted(result) == list(range(1, len(values) + 1))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert (values[i] < values[j]) == (result[i] < result[j])


@pytest.mark.parametrize(
    "word, pattern, expected",
    [
        ((2, 1, 3, 4), (2, 1, 3), True),
        ((4, 1, 3, 2), (2, 1, 3), False),
        ((1, 2, 3), (2, 1, 3), False),
        ((3, 4, 1, 2), (3, 1, 2), True),
        ((), (2, 1, 3), False),
    ],
)
def test_contains_pattern(word, pattern, expected):
    assert contains_pattern(word, pattern) is expected


def test_contains_pattern_rejects_bad_patterns():
    with pytest.raises(ValueError):
        contains_pattern((1, 2, 3), (2, 1))
    with pytest.raises(ValueError):
        contains_pattern((1, 2, 3), (1, 2, 2))


@pytest.mark.parametrize("n", range(9))
def test_linear_checks_agree_with_oracle(n):
    for word in all_permutations(n):
        assert contains_213(word) == contains_pattern(word, (2, 1, 3))
        assert contains_312(word) == contains_pattern(word, (3, 1, 2))


@pytest.mark.parametrize("n", range(9))
def test_pattern_duality_under_reversal(n):
    for word in all_permutations(n):
        assert contains_213(word) == contains_312(reverse(word))


@pytest.mark.parametrize(
    "word, expected",
    [((4, 1, 3, 2), (2, 3, 1, 4)), ((1,), (1,)), ((3, 4, 1, 2), (2, 1, 4, 3))],
)
def test_reverse(word, expected):
    assert reverse(word) == expected


@given(perm_words)
def test_reverse_is_an_involution(word):
    assert reverse(reverse(word)) == word


def test_decompose_examples():
    d = decompose_by_min((4, 1, 3, 2))
    assert (d.left, d.right, d.min_position) == ((1,), (2, 1), 2)
    d = decompose_by_min((1,))
    assert (d.left, d.right, d.min_position) == ((), (), 1)
    d = decompose_by_min((2, 3, 4, 1))
    assert (d.left, d.right, d.min_position) == ((1, 2, 3), (), 4)


def test_decompose_detects_213():
    with pytest.raises(PatternViolationError):
        decompose_by_min((2, 1, 3, 4))
    with pytest.raises(ValueError):
        decompose_by_min(())


def test_compose_examples():
    assert compose((1,), (2, 1)) == (4, 1, 3, 2)
    assert compose((), ()) == (1,)
    assert compose((1, 2), (1,)) == (3, 4, 1, 2)


def test_compose_rejects_213_blocks():
    with pytest.raises(ValueError):
        compose((2, 1, 3), ())
    with pytest.raises(ValueError):
        compose((), (2, 1, 3))


@pytest.mark.parametrize("n", range(1, 11))
def test_round_trip_decompose_compose(n):
    for word in enumerate_av213(n):
        d = decompose_by_min(word)
        assert compose(d.left, d.right) == word


def test_round_trip_compose_decompose():
    blocks = [w for n in range(5) for w in enumerate_av213(n)]
    for alpha in blocks:
        for beta in blocks:
            d = decompose_by_min(compose(alpha, beta))
            assert (d.left, d.right) == (alpha, beta)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("4132", (4, 1, 3, 2)),
        ("4,1,3,2", (4, 1, 3, 2)),
        ("4 1 3 2", (4, 1, 3, 2)),
        ("10,1,2,3,4,5,6,7,8,9", (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        ("1", (1,)),
        ("", ()),
    ],
)
def test_parse_permutation(text, expected):
    assert parse_permutation(text) == expected


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position 3"):
        parse_permutation("41x2")
    with pytest.raises(ValueError, match="position 2"):
        parse_permutation("4,x,3,2")
    with pytest.raises(ValueError):
        parse_permutation("4,1,3,3")
    # digits outside ASCII are refused by position, not read as values
    with pytest.raises(ValueError, match="position 1"):
        parse_permutation("\u0662\u0661")  # Arabic-Indic 2, 1
    with pytest.raises(ValueError, match="position 1"):
        parse_permutation("\u00b21")  # superscript 2, then 1
    with pytest.raises(ValueError, match="position 2"):
        parse_permutation("2,\u0661")


@given(perm_words)
def test_format_parse_round_trip(word):
    assert parse_permutation(format_permutation(word)) == word


def test_format_uses_commas_beyond_nine():
    word = tuple(range(1, 11))
    assert format_permutation(word) == "1,2,3,4,5,6,7,8,9,10"
    assert format_permutation((4, 1, 3, 2)) == "4132"
