from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_permutations,
    compose,
    contains_213,
    contains_pattern,
    reverse,
)
from gridperm import parse_permutation


def perm_words(n_max):
    return st.integers(min_value=0, max_value=n_max).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
    )


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


@pytest.mark.parametrize("n", range(9))
def test_pattern_duality_under_reversal(n):
    # the linear 213 check on a word against the triple oracle for 312 on
    # its mirror
    for word in all_permutations(n):
        assert contains_213(word) == contains_pattern(reverse(word), (3, 1, 2))


@pytest.mark.parametrize(
    "word, expected",
    [((4, 1, 3, 2), (2, 3, 1, 4)), ((1,), (1,)), ((3, 4, 1, 2), (2, 1, 4, 3))],
)
def test_reverse(word, expected):
    assert reverse(word) == expected


@given(perm_words(8))
def test_reverse_is_an_involution(word):
    assert reverse(reverse(word)) == word


def test_compose_examples():
    assert compose((1,), (2, 1)) == (4, 1, 3, 2)
    assert compose((), ()) == (1,)
    assert compose((1, 2), (1,)) == (3, 4, 1, 2)


def test_compose_rejects_213_blocks():
    with pytest.raises(ValueError):
        compose((2, 1, 3), ())
    with pytest.raises(ValueError):
        compose((), (2, 1, 3))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("4132", (4, 1, 3, 2)),
        ("4,1,3,2", (4, 1, 3, 2)),
        ("4 1 3 2", (4, 1, 3, 2)),
        ("10,1,2,3,4,5,6,7,8,9", (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        ("1", (1,)),
        ("", ()),
        ("4, 1, 3, 2", (4, 1, 3, 2)),
        ("4  1   3 2", (4, 1, 3, 2)),
    ],
)
def test_parse_permutation(text, expected):
    assert parse_permutation(text) == expected


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position 3"):
        parse_permutation("41x2")
    with pytest.raises(ValueError, match="position 2"):
        parse_permutation("4,x,3,2")
    with pytest.raises(ValueError, match="position 4 repeats the value 3"):
        parse_permutation("4,1,3,3")
    # a value past n is named by its position, not echoed
    with pytest.raises(ValueError, match=r"position 2 is outside 1\.\.3$"):
        parse_permutation("1,5,2")
    with pytest.raises(ValueError, match=r"position 1 is outside 1\.\.2$"):
        parse_permutation("31")
    # digits outside ASCII are refused by position, not read as values
    with pytest.raises(ValueError, match="position 1"):
        parse_permutation("\u0662\u0661")  # Arabic-Indic 2, 1
    with pytest.raises(ValueError, match="position 1"):
        parse_permutation("\u00b21")  # superscript 2, then 1
    with pytest.raises(ValueError, match="position 2"):
        parse_permutation("2,\u0661")
    # a doubled, leading or trailing comma is an empty entry, not a separator
    with pytest.raises(ValueError, match="position 3"):
        parse_permutation("1,2,,3")
    with pytest.raises(ValueError, match="position 1"):
        parse_permutation(",1,2")
    with pytest.raises(ValueError, match="position 3"):
        parse_permutation("1,2,")
    # a zero entry is refused by its position in both forms
    with pytest.raises(ValueError, match=r"^bad character '0' at position 2$"):
        parse_permutation("102")
    with pytest.raises(ValueError, match=r"^bad token '0' at position 2$"):
        parse_permutation("1,0")


@given(perm_words(12))
def test_format_parse_round_trip(word):
    assert parse_permutation(",".join(map(str, word))) == word
    assert parse_permutation(" ".join(map(str, word))) == word
    if all(v <= 9 for v in word):
        assert parse_permutation("".join(map(str, word))) == word
