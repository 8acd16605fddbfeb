"""Permutation words on {1..n}: validation and parsing.

Permutations are plain tuples of 1-based values, e.g. ``(4, 1, 3, 2)``;
the empty tuple is the length-0 word.
"""

from __future__ import annotations

import re
from collections.abc import Sequence


def check_permutation(word: Sequence[int]) -> None:
    """Raise ValueError unless ``word`` is a rearrangement of {1, .., len(word)}.

    The message names the first entry, by its 1-based position, that is
    outside 1..n or repeats an earlier value; it echoes neither the word
    nor an out-of-range value, so its length is bounded by the digits of n.
    """
    n = len(word)
    seen = set()
    for pos, value in enumerate(word, 1):
        if value in seen or value not in range(1, n + 1):
            problem = f"repeats the value {value}" if value in seen else f"is outside 1..{n}"
            raise ValueError(f"not a permutation of 1..{n}: entry at position {pos} {problem}")
        seen.add(value)


# one comma, or a run of spaces; a doubled, leading or trailing comma leaves
# an empty token, which is refused by its position
_SEPARATORS = re.compile(r"\s*,\s*|\s+")
_TOKEN = re.compile(r"[0-9]+")


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse a one-line permutation word.

    Accepts the digit shorthand for n <= 9 ("4132") and comma- or
    space-separated values otherwise ("4,1,3,2" or "10 1 2 ... 9").
    Only the ASCII digits count as digits, and no entry may be zero.
    Errors carry the 1-based position of the offending character/token.

    >>> parse_permutation("4132")
    (4, 1, 3, 2)
    >>> parse_permutation("10 1 2 3 4 5 6 7 8 9")[:3]
    (10, 1, 2)
    """
    s = text.strip()
    separated = _SEPARATORS.search(s)
    # separated text is split into tokens; the shorthand is one value per character
    tokens = _SEPARATORS.split(s) if separated else s
    kind = "token" if separated else "character"
    values = []
    for pos, token in enumerate(tokens, 1):
        if not _TOKEN.fullmatch(token) or int(token) == 0:
            raise ValueError(f"bad {kind} {token!r} at position {pos}")
        values.append(int(token))
    word = tuple(values)
    check_permutation(word)
    return word
