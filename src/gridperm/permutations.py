"""Permutation words on {1..n} and the minimum-position block decomposition.

Permutations are plain tuples of 1-based values, e.g. ``(4, 1, 3, 2)``.
The empty tuple is the length-0 word and is the neutral block for
:func:`compose`.

In a 213-avoiding word every entry left of the 1 exceeds every entry
right of it, so the word factors as ``(alpha + j + 1) 1 (beta + 1)``
with both blocks again 213-avoiding.  :func:`decompose_by_min` and
:func:`compose` are the two directions of that bijection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence


class PatternViolationError(ValueError):
    """Input that was expected to avoid 213 demonstrably contains it."""


def check_permutation(word: Sequence[int]) -> None:
    """Raise ValueError unless ``word`` is a rearrangement of {1, .., len(word)}."""
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {tuple(word)!r}")


def standardize(values: Sequence[int]) -> tuple[int, ...]:
    """Return the permutation order-isomorphic to a word of distinct values.

    >>> standardize((5, 7, 6))
    (1, 3, 2)
    >>> standardize((4,))
    (1,)
    """
    if len(set(values)) != len(values):
        raise ValueError(f"entries must be distinct: {tuple(values)!r}")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def reverse(word: Sequence[int]) -> tuple[int, ...]:
    """Left-right mirror of a word; applying it twice is the identity.

    >>> reverse((4, 1, 3, 2))
    (2, 3, 1, 4)
    """
    return tuple(word[::-1])


def contains_213(word: Sequence[int]) -> bool:
    """Linear-time 213 check via a monotone stack.

    Scans left to right keeping an increasing stack of candidate middle
    values; ``smallest_mid`` tracks the least value known to have a
    smaller entry somewhere to its right.  Any later value above it
    completes the pattern.
    """
    smallest_mid = None
    stack: list[int] = []
    for v in word:
        if smallest_mid is not None and v > smallest_mid:
            return True
        while stack and stack[-1] > v:
            smallest_mid = stack.pop()
        stack.append(v)
    return False


def contains_312(word: Sequence[int]) -> bool:
    """Linear-time 312 check; a word contains 312 iff its mirror contains 213."""
    return contains_213(word[::-1])


@dataclass(frozen=True)
class Decomposition:
    """Blocks of a 213-avoider split at the position of its minimum.

    ``left`` has length ``min_position - 1`` and ``right`` has length
    ``n - min_position``; rebuilding with :func:`compose` restores the
    original word exactly.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    min_position: int


def decompose_by_min(word: Sequence[int]) -> Decomposition:
    """Split a 213-avoiding word at its minimum and standardize the blocks.

    >>> decompose_by_min((4, 1, 3, 2))
    Decomposition(left=(1,), right=(2, 1), min_position=2)
    """
    word = tuple(word)
    if not word:
        raise ValueError("decompose_by_min needs length >= 1")
    if 1 not in word:
        raise ValueError(f"word has no entry 1: {word!r}")
    k = word.index(1) + 1
    left = word[: k - 1]
    right = word[k:]
    if left and right and min(left) < max(right):
        raise PatternViolationError(
            f"entry {min(left)} left of the minimum is below entry "
            f"{max(right)} right of it; {word!r} contains 213"
        )
    j = len(right)
    alpha = tuple(v - j - 1 for v in left)
    beta = tuple(v - 1 for v in right)
    return Decomposition(left=alpha, right=beta, min_position=k)


def compose(alpha: Sequence[int], beta: Sequence[int]) -> tuple[int, ...]:
    """Glue two 213-avoiding blocks around a fresh minimum.

    Returns the word ``(alpha + j + 1) 1 (beta + 1)`` of length
    ``len(alpha) + len(beta) + 1``, which again avoids 213.

    >>> compose((1, 2), (1,))
    (3, 4, 1, 2)
    """
    for name, block in (("alpha", alpha), ("beta", beta)):
        if contains_213(block):
            raise ValueError(f"{name} block contains 213: {tuple(block)!r}")
    j = len(beta)
    return tuple(a + j + 1 for a in alpha) + (1,) + tuple(b + 1 for b in beta)


_SEPARATORS = re.compile(r"[,\s]+")


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse a one-line permutation word.

    Accepts the digit shorthand for n <= 9 ("4132") and comma- or
    space-separated values otherwise ("4,1,3,2" or "10 1 2 ... 9").
    Errors carry the 1-based position of the offending character/token.
    """
    s = text.strip()
    if not s:
        return ()
    if _SEPARATORS.search(s):
        values = []
        for pos, token in enumerate(t for t in _SEPARATORS.split(s) if t):
            if not token.isdigit() or int(token) == 0:
                raise ValueError(f"bad token {token!r} at position {pos + 1}")
            values.append(int(token))
    else:
        values = []
        for pos, ch in enumerate(s):
            if not ch.isdigit() or ch == "0":
                raise ValueError(f"bad character {ch!r} at position {pos + 1}")
            values.append(int(ch))
    word = tuple(values)
    check_permutation(word)
    return word


def format_permutation(word: Sequence[int]) -> str:
    """Inverse of :func:`parse_permutation`: digits for n <= 9, commas beyond."""
    if not word:
        return ""
    if max(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)
