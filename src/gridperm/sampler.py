"""Exact uniform random generation over Av_n(213) and empirical reports.

A draw marks n up-steps among 2n+1 steps, uniformly over all placements.
By the cycle lemma exactly one of the 2n+1 rotations is a Dyck path
followed by one down-step, so the Dyck path is uniform over the C_n
paths.  Reading the path as stack moves on 1..n (push on an up-step,
pop to the output on a down-step) gives a 312-avoider, one per path;
its reversal is the 213-avoider.

The placement comes from one ``getrandbits(2n+1)``, a uniform subset of
the steps.  A fix-up brings it to exactly n up-steps by flipping steps
of the surplus kind, each picked uniformly.  The rule commutes with
every permutation of the steps, so the placement stays exactly uniform
(see ``sample_av213``); about sqrt(n/pi) steps are flipped on average.
The first lowest point of the walk is read off a byte at a time from a
256-entry table.  A draw takes O(n) time and memory, uses no floating
point and needs no recursion.

The seeded stream is pinned here; a change to this output means a new
``GENERATOR_NAME``:

>>> import random
>>> sample_av213(6, random.Random(1729))
(6, 1, 2, 3, 4, 5)
"""

from __future__ import annotations

import math
import random
from operator import add, mul

from .grid_graph import degree_histogram

# names the seeded stream: bump it whenever a seed draws other words
GENERATOR_NAME = (
    "getrandbits placement + fix-up, cycle lemma + stack word, mt19937 (random.Random)"
)


def _chunk_walk(byte: int) -> tuple[int, int, int]:
    """(net height, lowest prefix height, first index of it) of 8 steps.

    The steps are the bits of ``byte``, most significant first, 1 up and
    0 down; the lowest prefix height is taken after each step.
    """
    height = first = 0
    lowest = 9  # above every height of 8 steps
    for k in range(8):
        height += 1 if byte >> (7 - k) & 1 else -1
        if height < lowest:
            lowest, first = height, k
    return height, lowest, first


_CHUNKS = tuple(map(_chunk_walk, range(256)))


def _lowest_point(x: int, m: int) -> int:
    """Index of the first lowest prefix height of the m-step walk ``x``.

    Step i is bit m-1-i of ``x`` (1 up, 0 down), and height i is taken
    after step i.  The tail is padded to whole bytes with up-steps, which
    never reach a new low.
    """
    pad = -m % 8
    data = ((x << pad) | ((1 << pad) - 1)).to_bytes((m + pad) // 8, "big")
    height = 0
    lowest = m
    at = base = 0
    for byte in data:
        net, low, first = _CHUNKS[byte]
        if height + low < lowest:
            lowest = height + low
            at = base + first
        height += net
        base += 8
    return at


def sample_av213(n: int, rng: random.Random) -> tuple[int, ...]:
    """One permutation distributed exactly uniformly on Av_n(213).

    ``x = rng.getrandbits(2n+1)`` marks a uniform subset of the steps as
    up-steps.  While it holds k != n of them, one position is drawn by
    ``rng.randrange(2n+1)`` and flipped if it is of the surplus kind; a
    pick of the other kind is drawn again.  This rule commutes with
    every permutation of the 2n+1 positions and x is uniform, so the
    result is invariant under the symmetric group, which acts
    transitively on n-subsets: every placement of the up-steps is
    exactly equally likely, and each member of the class is the image of
    exactly 2n+1 placements.  About sqrt(n/pi) flips and twice as many
    picks are expected.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = 2 * n + 1
    x = rng.getrandbits(m)
    # step i is the character of bit m-1-i: "1" (49) up, "0" (48) down
    steps = bytearray(format(x, f"0{m}b"), "ascii")
    k = x.bit_count()
    if k != n:
        surplus, other = (49, 48) if k > n else (48, 49)
        flips = abs(k - n)
        while flips:
            i = rng.randrange(m)
            if steps[i] == surplus:
                steps[i] = other
                flips -= 1
        x = int(steps, 2)
    # the path starts just after the first lowest point; the last
    # step of the rotation, steps[start - 1], is the trailing down-step
    start = _lowest_point(x, m) + 1
    stack = []
    push = stack.append
    pop = stack.pop
    word = []
    emit = word.append
    value = 0
    for step in steps[start:] + steps[: start - 1]:
        if step == 49:
            value += 1
            push(value)
        else:
            emit(pop())
    word.reverse()
    return tuple(word)


def empirical_report(n: int, sample_count: int, seed: int) -> dict:
    """Sample degree histograms and aggregate the proportions.

    Returns the keys ``n``, ``sample_count``, ``seed``, ``generator``,
    ``mean_proportions`` and ``std_errors`` (each keyed by degree 0..4)
    and ``mean_h``, in that order.  Counts are accumulated as integers
    and only converted to floats at the end, so the report is a pure
    function of (n, sample_count, seed).
    """
    if n < 2:
        raise ValueError("empirical_report needs n >= 2")
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative: random.Random(-s) seeds like Random(s)")
    rng = random.Random(seed)
    total_vertices = n * (n + 1) // 2
    sums = [0] * 5
    sums_sq = [0] * 5
    h_sum = 0
    for _ in range(sample_count):
        word = sample_av213(n, rng)
        counts, h = degree_histogram(word)
        sums = list(map(add, sums, counts))
        sums_sq = list(map(add, sums_sq, map(mul, counts, counts)))
        h_sum += h
    means = {}
    errors = {}
    for r in range(5):
        means[r] = sums[r] / (sample_count * total_vertices)
        if sample_count > 1:
            # variance of the per-sample proportion: integer numerator
            # and denominator, one correctly rounded division
            var = (sample_count * sums_sq[r] - sums[r] ** 2) / (
                sample_count * (sample_count - 1) * total_vertices**2
            )
            errors[r] = math.sqrt(max(0.0, var) / sample_count)
        else:
            errors[r] = 0.0
    return {
        "n": n,
        "sample_count": sample_count,
        "seed": seed,
        "generator": GENERATOR_NAME,
        "mean_proportions": means,
        "std_errors": errors,
        "mean_h": h_sum / sample_count,
    }
