"""Exact uniform random generation over Av_n(213) and empirical reports.

A draw marks n up-steps among 2n+1 steps, uniformly over all placements.
By the cycle lemma exactly one of the 2n+1 rotations is a Dyck path
followed by one down-step, so the Dyck path is uniform over the C_n
paths.  Reading the path as stack moves on 1..n (push on an up-step,
pop to the output on a down-step) gives a 312-avoider, one per path;
its reversal is the 213-avoider.

The placement comes from one ``getrandbits(2n+1)``, a uniform subset of
the steps.  A fix-up brings it to exactly n up-steps by flipping bits
of the surplus kind in that integer, each picked uniformly.  The rule
commutes with every permutation of the steps, so the placement stays
exactly uniform (see ``sample_av213``); about sqrt(n/pi) steps are
flipped on average.  A pick is ``getrandbits((2n+1).bit_length())``,
drawn again while it is 2n+1 or more.  These are the very calls that
``randrange(2n+1)`` makes on CPython 3.10 to 3.13, so each seed draws
the words that ``randrange`` picks drew and ``GENERATOR_NAME`` stays as
it is; the stream rests on ``getrandbits`` alone.  The steps are
rendered as a string once, after the fix-up.
The first lowest point of the walk is read off a byte at a time from a
256-entry table.  A draw takes O(n) time and memory, uses no floating
point and needs no recursion.

``empirical_report`` tallies degrees 1 to 4 only.  A degree-0 vertex
is the lone vertex of a height-1 column with no neighbour, which only
the word (1) has; the report needs n >= 2, where ``degree_histogram``
returns a literal 0 for degree 0, so its mean and standard error are
0.0 from a 0 sum.

``random`` is imported in ``empirical_report``, the one place that
seeds a generator, not at module level: it pulls in ``bisect`` and
``_sha512``, which every other CLI call can skip.

The seeded stream is pinned here; a change to this output means a new
``GENERATOR_NAME``:

>>> import random
>>> sample_av213(6, random.Random(1729))
(6, 1, 2, 3, 4, 5)
"""

from __future__ import annotations

import math

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
    at = 0
    for chunk, byte in enumerate(data):
        net, low, first = _CHUNKS[byte]
        if height + low < lowest:
            lowest = height + low
            at = 8 * chunk + first
        height += net
    return at


def sample_av213(n: int, rng: random.Random) -> tuple[int, ...]:
    """One permutation distributed exactly uniformly on Av_n(213).

    ``x = rng.getrandbits(2n+1)`` marks a uniform subset of the steps as
    up-steps: step i is bit 2n - i, 1 up and 0 down.  While it holds
    k != n of them, a position i is drawn uniformly from 0..2n and
    flipped if it is of the surplus kind; a pick of the other kind is
    drawn again.  This rule commutes with every permutation of the 2n+1
    positions and x is uniform, so the result is invariant under the
    symmetric group, which acts transitively on n-subsets: every
    placement of the up-steps is exactly equally likely, and each member
    of the class is the image of exactly 2n+1 placements.  About
    sqrt(n/pi) flips and twice as many picks are expected.

    A pick is ``rng.getrandbits(w)`` with w = (2n+1).bit_length(), drawn
    again while it is 2n+1 or more: the calls that
    ``rng.randrange(2n+1)`` makes on CPython 3.10 to 3.13, so each seed
    draws the words it drew by ``randrange``.  ``rng`` needs only a
    ``getrandbits`` method.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = 2 * n + 1
    getrandbits = rng.getrandbits
    x = getrandbits(m)
    k = x.bit_count()
    if k != n:
        # a surplus step's bit reads 1 if there are too many up-steps
        surplus = 1 if k > n else 0
        flips = abs(k - n)
        w = m.bit_length()
        while flips:
            i = getrandbits(w)
            if i < m and x >> (m - 1 - i) & 1 == surplus:
                x ^= 1 << (m - 1 - i)
                flips -= 1
    # step i is character i: "1" up, "0" down
    steps = bin(x | 1 << m)[3:]
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
        if step == "1":
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
    import random

    rng = random.Random(seed)
    total_vertices = n * (n + 1) // 2
    s1 = s2 = s3 = s4 = 0
    sq1 = sq2 = sq3 = sq4 = 0
    h_sum = 0
    for _ in range(sample_count):
        word = sample_av213(n, rng)
        # degree 0 needs n = 1: the histogram's slot 0 is a literal 0
        (_, c1, c2, c3, c4), h = degree_histogram(word)
        s1 += c1
        s2 += c2
        s3 += c3
        s4 += c4
        sq1 += c1 * c1
        sq2 += c2 * c2
        sq3 += c3 * c3
        sq4 += c4 * c4
        h_sum += h
    sums = (0, s1, s2, s3, s4)
    sums_sq = (0, sq1, sq2, sq3, sq4)
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
