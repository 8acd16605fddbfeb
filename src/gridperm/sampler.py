"""Exact uniform random generation over Av_n(213) and empirical reports.

A draw marks n up-steps among 2n+1 steps, uniformly over all placements.
By the cycle lemma exactly one of the 2n+1 rotations is a Dyck path
followed by one down-step, so the Dyck path is uniform over the C_n
paths.  Reading the path as stack moves on 1..n (push on an up-step,
pop to the output on a down-step) gives a 312-avoider, one per path;
its reversal is the 213-avoider.  A draw takes O(n) time and memory,
uses no big integers and no floating point, and needs no recursion.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate

from .grid_graph import degree_histogram

GENERATOR_NAME = "cycle lemma + stack word, mt19937 (random.Random)"


def sample_av213(n: int, rng: random.Random) -> tuple[int, ...]:
    """One permutation distributed exactly uniformly on Av_n(213).

    ``rng.sample`` draws through ``_randbelow``, so every placement of
    the up-steps is exactly equally likely, and each member of the class
    is the image of exactly 2n+1 placements.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = [-1] * (2 * n + 1)
    for i in rng.sample(range(2 * n + 1), n):
        steps[i] = 1
    # the path starts just after the first lowest point; the last
    # step of the rotation, steps[start - 1], is the trailing down-step
    heights = list(accumulate(steps))
    start = heights.index(min(heights)) + 1
    stack = []
    word = []
    value = 0
    for step in steps[start:] + steps[: start - 1]:
        if step > 0:
            value += 1
            stack.append(value)
        else:
            word.append(stack.pop())
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
    rng = random.Random(seed)
    total_vertices = n * (n + 1) // 2
    sums = [0] * 5
    sums_sq = [0] * 5
    h_sum = 0
    for _ in range(sample_count):
        word = sample_av213(n, rng)
        counts, h = degree_histogram(word)
        for r, c in enumerate(counts):
            sums[r] += c
            sums_sq[r] += c * c
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
