"""Quadratic-time exact dynamic programs for the classwise totals.

Every member of Av_n(213) is a left block of size i, the minimum, and a
right block of size j = n - 1 - i; the left block holds the largest
values.  Each total sums a per-split gluing increment over those
splits: what each block keeps of its own statistic in every word, plus
what the gluing adds.  The increments are kept literally as derived,
the glue terms in one small function each, not algebraically
simplified, so this route shares nothing with the closed-form module
it is checked against.

All five totals come from one pass over n, :func:`gluing_totals`, the
module's only entry point.  What the blocks keep of a total S is the
Catalan convolution 2 sum_i C_{n-1-i} S_i, the 2 x C S term of the
functional equations (1 - 2 x C) S = ... that HFE and Q4FE check.  The
pass counts its own Catalan numbers: C_n is the number of words over
the splits of n, so the module imports no other route.
"""

from __future__ import annotations

from operator import mul, sub

STATISTICS = ("H", "Q4", "D", "J", "P")


def _h_glue(i: int, j: int) -> int:
    """Horizontal edges that gluing adds to each word of split (i, j).

    The left block, lifted by j + 1, gains (i-1)(j+1) edges between its
    own columns; the right block, lifted by 1, gains j - 1; and the
    minimum column ties to each side, each term only when the block is
    long enough.
    """
    glue = 0
    if i >= 2:
        glue += (i - 1) * (j + 1)
    if j >= 2:
        glue += j - 1
    if i >= 1:
        glue += 1
    if j >= 1:
        glue += 1
    return glue


def _q4_shift(i: int, j: int) -> int:
    """Degree-4 vertices that lifting adds to each word of split (i, j).

    Lifting a block by t adds t degree-4 vertices per internal column of
    the block: the left block is lifted by j + 1 and the right block by
    1.  The column holding a block's own minimum gains one fewer when
    that column is internal; the loop subtracts those through J.
    """
    return (j + 1) * (i - 2 if i > 2 else 0) + (j - 2 if j > 2 else 0)


def _descents(i: int, words: int, left_d: int) -> int:
    """D increment of split (i, j): words whose first two entries descend.

    A left block of size 1 (its top value, then the minimum) forces a
    descent in all ``words`` of the split; a longer left block descends
    iff it does itself, which ``left_d`` = C_j D_i counts.
    """
    if i == 1:
        return words
    return left_d if i >= 2 else 0


def _internal_min(i: int, j: int, words: int) -> int:
    """J increment of split (i, j): the minimum is internal iff both blocks are nonempty."""
    return words if i >= 1 and j >= 1 else 0


def _new_peaks(i: int, j: int, left_d: int, right_d: int) -> int:
    """Internal peaks that appear at the minimum in split (i, j).

    The last column of a left block (i >= 2) becomes a peak iff the
    block ends with an ascent, and the first column of a right block
    (j >= 2) iff the block starts with a descent.  Final ascents obey
    D's recurrence with the blocks swapped, so ``left_d`` = C_j D_i
    counts the first kind and ``right_d`` = C_i D_j the second.
    """
    return (left_d if i >= 2 else 0) + (right_d if j >= 2 else 0)


def gluing_totals(n_max: int) -> dict[str, list[int]]:
    """The five gluing sequences for 0 <= n <= n_max, keyed by statistic.

    H: horizontal edges; Q4: degree-4 vertices; D: words whose first
    two entries descend; J: words whose minimum sits strictly inside;
    P: internal-column degree-1 vertices (internal peaks).

    >>> totals = gluing_totals(5)
    >>> totals["H"], totals["Q4"]
    ([0, 0, 2, 14, 76, 374], [0, 0, 0, 0, 8, 77])
    >>> totals["D"], totals["J"], totals["P"]
    ([0, 0, 1, 2, 5, 14], [0, 0, 0, 1, 4, 14], [0, 0, 0, 2, 10, 42])
    """
    cat = [1]  # C_0 .. C_{n-1}; C_n is appended once the words of n are counted
    h, q4, d, jm, p = ([0] * (n_max + 1) for _ in STATISTICS)
    for n in range(1, n_max + 1):
        # entry i of each list belongs to the split (i, j = n - 1 - i)
        i_s, j_s = range(n), range(n - 1, -1, -1)
        cj = cat[n - 1 :: -1]
        # C_i C_j is symmetric in the split: form the first ceil(n/2)
        # products and mirror them
        half = list(map(mul, cat[: (n + 1) // 2], cj))
        words = half + half[: n // 2][::-1]
        cat.append(sum(words))
        # C_j D_i; read backwards it is C_i D_j
        left_d = list(map(mul, cj, d))
        # every word keeps both blocks' own edges, degree-4 vertices
        # (less one at an internal block minimum) and peaks: summed
        # over all splits, sum_i (C_j S_i + C_i S_j) = 2 sum_i C_j S_i
        h[n] = 2 * sum(map(mul, cj, h)) + sum(
            map(mul, words, map(_h_glue, i_s, j_s))
        )
        q4[n] = 2 * sum(map(mul, cj, map(sub, q4, jm))) + sum(
            map(mul, words, map(_q4_shift, i_s, j_s))
        )
        d[n] = sum(map(_descents, i_s, words, left_d))
        jm[n] = sum(map(_internal_min, i_s, j_s, words))
        p[n] = 2 * sum(map(mul, cj, p)) + sum(
            map(_new_peaks, i_s, j_s, left_d, reversed(left_d))
        )
    return dict(zip(STATISTICS, (h, q4, d, jm, p)))
