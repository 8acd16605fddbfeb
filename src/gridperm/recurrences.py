"""Quadratic-time exact dynamic programs for the classwise totals.

Every member of Av_n(213) is a left block of size i, the minimum, and a
right block of size j = n - 1 - i; the left block holds the largest
values.  Each total sums a per-split gluing increment over those
splits: what each block keeps of its own statistic in every word, plus
what the gluing adds.  The increments are kept literally as derived,
the glue terms in one small function each, not algebraically
simplified, so this route shares nothing with the closed-form module
it is checked against.

All five totals come from one pass over (n, i), :func:`gluing_totals`,
the module's only entry point.  A split (i, j) and its mirror (j, i)
hold the same two blocks, so the pass takes them together: each block
product (C_j times a statistic of the size-i block, and C_i times one
of the size-j block) is formed once and serves both splits.
"""

from __future__ import annotations

from .enumeration import catalan_list

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
    cat = catalan_list(max(n_max, 0))
    h, q4, d, jm, p = ([0] * (n_max + 1) for _ in STATISTICS)
    for n in range(1, n_max + 1):
        h_n = q4_n = d_n = j_n = p_n = 0
        for i in range((n + 1) // 2):
            j = n - 1 - i
            ci, cj = cat[i], cat[j]
            words = ci * cj
            # block products: each block's statistic summed over the
            # C_i C_j words of the split, formed once for the split (i, j)
            # and its mirror (j, i), which holds the same two blocks
            h_i, h_j = cj * h[i], ci * h[j]
            q4_i, q4_j = cj * q4[i], ci * q4[j]
            d_i, d_j = cj * d[i], ci * d[j]
            j_i, j_j = cj * jm[i], ci * jm[j]
            p_i, p_j = cj * p[i], ci * p[j]
            mirror = 1 if i != j else 0
            splits = 1 + mirror
            # every word keeps both blocks' own edges, degree-4 vertices
            # (less one at an internal block minimum) and peaks, in
            # either order; the glue terms depend on the order
            h_n += splits * (h_i + h_j) + words * (
                _h_glue(i, j) + mirror * _h_glue(j, i)
            )
            q4_n += splits * (q4_i + q4_j - j_i - j_j) + words * (
                _q4_shift(i, j) + mirror * _q4_shift(j, i)
            )
            d_n += _descents(i, words, d_i)
            if mirror:
                d_n += _descents(j, words, d_j)
            j_n += splits * _internal_min(i, j, words)
            p_n += splits * (p_i + p_j + _new_peaks(i, j, d_i, d_j))
        h[n], q4[n], d[n], jm[n], p[n] = h_n, q4_n, d_n, j_n, p_n
    return dict(zip(STATISTICS, (h, q4, d, jm, p)))

