"""Quadratic-time exact dynamic programs for the classwise totals.

Every member of Av_n(213) is a left block of size i, the minimum, and a
right block of size j = n - 1 - i; the left block holds the largest
values.  Each total sums a per-split gluing increment over those
splits: what each block keeps of its own statistic in every word, plus
what the gluing adds.  What the blocks keep of a total S is the
Catalan convolution 2 sum_i C_{n-1-i} S_i, the 2 x C S term of the
functional equations (1 - 2 x C) S = ... that HFE and Q4FE check.

What the gluing adds is stated once, as derived, in one small glue
function per statistic, not algebraically simplified, so this route
shares nothing with the closed-form module it is checked against.  A
glue is linear in the counts of its split: ``words`` = C_i C_j,
``left_d`` = C_j D_i and ``right_d`` = C_i D_j.  The pass sums each
glue once per n, not split by split.  The edge splits, i < 3 or j < 3,
go through the glue function literally.  On the interior splits each
weight a glue puts on a count is a polynomial in i of degree at most 2.
The pass reads its Newton form off the glue function at i = 3, 4, 5,
checks it at j = 3, 4, raises RuntimeError where the two differ, and
multiplies it by the count's moments over the interior.

All five totals come from one pass over n, :func:`gluing_totals`, the
module's only entry point.  The pass runs as two chains that share
nothing but the Catalan numbers: the glues of H, Q4 and J read only the
words of a split, and D and P need the words and D.  Each chain counts
its own Catalan numbers, C_n being the number of words over the splits
of n, so the module imports no other route.  Where ``os.fork`` exists,
the D, P chain runs in a forked child while the caller runs the other,
so the pass takes two CPUs, and the child sends its sequences back down
a pipe with ``marshal``.  The caller's own peak RSS (RUSAGE_SELF, which
the benchmark's ``peak_rss_mb`` reads) does not count the child's.
"""

from __future__ import annotations

import marshal
import os
import sys
from operator import mul

STATISTICS = ("H", "Q4", "D", "J", "P")
# the pass's two chains; Q4's blocks keep their totals less J, so Q4
# and J share one
CHAINS = (("H", "Q4", "J"), ("D", "P"))
COUNTS = ("words", "left_d", "right_d")
# splits with i < EDGE or j < EDGE are summed literally; so is every
# split of an n with fewer than MIN_INTERIOR splits between them
EDGE = 3
MIN_INTERIOR = 4


def _h_glue(i: int, j: int, words: int, left_d: int, right_d: int) -> int:
    """Horizontal edges that gluing adds to the words of split (i, j).

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
    return glue * words


def _q4_shift(i: int, j: int, words: int, left_d: int, right_d: int) -> int:
    """Degree-4 vertices that lifting adds to the words of split (i, j).

    Lifting a block by t adds t degree-4 vertices per internal column of
    the block: the left block is lifted by j + 1 and the right block by
    1.  The column holding a block's own minimum gains one fewer when
    that column is internal; the pass subtracts those through J.
    """
    return ((j + 1) * (i - 2 if i > 2 else 0) + (j - 2 if j > 2 else 0)) * words


def _descents(i: int, j: int, words: int, left_d: int, right_d: int) -> int:
    """D increment of split (i, j): words whose first two entries descend.

    A left block of size 1 (its top value, then the minimum) forces a
    descent in all ``words`` of the split; a longer left block descends
    iff it does itself, which ``left_d`` = C_j D_i counts.
    """
    if i == 1:
        return words
    return left_d if i >= 2 else 0


def _internal_min(i: int, j: int, words: int, left_d: int, right_d: int) -> int:
    """J increment of split (i, j): the minimum is internal iff both blocks are nonempty."""
    return words if i >= 1 and j >= 1 else 0


def _new_peaks(i: int, j: int, words: int, left_d: int, right_d: int) -> int:
    """Internal peaks that appear at the minimum in split (i, j).

    The last column of a left block (i >= 2) becomes a peak iff the
    block ends with an ascent, and the first column of a right block
    (j >= 2) iff the block starts with a descent.  Final ascents obey
    D's recurrence with the blocks swapped, so ``left_d`` = C_j D_i
    counts the first kind and ``right_d`` = C_i D_j the second.
    """
    return (left_d if i >= 2 else 0) + (right_d if j >= 2 else 0)


def _halve(value: int, what: str, n: int) -> int:
    quotient, remainder = divmod(value, 2)
    if remainder:
        raise RuntimeError(f"{what} over the interior of n = {n} is odd before halving")
    return quotient


def _word_moments(n: int, half: list[int], words: int) -> tuple[int, int, int]:
    """The sums of words x binom(k, r), r = 0, 1, 2, over the interior of n.

    The interior splits are i = EDGE + k for k = 0 .. span, with
    span = n - 1 - 2 EDGE; the mirror i <-> n - 1 - i takes k to
    span - k and keeps the words.  ``words`` is the interior's total and
    ``half`` holds the words of the splits i < ceil(n/2).
    """
    span = n - 1 - 2 * EDGE
    by_k = _halve(span * words, "span x words", n)  # k + (span - k) = span
    # words x k (span - k), also mirror-symmetric: twice the first half
    # of the interior, then its middle split
    by_kk = 2 * sum(
        map(mul, half[EDGE : n // 2], map(mul, range(span + 1), range(span, -1, -1)))
    )
    if n % 2:
        by_kk += half[-1] * (span // 2) ** 2
    by_k2 = span * by_k - by_kk
    return words, by_k, _halve(by_k2 - by_k, "words x k (k - 1)", n)


def _interior_glue(name: str, glue, n: int, moments) -> int:
    """``glue`` summed over the interior splits of n, EDGE <= i, j.

    ``moments`` holds, for each of ``COUNTS``, the sums over the
    interior of that count times binom(k, r), k = i - EDGE, for
    r = 0, 1, ...  A count's weight is read off ``glue`` with that count
    1 and the others 0, at k = 0, 1, 2, as the Newton form
    (g_0, Delta, Delta^2) of a quadratic in k, and checked at
    j = EDGE, EDGE + 1.  A weight off that quadratic, or one that needs
    a moment the count lacks, raises RuntimeError; a count with no
    moments is one the chain does not count, and must weigh 0.
    """
    total = 0
    for count, unit, count_moments in zip(COUNTS, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), moments):
        g0, g1, g2 = (glue(i, n - 1 - i, *unit) for i in range(EDGE, EDGE + 3))
        newton = (g0, g1 - g0, g2 - 2 * g1 + g0)
        for i in (n - 1 - EDGE, n - 2 - EDGE):
            k = i - EDGE
            expected = g0 + newton[1] * k + newton[2] * (k * (k - 1) // 2)
            weight = glue(i, n - 1 - i, *unit)
            if weight != expected:
                raise RuntimeError(
                    f"{name} glue weighs {count} by {weight} at split ({i}, {n - 1 - i}) "
                    f"of n = {n}, not by {expected} as read at i = {EDGE}..{EDGE + 2}"
                )
        if any(newton[len(count_moments) :]):
            raise RuntimeError(
                f"{name} glue weighs {count} by a nonconstant on the interior of "
                f"n = {n}, where the pass sums {count} only in total"
                if count_moments
                else f"{name} glue weighs {count} on the interior of n = {n}, "
                "which its chain does not count"
            )
        total += sum(map(mul, newton, count_moments))
    return total


def _chain(n_max: int, statistics: tuple[str, ...]):
    """One chain of the pass: the sequences of ``statistics``, 0 <= n <= n_max.

    A chain counts C_j D_i and C_i D_j only if it holds D; a chain
    without D checks that its glues weigh neither, at each edge split
    and through the Newton read on the interior.

    Returns (sequences, None), or (None, (n, rank, message)) for the
    chain's first failed check.  rank is -1 for the words' halving
    checks, which every chain makes, and otherwise the statistic's
    place in ``STATISTICS``, so the least failure of the two chains is
    the one a single pass over all five would meet first.
    """
    glues = dict(zip(STATISTICS, (_h_glue, _q4_shift, _descents, _internal_min, _new_peaks)))
    counts_d = "D" in statistics
    cat = [1]  # C_0 .. C_{n-1}; C_n is appended once the words of n are counted
    sequences = {name: [0] * (n_max + 1) for name in STATISTICS}
    d = sequences["D"]
    # every word keeps both blocks' own edges, degree-4 vertices (less
    # one at an internal block minimum) and peaks: summed over all
    # splits, sum_i (C_j S_i + C_i S_j) = 2 sum_i C_j S_i
    kept = {"H": sequences["H"], "Q4": [0] * (n_max + 1), "P": sequences["P"]}
    try:
        for n in range(1, n_max + 1):
            rank = -1
            cj = cat[n - 1 :: -1]  # entry i is C_j of the split (i, j = n - 1 - i)
            # C_i C_j is symmetric in the split: form the first ceil(n/2)
            # products, the words of split i and of its mirror n - 1 - i
            half = list(map(mul, cat[: (n + 1) // 2], cj))
            cat.append(2 * sum(half[: n // 2]) + (half[-1] if n % 2 else 0))
            interior = n - 2 * EDGE >= MIN_INTERIOR
            edges = (*range(EDGE), *range(n - EDGE, n)) if interior else range(n)
            splits = [
                (i, n - 1 - i, half[min(i, n - 1 - i)], cj[i] * d[i], cat[i] * d[n - 1 - i])
                for i in edges
            ]
            if interior:
                words = _word_moments(n, half, cat[n] - sum(split[2] for split in splits))
                # sum_i C_j D_i is the total of left_d and, read backwards,
                # of right_d; the interior is its own mirror, so the two
                # have one interior total
                inner_d = ()
                if counts_d:
                    inner_d = (sum(map(mul, cj, d)) - sum(split[3] for split in splits),)
                moments = (words, inner_d, inner_d)
            for name in statistics:
                rank, glue = STATISTICS.index(name), glues[name]
                if not counts_d:
                    for i, j, *_ in splits:
                        if glue(i, j, 0, 1, 0) or glue(i, j, 0, 0, 1):
                            raise RuntimeError(
                                f"{name} glue weighs left_d or right_d at split ({i}, {j}) "
                                f"of n = {n}, which its chain does not count"
                            )
                total = sum(glue(*split) for split in splits)
                if interior:
                    total += _interior_glue(name, glue, n, moments)
                if name in kept:
                    total += 2 * sum(map(mul, cj, kept[name]))
                sequences[name][n] = total
            kept["Q4"][n] = sequences["Q4"][n] - sequences["J"][n]
    except RuntimeError as error:
        return None, (n, rank, str(error))
    return {name: sequences[name] for name in statistics}, None


def _start_chain(n_max: int, statistics: tuple[str, ...]) -> tuple[int, int]:
    """Forks a child that runs ``_chain(n_max, statistics)``.

    Returns the child's pid and the read end of the pipe down which it
    sends the chain's result with ``marshal``.  The child leaves by
    ``os._exit``, with status 0 once the result is sent: it runs no exit
    handler and flushes none of the stdio buffers it inherited, so text
    the caller had not yet written is written once, by the caller.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            marshal.dump(_chain(n_max, statistics), pipe)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())  # the parent reports only the exit status
    finally:
        os._exit(status)


def gluing_totals(n_max: int) -> dict[str, list[int]]:
    """The five gluing sequences for 0 <= n <= n_max, keyed by statistic.

    H: horizontal edges; Q4: degree-4 vertices; D: words whose first
    two entries descend; J: words whose minimum sits strictly inside;
    P: internal-column degree-1 vertices (internal peaks).

    Each n sums every glue function over the edge splits literally and
    over the interior splits as its Newton form, read off and checked
    against the function itself, times the moments of the split's
    counts: a glue that is not quadratic on the interior raises
    RuntimeError.  A negative ``n_max`` raises ValueError.

    The pass runs as the two ``CHAINS``: H, Q4 and J in this process and,
    where ``os.fork`` exists, D and P in a forked child at the same
    time, else after the first.  Of two failed checks it raises the one
    a single pass over all five would meet first: the smallest n, then
    ``STATISTICS`` order.  A child that ends without sending its
    sequences, say by a signal, raises RuntimeError naming how it
    ended.  The child is reaped before this returns or raises, and
    killed first if this process is leaving early; this process's peak
    RSS does not count the child's.

    >>> totals = gluing_totals(5)
    >>> totals["H"], totals["Q4"]
    ([0, 0, 2, 14, 76, 374], [0, 0, 0, 0, 8, 77])
    >>> totals["D"], totals["J"], totals["P"]
    ([0, 0, 1, 2, 5, 14], [0, 0, 0, 1, 4, 14], [0, 0, 0, 2, 10, 42])
    """
    if n_max < 0:
        raise ValueError(f"n_max={n_max} is negative")
    first, second = CHAINS
    if hasattr(os, "fork"):
        pid, read_end = _start_chain(n_max, second)
        with open(read_end, "rb") as pipe:
            try:
                results = [_chain(n_max, first)]
                sent = pipe.read()
            except BaseException:
                # the child may be blocked on a full pipe that no one will
                # read; signal is imported only here, as the CLI's start-up
                # need not load it
                import signal

                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(
                f"the child process counting {' and '.join(second)} {how} "
                "before it sent its sequences"
            )
        results.append(marshal.loads(sent))
    else:
        results = [_chain(n_max, chain) for chain in CHAINS]
    failures = [failure for _, failure in results if failure]
    if failures:
        raise RuntimeError(min(failures)[2])
    totals = {**results[0][0], **results[1][0]}
    return {name: totals[name] for name in STATISTICS}
