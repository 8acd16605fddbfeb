"""Exact dynamic programs for the classwise totals.

Every member of Av_n(213) is a left block of size i, the minimum, and a
right block of size j = n - 1 - i; the left block holds the largest
values.  Each total sums a per-split gluing increment over those
splits: what each block keeps of its own statistic in every word, plus
what the gluing adds.  What the blocks keep of a total S is the
Catalan convolution 2 sum_i C_{n-1-i} S_i, the 2 x C S term of the
functional equations (1 - 2 x C) S = ... that HFE and Q4FE check.
Each such convolution is summed online by ``_online_product``, a term
per n, in Karatsuba blocks: O(n^1.59) big products up to n.  Only the
words' half products, counted split by split, take O(n^2).

What the gluing adds is stated once, as derived, in one small glue
function per statistic, not algebraically simplified, so this route
shares nothing with the closed-form module it is checked against.  A
glue is linear in the counts of its split, as ``COUNTS`` declares them:
``words`` = C_i C_j, ``left_d`` = D_i C_j and ``right_d`` = C_i D_j.
The pass sums each glue once per n, not split by split.  The edge
splits, i < 3 or j < 3, go through the glue function literally.  On the
interior splits each weight a glue puts on a count is a polynomial in i
of degree at most 2.  The pass reads its Newton form off the glue
function at i = 3, 4, 5, checks it at j = 3, 4, raises RuntimeError
where the two differ, and multiplies it by the count's interior moments.

All five totals come from one pass over n, :func:`gluing_stream`,
which yields each n's totals once they are final; :func:`gluing_totals`
collects it into sequences.  The pass counts the words of each n once,
in ``_words``: the half products C_i C_j, C_n as their mirrored sum and
the interior's three word moments, with the halving checks.  Those feed
two chains that share nothing else: H, Q4 and J hold only C, so count
only the words, and D and P hold D too.  A glue weighs only the counts
its chain holds.  Each chain grows its own Catalan numbers from the C_n
it is given, so the module imports no other route.
Where ``os.fork`` exists, the words and the D, P chain run in a forked
child while the caller runs the other chain, so the pass takes two
CPUs.  Per n the child sends two messages down a pipe, each a
``marshal`` dump after its length and flushed at once: first the words
of n, then its D and P.  So the caller sums H, Q4 and J of n while the
child sums D and P of n, and the caller's rows of n are written while
the child counts n + 1.  Without ``os.fork`` the caller reads the same
messages straight from the generator the child sends them from.  Every
check raises RuntimeError where it fails; the child sends the message
of its failed check in place of the message it stops, and the caller
raises it.  So within one n both transports report in ``CHAINS``
order: the words, then H, Q4 and J, then D and P.  The child's whole
life, from the fork to its ``os._exit`` and its reaping, reads top to
bottom in :func:`gluing_stream`.  The caller's own peak RSS
(RUSAGE_SELF, which the benchmark's ``peak_rss_mb`` reads) does not
count the child's.
"""

from __future__ import annotations

import marshal
import os
import sys
from operator import add, mul

STATISTICS = ("H", "Q4", "D", "J", "P")
# the pass's two chains; Q4's blocks keep their totals less J, so Q4
# and J share one
CHAINS = (("H", "Q4", "J"), ("D", "P"))
# the counts a glue takes, in order, each the left block's sequence at
# i times the right block's at j; UNITS sets one count to 1
COUNTS = {"words": ("C", "C"), "left_d": ("D", "C"), "right_d": ("C", "D")}
UNITS = {count: tuple(int(other == count) for other in COUNTS) for count in COUNTS}
UNHELD = "{} glue weighs {} {} of n = {}, which its chain does not count"
# splits with i < EDGE or j < EDGE are summed literally; so is every
# split of an n with fewer than MIN_INTERIOR splits between them
EDGE = 3
MIN_INTERIOR = 4
# an online product sums its pairs with a factor's index below DIRECT
# term by term, and multiplies the others in squares of side DIRECT and
# up, by Karatsuba down to SCHOOLBOOK terms
DIRECT = 32
SCHOOLBOOK = 8


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
    iff it does itself, which ``left_d`` = D_i C_j counts.
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
    D's recurrence with the blocks swapped, so ``left_d`` = D_i C_j
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

    ``moments`` holds, by the sequences of each count the chain holds,
    the sums over the interior of that count times binom(k, r),
    k = i - EDGE, r = 0, 1, ...  A count's weight is read off ``glue``
    at its ``UNITS`` at k = 0, 1, 2, as the Newton form
    (g_0, Delta, Delta^2) of a quadratic in k, and checked at
    j = EDGE, EDGE + 1.  RuntimeError is raised for a weight off that
    quadratic, needing a moment the count lacks, or on an unheld count.
    """
    total = 0
    for count, unit in UNITS.items():
        count_moments = moments.get(COUNTS[count], ())
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
            if not count_moments:
                raise RuntimeError(UNHELD.format(name, count, "on the interior", n))
            raise RuntimeError(
                f"{name} glue weighs {count} by a nonconstant on the interior of "
                f"n = {n}, where the pass sums {count} only in total"
            )
        total += sum(map(mul, newton, count_moments))
    return total


def _words(n_max: int):
    """The words of each n, 1 <= n <= n_max, counted once for both chains.

    Yields (n, C_n, moments): C_n is the sum of the split products
    C_i C_j, and ``moments`` the interior's word moments, or None for an
    n summed wholly split by split.  A failed halving check raises
    RuntimeError.
    """
    cat = [1]  # C_0 .. C_{n-1}; C_n is appended once the words of n are counted
    for n in range(1, n_max + 1):
        # C_i C_j is symmetric in the split: form the first ceil(n/2)
        # products, the words of split i and of its mirror n - 1 - i
        half = list(map(mul, cat[: (n + 1) // 2], reversed(cat)))
        cat.append(2 * sum(half[: n // 2]) + (half[-1] if n % 2 else 0))
        moments = None
        if n - 2 * EDGE >= MIN_INTERIOR:
            # the edge splits are i < EDGE and their mirrors
            moments = _word_moments(n, half, cat[n] - 2 * sum(half[:EDGE]))
        yield n, cat[n], moments


def _karatsuba(a: list[int], b: list[int], limit: int) -> list[int]:
    """The first ``limit`` coefficients of the product of sequences a and b.

    a and b have one length, a power of two.  Down to ``SCHOOLBOOK``
    terms the product is Karatsuba's: with a = a0 + x^h a1 and
    b = b0 + x^h b1 it is a0 b0 + x^h ((a0 + a1)(b0 + b1) - a0 b0 - a1 b1)
    + x^2h a1 b1, each half product itself cut off where the result is.
    """
    size = len(a)
    if size <= SCHOOLBOOK:
        # coefficient k is a's head against b's head reversed while
        # k < size, then a's tail against all of b reversed
        last, rb = size - 1, b[::-1]
        product = [sum(map(mul, a, rb[last - k :])) for k in range(min(limit, size))]
        for k in range(size, min(limit, 2 * size - 1)):
            product.append(sum(map(mul, a[k - last :], rb)))
        return product
    half = size // 2
    low = _karatsuba(a[:half], b[:half], limit)
    if limit <= half:
        return low
    high = _karatsuba(a[half:], b[half:], limit - half)
    mid = _karatsuba(
        list(map(add, a[:half], a[half:])), list(map(add, b[:half], b[half:])), limit - half
    )
    product = [*low, *[0] * (2 * half - len(low)), *high]
    del product[limit:]
    for k, (both, low_k, high_k) in enumerate(zip(mid, low, high), half):
        product[k] += both - low_k - high_k
    return product


def _online_product(f: list[int], g: list[int], limit: int):
    """The convolution h = f g of two growing sequences, a term at a time.

    Returns ``term``: ``term(t)`` is h_t = sum_i f_i g_(t-i), called for
    t = 0, 1, ... < ``limit`` in turn once f[t] and g[t] are known.  f
    and g are read where they are, the caller's own lists, not copied.
    The pairs (i, j) with i or j below ``DIRECT`` are summed when h_t is
    due, as two short dot products.  Every other pair lies in one square
    of side b, a power of two: i in [b, 2b) and j in [l, l + b) with
    l >= 2b a multiple of b, its transpose, or i and j in [b, 2b).  A
    square is multiplied by ``_karatsuba`` as soon as its last term is
    known, and added, cut off at ``limit``, into the sums of the later
    terms it feeds, each of which is dropped once read.  So it holds
    nothing for the terms it has not reached, whatever ``limit`` is.
    """
    later = {}  # the finished squares' sums, by the term they feed

    def term(t: int) -> int:
        small = min(t + 1, DIRECT)
        total = later.pop(t, 0) + sum(map(mul, f[:small], reversed(g[t + 1 - small : t + 1])))
        if t >= DIRECT:
            small = min(t + 1 - DIRECT, DIRECT)
            total += sum(map(mul, g[:small], reversed(f[t + 1 - small : t + 1])))
        # the squares whose last term is t: side b divides t + 1 >= 2b
        end, side = t + 1, DIRECT
        while end % side == 0 and 2 * side <= end < limit:
            other = end - side
            for i, j in [(side, side)] if other == side else [(side, other), (other, side)]:
                # the square's product is freed before the next is formed
                for k, coefficient in enumerate(
                    _karatsuba(f[i : i + side], g[j : j + side], limit - end), end
                ):
                    later[k] = later.get(k, 0) + coefficient
            side *= 2
        return total

    return term


def _chain(statistics: tuple[str, ...], n_max: int):
    """One chain of the pass, as a step over the words of n = 1, 2, ...

    ``step(n, catalan, moments)`` takes a record of ``_words`` and
    returns the chain's totals at n keyed by statistic; its first failed
    check raises RuntimeError.

    The chain holds C, grown by each record's C_n, and those of its
    statistics that ``COUNTS`` reads.  On the interior it takes the
    words' moments from the record and any other count's total from one
    online product per mirror pair, read at each n up to ``n_max``.  A
    count it does not hold must weigh 0.
    """
    glues = dict(zip(STATISTICS, (_h_glue, _q4_shift, _descents, _internal_min, _new_peaks)))
    read = {name for pair in COUNTS.values() for name in pair}
    seqs = {"C": [1], **{name: [0] for name in statistics if name in read}}
    held = {count: pair for count, pair in COUNTS.items() if seqs.keys() >= set(pair)}
    unheld = [(count, unit) for count, unit in UNITS.items() if count not in held]
    # a count and its mirror have one interior total, as the interior is
    # its own mirror; the words' comes with the record
    products = {}
    for pair in held.values():
        if pair != ("C", "C") and pair[::-1] not in products:
            products[pair] = _online_product(*(seqs[name] for name in pair), n_max)
    # every word keeps both blocks' own edges, degree-4 vertices (less
    # one at an internal block minimum) and peaks: summed over all
    # splits, sum_i (C_j S_i + C_i S_j) = 2 sum_i C_j S_i
    kept = {name: [0] for name in ("H", "Q4", "P") if name in statistics}
    kept_products = {
        name: _online_product(seqs["C"], history, n_max) for name, history in kept.items()
    }

    def step(n, catalan, moments):
        edges = (*range(EDGE), *range(n - EDGE, n)) if moments else range(n)
        splits = [
            (i, n - 1 - i, *(seqs[a][i] * seqs[b][n - 1 - i] if count in held else 0
                             for count, (a, b) in COUNTS.items()))
            for i in edges
        ]
        wholes = {pair: term(n - 1) for pair, term in products.items()}
        if moments:
            moments = {("C", "C"): moments}
            for pair, whole in wholes.items():
                left, right = (seqs[name] for name in pair)
                # the whole convolution at n - 1 less its edge splits
                edge = sum(left[i] * right[n - 1 - i] for i in edges)
                moments[pair] = moments[pair[::-1]] = (whole - edge,)
        totals = {}
        for name in statistics:
            glue = glues[name]
            for count, unit in unheld:
                for i, j, *_ in splits:
                    if glue(i, j, *unit):
                        raise RuntimeError(UNHELD.format(name, count, f"at split ({i}, {j})", n))
            total = sum(glue(*split) for split in splits)
            if moments:
                total += _interior_glue(name, glue, n, moments)
            if name in kept:
                total += 2 * kept_products[name](n - 1)
            totals[name] = total
        for name, seq in seqs.items():
            seq.append(totals.get(name, catalan))  # C is no statistic
        for name, history in kept.items():
            history.append(totals[name] - totals["J"] if name == "Q4" else totals[name])
        return totals

    return step


def _theirs(n_max: int, step):
    """Per n = 1 .. n_max, the words of n, then ``step``'s totals of them.

    These are the messages the forked child sends; without the fork the
    caller reads them here.  A failed check raises where it is met.
    """
    for words in _words(n_max):
        yield words
        yield step(*words)


def _send(pipe, message) -> None:
    """Write one message for ``_receive``: its length, its marshal dump, a flush."""
    data = marshal.dumps(message)
    pipe.write(len(data).to_bytes(4, "little"))
    pipe.write(data)
    pipe.flush()


def _received(pipe):
    """The child's messages, as ``_send`` wrote them.

    A str is a failed check's message, raised as RuntimeError; a pipe
    the child closed first raises EOFError.
    """
    while True:
        header = pipe.read(4)
        if len(header) < 4:
            raise EOFError
        message = marshal.loads(pipe.read(int.from_bytes(header, "little")))
        if isinstance(message, str):
            raise RuntimeError(message)
        yield message


def gluing_stream(n_max: int):
    """The five gluing totals at each n = 0 .. n_max, one dict per n.

    Keyed by statistic in ``STATISTICS`` order.  H: horizontal edges;
    Q4: degree-4 vertices; D: words whose first two entries descend; J:
    words whose minimum sits strictly inside; P: internal-column degree-1
    vertices (internal peaks).

    Each n sums every glue function over the edge splits literally and
    over the interior splits as its Newton form, read off and checked
    against the function itself, times the moments of the split's
    counts: a glue that is not quadratic on the interior raises
    RuntimeError at its n, after the totals of every earlier n were
    yielded.  A negative ``n_max`` raises ValueError.

    The words of each n are counted once, by ``_words``, and feed the
    two ``CHAINS``.  Where ``os.fork`` exists, a child forked at the
    first n counts the words and runs the D, P chain; per n it sends
    down a pipe the words, then its D and P, each message as soon as it
    is made, while this process runs H, Q4 and J on the words it reads.
    Elsewhere this process reads the same messages from ``_theirs``.  A
    failed fork closes the pipe and raises the fork's own error.  Either
    way the first failed check, at the least n and within it in
    ``CHAINS`` order, raises RuntimeError.  A child that ends before it
    sends what its n needs, say by a signal, raises RuntimeError naming
    how it ended.  Once the stream ends, however it ends, closed early
    included, the child is killed unless it was reaped already, and
    reaped; this process's peak RSS does not count the child's.

    >>> [totals["H"] for totals in gluing_stream(5)]
    [0, 0, 2, 14, 76, 374]
    """
    if n_max < 0:
        raise ValueError(f"n_max={n_max} is negative")
    yield dict.fromkeys(STATISTICS, 0)
    ours, theirs = (_chain(chain, n_max) for chain in CHAINS)
    pid = pipe = None
    if hasattr(os, "fork"):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if not pid:
            # the child leaves by os._exit: it runs no exit handler and
            # flushes none of the stdio buffers it inherited, so text this
            # process had not yet written is written once, by this process
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    try:
                        for message in _theirs(n_max, theirs):
                            _send(pipe, message)
                    except RuntimeError as error:
                        _send(pipe, str(error))
                status = 0
            except Exception:
                sys.excepthook(*sys.exc_info())  # the parent reports only the exit status
            finally:
                os._exit(status)
        os.close(write_end)
        pipe = open(read_end, "rb")
    messages = _received(pipe) if pipe else _theirs(n_max, theirs)
    try:
        for _ in range(n_max):
            totals = ours(*next(messages))
            totals.update(next(messages))
            yield {name: totals[name] for name in STATISTICS}
    except EOFError:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(
            f"the child process counting {' and '.join(CHAINS[1])} {how} "
            "before it sent its sequences"
        ) from None
    finally:
        if pid:
            # the child may be running ahead, blocked on a full pipe that
            # no one will read, or leaving after its last message; it is
            # killed before the pipe closes, which it would meet as an
            # error.  signal is imported only here, as the CLI's start-up
            # need not load it
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pipe:
            pipe.close()


def gluing_totals(n_max: int) -> dict[str, list[int]]:
    """The five gluing sequences for 0 <= n <= n_max, keyed by statistic.

    The totals of :func:`gluing_stream`, collected; it raises what the
    stream raises.

    >>> totals = gluing_totals(5)
    >>> totals["H"], totals["Q4"]
    ([0, 0, 2, 14, 76, 374], [0, 0, 0, 0, 8, 77])
    >>> totals["D"], totals["J"], totals["P"]
    ([0, 0, 1, 2, 5, 14], [0, 0, 0, 1, 4, 14], [0, 0, 0, 2, 10, 42])
    """
    rows = list(gluing_stream(n_max))
    return {name: [totals[name] for totals in rows] for name in STATISTICS}
