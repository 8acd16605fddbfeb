from __future__ import annotations

import errno
import inspect
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from operator import mul
from pathlib import Path

import pytest

from conftest import brute_stats, catalan_by_convolution, literal_gluing_totals
from gridperm import cli, closed_aggregate, gluing_totals, recurrences

N_CHECK = 60
CATALAN = catalan_by_convolution(N_CHECK)


def test_horizontal_edges_examples():
    h = gluing_totals(4)["H"]
    assert h[0] == 0 and h[1] == 0
    assert h[2] == 2
    assert h[3] == 14
    assert h[4] == 76


def test_horizontal_edges_matches_closed_form():
    h = gluing_totals(N_CHECK)["H"]
    for n in range(2, N_CHECK + 1):
        assert h[n] == closed_aggregate(n)["H"]


def test_internal_deg1_examples():
    p = gluing_totals(4)["P"]
    assert p[:3] == [0, 0, 0]
    assert p[3] == 2
    assert p[4] == 10


def test_internal_deg1_matches_closed_form():
    p = gluing_totals(N_CHECK)["P"]
    for n in range(3, N_CHECK + 1):
        assert p[n] == (n - 2) * CATALAN[n - 1]


def test_initial_descents_examples():
    d = gluing_totals(5)["D"]
    assert d[2] == 1
    assert d[3] == 2
    assert d[4] == 5


def test_initial_descents_matches_closed_form():
    d = gluing_totals(N_CHECK)["D"]
    for m in range(2, N_CHECK + 1):
        assert d[m] == CATALAN[m - 1]


def test_internal_min_examples():
    j = gluing_totals(4)["J"]
    assert j[0] == 0 and j[1] == 0
    assert j[2] == 0
    assert j[3] == 1
    assert j[4] == 4


def test_deg4_examples():
    q4 = gluing_totals(4)["Q4"]
    assert q4[:4] == [0, 0, 0, 0]
    assert q4[4] == 8


def test_deg4_matches_closed_form():
    q4 = gluing_totals(N_CHECK)["Q4"]
    for n in range(2, N_CHECK + 1):
        assert q4[n] == closed_aggregate(n)["Q4"]


@pytest.mark.parametrize("n", range(0, 11))
def test_all_sequences_match_brute_force(n):
    stats = brute_stats(n)
    totals = gluing_totals(n)
    for stat in ("H", "P", "D", "J", "Q4"):
        assert totals[stat][n] == stats[stat], stat


def test_outputs_are_nonnegative():
    totals = gluing_totals(40)
    assert set(totals) == {"H", "Q4", "D", "J", "P"}
    for seq in totals.values():
        assert len(seq) == 41
        assert all(v >= 0 for v in seq)


def test_negative_n_max_is_refused():
    with pytest.raises(ValueError, match="n_max=-3 is negative"):
        gluing_totals(-3)
    assert gluing_totals(0) == {stat: [0] for stat in recurrences.STATISTICS}


# n = 9 is the last n summed wholly split by split, and n = 10 the
# first with an interior read off the glue functions; m = 300 reaches
# the online products' squares of side 128, which feed t >= 256
@pytest.mark.parametrize("m", [*range(13), 150, 300])
def test_matches_the_literal_pass(m):
    assert gluing_totals(m) == literal_gluing_totals(m)


@pytest.mark.parametrize("size", [2**k for k in range(9)])
def test_karatsuba_matches_the_schoolbook_product_at_every_limit(size):
    rng = random.Random(size)
    a, b = ([rng.getrandbits(64) for _ in range(size)] for _ in "ab")
    product = [
        sum(a[i] * b[k - i] for i in range(max(0, k - size + 1), min(k, size - 1) + 1))
        for k in range(2 * size - 1)
    ]
    for limit in range(2 * size + 1):
        assert recurrences._karatsuba(a, b, limit) == product[:limit]


# the sizes cross the first square (t = 63), squares of every side up to
# 512, and the cut-off of the last squares' products at the size
@pytest.mark.parametrize(
    "size", [0, 1, 62, 63, 64, 65, 127, 128, 129, 255, 256, 257, 600, 1100]
)
def test_the_online_product_matches_a_literal_sum(size):
    rng = random.Random(size)
    terms_f, terms_g = ([rng.getrandbits(200) for _ in range(size)] for _ in "fg")
    # the product reads the caller's lists as they grow, a term per call
    f, g = [], []
    term = recurrences._online_product(f, g, size)
    for t in range(size):
        f.append(terms_f[t])
        g.append(terms_g[t])
        assert term(t) == sum(map(mul, terms_f[: t + 1], reversed(terms_g[: t + 1]))), t


def test_the_online_product_holds_nothing_for_terms_not_reached():
    # the pass streams up to any n_max, so its products are not sized by it
    tracemalloc.start()
    try:
        term = recurrences._online_product([1], [1], 10**7)
        assert term(0) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _cubic_from(n_from):
    def fault(glue):
        def faulty(i, j, words, left_d, right_d):
            bump = i**3 * words if i >= 3 and j >= 3 and i + j + 1 >= n_from else 0
            return glue(i, j, words, left_d, right_d) + bump

        return faulty

    return fault


def _odd_words_at(n_at):
    """A fault that adds 1 to the interior's words at n = ``n_at``."""

    def fault(word_moments):
        def faulty(n, half, words):
            return word_moments(n, half, words + (n == n_at))

        return faulty

    return fault


ODD_WORDS = "span x words over the interior of n = {} is odd before halving"


def _adds(count, at=lambda i, j: True):
    """A fault that adds ``count`` to a glue at the splits (i, j) that ``at`` takes."""
    place = list(recurrences.COUNTS).index(count)

    def fault(glue):
        def faulty(i, j, *counts):
            return glue(i, j, *counts) + (counts[place] if at(i, j) else 0)

        return faulty

    return fault


def _linear_in_left_d(glue):
    def faulty(i, j, words, left_d, right_d):
        return glue(i, j, words, left_d * i, right_d)

    return faulty


def _inside(i, j):
    """The interior splits of every n >= 10, the first n with an interior."""
    return min(i, j) >= 3 and i + j >= 9


# the first five faults are found at n = 10, the first n with an
# interior, whose splits are i = 3..6: off the quadratic read at
# i = 3, 4, 5 (with the fault at j = 4 or i = 3, the read itself is
# off), or of degree 1 in a count that the pass sums only in total.
# The last four give H, whose chain holds no D, a weight on left_d or
# right_d: at an edge split of n = 1, or on the interior of n = 10.
FAULTS = {
    "H cubic": (
        "_h_glue",
        _cubic_from(10),
        r"^H glue weighs words by 240 at split \(6, 3\) of n = 10, not by 234 ",
    ),
    "P at j = 3": (
        "_new_peaks",
        _adds("left_d", lambda i, j: j == 3),
        r"^P glue weighs left_d by 2 at split \(6, 3\) of n = 10, not by 1 ",
    ),
    "P off its quadratic in right_d": (
        "_new_peaks",
        _adds("right_d", lambda i, j: i == 3 and _inside(i, j)),
        r"^P glue weighs right_d by 1 at split \(6, 3\) of n = 10, not by 2 ",
    ),
    "D at j = 4": (
        "_descents",
        _adds("left_d", lambda i, j: j == 4),
        r"^D glue weighs left_d by 1 at split \(6, 3\) of n = 10, not by 4 ",
    ),
    "D linear in left_d": (
        "_descents",
        _linear_in_left_d,
        r"^D glue weighs left_d by a nonconstant on the interior of n = 10,",
    ),
    "H weighs left_d": (
        "_h_glue",
        _adds("left_d"),
        r"^H glue weighs left_d at split \(0, 0\) of n = 1, which its chain does not count$",
    ),
    "H weighs right_d": (
        "_h_glue",
        _adds("right_d"),
        r"^H glue weighs right_d at split \(0, 0\) of n = 1, which its chain does not count$",
    ),
    "H weighs left_d inside": (
        "_h_glue",
        _adds("left_d", _inside),
        r"^H glue weighs left_d on the interior of n = 10, which its chain does not count$",
    ),
    "H weighs right_d inside": (
        "_h_glue",
        _adds("right_d", _inside),
        r"^H glue weighs right_d on the interior of n = 10, which its chain does not count$",
    ),
}


def test_the_glues_take_the_declared_counts_in_order():
    # the pass and literal_gluing_totals call every glue positionally,
    # so its parameters after (i, j) must be COUNTS, in order
    glues = [
        function
        for function in vars(recurrences).values()
        if inspect.isfunction(function)
        and list(inspect.signature(function).parameters)[:2] == ["i", "j"]
    ]
    assert len(glues) == len(recurrences.STATISTICS)
    for glue in glues:
        assert list(inspect.signature(glue).parameters) == ["i", "j", *recurrences.COUNTS]
    assert list(recurrences.GLUES) == list(recurrences.STATISTICS)
    assert sorted(recurrences.GLUES.values()) == sorted(glue.__name__ for glue in glues)


def test_what_blocks_keep_is_declared_within_one_chain():
    # a chain grows what the blocks keep from its own totals of each n,
    # so a kept statistic lies in one chain with what it subtracts
    for name, less in recurrences.KEPT.items():
        assert {name, *less} <= set(recurrences.STATISTICS)
        assert len([chain for chain in recurrences.CHAINS if {name, *less} <= set(chain)]) == 1


# faults that also change an edge split of a smaller n, where verify
# meets them first as a mismatch: the n and statistic of the first
FIRST_MISMATCH = {"P at j = 3": (6, "P"), "D at j = 4": (7, "D"), "D linear in left_d": (3, "D")}


def _verify_rows_before(n, capsys):
    """The stdout of ``verify`` over 2 <= n' < n, or "" if that range is empty."""
    if n <= 2:
        return ""
    cli.main(["verify", "--n-max", str(n - 1), "--modes", "recurrence,closed"])
    complete = capsys.readouterr().out
    assert {row.split(",")[0] for row in complete.splitlines()[1:]} == set(map(str, range(2, n)))
    return complete


@pytest.mark.parametrize("fault", FAULTS)
def test_a_glue_off_its_interior_form_is_refused(fault, monkeypatch, capsys):
    name, make_faulty, message = FAULTS[fault]
    monkeypatch.setattr(recurrences, name, make_faulty(getattr(recurrences, name)))
    with pytest.raises(RuntimeError, match=message) as raised:
        gluing_totals(40)
    n = int(re.search(r"of n = (\d+)", str(raised.value))[1])
    if fault in FIRST_MISMATCH:
        n, statistic = FIRST_MISMATCH[fault]
        message = rf"^first mismatch at n={n}, statistic={statistic} \(recurrence/closed\): "
    complete = _verify_rows_before(n, capsys)
    code = cli.main(["verify", "--n-max", "40", "--modes", "recurrence,closed"])
    out, err = capsys.readouterr()
    assert code == 1
    # the rows of every n before the failing one were written first, and
    # a mismatch's own n after them
    assert out.startswith(complete)
    rows_of_n = out.removeprefix(complete).splitlines()
    assert [row.split(",")[0] for row in rows_of_n] == (
        [str(n)] * len(recurrences.STATISTICS) if fault in FIRST_MISMATCH else []
    )
    line = err.removesuffix("\n")
    assert line.startswith("FAIL: ") and "\n" not in line
    assert re.match(message, line.removeprefix("FAIL: "))


@pytest.fixture(params=["fork", "no fork"])
def fork(request, monkeypatch):
    """Runs a test with the D, P chain in a forked child, and without os.fork."""
    if request.param == "no fork":
        monkeypatch.delattr(os, "fork")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_is_refused_alike_without_fork(fault, monkeypatch):
    monkeypatch.delattr(os, "fork")
    name, make_faulty, message = FAULTS[fault]
    monkeypatch.setattr(recurrences, name, make_faulty(getattr(recurrences, name)))
    with pytest.raises(RuntimeError, match=message):
        gluing_totals(40)


def test_matches_the_literal_pass_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert gluing_totals(150) == literal_gluing_totals(150)


# two faults, one in the child's part of the pass and one in the
# caller's: the pass reports the one met first, at the smallest n and
# then in CHAINS order, the words first
TWO_FAULTS = {
    "child's at a smaller n": (("_h_glue", 14), ("_descents", 12), "D", 12),
    "parent's at a smaller n": (("_internal_min", 11), ("_descents", 13), "J", 11),
    "child's at a smaller n, later in order": (("_h_glue", 13), ("_new_peaks", 11), "P", 11),
    "same n, J before D": (("_internal_min", 12), ("_descents", 12), "J", 12),
    "same n, D before P": (("_descents", 12), ("_new_peaks", 12), "D", 12),
    "same n, J before P": (("_internal_min", 12), ("_new_peaks", 12), "J", 12),
    "same n, Q4 before D": (("_q4_shift", 12), ("_descents", 12), "Q4", 12),
    "same n, the words before H": (("_h_glue", 12), ("_word_moments", 12), "words", 12),
}


@pytest.mark.parametrize("case", TWO_FAULTS)
def test_the_first_fault_of_the_two_chains_is_reported(case, fork, monkeypatch):
    *faults, statistic, n = TWO_FAULTS[case]
    for name, n_at in faults:
        make_faulty = _odd_words_at if name == "_word_moments" else _cubic_from
        monkeypatch.setattr(recurrences, name, make_faulty(n_at)(getattr(recurrences, name)))
    message = rf"^{statistic} glue weighs words by \d+ at split \(\d+, 3\) of n = {n}, "
    if statistic == "words":
        message = f"^{ODD_WORDS.format(n)}$"
    with pytest.raises(RuntimeError, match=message):
        gluing_totals(60)
    _assert_no_child_left()


def _dying_in_the_child(how, n_from=1):
    parent = os.getpid()

    def fault(glue):
        def faulty(*split):
            if os.getpid() != parent and sum(split[:2]) + 1 >= n_from:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ZeroDivisionError("a glue that cannot count")
            return glue(*split)

        return faulty

    return fault


@pytest.mark.parametrize(
    "how, ending",
    [("killed", "was killed by signal 9"), ("raising", "exited with status 1")],
)
def test_a_child_that_dies_fails_the_pass(how, ending, monkeypatch, capsys):
    dying = _dying_in_the_child(how, n_from=20)
    monkeypatch.setattr(recurrences, "_descents", dying(recurrences._descents))
    message = f"the child process counting D and P {ending} before it sent its sequences"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        gluing_totals(40)
    _assert_no_child_left()
    complete = _verify_rows_before(20, capsys)
    code = cli.main(["verify", "--n-max", "40", "--modes", "recurrence,closed"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, complete, f"FAIL: {message}\n")
    _assert_no_child_left()


def test_the_parents_failed_check_is_not_lost_to_a_dying_child(monkeypatch):
    # the caller fails H at n = 20 before it waits for the D and P that
    # the child, raising at n = 20 too, never sends
    monkeypatch.setattr(recurrences, "_h_glue", _cubic_from(20)(recurrences._h_glue))
    dying = _dying_in_the_child("raising", n_from=20)
    monkeypatch.setattr(recurrences, "_descents", dying(recurrences._descents))
    message = r"^H glue weighs words by \d+ at split \(\d+, 3\) of n = 20, "
    with pytest.raises(RuntimeError, match=message):
        gluing_totals(40)
    _assert_no_child_left()


def test_odd_words_are_refused(fork, monkeypatch, capsys):
    monkeypatch.setattr(recurrences, "_word_moments", _odd_words_at(12)(recurrences._word_moments))
    message = ODD_WORDS.format(12)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        gluing_totals(40)
    _assert_no_child_left()
    complete = _verify_rows_before(12, capsys)
    code = cli.main(["verify", "--n-max", "40", "--modes", "recurrence,closed"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, complete, f"FAIL: {message}\n")
    _assert_no_child_left()


def test_the_pass_leaves_no_child_process():
    # at n = 500 the child's D and P outgrow the 64 KB a pipe buffers
    totals = gluing_totals(500)
    _assert_no_child_left()
    for n in range(2, 501):
        below = math.comb(2 * n - 2, n - 1) // n
        assert (totals["D"][n], totals["P"][n]) == (below, (n - 2) * below)


def test_an_error_in_the_parents_chain_kills_the_child(monkeypatch):
    h_glue = recurrences._h_glue

    def interrupted(i, j, *counts):
        if i + j + 1 == 200:
            raise KeyboardInterrupt
        return h_glue(i, j, *counts)

    monkeypatch.setattr(recurrences, "_h_glue", interrupted)
    # the child's chain takes seconds to reach n = 2000 unless it is killed
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        gluing_totals(2000)
    _assert_no_child_left()
    assert time.perf_counter() - start < 4


def test_a_failed_fork_leaves_no_child_or_descriptor(monkeypatch):
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        pytest.skip(f"open descriptors are counted from {fds}")
    error = OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def raising():
        raise error

    monkeypatch.setattr(os, "fork", raising)
    before = len(os.listdir(fds))
    with pytest.raises(OSError) as raised:
        gluing_totals(40)
    assert raised.value is error
    _assert_no_child_left()
    assert len(os.listdir(fds)) == before


def test_closing_the_stream_kills_the_child_and_leaves_no_descriptor(forked_children):
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        pytest.skip(f"open descriptors are counted from {fds}")
    before = len(os.listdir(fds))
    stream = recurrences.gluing_stream(2000)
    start = time.perf_counter()
    assert [totals["D"] for _, totals in zip(range(5), stream)] == [0, 0, 1, 2, 5]
    stream.close()
    # the child's chain takes seconds to reach n = 2000 unless it is killed
    assert time.perf_counter() - start < 4
    assert len(forked_children) == 1
    _assert_no_child_left()
    assert len(os.listdir(fds)) == before


def test_the_words_of_each_n_are_counted_once_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    word_moments, counted = recurrences._word_moments, []

    def counting(n, *args):
        counted.append(n)
        return word_moments(n, *args)

    monkeypatch.setattr(recurrences, "_word_moments", counting)
    assert gluing_totals(30) == literal_gluing_totals(30)
    # once per n with an interior, not once per chain
    assert counted == list(range(10, 31))


def test_unflushed_stdout_is_written_once():
    # stdout into a pipe is block-buffered unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(recurrences.__file__).resolve().parents[1])
    script = (
        "import sys; from gridperm import gluing_totals; sys.stdout.write('before'); "
        "gluing_totals(30); sys.stdout.write(' after')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before after", "")
