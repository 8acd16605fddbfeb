from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from gridperm import cli, closed_forms, recurrences, series
from gridperm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_verify_recurrence_vs_closed(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "40", "--modes", "recurrence,closed"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows and all(row["equal"] == "True" for row in rows)
    stats = {row["statistic"] for row in rows}
    assert stats == {"H", "Q4", "D", "J", "P"}


def test_verify_three_modes(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--n-min",
        "2",
        "--n-max",
        "6",
        "--modes",
        "brute,recurrence,closed",
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(row["equal"] == "True" for row in rows)
    pairs = {row["modes"] for row in rows}
    assert pairs == {"brute/recurrence", "brute/closed", "recurrence/closed"}


def test_verify_corrupt_hook_fails_and_names_first_mismatch(capsys, monkeypatch):
    exact = closed_forms.closed_aggregate

    def corrupted(n):
        row = exact(n)
        return {**row, "H": row["H"] + 1}

    monkeypatch.setattr(closed_forms, "closed_aggregate", corrupted)
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "5", "--modes", "recurrence,closed"
    )
    assert code == 1
    assert "n=2" in err and "statistic=H" in err
    # the hook adds 1 to the closed H, the right-hand side
    assert err.rstrip("\n").endswith("lhs - rhs=-1")


def test_failed_exact_check_exits_one_without_traceback(capsys, monkeypatch):
    exact = closed_forms._deg4
    monkeypatch.setattr(closed_forms, "_deg4", lambda n, b: exact(n, b) + 1)
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "5", "--modes", "recurrence,closed"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("FAIL: ") and "n=2" in err
    assert "Traceback" not in err


def test_integrality_failure_exits_one_without_traceback(capsys, monkeypatch):
    exact = closed_forms.central_binomial
    monkeypatch.setattr(closed_forms, "central_binomial", lambda n: exact(n) + 1)
    code, out, err = run_cli(capsys, "table", "--n-min", "3", "--n-max", "3")
    assert code == 1
    assert out == ""
    # the message formats the remainder as a Fraction, imported only here
    assert err == "FAIL: integrality failure for Q2(3): 62/5\n"


def test_odd_square_root_coefficient_fails_the_catalan_halving(capsys, monkeypatch):
    exact = series.half_power

    def corrupted(k, order):
        coeffs = list(exact(k, order).coeffs)
        if k == 1 and order >= 5:
            coeffs[5] += 1
        return series.TruncatedSeries(coeffs)

    monkeypatch.setattr(series, "half_power", corrupted)
    with pytest.raises(RuntimeError, match=r"^coefficient 5 of \(1 - 4x\)\^\(1/2\) is odd$"):
        series.catalan_series(16)
    code, out, err = run_cli(capsys, "series-check", "--order", "16")
    assert code == 1
    assert out == ""
    assert err == "FAIL: coefficient 5 of (1 - 4x)^(1/2) is odd\n"


def test_verify_needs_two_distinct_modes(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "4", "--modes", "closed,closed")
    assert code == 2
    assert out == ""
    assert "two distinct modes" in err


@pytest.mark.parametrize("modes", ["recurrence,closed", "brute,closed"])
def test_verify_refuses_a_range_with_nothing_to_compare(capsys, modes):
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "0", "--n-max", "1", "--modes", modes
    )
    assert code == 2
    assert out == ""
    assert "nothing to compare" in err


def test_verify_refuses_brute_beyond_cap(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--n-max", "15", "--modes", "brute,closed"
    )
    assert code == 2
    assert "cap" in err


def test_verify_cap_override_needs_force(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_BRUTE_CAP", 5)
    argv = ("verify", "--n-min", "2", "--n-max", "6", "--modes", "brute,closed")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "beyond the cap 5" in err and "--force" in err
    code, out, err = run_cli(capsys, *argv, "--force")
    assert code == 0
    rows = parse_csv(out)
    assert rows[-1]["n"] == "6" and all(row["equal"] == "True" for row in rows)
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "5", "--modes", "brute,closed"
    )
    assert code == 0


def test_verify_rejects_unknown_mode(capsys):
    # mode names are case-sensitive, and the first unknown one is named
    code, out, err = run_cli(capsys, "verify", "--modes", "Closed,recurrence")
    assert code == 2
    assert out == ""
    assert err == "error: unknown mode 'Closed'; choose from brute, recurrence, closed\n"


def test_verify_json_output(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--n-min",
        "2",
        "--n-max",
        "4",
        "--modes",
        "recurrence,closed",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(row["equal"] for row in rows)


def test_table_rows(capsys):
    code, out, err = run_cli(capsys, "table", "--n-min", "2", "--n-max", "5")
    assert code == 0
    rows = parse_csv(out)
    by_n = {row["n"]: row for row in rows}
    assert by_n["3"]["H"] == "14"
    assert (by_n["3"]["Q1"], by_n["3"]["Q2"], by_n["3"]["Q3"], by_n["3"]["Q4"]) == (
        "10",
        "12",
        "8",
        "0",
    )
    assert by_n["2"]["H"] == "2"
    assert by_n["4"]["Q4"] == "8" and by_n["4"]["H"] == "76"
    header = list(rows[0].keys())
    assert header[:13] == [
        "n",
        "class_size",
        "H",
        "V",
        "Sigma",
        "Q1",
        "Q2",
        "Q3",
        "Q4",
        "D",
        "A",
        "J",
        "P",
    ]


def test_table_past_the_int_to_str_digit_limit(capsys):
    # B_7200 has 4,333 digits, past the interpreter's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "table", "--n-min", "7200", "--n-max", "7200")
    assert code == 0
    assert err == ""
    (row,) = parse_csv(out)
    assert len(row["B"]) == 4333
    assert sys.get_int_max_str_digits() == limit  # main restored it
    sys.set_int_max_str_digits(0)
    try:
        assert int(row["B"]) == math.comb(14400, 7200)
        assert sum(int(row[f"Q{r}"]) for r in range(1, 5)) == int(row["V"])
        assert sum(Fraction(row[f"prop{r}"]) for r in range(1, 5)) == 1
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["verify", "table"])
def test_a_failed_exact_check_mid_range_keeps_the_complete_rows(capsys, monkeypatch, command):
    code, complete, _ = run_cli(capsys, command, "--n-max", "3")
    assert code == 0
    assert {row["n"] for row in parse_csv(complete)} == {"2", "3"}
    exact = closed_forms._deg4
    monkeypatch.setattr(closed_forms, "_deg4", lambda n, b: exact(n, b) + (n == 4))
    code, out, err = run_cli(capsys, command, "--n-max", "6")
    assert code == 1
    # the header and every row of n = 2, 3 were written before n = 4 failed
    assert out == complete
    assert err.count("\n") == 1 and err.startswith("FAIL: ") and "n=4" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "table"])
def test_streamed_json_equals_one_dump(capsys, command):
    code, out, err = run_cli(capsys, command, "--n-max", "6", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_emit_without_rows(capsys):
    cli._emit(iter(()), "json")
    cli._emit(iter(()), "csv")
    assert capsys.readouterr().out == "[]\n"


def test_json_rows_leave_no_cyclic_garbage(capsys):
    rows = (
        {"n": n, "statistic": "H", "modes": "recurrence/closed", "equal": True, "lhs": n, "rhs": n}
        for n in range(300)
    )
    gc.collect()
    gc.disable()
    try:
        cli._emit(rows, "json")
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert len(json.loads(capsys.readouterr().out)) == 300


class CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def traced_peak(call):
    """Peak bytes that ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def streamed_peak(*argv):
    """Traced peak of one CLI call and the characters it wrote to stdout.

    A short call of the same command runs first, so that what the first
    call of a process allocates once is not counted as row memory.
    """
    with contextlib.redirect_stdout(CountingSink()):
        assert main([argv[0], "--n-max", "3"]) == 0
    sink = CountingSink()
    with contextlib.redirect_stdout(sink):
        peak = traced_peak(lambda: main(list(argv)))
    return peak, sink.chars


def test_table_memory_does_not_grow_with_the_rows():
    one_row, _ = streamed_peak("table", "--n-min", "400", "--n-max", "400")
    peak, chars = streamed_peak("table", "--n-min", "2", "--n-max", "400")
    # about 0.95 MB of text, which holding every row would add
    assert peak - one_row < chars // 10


def test_verify_memory_is_the_gluing_pass_not_the_rows(monkeypatch):
    after_pass = []
    gluing_totals = recurrences.gluing_totals

    def marked(n_max):
        totals = gluing_totals(n_max)
        after_pass.append(tracemalloc.get_traced_memory()[0])  # with the five sequences
        tracemalloc.reset_peak()  # what follows is the rows
        return totals

    def rows_peak(n_max):
        peak, chars = streamed_peak("verify", "--n-max", n_max, "--modes", "recurrence,closed")
        return peak - after_pass[-1], chars

    monkeypatch.setattr(recurrences, "gluing_totals", marked)
    few, _ = rows_peak("3")
    many, chars = rows_peak("300")
    # about 0.31 MB of text, which holding every row or every
    # closed-form value would add
    assert many - few < chars // 10


def test_table_requires_n_min_two(capsys):
    code, out, err = run_cli(capsys, "table", "--n-min", "1")
    assert code == 2
    assert out == ""
    assert err == "error: table needs n-min >= 2 (closed forms start there)\n"
    code, out, err = run_cli(capsys, "table", "--n-min", "2", "--n-max", "2")
    assert code == 0
    assert [row["n"] for row in parse_csv(out)] == ["2"]


def test_series_check(capsys):
    code, out, err = run_cli(capsys, "series-check", "--order", "16")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert {row["identity"] for row in rows} == {"HFE", "HX", "PX", "Q4FE", "Q4X"}
    assert all(row["max_nonzero_index"] == "-1" for row in rows)


def test_series_check_runs_one_gluing_pass(capsys, monkeypatch):
    passes = []
    gluing_totals = recurrences.gluing_totals

    def counted(n_max):
        passes.append(n_max)
        return gluing_totals(n_max)

    monkeypatch.setattr(recurrences, "gluing_totals", counted)
    code, out, err = run_cli(capsys, "series-check", "--order", "16")
    assert code == 0 and len(parse_csv(out)) == 5
    assert passes == [16]


def test_series_check_reports_a_wrong_total(capsys, monkeypatch):
    gluing_totals = recurrences.gluing_totals

    def corrupted(n_max):
        totals = gluing_totals(n_max)
        totals["H"][5] += 1
        return totals

    monkeypatch.setattr(recurrences, "gluing_totals", corrupted)
    code, out, err = run_cli(capsys, "series-check", "--order", "16")
    assert code == 1
    assert err == "FAIL: nonzero residual for HFE\n"
    lines = out.splitlines()
    assert lines[1:3] == ["HFE,16,16,1/1", "HX,16,5,1/1"]
    assert [row["max_nonzero_index"] for row in parse_csv(out)[2:]] == ["-1"] * 3


def test_series_check_refuses_a_q4x_constant_term(capsys, doubled_sqrt):
    code, out, err = run_cli(capsys, "series-check", "--order", "16")
    assert code == 1
    assert out == ""
    assert err == "FAIL: closed-form numerator has nonzero constant term -5\n"


def test_series_check_order_floor(capsys):
    code, out, err = run_cli(capsys, "series-check", "--order", "8")
    assert code == 0
    rows = parse_csv(out)
    assert [row["order"] for row in rows] == ["8"] * 5
    assert all(row["max_nonzero_index"] == "-1" for row in rows)
    code, out, err = run_cli(capsys, "series-check", "--order", "7")
    assert code == 2
    assert out == ""


def test_sample_json_deterministic(capsys):
    args = ("sample", "--n", "8", "--count", "300", "--seed", "11")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    # pins the seeded stream: a change here means a new sampler.GENERATOR_NAME
    assert hashlib.sha256(out_a.encode()).hexdigest() == (
        "2529da7958341ffd9c7cec874304c94b311394e74e3ac926ef581b0dbb253f2f"
    )
    payload = json.loads(out_a)
    assert list(payload) == [
        "n",
        "sample_count",
        "seed",
        "generator",
        "mean_proportions",
        "std_errors",
        "mean_h",
    ]
    assert payload["n"] == 8 and payload["seed"] == 11
    assert list(payload["mean_proportions"]) == ["0", "1", "2", "3", "4"]
    assert list(payload["std_errors"]) == ["0", "1", "2", "3", "4"]


def test_sample_refuses_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "30", "--count", "200", "--seed", "-5")
    assert code == 2
    assert out == ""
    assert "--seed >= 0" in err


def test_sample_csv(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--n", "5", "--count", "50", "--seed", "3", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1 and rows[0]["n"] == "5"


def test_degrees(capsys):
    code, out, err = run_cli(capsys, "degrees", "4132")
    assert code == 0
    assert out == (
        '{"n": 4, "counts": {"0": 0, "1": 2, "2": 6, "3": 2, "4": 0}, '
        '"horizontal_edges": 4}\n'
    )


def test_closed_pipe_exits_141_without_traceback():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gridperm.cli", "table", "--n-max", "600"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.read(10)
    proc.stdout.close()  # as `head -c 10` does
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Exception ignored" not in err


# the child's stdout is a pipe whose reader has gone; table's rows for
# n = 2..4 sit in the buffer when the Q2/Q3 check fails at n = 5
FAILED_CHECK_INTO_A_CLOSED_PIPE = """
import os
from gridperm import cli, closed_forms
exact = closed_forms._deg4
closed_forms._deg4 = lambda n, b: exact(n, b) + (n == 5)
read_end, write_end = os.pipe()
os.close(read_end)
os.dup2(write_end, 1)
raise SystemExit(cli.main(["table", "--n-min", "2", "--n-max", "6"]))
"""


def test_a_failed_check_into_a_closed_pipe_exits_141_with_one_line():
    src = Path(cli.__file__).resolve().parents[1]
    # no PYTHONUNBUFFERED, which would write each row through at once
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", FAILED_CHECK_INTO_A_CLOSED_PIPE],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 141
    assert proc.stderr.startswith("FAIL: Q2/Q3 routes disagree at n=5: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_python_dash_m_gridperm_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "gridperm", "degrees", "4132"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('{"n": 4, "counts": ')


# loaded by ``dataclasses`` and not by a bare interpreter; each run of the
# CLI would pay for them
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# the gluing pass forks once with os and marshal, which the interpreter
# loads anyway; a process pool and its pickling would add to every start-up
PROCESS_POOL_MODULES = ("multiprocessing", "concurrent.futures", "pickle", "subprocess")


def _loaded_by_importing_the_cli(modules):
    """Those of ``modules`` that a fresh ``import gridperm.cli`` loads.

    The interpreter runs with ``-S``: a ``site`` that preloads a module
    (some load ``typing``, ``re`` and ``random``) would hide the CLI's
    own import of it.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    script = (
        "import json, sys, gridperm.cli; print(json.dumps("
        f"[m for m in {tuple(modules)!r} if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_introspection_modules():
    # gridperm.series is loaded, so the import really reached the series code
    loaded = _loaded_by_importing_the_cli([*INTROSPECTION_MODULES, "gridperm.series"])
    assert loaded == ["gridperm.series"]


def test_importing_the_cli_loads_no_process_pool_modules():
    loaded = _loaded_by_importing_the_cli(
        [*PROCESS_POOL_MODULES, "gridperm.recurrences", "os", "marshal"]
    )
    assert loaded == ["gridperm.recurrences", "os", "marshal"]


# a call that needs one of these imports it where it first does: a
# Fraction, a CSV row, a seeded generator; annotations name
# collections.abc, not typing
DEFERRED_MODULES = ("fractions", "decimal", "numbers", "csv", "typing", "random")


def test_importing_the_cli_defers_fractions_csv_and_typing():
    # both modules are loaded, so the import reached the Fraction users
    # and the sampler
    loaded = _loaded_by_importing_the_cli(
        [*DEFERRED_MODULES, "gridperm.closed_forms", "gridperm.sampler"]
    )
    assert loaded == ["gridperm.closed_forms", "gridperm.sampler"]


def test_degrees_parse_error(capsys):
    code, out, err = run_cli(capsys, "degrees", "41x2")
    assert code == 2
    assert "position 3" in err


def test_degrees_refuses_an_empty_entry(capsys):
    code, out, err = run_cli(capsys, "degrees", "1,2,,3")
    assert code == 2
    assert out == ""
    assert "position 3" in err


def test_render(capsys):
    code, out, err = run_cli(capsys, "render", "12")
    assert code == 0
    assert out == "    o\n    |\no---o\n"
    code, out, err = run_cli(capsys, "render", "2134")
    assert code == 0
    assert out.splitlines()[-1] == "o---o---o---o"


def test_render_too_large(capsys):
    code, out, err = run_cli(capsys, "render", ",".join(str(v) for v in range(1, 41)))
    assert code == 0
    # 40 rows of vertices joined by 39 rows of vertical edges; V = 40 * 41 / 2
    assert len(out.splitlines()) == 79 and out.count("o") == 820
    code, out, err = run_cli(capsys, "render", ",".join(str(v) for v in range(1, 42)))
    assert code == 2
    assert out == ""


def test_degrees_names_a_repeat_in_a_long_word_briefly(capsys):
    word = list(range(1, 12_001))
    word[-1] = 1
    code, out, err = run_cli(capsys, "degrees", ",".join(map(str, word)))
    assert code == 2
    assert out == ""
    assert err == "error: not a permutation of 1..12000: entry at position 12000 repeats the value 1\n"
    assert len(err) < 100


# one call per usage-error site of the handlers
USAGE_ERRORS = [
    (("verify", "--modes", "magic,closed"), "unknown mode 'magic'; choose from brute, recurrence, closed"),
    (("verify", "--n-max", "4", "--modes", "closed,closed"), "verify needs at least two distinct modes to compare"),
    (("verify", "--n-min", "5", "--n-max", "4"), "need 0 <= n-min <= n-max"),
    (("verify", "--n-min", "-1", "--n-max", "4"), "need 0 <= n-min <= n-max"),
    (
        ("verify", "--n-max", "15", "--modes", "brute,closed"),
        "brute mode requested up to n=15, beyond the cap 14; lower --n-max or pass --force",
    ),
    (
        ("verify", "--n-min", "0", "--n-max", "1"),
        "modes recurrence,closed give nothing to compare for n=0..1 (closed forms start at n=2)",
    ),
    (("table", "--n-min", "0", "--n-max", "4"), "table needs n-min >= 2 (closed forms start there)"),
    (("table", "--n-min", "5", "--n-max", "4"), "need n-min <= n-max"),
    (("series-check", "--order", "7"), "series checks need --order >= 8"),
    (("sample", "--n", "1"), "sample needs --n >= 2"),
    (("sample", "--n", "5", "--count", "0"), "sample needs --count >= 1"),
    (("sample", "--n", "5", "--seed", "-1"), "sample needs --seed >= 0"),
    (("degrees", "41x2"), "bad character 'x' at position 3"),
    (("render", "1,2,,3"), "bad token '' at position 3"),
    (("render", ",".join(str(v) for v in range(1, 42))), "render_ascii supports n <= 40"),
    # argparse's own errors, in wording stable from Python 3.10 to 3.13
    (("verify", "--n-max", "x"), "argument --n-max: invalid int value: 'x'"),
    (("table", "--bogus"), "unrecognized arguments: --bogus"),
    (("sample",), "the following arguments are required: --n"),
    ((), "the following arguments are required: command"),
]


@pytest.mark.parametrize(
    "argv, message",
    USAGE_ERRORS,
    ids=[" ".join(argv)[:40] or "no command" for argv, _ in USAGE_ERRORS],
)
def test_usage_errors_exit_two_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# the choice lists' quoting differs between Python versions, so only
# the start of these lines is pinned
@pytest.mark.parametrize(
    "argv, start",
    [
        (("verify", "--format", "xml"), "error: argument --format: invalid choice"),
        (("frobnicate",), "error: argument command: invalid choice"),
    ],
    ids=["verify --format xml", "frobnicate"],
)
def test_parser_choice_errors_exit_two_with_one_error_line(capsys, argv, start):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")


def test_python_dash_m_gridperm_parser_error_and_help():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "gridperm", "table", "--bogus"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unrecognized arguments: --bogus\n"
    proc = subprocess.run(
        [sys.executable, "-m", "gridperm", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gridperm")


def test_verify_byte_identical_reruns(capsys):
    args = ("verify", "--n-min", "2", "--n-max", "12", "--modes", "recurrence,closed")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b
