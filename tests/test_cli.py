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

from gridperm import cli, closed_forms, recurrences
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
    assert err.startswith("FAIL: integrality failure")
    assert "Traceback" not in err


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
    code, out, err = run_cli(capsys, "verify", "--modes", "magic,closed")
    assert code == 2


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
    has_limit = hasattr(sys, "get_int_max_str_digits")
    limit = sys.get_int_max_str_digits() if has_limit else None
    code, out, err = run_cli(capsys, "table", "--n-min", "7200", "--n-max", "7200")
    assert code == 0
    assert err == ""
    (row,) = parse_csv(out)
    assert len(row["B"]) == 4333
    if has_limit:
        assert sys.get_int_max_str_digits() == limit  # main restored it
        sys.set_int_max_str_digits(0)
    try:
        assert int(row["B"]) == math.comb(14400, 7200)
        assert sum(int(row[f"Q{r}"]) for r in range(1, 5)) == int(row["V"])
        assert sum(Fraction(row[f"prop{r}"]) for r in range(1, 5)) == 1
    finally:
        if has_limit:
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
    code, out, err = run_cli(capsys, "table", "--n-min", "0", "--n-max", "4")
    assert code == 2


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
    assert passes == [17]


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
    code, out, err = run_cli(capsys, "series-check", "--order", "7")
    assert code == 2


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


def test_importing_the_cli_loads_no_introspection_modules():
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    script = (
        "import json, sys, gridperm.cli; print(json.dumps("
        f"[m for m in {INTROSPECTION_MODULES!r} + ('gridperm.series',)"
        " if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # gridperm.series is loaded, so the import really reached the series code
    assert json.loads(proc.stdout) == ["gridperm.series"]


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
    word = ",".join(str(v) for v in range(1, 42))
    code, out, err = run_cli(capsys, "render", word)
    assert code == 2


def test_verify_byte_identical_reruns(capsys):
    args = ("verify", "--n-min", "2", "--n-max", "12", "--modes", "recurrence,closed")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b
