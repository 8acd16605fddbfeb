from __future__ import annotations

import csv
import dataclasses
import io
import json

import pytest

from gridperm import closed_forms
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
        stats = exact(n)
        return dataclasses.replace(stats, horizontal_edges=stats.horizontal_edges + 1)

    monkeypatch.setattr(closed_forms, "closed_aggregate", corrupted)
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "5", "--modes", "recurrence,closed"
    )
    assert code == 1
    assert "n=2" in err and "statistic=H" in err


def test_failed_exact_check_exits_one_without_traceback(capsys, monkeypatch):
    exact = closed_forms.deg4_total
    monkeypatch.setattr(closed_forms, "deg4_total", lambda n: exact(n) + 1)
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "5", "--modes", "recurrence,closed"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("FAIL: ") and "n=2" in err
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


def test_verify_cap_override_needs_force(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--n-max",
        "6",
        "--modes",
        "brute,closed",
        "--brute-cap",
        "15",
    )
    assert code == 2
    code, out, err = run_cli(
        capsys,
        "verify",
        "--n-max",
        "6",
        "--modes",
        "brute,closed",
        "--brute-cap",
        "15",
        "--force",
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


def test_series_check_order_floor(capsys):
    code, out, err = run_cli(capsys, "series-check", "--order", "7")
    assert code == 2


def test_sample_json_deterministic(capsys):
    args = ("sample", "--n", "8", "--count", "300", "--seed", "11")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["n"] == 8 and payload["seed"] == 11
    assert set(payload["mean_proportions"]) == {"0", "1", "2", "3", "4"}


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
    payload = json.loads(out)
    assert payload["counts"] == {"0": 0, "1": 2, "2": 6, "3": 2, "4": 0}
    assert payload["horizontal_edges"] == 4 and payload["n"] == 4


def test_degrees_parse_error(capsys):
    code, out, err = run_cli(capsys, "degrees", "41x2")
    assert code == 2
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


def test_brute_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("GRIDPERM_BRUTE_CAP", "5")
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "6", "--modes", "brute,closed"
    )
    assert code == 2
    assert "cap" in err
    code, out, err = run_cli(
        capsys, "verify", "--n-min", "2", "--n-max", "5", "--modes", "brute,closed"
    )
    assert code == 0


def test_brute_cap_env_var_ignored_without_brute_mode(capsys, monkeypatch):
    monkeypatch.setenv("GRIDPERM_BRUTE_CAP", "20")
    code, out, err = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert err == ""
    assert all(row["equal"] == "True" for row in parse_csv(out))


@pytest.mark.parametrize(
    "argv", [("verify", "--n-max", "4"), ("degrees", "4132")], ids=["verify", "degrees"]
)
def test_brute_cap_env_var_must_be_an_integer(capsys, monkeypatch, argv):
    monkeypatch.setenv("GRIDPERM_BRUTE_CAP", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: GRIDPERM_BRUTE_CAP must be an integer, got 'abc'\n"


def test_verify_byte_identical_reruns(capsys):
    args = ("verify", "--n-min", "2", "--n-max", "12", "--modes", "recurrence,closed")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b
