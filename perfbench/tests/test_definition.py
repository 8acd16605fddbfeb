"""BENCHMARK.json, the workloads and the layer map agree with one another.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_every_per_layer_metric_names_what_it_should_move():
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert per_layer == list(layers.MOVES)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for moves, _workload in layers.MOVES.values():
        named = {part.strip() for part in moves.split(",")}
        assert named <= end_to_end or moves.startswith("none")


def test_every_workload_has_calls_and_completeness_counts():
    for workload in (w["name"] for w in BENCH["workloads"]):
        assert workloads.calls(workload, seed=1)
        assert set(layers.EXPECTED_COUNTS[workload]) <= set(layers.MOVES)


def test_only_sample_seeds_depend_on_the_workload_seed():
    for workload in ("brute", "exact"):
        assert workloads.calls(workload, 1) == workloads.calls(workload, 2)
    first, second = workloads.calls("sample", 1), workloads.calls("sample", 2)
    assert first == workloads.calls("sample", 1)
    assert [c.argv[-1] for c in first] != [c.argv[-1] for c in second]
    assert all(c.digest is None for c in first)


def test_output_check_flags_an_unequal_verify_row():
    call = workloads.calls("brute", 1)[0]
    check = workloads.OutputCheck(call)
    capture = workloads.Capture(check.on_line)
    capture.write("n,statistic,modes,equal,lhs,rhs\n")
    capture.write("2,H,brute/recurrence,True,1,1\n")
    capture.write("2,Q4,brute/recurrence,False,1,2\n")
    check.finish(capture, exact_proportions=None)
    assert check.rows == 2
    assert any("not equal" in p for p in check.problems)
    assert any("242" in p for p in check.problems)
    assert any("seed digest" in p for p in check.problems)
