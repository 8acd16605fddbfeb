"""The gridperm benchmark.

    python3 perfbench/run.py --workload brute|exact|sample --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh single-threaded interpreter (``worker.py``) that calls
``gridperm.cli.main`` for every call of the workload and checks every
output; one caller, closed loop.  With ``--trace 0`` repetitions run
until ``--seconds`` would be exceeded (at least one), set-up time is
taken from fresh interpreters (``probe.py``), and the end-to-end metrics
are medians.  Times are gated at reference host speed (``calibrate.py``):
the host's speed drifts by more than the bounds over minutes, and a
reference timed alongside the workload and the set-up probes takes that
out.  With ``--trace 1`` one untraced and one traced repetition
run, the traced one with every layer of the package wrapped, and the
per-layer metrics come from its spans.

Human-readable lines go first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with provenance, is written under ``perfbench/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"
PROBE_BATCH = 5
DEADLINE_S = 170


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package sources, which names the code where no commit is known."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridperm").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _python(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        # no inherited PYTHONPATH, interpreter flags or GRIDPERM_BRUTE_CAP
        env={k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GRIDPERM_"))},
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def _last_line(proc: subprocess.CompletedProcess, what: str) -> str:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines[-1]


def _last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    return json.loads(_last_line(proc, what))


def _setup_probe(deadline: float) -> dict:
    """One set-up probe, followed by one reference start-up."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = _last_json_line(_python([str(HERE / "probe.py"), str(ROOT)], deadline), "set-up probe")
    result["seconds"] = result["done"] - started
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    reference = _python(["-c", calibrate.STARTUP_CODE], deadline)
    result["reference_s"] = float(_last_line(reference, "reference start-up")) - started
    for call in result["calls"]:
        problems = []
        if call["status"] != 0:
            problems.append(f"exit status {call['status']}")
        expected = workloads.SEED_DIGESTS[" ".join(call["argv"])]
        if call["sha256"] != expected:
            problems.append(f"stdout sha256 {call['sha256']} differs from the seed digest")
        call.update(ok=not problems, problems=problems)
    return result


def _repetition(args, deadline: float, trace: bool = False) -> dict:
    extra = []
    if trace:
        RECORDS.mkdir(exist_ok=True)
        spans = RECORDS / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        extra = ["--trace", "--spans", str(spans)]
    proc = _python([
        str(HERE / "worker.py"), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), *extra,
    ], deadline)
    return _last_json_line(proc, "worker")


def _median_call_metrics(calls, reps: list[dict]) -> dict[str, dict]:
    """Per-call times and rates, medians over the repetitions."""
    result = {}
    for index, call in enumerate(calls):
        seconds = statistics.median(rep["calls"][index]["seconds"] for rep in reps)
        result[f"{call.label}_s"] = {"value": seconds, "unit": "s"}
        if call.rate is not None:
            name, items = call.rate
            result[name] = {"value": items / seconds, "unit": "1/s"}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="gridperm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gridperm" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no gridperm sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(why)}",
              file=sys.stderr)
        return 2

    probes, reps, problems = [], [], []
    traced = None
    if args.trace:
        reps.append(_repetition(args, deadline))
        traced = _repetition(args, deadline, trace=True)
    else:
        _setup_probe(deadline)  # fills the bytecode cache; not counted
        started = time.monotonic()
        # set-up probes run in batches around the repetitions, so that
        # their median samples the host over the whole run
        while True:
            probes += [_setup_probe(deadline) for _ in range(PROBE_BATCH)]
            reps.append(_repetition(args, deadline))
            elapsed = time.monotonic() - started
            if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        probes += [_setup_probe(deadline) for _ in range(PROBE_BATCH)]

    calls = [c for p in probes for c in p["calls"]]
    calls += [c for rep in reps + [traced] if rep for c in rep["calls"]]
    failed = [c for c in calls if not c["ok"]]
    problems += [f"{' '.join(c['argv'])}: {'; '.join(c['problems'])}" for c in failed]

    if args.trace:
        for untraced_call, traced_call in zip(reps[0]["calls"], traced["calls"]):
            if untraced_call["sha256"] != traced_call["sha256"]:
                problems.append(f"{traced_call['label']}: traced stdout differs from untraced")
        measured = dict(traced["layers"])
        measured["trace.overhead_s"] = traced["wall_s"] - reps[0]["wall_s"]
        problems += [f"completeness: {m}" for m in layers.missed_counts(args.workload, measured)]
        wanted = bench["per_layer"]
    else:
        setup_s = statistics.median(p["seconds"] for p in probes)
        measured = {
            "setup_s": calibrate.scale_setup([(p["seconds"], p["reference_s"]) for p in probes]),
            "scaled_wall_s": statistics.median(rep["scaled_wall_s"] for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    call_metrics = _median_call_metrics(workloads.calls(args.workload, args.seed), reps)
    call_metrics["wall_s"] = {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"}
    if probes:
        call_metrics["unscaled_setup_s"] = {"value": setup_s, "unit": "s"}

    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repetitions": len(reps),
        "setup_probes": probes,
        "runs": reps,
        "traced_run": traced,
        "metrics": metrics,
        "call_metrics": call_metrics,
        "moves": layers.MOVES if args.trace else None,
        "problems": problems,
    }
    RECORDS.mkdir(exist_ok=True)
    record_file = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} commit={record['commit']} python={record['python']} "
          f"nproc={record['nproc']}")
    for call in reps[0]["calls"]:
        generator = f" generator={call['generator']!r}" if "generator" in call else ""
        print(f"call {call['label']}: gridperm {' '.join(call['argv'])}{generator}")
    for name, metric in {**metrics, **call_metrics}.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {len(failed) / len(calls):.6g} ({len(failed)} of {len(calls)} calls)")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record: {record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
