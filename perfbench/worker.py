"""One repetition of a workload, in a fresh single-threaded interpreter.

    python3 perfbench/worker.py --root . --workload brute --seed 1 [--trace --spans FILE]

Imports ``gridperm`` from ``<root>/src``, makes the workload's calls
through ``gridperm.cli.main``, checks each output and prints one JSON
record on stdout.  Peak RSS is this process's own high-water mark, read
after the last call and before the output checks.  Untraced, the host's
speed is sampled alongside the calls (``calibrate.Meter``), and each
call's time excludes the time the samples took.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads


def _run(main, call: workloads.Call):
    check = workloads.OutputCheck(call)
    capture = workloads.Capture(check.on_line)
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(capture):
            status = main(list(call.argv))
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crashing call is a failed call, not a failed benchmark
        status, error = None, f"{type(exc).__name__}: {exc}"
    return check, capture, status, error, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import gridperm.cli
    import gridperm.closed_forms

    if not Path(gridperm.__file__).resolve().is_relative_to(src):
        print(f"gridperm imported from {gridperm.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = sites = None
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        sites = layers.install(tracer)
    calls = workloads.calls(args.workload, args.seed)
    meter = calibrate.Meter()
    calibrate.warm_up()
    origin = time.perf_counter()
    runs = []
    with contextlib.nullcontext() if args.trace else meter:
        for index, call in enumerate(calls):
            if tracer is not None:
                tracer.call_index, tracer.active = index, True
            spent_before = meter.spent_s
            check, capture, status, error, seconds = _run(gridperm.cli.main, call)
            runs.append((check, capture, status, error, seconds - (meter.spent_s - spent_before)))
            if tracer is not None:
                tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not meter.samples:  # traced, or shorter than one interval
        meter.samples.append(calibrate.sample())

    records = []
    for call, (check, capture, status, error, seconds) in zip(calls, runs):
        kept = check.finish(capture, gridperm.closed_forms.proportions)
        if error is not None:
            check.problems.insert(0, error)
        elif status != 0:
            check.problems.insert(0, f"exit status {status}")
        records.append({
            "label": call.label,
            "argv": list(call.argv),
            "seconds": seconds,
            "status": status,
            "ok": not check.problems,
            "problems": check.problems,
            "sha256": capture.sha256.hexdigest(),
            "stdout_bytes": capture.nbytes,
            **kept,
        })
    wall_s = sum(r["seconds"] for r in records)
    record = {
        "calls": records,
        "wall_s": wall_s,
        "scaled_wall_s": calibrate.scale(wall_s, meter.samples),
        "reference_samples": meter.samples,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        labels = [call.label for call in calls]
        stdout_bytes = sum(r["stdout_bytes"] for r in records)
        record["layers"] = layers.metrics(tracer, labels, stdout_bytes)
        record["binding_sites"] = sites
        record["spans"] = len(tracer)
        if args.spans is not None:
            tracer.write(args.spans, origin)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
