"""Set-up probe: a fresh interpreter imports ``gridperm.cli`` and answers its two quick calls.

    python3 perfbench/probe.py ROOT

Prints one JSON line: the CLOCK_MONOTONIC time at which ``degrees`` and
``render`` had both returned, then each call's argv, exit status and
stdout sha256.  The caller subtracts the time at which it started this
process, so set-up time covers interpreter start, imports, building the
argument parser and the two millisecond-scale answers.
"""

import io
import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")

import gridperm.cli  # noqa: E402

# both cost milliseconds, so their time is interpreter and import start-up
SETUP_CALLS = (("degrees", "4132"), ("render", "2134"))

outputs = []
for argv in SETUP_CALLS:
    sys.stdout = io.StringIO()
    try:
        status = gridperm.cli.main(list(argv))
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code
    outputs.append((argv, status, sys.stdout.getvalue()))
done = time.clock_gettime(time.CLOCK_MONOTONIC)
sys.stdout = sys.__stdout__

import hashlib  # noqa: E402
import json  # noqa: E402

print(json.dumps({
    "done": done,
    "calls": [
        {"argv": list(argv), "status": status,
         "sha256": hashlib.sha256(text.encode()).hexdigest()}
        for argv, status, text in outputs
    ],
}))
