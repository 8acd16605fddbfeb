"""The benchmark's workloads: CLI call lists, expected outputs and output checks.

Each workload is a fixed list of ``gridperm`` CLI calls.  ``brute`` and
``exact`` are deterministic; only the two ``sample`` seeds are derived
from the workload seed, so a claim can be re-checked on a second seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass

# sha256 of stdout at the seed commit; byte-identical output is a
# roadmap aim, so a changed digest is a failed call.  ``sample`` has no
# digest because a sampler rewrite changes the seeded stream on purpose.
SEED_DIGESTS = {
    "verify --n-min 2 --n-max 12 --modes brute,recurrence,closed":
        "129a024ed73a00fdb2368dbd42e340bf8defa04ab189c05bff1dca15f6080893",
    "verify --n-min 2 --n-max 1000 --modes recurrence,closed":
        "6dddbd8f9e37ce9652616307c47e2c787a87760e13799c78b22a556cbebd9e9d",
    "series-check --order 256":
        "258b31f1af1d8c82fd6ad427b924256e38bd6cb7e2c8cef4d53ccfd0a6406af8",
    "table --n-min 2 --n-max 600":
        "80ffc6d30670613ecee12929fc7b0d8b0a88fc624732360d31cfaab1eb22db6d",
    "degrees 4132":
        "ee91b6741b45b507c6b63a2a2fb71f281bef3ec022ba91cbd7e240b1bf387114",
    "render 2134":
        "03d66de9da8754aa5a8508fe6561c793547d4f0055e6fd73e1b8f2d0d287898b",
}

SAMPLE_SIGMAS = 4


@dataclass(frozen=True)
class Call:
    """One CLI call.

    ``label`` names it in records, ``rows`` is its expected count of
    data rows, and ``rate`` names the items-per-second figure reported
    for it, with the number of items the call handles.
    """

    label: str
    argv: tuple[str, ...]
    rows: int | None = None
    rate: tuple[str, int] | None = None

    @property
    def digest(self) -> str | None:
        return SEED_DIGESTS.get(" ".join(self.argv))


def _sample_seeds(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return rng.randrange(2**31), rng.randrange(2**31)


def calls(workload: str, seed: int) -> list[Call]:
    """The workload's calls, in the order they run."""
    if workload == "brute":
        return [
            # 11 lengths x (5 + 12 + 5) compared statistics
            Call("verify", ("verify", "--n-min", "2", "--n-max", "12",
                            "--modes", "brute,recurrence,closed"),
                 rows=242, rate=("members_per_s", 290_510)),
        ]
    if workload == "exact":
        return [
            Call("verify", ("verify", "--n-min", "2", "--n-max", "1000",
                            "--modes", "recurrence,closed"), rows=4995),
            Call("series_check", ("series-check", "--order", "256"), rows=5),
            Call("table", ("table", "--n-min", "2", "--n-max", "600"), rows=599),
        ]
    if workload == "sample":
        wide, narrow = _sample_seeds(seed)
        return [
            Call("wide", ("sample", "--n", "1000", "--count", "1500", "--seed", str(wide)),
                 rate=("wide_draws_per_s", 1_500)),
            Call("narrow", ("sample", "--n", "40", "--count", "40000", "--seed", str(narrow)),
                 rate=("narrow_draws_per_s", 40_000)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Capture(io.TextIOBase):
    """Stand-in for stdout: hashes and counts what is written, line by line.

    Complete lines go to ``on_line`` as they arrive, so a multi-megabyte
    output is never held in memory and does not inflate peak RSS.
    """

    def __init__(self, on_line):
        self.sha256 = hashlib.sha256()
        self.nbytes = 0
        self._tail = ""
        self._on_line = on_line

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha256.update(data)
        self.nbytes += len(data)
        *lines, self._tail = (self._tail + text).split("\n")
        for line in lines:
            self._on_line(line)
        return len(text)


class OutputCheck:
    """Checks one call's stdout as it streams past; ``problems`` lists what failed."""

    def __init__(self, call: Call):
        self.call = call
        self.command = call.argv[0]
        self._header: list[str] | None = None
        self.rows = 0
        self.problems: list[str] = []
        self._kept: list[str] = []

    def on_line(self, line: str) -> None:
        if self.command == "sample":
            self._kept.append(line)
            return
        fields = line.split(",")
        if self._header is None:
            self._header = fields
            return
        self.rows += 1
        row = dict(zip(self._header, fields))
        if self.command == "verify" and row.get("equal") != "True":
            self._problem(f"verify row {self.rows} is not equal: {line[:120]}")
        if self.command == "series-check" and row.get("max_nonzero_index") != "-1":
            self._problem(f"nonzero residual: {line[:120]}")

    def _problem(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)

    def finish(self, capture: Capture, exact_proportions) -> dict:
        """Final checks; returns what the record keeps of this output."""
        kept = {}
        if self.call.rows is not None and self.rows != self.call.rows:
            self._problem(f"{self.rows} data rows, expected {self.call.rows}")
        digest = capture.sha256.hexdigest()
        if self.call.digest is not None and digest != self.call.digest:
            self._problem(f"stdout sha256 {digest} differs from the seed digest")
        if self.command == "sample":
            kept = self._check_sample("\n".join(self._kept), exact_proportions)
        return kept

    def _check_sample(self, text: str, exact_proportions) -> dict:
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            self._problem(f"sample output is not JSON: {exc}")
            return {}
        argv = self.call.argv
        asked = {key: int(argv[argv.index(flag) + 1])
                 for key, flag in (("n", "--n"), ("sample_count", "--count"), ("seed", "--seed"))}
        for key, value in asked.items():
            if report.get(key) != value:
                self._problem(f"sample echoes {key}={report.get(key)!r}, asked for {value}")
        if self.problems:
            return {"generator": report.get("generator")}
        exact = exact_proportions(asked["n"])
        exact[0] = 0
        for r in range(5):
            mean = report["mean_proportions"][str(r)]
            error = report["std_errors"][str(r)]
            if abs(mean - float(exact[r])) > SAMPLE_SIGMAS * error:
                self._problem(
                    f"degree-{r} share {mean} is more than {SAMPLE_SIGMAS} standard "
                    f"errors ({error}) from the exact {float(exact[r])}"
                )
        return {"generator": report.get("generator")}
