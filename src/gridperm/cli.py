"""Command-line front end: verification, tables, series checks, sampling.

``verify`` and ``table`` stream their rows: each row is written as soon
as its n is computed, so memory does not grow with the range.
``verify`` reads the recurrence route from ``recurrences.gluing_stream``,
so its rows of one n are written while the forked child counts the
next.  Every check raises where it fails, and the run ends there: an
exact check, recurrence checks included, before the rows of its n; a
mismatch between routes after them.  The complete rows already written
stay on stdout and the ``FAIL:`` line follows on stderr; a reader that
closes stdout early stops the work at the next flush of stdout's
buffer, and the stream's child with it.

Handlers return nothing; ``main`` alone turns each outcome into an
exit code.  0 on success.  1 when a check fails, which the handler or
the exact arithmetic raises as RuntimeError and ``main`` reports as one
``FAIL:`` line on stderr: a mismatch between ``verify`` routes, a
nonzero ``series-check`` residual, integrality of the closed forms,
the Q2/Q3 two-route check, a series coefficient (including the halving
that reads the Catalan series off sqrt(1 - 4x)) or the Q4X constant
term.  2 for usage errors, reported as one ``error:`` line with nothing
on stdout (argparse's own errors, malformed permutation strings, fewer
than two distinct verify modes, a verify range and mode set that give no
comparison, brute mode past the enumeration cap without ``--force``, and
a negative sample seed).  141 (128 + SIGPIPE) when the reader of stdout
closes it early, as ``head`` does; it wins over 1, whose ``FAIL:`` line
is still written.  ``--help`` alone still ends in argparse, with exit 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import closed_forms, recurrences, series
from .enumeration import CSV_FIELDS, DEFAULT_BRUTE_CAP, aggregate_brute
from .grid_graph import degree_histogram, render_ascii
from .permutations import parse_permutation
from .sampler import empirical_report

MODES = ("brute", "recurrence", "closed")
STAT_ORDER = CSV_FIELDS[1:]


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it with the default dialect."""
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    return "" if value is None else str(value)


def _emit(rows, fmt: str) -> None:
    """Write each row dict to stdout as soon as the iterable yields it.

    The bytes equal one ``json.dumps(list(rows), indent=2)`` line, or
    what ``csv.writer(sys.stdout, lineterminator="\n")`` writes for a
    header line from the first row's keys and then one line per row,
    without holding more than one row.
    """
    if fmt == "json":
        opening = "[\n"
        for row in rows:
            # rows are flat, so each is formatted here: json.dumps with
            # an indent builds a pure-Python encoder whose closures are
            # reference cycles, garbage for the cyclic collector per row
            fields = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in row.items())
            sys.stdout.write(f"{opening}  {{\n{fields}\n  }}")
            opening = ",\n"
        sys.stdout.write("[]\n" if opening == "[\n" else "\n]\n")
    else:
        # one join per row: csv.writer scans every character of the
        # digits for a quote it never needs
        for index, row in enumerate(rows):
            if not index:
                sys.stdout.write(",".join(map(_csv_field, row)) + "\n")
            sys.stdout.write(",".join(map(_csv_field, row.values())) + "\n")


class _UsageError(Exception):
    """A bad command line; ``main`` prints its message and exits 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main`` as usage errors."""

    def error(self, message):
        raise _UsageError(message)


def _mode_values(mode, n, n_max, recurrence):
    """Statistic values at one n for one computation route; empty where it has none."""
    if mode == "brute":
        return aggregate_brute(n, n_max)
    if mode == "recurrence":
        return next(recurrence)
    return closed_forms.closed_aggregate(n) if n >= 2 else {}


def _comparisons(modes, n_min, n_max):
    """Yield one row per (n, statistic, mode pair), one n at a time.

    Every route computes each n when its rows are due; the recurrence
    route reads it from one gluing stream over 0..n_max, which is closed
    when this generator ends or is closed.  After the rows of an n with
    an unequal row, RuntimeError names the first.
    """
    stream = recurrences.gluing_stream(n_max) if "recurrence" in modes else None
    recurrence = itertools.islice(stream, n_min, None) if stream else None
    try:
        for n in range(n_min, n_max + 1):
            values = {mode: _mode_values(mode, n, n_max, recurrence) for mode in modes}
            mismatch = None
            for stat in STAT_ORDER:
                for lhs_mode, rhs_mode in itertools.combinations(modes, 2):
                    lhs, rhs = values[lhs_mode], values[rhs_mode]
                    if stat not in lhs or stat not in rhs:
                        continue
                    row = {
                        "n": n,
                        "statistic": stat,
                        "modes": f"{lhs_mode}/{rhs_mode}",
                        "equal": lhs[stat] == rhs[stat],
                        "lhs": lhs[stat],
                        "rhs": rhs[stat],
                    }
                    if not (row["equal"] or mismatch):
                        mismatch = row
                    yield row
            if mismatch:
                raise RuntimeError(
                    f"first mismatch at n={n}, statistic={mismatch['statistic']} "
                    f"({mismatch['modes']}): lhs={mismatch['lhs']}, rhs={mismatch['rhs']}, "
                    f"lhs - rhs={mismatch['lhs'] - mismatch['rhs']}"
                )
    finally:
        if stream:
            stream.close()


def cmd_verify(args) -> None:
    requested = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in requested:
        if mode not in MODES:
            raise _UsageError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    modes = [m for m in MODES if m in requested]
    if len(modes) < 2:
        raise _UsageError("verify needs at least two distinct modes to compare")
    if args.n_min > args.n_max or args.n_min < 0:
        raise _UsageError("need 0 <= n-min <= n-max")
    if "brute" in modes and args.n_max > DEFAULT_BRUTE_CAP and not args.force:
        raise _UsageError(
            f"brute mode requested up to n={args.n_max}, beyond the cap {DEFAULT_BRUTE_CAP}; "
            f"lower --n-max or pass --force"
        )
    rows = _comparisons(modes, args.n_min, args.n_max)
    try:
        first = next(rows, None)  # refuse before anything reaches stdout
        if first is None:
            raise _UsageError(
                f"modes {','.join(modes)} give nothing to compare for "
                f"n={args.n_min}..{args.n_max} (closed forms start at n=2)"
            )
        _emit(itertools.chain([first], rows), args.format)
    finally:
        rows.close()  # ends the gluing stream's child, however the rows end


def _table_rows(n_min, n_max):
    for n in range(n_min, n_max + 1):
        report = closed_forms.closed_form_report(n)
        row = dict(report["values"])
        row["B"] = closed_forms.central_binomial(n)
        for r, share in report["proportions"].items():
            row[f"prop{r}"] = f"{share.numerator}/{share.denominator}"
        for r, prediction in report["asymptotic"].items():
            row[f"pred{r}"] = format(prediction, ".12g")
        yield row


def cmd_table(args) -> None:
    if args.n_min < 2:
        raise _UsageError("table needs n-min >= 2 (closed forms start there)")
    if args.n_min > args.n_max:
        raise _UsageError("need n-min <= n-max")
    _emit(_table_rows(args.n_min, args.n_max), args.format)


def cmd_series_check(args) -> None:
    if args.order < 8:
        raise _UsageError("series checks need --order >= 8")
    totals = recurrences.gluing_totals(args.order)
    rows = [
        series.residual_summary(name, series.check_identity(name, args.order, totals))
        for name in series.IDENTITY_IDS
    ]
    _emit(rows, args.format)
    failures = [row for row in rows if row["max_nonzero_index"] != -1]
    if failures:
        raise RuntimeError(f"nonzero residual for {failures[0]['identity']}")


def cmd_sample(args) -> None:
    if args.n < 2:
        raise _UsageError("sample needs --n >= 2")
    if args.count < 1:
        raise _UsageError("sample needs --count >= 1")
    if args.seed < 0:
        # random.Random(-s) seeds like Random(s)
        raise _UsageError("sample needs --seed >= 0")
    report = empirical_report(args.n, args.count, args.seed)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        fields = ("n", "sample_count", "seed", "generator", "mean_h")
        row = {field: report[field] for field in fields}
        row.update({f"mean_prop{r}": p for r, p in report["mean_proportions"].items()})
        row.update({f"stderr{r}": e for r, e in report["std_errors"].items()})
        _emit([row], "csv")


def cmd_degrees(args) -> None:
    try:
        word = parse_permutation(args.word)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    counts, h = degree_histogram(word)
    payload = {"n": len(word), "counts": dict(enumerate(counts)), "horizontal_edges": h}
    print(json.dumps(payload))


def cmd_render(args) -> None:
    try:
        word = parse_permutation(args.word)
        art = render_ascii(word)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(art)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridperm",
        description="Exact degree statistics of permutation grid graphs over Av_n(213)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="cross-check computation routes")
    verify.add_argument("--n-min", type=int, default=2)
    verify.add_argument("--n-max", type=int, default=10)
    verify.add_argument(
        "--modes",
        default="recurrence,closed",
        help="comma-separated subset of brute,recurrence,closed",
    )
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument(
        "--force",
        action="store_true",
        help=f"allow brute mode past n={DEFAULT_BRUTE_CAP}",
    )
    verify.set_defaults(handler=cmd_verify)

    table = sub.add_parser("table", help="closed-form totals per n")
    table.add_argument("--n-min", type=int, default=2)
    table.add_argument("--n-max", type=int, default=12)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(handler=cmd_table)

    series_check = sub.add_parser("series-check", help="generating-function residuals")
    series_check.add_argument("--order", type=int, default=64)
    series_check.add_argument("--format", choices=("csv", "json"), default="csv")
    series_check.set_defaults(handler=cmd_series_check)

    sample = sub.add_parser("sample", help="uniform sampling report")
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--count", type=int, default=1000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--format", choices=("csv", "json"), default="json")
    sample.set_defaults(handler=cmd_sample)

    degrees = sub.add_parser("degrees", help="degree histogram of one permutation")
    degrees.add_argument("word")
    degrees.set_defaults(handler=cmd_degrees)

    render = sub.add_parser("render", help="character drawing of one grid graph")
    render.add_argument("word")
    render.set_defaults(handler=cmd_render)

    return parser


def main(argv=None) -> int:
    # exact totals pass the interpreter's int->str digit limit (4,300
    # by default) near n = 7,200; lift it for this call
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            args = _build_parser().parse_args(argv)
            args.handler(args)
            status = 0
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        except RuntimeError as exc:
            # a failed check: the exit-1 list in the module docstring
            print(f"FAIL: {exc}", file=sys.stderr)
            status = 1
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout early; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
