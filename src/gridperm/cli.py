"""Command-line front end: verification, tables, series checks, sampling.

``verify`` and ``table`` stream their rows: each row is written as soon
as its n is computed, so memory does not grow with the range (``verify``
keeps the recurrence route's five gluing sequences, from one pass over
the whole range).  When an exact check fails mid-range, the complete
rows already written stay on stdout and the ``FAIL:`` line follows on
stderr; a reader that closes stdout early stops the work at the next
flush of stdout's buffer.

Exit codes: 0 on success; 1 when a requested verification fails, which
is either a mismatch between routes or an exact check raising
RuntimeError (integrality, the Q2/Q3 two-route check, a series
coefficient or the Q4X constant term), reported as one ``FAIL:`` line
on stderr; 2 for usage errors (including malformed permutation strings,
fewer than two distinct verify modes, a verify range and mode set that
give no comparison, brute mode past the enumeration cap without
``--force``, and a negative sample seed); 141
(128 + SIGPIPE) when the reader of stdout closes it early, as ``head``
does.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

from . import closed_forms, recurrences, series
from .enumeration import CSV_FIELDS, DEFAULT_BRUTE_CAP, aggregate_brute, central_binomial
from .grid_graph import degree_histogram, render_ascii
from .permutations import parse_permutation
from .sampler import empirical_report

MODES = ("brute", "recurrence", "closed")
STAT_ORDER = CSV_FIELDS[1:]


def _emit(rows, fmt: str) -> None:
    """Write each row dict to stdout as soon as the iterable yields it.

    The bytes equal one ``json.dumps(list(rows), indent=2)`` line, or a
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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for index, row in enumerate(rows):
            if not index:
                writer.writerow(row.keys())
            writer.writerow(row.values())


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _mode_values(mode, n, n_max, sequences):
    """Statistic values at one n for one computation route; empty where it has none."""
    if mode == "brute":
        return aggregate_brute(n, n_max)
    if mode == "recurrence":
        return {stat: seq[n] for stat, seq in sequences.items()}
    return closed_forms.closed_aggregate(n) if n >= 2 else {}


def _comparisons(modes, n_min, n_max, mismatches):
    """Yield one row per (n, statistic, mode pair), one n at a time.

    The recurrence route is one gluing pass over the whole range, made
    up front; the other routes compute each n when its rows are due.
    The first unequal row is appended to ``mismatches``.
    """
    sequences = recurrences.gluing_totals(n_max) if "recurrence" in modes else None
    for n in range(n_min, n_max + 1):
        values = {mode: _mode_values(mode, n, n_max, sequences) for mode in modes}
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
                if not row["equal"] and not mismatches:
                    mismatches.append(row)
                yield row


def cmd_verify(args) -> int:
    requested = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in requested:
        if mode not in MODES:
            return _usage_error(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    modes = [m for m in MODES if m in requested]
    if len(modes) < 2:
        return _usage_error("verify needs at least two distinct modes to compare")
    if args.n_min > args.n_max or args.n_min < 0:
        return _usage_error("need 0 <= n-min <= n-max")
    if "brute" in modes and args.n_max > DEFAULT_BRUTE_CAP and not args.force:
        return _usage_error(
            f"brute mode requested up to n={args.n_max}, beyond the cap {DEFAULT_BRUTE_CAP}; "
            f"lower --n-max or pass --force"
        )
    mismatches = []
    rows = _comparisons(modes, args.n_min, args.n_max, mismatches)
    first = next(rows, None)  # refuse before anything reaches stdout
    if first is None:
        return _usage_error(
            f"modes {','.join(modes)} give nothing to compare for "
            f"n={args.n_min}..{args.n_max} (closed forms start at n=2)"
        )
    _emit(itertools.chain([first], rows), args.format)
    if mismatches:
        row = mismatches[0]
        print(
            f"FAIL: first mismatch at n={row['n']}, statistic={row['statistic']} "
            f"({row['modes']}): lhs={row['lhs']}, rhs={row['rhs']}, "
            f"lhs - rhs={row['lhs'] - row['rhs']}",
            file=sys.stderr,
        )
        return 1
    return 0


def _table_rows(n_min, n_max):
    for n in range(n_min, n_max + 1):
        report = closed_forms.closed_form_report(n)
        row = dict(report["values"])
        row["B"] = central_binomial(n)
        for r, share in report["proportions"].items():
            row[f"prop{r}"] = f"{share.numerator}/{share.denominator}"
        for r, prediction in report["asymptotic"].items():
            row[f"pred{r}"] = format(prediction, ".12g")
        yield row


def cmd_table(args) -> int:
    if args.n_min < 2:
        return _usage_error("table needs n-min >= 2 (closed forms start there)")
    if args.n_min > args.n_max:
        return _usage_error("need n-min <= n-max")
    _emit(_table_rows(args.n_min, args.n_max), args.format)
    return 0


def cmd_series_check(args) -> int:
    if args.order < 8:
        return _usage_error("series checks need --order >= 8")
    totals = recurrences.gluing_totals(args.order + 1)
    rows = [
        series.residual_summary(name, series.check_identity(name, args.order, totals))
        for name in series.IDENTITY_IDS
    ]
    _emit(rows, args.format)
    failures = [row for row in rows if row["max_nonzero_index"] != -1]
    if failures:
        print(
            f"FAIL: nonzero residual for {failures[0]['identity']}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sample(args) -> int:
    if args.n < 2:
        return _usage_error("sample needs --n >= 2")
    if args.count < 1:
        return _usage_error("sample needs --count >= 1")
    if args.seed < 0:
        # random.Random(-s) seeds like Random(s)
        return _usage_error("sample needs --seed >= 0")
    report = empirical_report(args.n, args.count, args.seed)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        fields = ("n", "sample_count", "seed", "generator", "mean_h")
        row = {field: report[field] for field in fields}
        row.update({f"mean_prop{r}": p for r, p in report["mean_proportions"].items()})
        row.update({f"stderr{r}": e for r, e in report["std_errors"].items()})
        _emit([row], "csv")
    return 0


def cmd_degrees(args) -> int:
    try:
        word = parse_permutation(args.word)
    except ValueError as exc:
        return _usage_error(str(exc))
    counts, h = degree_histogram(word)
    payload = {"n": len(word), "counts": dict(enumerate(counts)), "horizontal_edges": h}
    print(json.dumps(payload))
    return 0


def cmd_render(args) -> int:
    try:
        word = parse_permutation(args.word)
        art = render_ascii(word)
    except ValueError as exc:
        return _usage_error(str(exc))
    print(art)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    # exact totals pass the interpreter's int->str digit limit (4,300
    # by default) near n = 7,200; lift it for this call where it exists
    digit_limit = (
        sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    )
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return status
    except RuntimeError as exc:
        # an exact check failed: integrality, the Q2/Q3 two-route check,
        # a series coefficient or the Q4X constant term
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
