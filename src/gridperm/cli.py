"""Command-line front end: verification, tables, series checks, sampling.

Exit codes: 0 on success; 1 when a requested verification fails, which
is either a mismatch between routes or an exact check raising
RuntimeError (integrality, the Q2/Q3 two-route check, a series
coefficient or the Q4X constant term), reported as one ``FAIL:`` line
on stderr; 2 for usage errors (including malformed permutation strings,
fewer than two distinct verify modes, a verify range and mode set that
give no comparison, and a non-integer GRIDPERM_BRUTE_CAP).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import closed_forms, recurrences, series
from .enumeration import DEFAULT_BRUTE_CAP, aggregate_brute, central_binomial
from .grid_graph import degree_histogram, render_ascii
from .permutations import parse_permutation
from .sampler import empirical_report

BRUTE_CAP_ENV = "GRIDPERM_BRUTE_CAP"
MODES = ("brute", "recurrence", "closed")
STAT_ORDER = ("class_size", "H", "V", "Sigma", "Q1", "Q2", "Q3", "Q4", "D", "A", "J", "P")
RECURRENCE_STATS = ("H", "Q4", "D", "J", "P")


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _mode_values(mode, n_min, n_max, cap):
    """Per-n statistic values for one computation route."""
    values: dict[int, dict[str, int]] = {}
    if mode == "brute":
        for n in range(n_min, n_max + 1):
            values[n] = aggregate_brute(n, cap).to_row()
    elif mode == "recurrence":
        sequences = {
            "H": recurrences.horizontal_edges_by_length(n_max),
            "Q4": recurrences.deg4_by_length(n_max),
            "D": recurrences.initial_descents_by_length(n_max),
            "J": recurrences.internal_min_by_length(n_max),
            "P": recurrences.internal_deg1_by_length(n_max),
        }
        for n in range(n_min, n_max + 1):
            values[n] = {stat: sequences[stat][n] for stat in RECURRENCE_STATS}
    else:
        for n in range(max(n_min, 2), n_max + 1):
            values[n] = closed_forms.closed_aggregate(n).to_row()
    return values


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
    cap = args.brute_cap
    if "brute" in modes:
        if cap > DEFAULT_BRUTE_CAP and not args.force:
            return _usage_error(
                f"brute cap {cap} exceeds {DEFAULT_BRUTE_CAP}; pass --force to confirm"
            )
        if args.n_max > cap:
            return _usage_error(
                f"brute mode requested up to n={args.n_max}, beyond the cap {cap}; "
                f"lower --n-max or raise --brute-cap"
            )
    values = {mode: _mode_values(mode, args.n_min, args.n_max, cap) for mode in modes}
    rows = []
    first_failure = None
    for n in range(args.n_min, args.n_max + 1):
        for stat in STAT_ORDER:
            for a in range(len(modes)):
                for b in range(a + 1, len(modes)):
                    lhs = values[modes[a]].get(n, {})
                    rhs = values[modes[b]].get(n, {})
                    if stat not in lhs or stat not in rhs:
                        continue
                    equal = lhs[stat] == rhs[stat]
                    rows.append(
                        {
                            "n": n,
                            "statistic": stat,
                            "modes": f"{modes[a]}/{modes[b]}",
                            "equal": equal,
                            "lhs": lhs[stat],
                            "rhs": rhs[stat],
                        }
                    )
                    if not equal and first_failure is None:
                        first_failure = (n, stat, f"{modes[a]}/{modes[b]}")
    if not rows:
        return _usage_error(
            f"modes {','.join(modes)} give nothing to compare for "
            f"n={args.n_min}..{args.n_max} (closed forms start at n=2)"
        )
    _emit(rows, args.format)
    if first_failure is not None:
        n, stat, pair = first_failure
        print(
            f"FAIL: first mismatch at n={n}, statistic={stat} ({pair})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_table(args) -> int:
    if args.n_min < 2:
        return _usage_error("table needs n-min >= 2 (closed forms start there)")
    if args.n_min > args.n_max:
        return _usage_error("need n-min <= n-max")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        report = closed_forms.closed_form_report(n)
        row = report.values.to_row()
        row["B"] = central_binomial(n)
        for r in range(1, 5):
            row[f"prop{r}"] = closed_forms.fraction_str(report.proportions[r])
        for r in range(1, 5):
            row[f"pred{r}"] = closed_forms.format_float(report.asymptotic[r])
        rows.append(row)
    _emit(rows, args.format)
    return 0


def cmd_series_check(args) -> int:
    if args.order < 8:
        return _usage_error("series checks need --order >= 8")
    rows = [series.residual_report(name, args.order) for name in series.IDENTITY_IDS]
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
    report = empirical_report(args.n, args.count, args.seed)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        row = {
            "n": report.n,
            "sample_count": report.sample_count,
            "seed": report.seed,
            "generator": report.generator,
            "mean_h": report.mean_h,
        }
        for r in range(5):
            row[f"mean_prop{r}"] = report.mean_proportions[r]
        for r in range(5):
            row[f"stderr{r}"] = report.std_errors[r]
        _emit([row], "csv")
    return 0


def cmd_degrees(args) -> int:
    try:
        word = parse_permutation(args.word)
    except ValueError as exc:
        return _usage_error(str(exc))
    print(json.dumps(degree_histogram(word).to_json_dict()))
    return 0


def cmd_render(args) -> int:
    try:
        word = parse_permutation(args.word)
        art = render_ascii(word)
    except ValueError as exc:
        return _usage_error(str(exc))
    print(art)
    return 0


def _build_parser(brute_cap: int) -> argparse.ArgumentParser:
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
    verify.add_argument("--brute-cap", type=int, default=brute_cap)
    verify.add_argument("--force", action="store_true")
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
    env = os.environ.get(BRUTE_CAP_ENV)
    try:
        brute_cap = int(env) if env else DEFAULT_BRUTE_CAP
    except ValueError:
        return _usage_error(f"{BRUTE_CAP_ENV} must be an integer, got {env!r}")
    args = _build_parser(brute_cap).parse_args(argv)
    try:
        return args.handler(args)
    except RuntimeError as exc:
        # an exact check failed: integrality, the Q2/Q3 two-route check,
        # a series coefficient or the Q4X constant term
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
