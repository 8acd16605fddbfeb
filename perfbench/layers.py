"""Per-layer instrumentation of ``gridperm`` for the traced run.

The benchmark wraps the package's public functions from outside; no file
of the package changes.  A function is rebound at every module attribute
that holds it, because the modules import by name (``cli`` holds its
own ``aggregate_brute``, ``sampler`` its own ``degree_histogram_fast``).
Each layer's metrics are named after its module.
"""

from __future__ import annotations

import functools
import importlib
import sys

from spans import Tracer, percentile, self_times

# (module, attribute, span name); a callable name is computed from the arguments
TIMED = (
    ("cli", "main", "cli.main"),
    ("enumeration", "aggregate_brute", "enumeration.aggregate_brute"),
    ("enumeration", "aggregate_stats", "enumeration.aggregate_stats"),
    ("grid_graph", "degree_histogram", "grid_graph.histogram"),
    ("grid_graph", "degree_histogram_fast", "grid_graph.fast_histogram"),
    ("recurrences", "horizontal_edges_by_length", "recurrences.H"),
    ("recurrences", "deg4_by_length", "recurrences.Q4"),
    ("recurrences", "internal_deg1_by_length", "recurrences.P"),
    ("recurrences", "initial_descents_by_length", "recurrences.D"),
    ("recurrences", "internal_min_by_length", "recurrences.J"),
    ("closed_forms", "closed_aggregate", "closed_forms.aggregate"),
    ("closed_forms", "closed_form_report", "closed_forms.report"),
    ("closed_forms", "deg2_deg3_totals", "closed_forms.q2q3"),
    ("series", "check_identity", lambda name, *args, **kwargs: f"series.{name}"),
    ("sampler", "empirical_report", "sampler.report"),
    ("sampler", "sample_av213", "sampler.draw"),
)
IDENTITIES = ("HFE", "HX", "PX", "Q4FE", "Q4X")
RECURRENCES = ("H", "Q4", "P", "D", "J")

# Counts the traced run must reproduce exactly at the seed commit; a
# miss means a binding site escaped the wrappers.  A change that alters
# one on purpose (say, one Q2/Q3 evaluation per table row) updates it here.
EXPECTED_COUNTS = {
    "brute": {"enumeration.members": 290_510, "grid_graph.histogram_calls": 290_510},
    "exact": {"closed_forms.aggregate_calls": 999 + 599, "closed_forms.q2q3_calls": 999 + 3 * 599},
    "sample": {"sampler.draws": 1_500 + 40_000, "grid_graph.fast_histogram_calls": 1_500 + 40_000},
}

# per-layer metric -> (end-to-end metrics it should move, workloads where it does)
MOVES = {
    "cli.self_s": ("scaled_wall_s, setup_s", "exact (4,995 verify rows); all"),
    "cli.stdout_bytes": ("scaled_wall_s", "all"),
    "enumeration.members": ("scaled_wall_s", "brute"),
    "enumeration.stream_s": ("scaled_wall_s", "brute"),
    "enumeration.aggregate_self_s": ("scaled_wall_s", "brute"),
    "grid_graph.histogram_calls": ("scaled_wall_s", "brute (per-vertex)"),
    "grid_graph.histogram_s": ("scaled_wall_s", "brute (per-vertex)"),
    "grid_graph.fast_histogram_calls": ("scaled_wall_s", "sample (per-column)"),
    "grid_graph.fast_histogram_s": ("scaled_wall_s", "sample (per-column)"),
    "recurrences.calls": ("scaled_wall_s", "exact; near zero on brute"),
    "recurrences.s": ("scaled_wall_s", "exact; near zero on brute"),
    **{f"recurrences.{r}_s": ("scaled_wall_s", "exact") for r in RECURRENCES},
    "closed_forms.aggregate_calls": ("scaled_wall_s", "exact"),
    "closed_forms.aggregate_s": ("scaled_wall_s", "exact"),
    "closed_forms.report_s": ("scaled_wall_s", "exact (table)"),
    "closed_forms.q2q3_calls": ("scaled_wall_s", "exact"),
    "series.check_calls": ("scaled_wall_s", "exact (series-check)"),
    "series.check_s": ("scaled_wall_s", "exact (series-check)"),
    "series.self_s": ("scaled_wall_s", "exact (series-check)"),
    **{f"series.{name}_s": ("scaled_wall_s", "exact (series-check)") for name in IDENTITIES},
    "sampler.draws": ("scaled_wall_s", "sample"),
    "sampler.draw_s": ("scaled_wall_s", "sample"),
    "sampler.wide_draw_p50_us": ("scaled_wall_s", "sample (wide)"),
    "sampler.wide_draw_p99_us": ("scaled_wall_s", "sample (wide)"),
    "sampler.narrow_draw_p50_us": ("scaled_wall_s", "sample (narrow)"),
    "sampler.narrow_draw_p99_us": ("scaled_wall_s", "sample (narrow)"),
    "sampler.table_builds": ("peak_rss_mb, scaled_wall_s", "sample (wide)"),
    "sampler.table_hit_ratio": ("scaled_wall_s", "sample"),
    "sampler.report_self_s": ("scaled_wall_s", "sample"),
    "trace.overhead_s": ("none: traced minus untraced wall_s", "all"),
}


def _rebind(original, replacement) -> int:
    """Replace ``original`` at every attribute of every loaded gridperm module."""
    sites = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "gridperm" and not module_name.startswith("gridperm."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                sites += 1
    return sites


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every instrumented function; returns the binding sites per function.

    A function the package no longer has is skipped, and its layer
    metrics read zero.
    """
    wrappers = [(m, a, functools.partial(tracer.timed, name=name)) for m, a, name in TIMED]
    wrappers.append((
        "enumeration", "enumerate_av213",
        functools.partial(tracer.timed_iterator, name="enumeration.next",
                          counter="enumeration.members"),
    ))
    sites = {}
    for module_name, attribute, wrap in wrappers:
        original = getattr(importlib.import_module(f"gridperm.{module_name}"), attribute, None)
        if original is not None:
            sites[f"{module_name}.{attribute}"] = _rebind(original, wrap(original))
    tables = getattr(importlib.import_module("gridperm.sampler"), "SplitTables", None)
    if tables is not None:
        tables.cumulative = _count_table_calls(tracer, tables.cumulative)
        sites["sampler.SplitTables.cumulative"] = 1
    return sites


def _count_table_calls(tracer: Tracer, cumulative):
    """Counts calls of ``SplitTables.cumulative`` and first calls per table object and m."""
    # keyed by id() but holding the object, so an id is not reused within a call
    seen: dict[int, tuple[object, set]] = {}
    seen_call = -1

    @functools.wraps(cumulative)
    def wrapper(self, m):
        nonlocal seen_call
        if tracer.active:
            if seen_call != tracer.call_index:
                seen.clear()
                seen_call = tracer.call_index
            tracer.counts["sampler.table_calls"] += 1
            _, sizes = seen.setdefault(id(self), (self, set()))
            if m not in sizes:
                sizes.add(m)
                tracer.counts["sampler.table_builds"] += 1
        return cumulative(self, m)

    return wrapper


def metrics(tracer: Tracer, labels: list[str], stdout_bytes: int) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, from the recorded spans."""
    names = [tracer.names[i] for i in tracer.name]
    durations = tracer.durations()
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    draws: dict[str, list[float]] = {}
    recurrence_s = 0.0
    for i, name in enumerate(names):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + durations[i]
        own[name] = own.get(name, 0.0) + selfs[i]
        if name == "sampler.draw":
            draws.setdefault(labels[tracer.call[i]], []).append(durations[i] * 1e6)
        parent = tracer.parent[i]
        if name.startswith("recurrences.") and not (
            parent >= 0 and names[parent].startswith("recurrences.")
        ):
            recurrence_s += durations[i]

    def layer_sum(table: dict, prefix: str):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    table_calls = tracer.counts["sampler.table_calls"]
    table_builds = tracer.counts["sampler.table_builds"]
    result = {
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "enumeration.members": tracer.counts["enumeration.members"],
        "enumeration.stream_s": total.get("enumeration.next", 0.0),
        "enumeration.aggregate_self_s": own.get("enumeration.aggregate_stats", 0.0),
        "grid_graph.histogram_calls": count.get("grid_graph.histogram", 0),
        "grid_graph.histogram_s": total.get("grid_graph.histogram", 0.0),
        "grid_graph.fast_histogram_calls": count.get("grid_graph.fast_histogram", 0),
        "grid_graph.fast_histogram_s": total.get("grid_graph.fast_histogram", 0.0),
        "recurrences.calls": layer_sum(count, "recurrences."),
        "recurrences.s": recurrence_s,
        **{f"recurrences.{r}_s": total.get(f"recurrences.{r}", 0.0) for r in RECURRENCES},
        "closed_forms.aggregate_calls": count.get("closed_forms.aggregate", 0),
        "closed_forms.aggregate_s": total.get("closed_forms.aggregate", 0.0),
        "closed_forms.report_s": total.get("closed_forms.report", 0.0),
        "closed_forms.q2q3_calls": count.get("closed_forms.q2q3", 0),
        "series.check_calls": layer_sum(count, "series."),
        "series.check_s": layer_sum(total, "series."),
        "series.self_s": layer_sum(own, "series."),
        **{f"series.{name}_s": total.get(f"series.{name}", 0.0) for name in IDENTITIES},
        "sampler.draws": count.get("sampler.draw", 0),
        "sampler.draw_s": own.get("sampler.draw", 0.0),
        "sampler.table_builds": table_builds,
        "sampler.table_hit_ratio": (table_calls - table_builds) / table_calls if table_calls else 0.0,
        "sampler.report_self_s": own.get("sampler.report", 0.0),
    }
    for label in ("wide", "narrow"):
        for q in (50, 99):
            result[f"sampler.{label}_draw_p{q}_us"] = percentile(draws.get(label, []), q / 100)
    return result


def missed_counts(workload: str, values: dict[str, float]) -> list[str]:
    """The completeness check: each expected count that the traced run missed."""
    return [
        f"{name} = {values[name]}, expected {expected}"
        for name, expected in EXPECTED_COUNTS.get(workload, {}).items()
        if values[name] != expected
    ]
