"""Exact, cross-verified degree statistics of permutation grid graphs.

Everything is computed over the 213-avoiding permutations of each
length (and, via reversal, the 312-avoiders) by three independent
routes: exhaustive enumeration, gluing recurrences and closed forms,
plus exact generating-function identity checks and an exactly uniform
random sampler.
"""

from .closed_forms import (
    ClosedFormReport,
    asymptotic_proportions,
    closed_aggregate,
    closed_form_report,
    deg1_total,
    deg2_deg3_totals,
    deg4_total,
    expectations,
    horizontal_edges_total,
    proportions,
    vertex_and_degree_totals,
)
from .enumeration import (
    AggregateStats,
    aggregate_brute,
    aggregate_stats,
    catalan,
    central_binomial,
    enumerate_av213,
)
from .grid_graph import (
    DegreeHistogram,
    deg1_external_count,
    degree_histogram,
    render_ascii,
)
from .permutations import (
    Decomposition,
    PatternViolationError,
    compose,
    contains_213,
    contains_312,
    decompose_by_min,
    format_permutation,
    parse_permutation,
    reverse,
    standardize,
)
from .recurrences import (
    deg4_by_length,
    horizontal_edges_by_length,
    initial_descents_by_length,
    internal_deg1_by_length,
    internal_min_by_length,
)
from .sampler import SampleReport, empirical_report, sample_av213
from .series import (
    IDENTITY_IDS,
    TruncatedSeries,
    catalan_series,
    check_identity,
    half_power,
    residual_report,
)

__version__ = "0.1.0"
