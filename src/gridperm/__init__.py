"""Exact, cross-verified degree statistics of permutation grid graphs.

Everything is computed over the 213-avoiding permutations of each
length (and, via reversal, the 312-avoiders) by three independent
routes: exhaustive enumeration, gluing recurrences and closed forms,
plus exact generating-function identity checks and an exactly uniform
random sampler.
"""

from .closed_forms import (
    asymptotic_proportions,
    central_binomial,
    closed_aggregate,
    closed_form_report,
    deg2_deg3_totals,
    expectations,
    proportions,
)
from .enumeration import (
    aggregate_brute,
    aggregate_stats,
    enumerate_av213,
)
from .grid_graph import degree_histogram, render_ascii
from .permutations import parse_permutation
from .recurrences import gluing_totals
from .sampler import empirical_report, sample_av213
from .series import (
    IDENTITY_IDS,
    TruncatedSeries,
    catalan_series,
    check_identity,
    half_power,
)

__version__ = "0.1.0"
