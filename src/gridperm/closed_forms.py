"""Closed-form evaluation of every classwise total, in exact arithmetic.

Each formula mixes central binomials with powers of four over a
polynomial denominator; that such quotients are integers is itself a
nontrivial fact, so every evaluation goes through rationals and asserts
integrality before returning.  Floats appear only in the asymptotic
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import AggregateStats, catalan, central_binomial

_SQRT_PI = math.sqrt(math.pi)


def fraction_str(value: Fraction) -> str:
    """Serialize an exact rational as "p/q"."""
    return f"{value.numerator}/{value.denominator}"


def format_float(value: float) -> str:
    """Serialize a float with 12 significant digits."""
    return format(value, ".12g")


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise RuntimeError(f"integrality failure for {what}: {value}")
    return value.numerator


def horizontal_edges_total(n: int) -> int:
    """H_n = (n/2) binom(2n, n) - 4^(n-1), for n >= 1."""
    if n < 1:
        raise ValueError("horizontal_edges_total needs n >= 1")
    return _as_integer(
        Fraction(n, 2) * central_binomial(n) - 4 ** (n - 1), f"H({n})"
    )


def vertex_and_degree_totals(n: int) -> tuple[int, int]:
    """(V_n, Sigma_n): total vertices and total degree sum over the class.

    V_n = (n/2) B_n and Sigma_n = (2 n^2 / (n+1)) B_n - 2 * 4^(n-1),
    with B_n the central binomial coefficient.
    """
    if n < 1:
        raise ValueError("vertex_and_degree_totals needs n >= 1")
    b = central_binomial(n)
    v = _as_integer(Fraction(n, 2) * b, f"V({n})")
    sigma = _as_integer(
        Fraction(2 * n * n, n + 1) * b - 2 * 4 ** (n - 1), f"Sigma({n})"
    )
    return v, sigma


def deg1_total(n: int) -> int:
    """Q1(n) = (n+2) C_{n-1} = (n+2) B_n / (2(2n-1)), for n >= 2."""
    if n < 2:
        raise ValueError("deg1_total needs n >= 2")
    return _as_integer(
        Fraction(n + 2, 2 * (2 * n - 1)) * central_binomial(n), f"Q1({n})"
    )


def deg4_total(n: int) -> int:
    """Q4(n) = (4n^3 - 7n^2 + 29n - 20) B_n / (4(n+1)(2n-1)) - 7 * 4^(n-2)."""
    if n < 2:
        raise ValueError("deg4_total needs n >= 2")
    poly = 4 * n**3 - 7 * n**2 + 29 * n - 20
    return _as_integer(
        Fraction(poly, 4 * (n + 1) * (2 * n - 1)) * central_binomial(n)
        - 7 * 4 ** (n - 2),
        f"Q4({n})",
    )


def deg2_deg3_totals(n: int) -> tuple[int, int]:
    """(Q2(n), Q3(n)), computed two independent ways and asserted equal.

    Route one evaluates the explicit fractions; route two solves the
    2x2 system fixed by the vertex total and the degree sum together
    with Q1 and Q4.  Disagreement is a hard failure.
    """
    if n < 2:
        raise ValueError("deg2_deg3_totals needs n >= 2")
    b = central_binomial(n)
    four_n = 4**n
    q2_direct = _as_integer(
        Fraction(
            (12 * n**2 + 44 * n - 112) * b + (2 * n**2 + n - 1) * four_n,
            16 * (n + 1) * (2 * n - 1),
        ),
        f"Q2({n})",
    )
    q3_direct = _as_integer(
        Fraction(
            (8 * n**2 - 96 * n + 88) * b + (6 * n**2 + 3 * n - 3) * four_n,
            8 * (n + 1) * (2 * n - 1),
        ),
        f"Q3({n})",
    )
    v, sigma = vertex_and_degree_totals(n)
    q1 = deg1_total(n)
    q4 = deg4_total(n)
    s1 = v - q1 - q4
    s2 = sigma - q1 - 4 * q4
    q3_system = s2 - 2 * s1
    q2_system = s1 - q3_system
    if (q2_direct, q3_direct) != (q2_system, q3_system):
        raise RuntimeError(
            f"Q2/Q3 routes disagree at n={n}: "
            f"direct ({q2_direct}, {q3_direct}) vs system ({q2_system}, {q3_system})"
        )
    return q2_direct, q3_direct


def initial_descents_total(n: int) -> int:
    """D_n = C_{n-1}, for n >= 2."""
    if n < 2:
        raise ValueError("initial_descents_total needs n >= 2")
    return catalan(n - 1)


def final_ascents_total(n: int) -> int:
    """A_n = C_{n-1}, for n >= 2 (left-right mirror of the descent count)."""
    if n < 2:
        raise ValueError("final_ascents_total needs n >= 2")
    return catalan(n - 1)


def internal_min_total(n: int) -> int:
    """J_n = C_n - 2 C_{n-1} for n >= 2, zero below."""
    if n < 2:
        return 0
    return catalan(n) - 2 * catalan(n - 1)


def internal_deg1_total(n: int) -> int:
    """P_n = (n-2) C_{n-1} for n >= 2, zero below."""
    if n < 2:
        return 0
    return (n - 2) * catalan(n - 1)


def closed_aggregate(n: int) -> AggregateStats:
    """Every classwise total from closed forms only (n >= 2)."""
    if n < 2:
        raise ValueError("closed_aggregate needs n >= 2")
    v, sigma = vertex_and_degree_totals(n)
    q1 = deg1_total(n)
    q2, q3 = deg2_deg3_totals(n)
    q4 = deg4_total(n)
    return AggregateStats(
        n=n,
        class_size=catalan(n),
        horizontal_edges=horizontal_edges_total(n),
        vertices=v,
        degree_sum=sigma,
        by_degree={0: 0, 1: q1, 2: q2, 3: q3, 4: q4},
        initial_descents=initial_descents_total(n),
        final_ascents=final_ascents_total(n),
        internal_min=internal_min_total(n),
        internal_deg1=internal_deg1_total(n),
    )


def expectations(n: int) -> dict[str, Fraction]:
    """Exact per-permutation expectations under the uniform class measure."""
    if n < 2:
        raise ValueError("expectations needs n >= 2")
    c = catalan(n)
    q2, q3 = deg2_deg3_totals(n)
    return {
        "H": Fraction(horizontal_edges_total(n), c),
        "Q1": Fraction(deg1_total(n), c),
        "Q2": Fraction(q2, c),
        "Q3": Fraction(q3, c),
        "Q4": Fraction(deg4_total(n), c),
    }


def proportions(n: int) -> dict[int, Fraction]:
    """Exact share of vertices of each degree; the four values sum to 1."""
    if n < 2:
        raise ValueError("proportions needs n >= 2")
    v, _ = vertex_and_degree_totals(n)
    q2, q3 = deg2_deg3_totals(n)
    return {
        1: Fraction(deg1_total(n), v),
        2: Fraction(q2, v),
        3: Fraction(q3, v),
        4: Fraction(deg4_total(n), v),
    }


def asymptotic_proportions(n: int) -> dict[int, float]:
    """Leading-order predictions for the degree shares at size n.

    Degree 1 decays like 1/(2n); degrees 2 and 3 like sqrt(pi)/8 and
    3 sqrt(pi)/4 times n^(-1/2); degree 4 approaches 1 with a deficit of
    7 sqrt(pi)/8 times n^(-1/2).
    """
    if n < 2:
        raise ValueError("asymptotic_proportions needs n >= 2")
    inv_sqrt = 1.0 / math.sqrt(n)
    return {
        1: 1.0 / (2 * n),
        2: (_SQRT_PI / 8.0) * inv_sqrt,
        3: (3.0 * _SQRT_PI / 4.0) * inv_sqrt,
        4: 1.0 - (7.0 * _SQRT_PI / 8.0) * inv_sqrt,
    }


@dataclass(frozen=True)
class ClosedFormReport:
    """All closed-form outputs for one n."""

    n: int
    values: AggregateStats
    expectations: dict[str, Fraction]
    proportions: dict[int, Fraction]
    asymptotic: dict[int, float]


def closed_form_report(n: int) -> ClosedFormReport:
    """Bundle values, expectations, proportions and predictions for one n."""
    return ClosedFormReport(
        n=n,
        values=closed_aggregate(n),
        expectations=expectations(n),
        proportions=proportions(n),
        asymptotic=asymptotic_proportions(n),
    )
