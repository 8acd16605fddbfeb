"""Closed-form evaluation of every classwise total, in integers.

Each formula mixes central binomials with powers of four over a
polynomial denominator; that such quotients are integers is itself a
nontrivial fact.  So every total is an integer numerator divided by its
denominator with ``divmod``, and a nonzero remainder raises
RuntimeError.  One private builder, ``_row``, checks the domain of n,
computes B_n = binom(2n, n) once and evaluates every total at it: the
private evaluators, one per quantity, ``deg2_deg3_totals`` for Q2 and
Q3, and the Catalan numbers C_n = B_n / (n+1) and
C_{n-1} = B_n / (2(2n-1)) by the same asserted division, from which J
and P follow.  ``closed_aggregate`` returns that row; ``expectations``
and ``proportions`` are ratios of its totals.  Rationals appear only as
those reduced ratios, floats only in the asymptotic predictions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .enumeration import central_binomial

_SQRT_PI = math.sqrt(math.pi)


def _exact(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise RuntimeError(
            f"integrality failure for {what}: {Fraction(numerator, denominator)}"
        )
    return quotient


# Evaluators at B = B_n, one per quantity; ``_row`` below checks the
# domain of n and computes B_n.


def _horizontal_edges(n: int, b: int) -> int:
    return _exact(n * b - 2 * 4 ** (n - 1), 2, f"H({n})")


def _vertices(n: int, b: int) -> int:
    return _exact(n * b, 2, f"V({n})")


def _degree_sum(n: int, b: int) -> int:
    return _exact(2 * n * n * b - 2 * 4 ** (n - 1) * (n + 1), n + 1, f"Sigma({n})")


def _deg1(n: int, b: int) -> int:
    return _exact((n + 2) * b, 2 * (2 * n - 1), f"Q1({n})")


def _deg4(n: int, b: int) -> int:
    poly = 4 * n**3 - 7 * n**2 + 29 * n - 20
    return _exact(
        poly * b - 7 * 4 ** (n - 1) * (n + 1) * (2 * n - 1),
        4 * (n + 1) * (2 * n - 1),
        f"Q4({n})",
    )


def deg2_deg3_totals(n: int, b: int) -> tuple[int, int]:
    """(Q2(n), Q3(n)) at B = B_n, computed two independent ways and asserted equal.

    Route one evaluates the explicit fractions; route two solves the
    2x2 system fixed by the vertex total and the degree sum together
    with Q1 and Q4.  Disagreement is a hard failure.
    """
    if n < 2:
        raise ValueError("deg2_deg3_totals needs n >= 2")
    four_n = 4**n
    q2_direct = _exact(
        (12 * n**2 + 44 * n - 112) * b + (2 * n**2 + n - 1) * four_n,
        16 * (n + 1) * (2 * n - 1),
        f"Q2({n})",
    )
    q3_direct = _exact(
        (8 * n**2 - 96 * n + 88) * b + (6 * n**2 + 3 * n - 3) * four_n,
        8 * (n + 1) * (2 * n - 1),
        f"Q3({n})",
    )
    q1 = _deg1(n, b)
    q4 = _deg4(n, b)
    s1 = _vertices(n, b) - q1 - q4
    s2 = _degree_sum(n, b) - q1 - 4 * q4
    q3_system = s2 - 2 * s1
    q2_system = s1 - q3_system
    if (q2_direct, q3_direct) != (q2_system, q3_system):
        raise RuntimeError(
            f"Q2/Q3 routes disagree at n={n}: "
            f"direct ({q2_direct}, {q3_direct}) vs system ({q2_system}, {q3_system})"
        )
    return q2_direct, q3_direct


def _row(n: int) -> dict[str, int]:
    """Every closed-form total at n, keyed by ``CSV_FIELDS``."""
    if n < 2:
        raise ValueError(f"closed forms need n >= 2, got n={n}")
    b = central_binomial(n)
    q2, q3 = deg2_deg3_totals(n, b)
    c = _exact(b, n + 1, f"C({n})")
    c_below = _exact(b, 2 * (2 * n - 1), f"C({n - 1})")  # D_n = A_n = C_{n-1}
    return {
        "n": n,
        "class_size": c,
        "H": _horizontal_edges(n, b),
        "V": _vertices(n, b),
        "Sigma": _degree_sum(n, b),
        "Q1": _deg1(n, b),
        "Q2": q2,
        "Q3": q3,
        "Q4": _deg4(n, b),
        "D": c_below,
        "A": c_below,
        "J": c - 2 * c_below,
        "P": (n - 2) * c_below,
    }


def closed_aggregate(n: int) -> dict[str, int]:
    """Every classwise total from closed forms only (n >= 2), keyed by ``CSV_FIELDS``.

    >>> closed_aggregate(3)  # doctest: +NORMALIZE_WHITESPACE
    {'n': 3, 'class_size': 5, 'H': 14, 'V': 30, 'Sigma': 58, 'Q1': 10, 'Q2': 12,
     'Q3': 8, 'Q4': 0, 'D': 2, 'A': 2, 'J': 1, 'P': 2}
    """
    return _row(n)


def expectations(n: int) -> dict[str, Fraction]:
    """Exact per-permutation expectations under the uniform class measure."""
    row = _row(n)
    return {s: Fraction(row[s], row["class_size"]) for s in ("H", "Q1", "Q2", "Q3", "Q4")}


def proportions(n: int) -> dict[int, Fraction]:
    """Exact share of vertices of each degree; the four values sum to 1."""
    row = _row(n)
    return {r: Fraction(row[f"Q{r}"], row["V"]) for r in range(1, 5)}


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


def closed_form_report(n: int) -> dict:
    """Values, expectations, proportions and predictions for one n.

    The keys are ``n``, ``values`` (the :func:`closed_aggregate` row),
    ``expectations``, ``proportions`` and ``asymptotic``, in that order.
    """
    # ``table`` prints no expectations; each view here builds its own
    # row because perfbench/layers.py pins three deg2_deg3_totals calls
    # per table row until ROADMAP item 1 re-pins it
    return {
        "n": n,
        "values": closed_aggregate(n),
        "expectations": expectations(n),
        "proportions": proportions(n),
        "asymptotic": asymptotic_proportions(n),
    }
