"""Closed-form evaluation of every classwise total, in integers.

Each formula mixes central binomials with powers of four over a
polynomial denominator; that such quotients are integers is itself a
nontrivial fact.  So every total is an integer numerator divided by its
denominator with ``divmod``, and a nonzero remainder raises
RuntimeError.  B_n = binom(2n, n) is this module's own
``central_binomial``, so it imports no other route; it keeps the last
(n, B_n) it returned and steps it to n+1 as B_{n-1} 2(2n-1)/n, with
the division checked, so an ascending range calls ``math.comb`` once.
One private builder, ``_row``, checks the domain of n, takes B_n and
evaluates every total once at it: the private evaluators, one per
quantity, ``deg2_deg3_totals`` for the explicit Q2 and Q3, and the
Catalan numbers C_n = B_n / (n+1) and C_{n-1} = B_n / (2(2n-1)), from
which J and P follow.  The private evaluators take (n, B_n) from
``_row``; the public ``deg2_deg3_totals`` takes n alone and reads B_n
from ``central_binomial`` itself, so no caller can pass it another
value, and in a row that read is the pair ``_row`` has just kept.  It
checks Q2 and Q3 against the system that its own V, Sigma, Q1 and Q4
fix.  ``closed_aggregate`` returns that row;
``expectations`` and ``proportions`` are ratios of its totals.
Rationals appear only as those reduced ratios, floats only in the
asymptotic predictions.  ``fractions`` is imported inside the three
functions that build a ``Fraction`` (``expectations``, ``proportions``
and the failure branch of ``_exact``), not at module level: it pulls in
``decimal`` and ``numbers``, which ``degrees``, ``render`` and a
passing ``verify`` never need, so importing the CLI stays cheap.
"""

from __future__ import annotations

import math
import operator

_SQRT_PI = math.sqrt(math.pi)


# the last (n, B_n) that ``central_binomial`` returned
_last_binomial = (0, 1)


def central_binomial(n: int) -> int:
    """B_n = binom(2n, n), exactly.

    The last pair (n, B_n) returned is kept.  A call for the same n
    returns it; a call for the next n steps it, B_n = B_{n-1} 2(2n-1)/n,
    with the division checked like every other (RuntimeError on a
    remainder, and the kept pair stays as it was); any other n goes to
    ``math.comb``.  So the closed rows of one ascending range cost one
    ``math.comb``, then one product and one division per n.  Every kept
    pair is exact, so callers in other threads can at worst cost each
    other a recompute.  n goes through ``operator.index`` first, as in
    ``math.comb``, so a float never reaches the kept pair.
    """
    global _last_binomial
    n = operator.index(n)
    last, b = _last_binomial
    if n == last:
        return b
    if n == last + 1:
        b = _exact(b * 2 * (2 * n - 1), n, f"B({n})")
    else:
        b = math.comb(2 * n, n)
    _last_binomial = n, b
    return b


def _exact(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        from fractions import Fraction

        raise RuntimeError(
            f"integrality failure for {what}: {Fraction(numerator, denominator)}"
        )
    return quotient


# Evaluators at B = B_n, one per quantity; ``_row`` below checks the
# domain of n and takes B_n from ``central_binomial``.


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


def deg2_deg3_totals(n: int) -> tuple[int, int]:
    """(Q2(n), Q3(n)) from their explicit fractions in n and B_n.

    B_n comes from ``central_binomial``.  ``_row`` checks the pair
    against the 2x2 system fixed by its own vertex total and degree sum
    together with Q1 and Q4.
    """
    if n < 2:
        raise ValueError("deg2_deg3_totals needs n >= 2")
    b = central_binomial(n)
    four_n = 4**n
    q2 = _exact(
        (12 * n**2 + 44 * n - 112) * b + (2 * n**2 + n - 1) * four_n,
        16 * (n + 1) * (2 * n - 1),
        f"Q2({n})",
    )
    q3 = _exact(
        (8 * n**2 - 96 * n + 88) * b + (6 * n**2 + 3 * n - 3) * four_n,
        8 * (n + 1) * (2 * n - 1),
        f"Q3({n})",
    )
    return q2, q3


def _row(n: int) -> dict[str, int]:
    """Every closed-form total at n, keyed by ``CSV_FIELDS``."""
    if n < 2:
        raise ValueError(f"closed forms need n >= 2, got n={n}")
    b = central_binomial(n)
    q2, q3 = deg2_deg3_totals(n)
    q1, q4, v, sigma = _deg1(n, b), _deg4(n, b), _vertices(n, b), _degree_sum(n, b)
    s1 = v - q1 - q4  # Q2 + Q3; Sigma less Q1 and 4 Q4 is Q2 + 2 Q3
    q3_system = sigma - q1 - 4 * q4 - 2 * s1
    q2_system = s1 - q3_system
    if (q2, q3) != (q2_system, q3_system):
        raise RuntimeError(
            f"Q2/Q3 routes disagree at n={n}: "
            f"direct ({q2}, {q3}) vs system ({q2_system}, {q3_system})"
        )
    c = _exact(b, n + 1, f"C({n})")
    c_below = _exact(b, 2 * (2 * n - 1), f"C({n - 1})")  # D_n = A_n = C_{n-1}
    return {
        "n": n,
        "class_size": c,
        "H": _horizontal_edges(n, b),
        "V": v,
        "Sigma": sigma,
        "Q1": q1,
        "Q2": q2,
        "Q3": q3,
        "Q4": q4,
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
    from fractions import Fraction

    row = _row(n)
    return {s: Fraction(row[s], row["class_size"]) for s in ("H", "Q1", "Q2", "Q3", "Q4")}


def proportions(n: int) -> dict[int, Fraction]:
    """Exact share of vertices of each degree; the four values sum to 1."""
    from fractions import Fraction

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
