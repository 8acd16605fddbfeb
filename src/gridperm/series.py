"""Dense truncated power series over plain integers, plus identity checks.

A :class:`TruncatedSeries` stores integer coefficients 0..order and
keeps every operation exact; binary operations on mismatched orders
truncate to the shorter one.  The residuals rely on that rule: each is
built through order + 1 from one operand of order ``order`` (C' or the
shifted Q4X numerator), so it has order ``order`` with no truncation.
Every series the identities use has integer coefficients, so no
rational arithmetic is needed.  On top of the arithmetic sit the
algebraic elements used by the verification suite (the Catalan series
and the powers (1-4x)^(k/2)) and :func:`check_identity`, which rebuilds
each generating-function identity from the sequences of one
``recurrences.gluing_totals`` pass and returns the left-minus-right
residual.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .enumeration import catalan_list

@dataclass(frozen=True)
class TruncatedSeries:
    """Exact power-series prefix: integer coefficients of x^0 .. x^order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        # operator.index rejects rationals and floats rather than coercing them
        object.__setattr__(
            self, "coeffs", tuple(operator.index(c) for c in self.coeffs)
        )
        # checked after the conversion, so an empty iterator is refused too
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, index: int) -> int:
        return self.coeffs[index]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            out = [0] * (k + 1)
            for i, a in enumerate(self.coeffs[: k + 1]):
                if a == 0:
                    continue
                for j in range(k + 1 - i):
                    out[i + j] += a * other.coeffs[j]
            return TruncatedSeries(tuple(out))
        if isinstance(other, int):
            return TruncatedSeries(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def differentiate(self) -> "TruncatedSeries":
        """Termwise derivative; the order drops by one, so order 0 is refused.

        >>> polynomial([0, 0, 1], 3).differentiate().coeffs
        (0, 2, 0)
        """
        return TruncatedSeries(
            tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1)
        )


def polynomial(coefficients: Sequence[int], order: int) -> TruncatedSeries:
    """The polynomial with the given low-order coefficients, padded with zeros."""
    coeffs = tuple(coefficients[: order + 1])
    return TruncatedSeries(coeffs + (0,) * (order + 1 - len(coeffs)))


def half_power(k: int, order: int) -> TruncatedSeries:
    """(1 - 4x)^(k/2) for any integer k.

    The coefficient at x^m is binom(k/2, m) (-4)^m, built incrementally
    by c_m = c_{m-1} (-2)(k - 2m + 2) / m.  Every such coefficient is an
    integer, so each division is exact; a remainder raises RuntimeError.
    k = 1 is sqrt(1 - 4x), k = -1 has the central binomials as
    coefficients, k = -3 has (2m + 1) times them and k = -2 the powers
    of four.

    >>> half_power(1, 4).coeffs
    (1, -2, -2, -4, -10)
    """
    k = operator.index(k)
    coeffs = [1]
    for m in range(1, order + 1):
        c, rem = divmod(coeffs[-1] * -2 * (k - 2 * m + 2), m)
        if rem:
            raise RuntimeError(
                f"coefficient {m} of (1 - 4x)^({k}/2) is not an integer"
            )
        coeffs.append(c)
    return TruncatedSeries(tuple(coeffs))


def catalan_series(order: int) -> TruncatedSeries:
    """The Catalan generating function prefix.

    Satisfies C = 1 + x C^2 and 1 - 2 x C = sqrt(1 - 4x) exactly through
    the stated order.

    >>> catalan_series(4).coeffs
    (1, 1, 2, 5, 14)
    """
    return TruncatedSeries(catalan_list(order))


def _basis(order: int) -> tuple[TruncatedSeries, ...]:
    """x, 1 and the Catalan series C through order + 1, and C' through ``order``."""
    k = order + 1
    c = catalan_series(k)
    return polynomial([0, 1], k), polynomial([1], k), c, c.differentiate()


def _residual_hfe(order: int, totals: dict) -> TruncatedSeries:
    x, u, c, cp = _basis(order)
    h = TruncatedSeries(totals["H"])
    lhs = (u - 2 * (x * c)) * h
    rhs = x * (x * cp - c + u) * (x * cp + 2 * c) + 2 * (c - u - x * c)
    return lhs - rhs


def _residual_hx(order: int, totals: dict) -> TruncatedSeries:
    x = polynomial([0, 1], order)
    h = TruncatedSeries(totals["H"])
    rhs = x * half_power(-3, order) - x * half_power(-2, order)
    return h - rhs


def _residual_px(order: int, totals: dict) -> TruncatedSeries:
    x, u, c, cp = _basis(order)
    p = TruncatedSeries(totals["P"])
    return p - x * (x * cp - c + u)


def _residual_q4fe(order: int, totals: dict) -> TruncatedSeries:
    x, u, c, cp = _basis(order)
    a = x * cp - 2 * c + 2 * u + x
    j = (u - 2 * x) * c + x - u
    xc_prime = (x * c).differentiate()
    q4 = TruncatedSeries(totals["Q4"])
    lhs = (u - 2 * (x * c)) * q4
    rhs = x * a * (c + xc_prime) - 2 * (x * c) * j
    return lhs - rhs


def _residual_q4x(order: int, totals: dict) -> TruncatedSeries:
    k = order + 1
    root = half_power(1, k)
    numerator = (
        polynomial([5, -50, 157, -150, 8], k)
        + polynomial([-5, 40, -87, 36], k) * root
    )
    if numerator[0] != 0:
        # the whole expression is only a power series because the
        # constant terms cancel; a nonzero constant is a hard failure
        raise RuntimeError(
            f"closed-form numerator has nonzero constant term {numerator[0]}"
        )
    # Q4X is numerator / (2x (1 - 4x)^2); the residual compares 2 Q4 with
    # the rest, so a failing residual is twice the Q4 discrepancy
    closed = TruncatedSeries(numerator.coeffs[1:]) * half_power(-4, k)
    q4 = TruncatedSeries(totals["Q4"])
    return 2 * q4 - closed


_IDENTITY_BUILDERS: dict[str, Callable[[int, dict], TruncatedSeries]] = {
    "HFE": _residual_hfe,
    "HX": _residual_hx,
    "PX": _residual_px,
    "Q4FE": _residual_q4fe,
    "Q4X": _residual_q4x,
}

IDENTITY_IDS = tuple(_IDENTITY_BUILDERS)


def check_identity(name: str, order: int, totals: dict) -> TruncatedSeries:
    """Left-minus-right residual of the named identity through ``order``.

    ``totals`` is the dict of ``recurrences.gluing_totals(n_max)`` with
    n_max >= order + 1; the identities read its H, P and Q4 sequences,
    so a zero residual ties the recurrence route to the
    generating-function route.  Known names: HFE and Q4FE (the
    functional equations for the horizontal-edge and degree-4 totals),
    HX and Q4X (their closed generating functions) and PX (the closed
    form for internal degree-1 vertices).
    """
    if name not in _IDENTITY_BUILDERS:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_IDS)}")
    if order < 8:
        raise ValueError(f"identity checks need order >= 8, got {order}")
    if any(len(totals[stat]) < order + 2 for stat in ("H", "P", "Q4")):
        raise ValueError(f"order {order} needs gluing totals through n = {order + 1}")
    return _IDENTITY_BUILDERS[name](order, totals)


def residual_summary(name: str, residual: TruncatedSeries) -> dict:
    """JSON-ready description of a residual series."""
    nonzero = [i for i, c in enumerate(residual.coeffs) if c != 0]
    return {
        "identity": name,
        "order": residual.order,
        "max_nonzero_index": nonzero[-1] if nonzero else -1,
        "first_nonzero": f"{residual[nonzero[0]]}/1" if nonzero else None,
    }
