from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import catalan_by_convolution
from gridperm import (
    IDENTITY_IDS,
    TruncatedSeries,
    catalan_series,
    central_binomial,
    check_identity,
    gluing_totals,
    half_power,
)
from gridperm.series import (
    polynomial,
    residual_summary,
)


def zero(order):
    return TruncatedSeries((0,) * (order + 1))

integers = st.integers(min_value=-10, max_value=10)
small_series = st.lists(integers, min_size=1, max_size=9).map(
    lambda cs: TruncatedSeries(tuple(cs))
)


def test_polynomial_product():
    a = polynomial([1, 1], 4)
    b = polynomial([1, -1], 4)
    assert a * b == polynomial([1, 0, -1], 4)


def test_zero_is_additive_identity():
    s = polynomial([3, 1, 4], 6)
    assert zero(6) + s == s
    assert s - s == zero(6)
    assert zero(6).is_zero()


def test_catalan_square_shifts_the_sequence():
    c = catalan_series(3)
    assert (c * c).coeffs == (1, 2, 5, 14)


def test_mismatched_orders_truncate_to_min():
    a = polynomial([1, 2, 3], 6)
    b = polynomial([1, 1], 2)
    assert (a + b).order == 2
    assert (a * b).order == 2


@given(small_series, small_series, small_series)
def test_multiplication_is_associative_and_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_differentiate():
    assert polynomial([0, 0, 1], 3).differentiate() == polynomial([0, 2], 2)
    assert polynomial([7], 5).differentiate() == zero(4)
    with pytest.raises(ValueError):
        polynomial([7], 0).differentiate()


def test_weighted_catalan_derivative_coefficients():
    k = 8
    c = catalan_series(k)
    catalan = catalan_by_convolution(k)
    x = polynomial([0, 1], k)
    weighted = x * c.differentiate() + c
    assert all(
        weighted[m] == (m + 1) * catalan[m] for m in range(k)
    )


def test_half_power_minus_two_is_geometric():
    inv = half_power(-2, 8)
    assert all(inv[m] == 4**m for m in range(9))
    assert half_power(0, 5) == polynomial([1], 5)


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=0, max_value=12),
)
def test_half_powers_multiply_by_adding_exponents(a, b, order):
    assert half_power(a, order) * half_power(b, order) == half_power(a + b, order)


def test_sqrt_squares_back():
    root = half_power(1, 24)
    assert root * root == polynomial([1, -4], 24)
    assert root.coeffs[:4] == (1, -2, -2, -4)


def test_binomial_power_expansions():
    half = half_power(-1, 12)
    assert half.coeffs[:5] == (1, 2, 6, 20, 70)
    assert all(half[m] == central_binomial(m) for m in range(13))
    three_halves = half_power(-3, 12)
    assert three_halves[2] == 30
    assert all(
        three_halves[m] == (2 * m + 1) * central_binomial(m) for m in range(13)
    )


def test_series_rejects_non_integer_coefficients():
    for bad in (Fraction(1, 2), Fraction(4, 1), 0.5):
        with pytest.raises(TypeError):
            TruncatedSeries((1, bad))
        with pytest.raises(TypeError):
            polynomial([1, 2], 4) * bad
        with pytest.raises(TypeError):
            half_power(bad, 4)


def test_series_needs_a_constant_term():
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError, match="constant term"):
            TruncatedSeries(empty)


def test_equal_coefficients_compare_and_hash_equal():
    a = TruncatedSeries((1, 2, 3))
    b = polynomial([1, 2, 3], 2)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_series_is_not_its_coefficient_tuple():
    s = polynomial([1, 2], 1)
    assert s != (1, 2)
    assert (1, 2) != s


def test_series_refuses_assignment():
    s = polynomial([1, 2], 1)
    with pytest.raises(AttributeError):
        s.coeffs = (3, 4)
    with pytest.raises(AttributeError):
        del s.coeffs
    assert s.coeffs == (1, 2)
    assert copy.copy(s) == s
    assert copy.deepcopy(s) == s
    assert pickle.loads(pickle.dumps(s)) == s


def test_series_repr():
    assert repr(polynomial([1, 2], 1)) == "TruncatedSeries(coeffs=(1, 2))"


def test_catalan_series_defining_equations():
    k = 64
    c = catalan_series(k)
    x = polynomial([0, 1], k)
    u = polynomial([1], k)
    assert (c - u - x * c * c).is_zero()
    lhs = u - 2 * x * c
    assert (lhs * lhs - polynomial([1, -4], k)).is_zero()


def test_central_binomial_coefficient_extraction():
    k = 64
    shifted = polynomial([0, 1], k) * half_power(-3, k)
    for n in range(1, k + 1):
        value = (2 * n - 1) * central_binomial(n - 1)
        assert shifted[n] == value
        assert 2 * shifted[n] == n * central_binomial(n)


def test_block_count_series_match_their_sequences():
    k = 40
    c = catalan_series(k)
    x = polynomial([0, 1], k)
    u = polynomial([1], k)
    ascent_series = x * c.differentiate() - 2 * c + 2 * u + x
    catalan = catalan_by_convolution(k)
    for m in range(k):
        assert ascent_series[m] == max(m - 2, 0) * catalan[m]
    min_series = (u - 2 * x) * c + x - u
    j_seq = gluing_totals(k)["J"]
    assert all(min_series[m] == j_seq[m] for m in range(k + 1))


@pytest.mark.parametrize("name", IDENTITY_IDS)
def test_identity_residuals_vanish(name):
    residual = check_identity(name, 32, gluing_totals(32))
    assert residual.order == 32 and residual.is_zero()
    # longer sequences give the same residual
    assert check_identity(name, 32, gluing_totals(40)) == residual


# the statistic each identity reads from the gluing totals
READS = {"HFE": "H", "HX": "H", "PX": "P", "Q4FE": "Q4", "Q4X": "Q4"}


@pytest.mark.parametrize("index", [7, 16])
@pytest.mark.parametrize("name", IDENTITY_IDS)
def test_one_wrong_total_shows_in_the_residual(name, index):
    totals = gluing_totals(20)
    totals[READS[name]][index] += 1
    residual = check_identity(name, 16, totals)
    assert residual.order == 16
    nonzero = {i: c for i, c in enumerate(residual.coeffs) if c != 0}
    if name in ("HFE", "Q4FE"):
        # the functional equations multiply the totals by 1 - 2xC
        assert min(nonzero) == index
    else:
        # Q4X compares twice Q4, so its residual is twice the discrepancy
        assert nonzero == {index: 2 if name == "Q4X" else 1}


def test_q4x_refuses_a_numerator_with_a_constant_term(doubled_sqrt):
    with pytest.raises(RuntimeError, match="nonzero constant term -5"):
        check_identity("Q4X", 16, gluing_totals(17))


def test_check_identity_validates_input():
    totals = gluing_totals(33)
    with pytest.raises(ValueError):
        check_identity("nope", 32, totals)
    with pytest.raises(ValueError):
        check_identity("HX", 7, totals)
    with pytest.raises(ValueError, match="n = 32"):
        check_identity("HX", 32, gluing_totals(31))
    residual = check_identity("HX", 32, gluing_totals(32))
    assert residual.order == 32 and residual.is_zero()


def test_closed_numerator_constant_cancels():
    root = half_power(1, 8)
    numerator = polynomial([5, -50, 157, -150, 8], 8) + polynomial(
        [-5, 40, -87, 36], 8
    ) * root
    assert numerator[0] == 0


def test_residual_report_zero_case():
    payload = residual_summary("HX", check_identity("HX", 16, gluing_totals(17)))
    assert payload == {
        "identity": "HX",
        "order": 16,
        "max_nonzero_index": -1,
        "first_nonzero": None,
    }


def test_residual_summary_nonzero_case():
    residual = TruncatedSeries([0, 0, -3, 0, 1])
    payload = residual_summary("demo", residual)
    assert payload["max_nonzero_index"] == 4
    assert payload["first_nonzero"] == "-3/1"
