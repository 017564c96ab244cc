"""Distance value normalization, parsing, and JSON rendering."""

import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarseentropy import InvalidInputError, build_finite_space, build_weighted_graph
from coarseentropy.numbers import INF, as_dist, dist_to_jsonable, is_finite, parse_dist


def test_as_dist_keeps_ints_exact():
    assert as_dist(7) == 7
    assert isinstance(as_dist(7), int)


def test_as_dist_reduces_integral_fractions():
    out = as_dist(Fraction(8, 4))
    assert out == 2
    assert isinstance(out, int)


def test_as_dist_keeps_proper_fractions():
    out = as_dist(Fraction(17, 4))
    assert out == Fraction(17, 4)
    assert isinstance(out, Fraction)


def test_as_dist_rejects_bool_and_nan():
    with pytest.raises(TypeError):
        as_dist(True)
    with pytest.raises(ValueError):
        as_dist(float("nan"))


def test_as_dist_keeps_the_sign_of_infinity():
    assert as_dist(math.inf) == INF
    assert as_dist(-math.inf) == -math.inf


def test_minus_infinity_is_refused_as_not_positive():
    with pytest.raises(InvalidInputError, match=r"^edge weight must be positive: \(0, 1, -inf\)$"):
        build_weighted_graph([(0, 1, -math.inf)])
    with pytest.raises(InvalidInputError, match=r"^d\(0,1\) = -inf is not positive$"):
        build_finite_space([0, 1], lambda a, b: 0 if a == b else -math.inf)


def test_as_dist_parses_strings():
    assert as_dist("17/4") == Fraction(17, 4)
    assert as_dist("inf") == INF


@pytest.mark.parametrize("text,expect", [
    ("7", 7),
    ("17/4", Fraction(17, 4)),
    ("2.5", Fraction(5, 2)),
    ("0.25", Fraction(1, 4)),
    ("inf", INF),
    ("Infinity", INF),
    ("  3 ", 3),
])
def test_parse_dist_values(text, expect):
    assert parse_dist(text) == expect


def test_parse_dist_is_exact_for_decimals():
    # 0.1 parses through Fraction(str), not through binary floats
    assert parse_dist("0.1") == Fraction(1, 10)


def test_parse_dist_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dist("seven")
    with pytest.raises(ValueError):
        parse_dist("1/0")


@pytest.mark.parametrize("text", [
    "1e40", "1E5", "1e-12", "2.5e3", "-3e2", "1e+3", "1.5E-2", "1e4299", "1e-4299"])
def test_parse_dist_reads_exponents_exactly(text):
    value = parse_dist(text)
    assert value == Fraction(Decimal(text))
    assert isinstance(value, int) == (Fraction(Decimal(text)).denominator == 1)


@pytest.mark.parametrize("text", [
    "1e4300", "1e-4300", "1.0e5000000", "1e-5000000", "0." + "0" * 4299 + "1", "1" * 4301],
    ids=["1e4300", "1e-4300", "1.0e5000000", "1e-5000000", "4300 places", "4301 digits"])
def test_parse_dist_refuses_more_digits_than_int_reads(text):
    # 10**4300 has 4301 digits; a huge exponent is refused before any power
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^cannot parse distance"):
        parse_dist(text)
    assert time.perf_counter() - start < 0.1


def test_dist_to_jsonable():
    assert dist_to_jsonable(3) == 3
    assert dist_to_jsonable(Fraction(17, 4)) == "17/4"
    assert dist_to_jsonable(Fraction(4, 2)) == 2
    assert dist_to_jsonable(INF) == "inf"
    assert dist_to_jsonable(-math.inf) == "-inf"
    assert dist_to_jsonable(0.5) == 0.5
    with pytest.raises(TypeError):
        dist_to_jsonable(True)


def test_is_finite():
    assert is_finite(0)
    assert is_finite(Fraction(1, 3))
    assert is_finite(1e300)
    assert not is_finite(INF)
    assert not is_finite(-INF)


@given(st.fractions(min_value=0, max_value=10 ** 6))
def test_fraction_round_trip_through_json_token(frac):
    token = dist_to_jsonable(as_dist(frac))
    back = parse_dist(str(token))
    assert back == frac


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9))
def test_int_round_trip(n):
    assert parse_dist(str(dist_to_jsonable(n))) == n
