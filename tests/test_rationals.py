import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftgap.errors import InputError
from liftgap.rationals import (QuarticThreshold, _exact_root,
                               best_upper_rational, format_rational,
                               gamma_below_abs, gamma_count_within,
                               json_value, parse_rational, threshold_power,
                               upper_approx)


def test_format_and_parse_roundtrip():
    for text in ["2/3", "-1/2", "0", "7", "-13"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 4/6 ") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "1e3", "a/b", "1/0"])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


@dataclass(frozen=True)
class _Inner:
    pe_of_error: Fraction
    hypothesis_error: str | None


@dataclass(frozen=True)
class _Outer:
    S: frozenset[int]
    trials_used: int
    all_ok: bool
    epsilon_n: float
    records: tuple[_Inner, ...]


def test_json_value_maps_nested_dataclass():
    report = _Outer(S=frozenset({5, 1, 3}), trials_used=4, all_ok=True,
                    epsilon_n=2 / 3,
                    records=(_Inner(Fraction(-6, 4), None),
                             _Inner(Fraction(2), "bad")))
    assert json_value(report)["allOk"] is True
    assert json_value(report) == {
        "S": [1, 3, 5], "trialsUsed": 4, "allOk": True,
        "epsilonN": "0.666666666667",
        "records": [{"peOfError": "-3/2", "hypothesisError": None},
                    {"peOfError": "2", "hypothesisError": "bad"}]}


def test_quartic_threshold_comparisons():
    gamma = QuarticThreshold(Fraction(4))  # 4^(1/4) = sqrt(2)
    assert gamma_below_abs(gamma, Fraction(3, 2))      # sqrt2 < 1.5
    assert not gamma_below_abs(gamma, Fraction(7, 5))  # sqrt2 > 1.4
    assert gamma_below_abs(gamma, Fraction(-3, 2))     # absolute value
    # count <= budget / sqrt(2)^2 = budget/2
    assert gamma_count_within(gamma, 3, Fraction(6))
    assert not gamma_count_within(gamma, 4, Fraction(6))


def test_plain_gamma():
    assert gamma_below_abs(Fraction(1, 4), Fraction(1, 2))
    assert not gamma_below_abs(Fraction(1, 2), Fraction(1, 2))
    assert gamma_count_within(Fraction(1, 4), 32, Fraction(2))
    assert not gamma_count_within(Fraction(1, 4), 33, Fraction(2))


@given(st.fractions(min_value=0, max_value=10 ** 6),
       st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_threshold_power_compares_integers_as_fractions(r, s, scale):
    # D |s|^k > N scale^k is gamma < |s / scale| in Fraction arithmetic;
    # sqrt(r) is the fourth root of r * r
    x = Fraction(s, scale)
    for gamma, power, below in ((QuarticThreshold(r), r, r < (x * x) ** 2),
                                (QuarticThreshold(r * r), r * r, r < x * x),
                                (r, r, r < abs(x))):
        k, num, den = threshold_power(gamma)
        assert Fraction(num, den) == power and den > 0
        assert (den * abs(s) ** k > num * scale ** k) == below
        assert gamma_below_abs(gamma, x) == below
    with pytest.raises(InputError):
        threshold_power(Fraction(-1, 2))


def test_upper_approx_exact_roots():
    assert upper_approx(QuarticThreshold(Fraction(9, 4) ** 2)) == Fraction(3, 2)
    assert upper_approx(QuarticThreshold(16)) == 2


def test_square_roots_carried_as_fourth_powers():
    # main_inequality_experiment bounds n^(d/2) by the fourth root of
    # n^(2d): the same rational as a square-root route, odd d included
    for n in range(12, 41):
        for d in range(1, 6):
            square = n ** d
            root = math.isqrt(square)
            want = (Fraction(root) if root * root == square else
                    best_upper_rational(lambda x: x * x <= square, 10 ** 6))
            assert upper_approx(QuarticThreshold(n ** (2 * d))) == want, (n, d)


@given(st.integers(1, 2 ** 300), st.integers(1, 2 ** 300))
@example(2 ** 200 + 1, 3 ** 130)
@example(2 ** 256 - 1, 2 ** 201)
@settings(max_examples=200, deadline=None)
def test_exact_root_on_fourth_powers(a, b):
    assert _exact_root(Fraction(0)) == 0
    assert _exact_root(Fraction(a ** 4, b ** 4)) == Fraction(a, b)
    # a^4 < a^4 + 1 < (a + 1)^4, and (a - 1)^4 < a^4 - 1 for a >= 2
    assert _exact_root(Fraction(a ** 4 + 1, b ** 4)) is None
    if a >= 2:
        assert _exact_root(Fraction(a ** 4 - 1)) is None
        assert _exact_root(Fraction(a ** 4 - 1, b ** 4)) is None


@given(st.integers(2, 400))
@settings(max_examples=60, deadline=None)
def test_best_upper_rational_minimality(square):
    # skip perfect squares: the threshold would be rational
    root = int(square ** 0.5)
    if root * root == square:
        return
    max_den = 40
    got = best_upper_rational(lambda x: x * x <= square, max_den)
    assert got * got > square
    # brute force: smallest p/q > sqrt(square) with q <= max_den
    best = None
    for q in range(1, max_den + 1):
        p = 1
        while Fraction(p, q) ** 2 <= square:
            p += 1
        cand = Fraction(p, q)
        if best is None or cand < best:
            best = cand
    assert got == best


def test_upper_approx_radicands_beyond_float_range():
    # radicands above ~1e308 have no float value; roots are found on integers
    big = Fraction(10 ** 400 + 1, 3)
    over = upper_approx(QuarticThreshold(big * big))
    assert over * over > big
    assert (upper_approx(QuarticThreshold(Fraction(10 ** 400, 9) ** 2))
            == Fraction(10 ** 200, 3))
    assert upper_approx(QuarticThreshold(Fraction(7 ** 600, 16))) == Fraction(7 ** 150, 2)
    fourth = QuarticThreshold(Fraction(10 ** 400 + 1))
    over = upper_approx(fourth)
    assert over ** 4 > fourth.fourth_power
    assert (over - Fraction(1, 10 ** 6)) ** 4 <= fourth.fourth_power


def test_upper_approx_is_tightly_above():
    gamma = QuarticThreshold(Fraction(2))
    over = upper_approx(gamma)
    assert over ** 4 > 2
    assert float(over) - 2 ** 0.25 < 1e-10
