"""Exact rational plumbing: canonical "p/q" text form and exact
comparison against irrational thresholds of the form r**(1/4).

fractions.Fraction is the rational type of the public API; values are
always in lowest terms with positive denominator, which the text form
relies on.  A root threshold is carried as its fourth power, so a square
root sqrt(r) is the QuarticThreshold of r**2.  Comparisons against it
are done on fourth powers of numerators and denominators
(threshold_power), so every verdict is an integer comparison.
int_vector is the one way a rational vector is scaled to integers
(lp.linear_program scales a constraint row, the simplex core its
right-hand side and costs); json_value is the one mapping from report
dataclasses to JSON.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import InputError

_MAX_DENOMINATOR = 10 ** 6  # upper_approx's denominator cap

def format_rational(x: Fraction | int) -> str:
    """Canonical text: 'p/q' in lowest terms, integers without '/1',
    sign on the numerator."""
    return str(x)


def int_vector(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, den) with vec == ints / den, den the lcm of the
    denominators."""
    den = math.lcm(*{v.denominator for v in vec})
    return [v.numerator * (den // v.denominator) for v in vec], den


def json_value(obj: object) -> object:
    """The JSON form of a report value: a dataclass becomes an object
    keyed by its field names in camelCase, a Fraction its "p/q" text, a
    frozenset a sorted list, a tuple a list, a float its text with 12
    significant digits; int, bool, str and None pass through."""
    if is_dataclass(obj):
        return {camel_case(f.name): json_value(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, tuple):
        return [json_value(v) for v in obj]
    if isinstance(obj, float):
        return format(obj, ".12g")
    return obj


def camel_case(name: str) -> str:
    """snake_case to camelCase: "max_trials" -> "maxTrials"."""
    head, *rest = name.split("_")
    return head + "".join(word[:1].upper() + word[1:] for word in rest)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer text; rejects floats and malformed input."""
    if not isinstance(text, str):
        raise InputError(f"expected a rational as text, got {text!r}")
    s = text.strip()
    if not s:
        raise InputError("empty rational")
    if any(ch in s for ch in ".eE"):
        raise InputError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


class QuarticThreshold:
    """The nonnegative real fourth_power**(1/4), for a rational radicand."""

    __slots__ = ("fourth_power",)

    def __init__(self, fourth_power: Fraction | int):
        if fourth_power < 0:
            raise InputError("negative radicand")
        self.fourth_power = Fraction(fourth_power)

    def __float__(self) -> float:
        return float(self.fourth_power) ** 0.25

    def __repr__(self) -> str:
        return f"({self.fourth_power})**(1/4)"


GammaLike = Union[Fraction, int, QuarticThreshold]


def threshold_power(gamma: GammaLike) -> tuple[int, int, int]:
    """(k, N, D) with gamma**k == N / D and D > 0: k is 4 for a
    QuarticThreshold and 1 for a rational gamma >= 0.  For integers s and
    scale > 0, gamma < |s| / scale exactly when D |s|**k > N scale**k, a
    comparison of integers."""
    if isinstance(gamma, QuarticThreshold):
        r, k = gamma.fourth_power, 4
    elif gamma < 0:
        raise InputError("negative threshold")
    else:
        r, k = Fraction(gamma), 1
    return k, r.numerator, r.denominator


def gamma_below_abs(gamma: GammaLike, x: Fraction) -> bool:
    """gamma < |x|, exactly (the 'coefficient exceeds threshold' test)."""
    k, num, den = threshold_power(gamma)
    return den * abs(x.numerator) ** k > num * x.denominator ** k


def gamma_count_within(gamma: GammaLike, count: int, budget: Fraction) -> bool:
    """count <= budget / gamma**2, exactly, for count >= 0, budget >= 0."""
    if count < 0 or budget < 0:
        raise InputError("count and budget must be nonnegative")
    if isinstance(gamma, QuarticThreshold):
        # count * sqrt(r) <= budget, squared
        return count * count * gamma.fourth_power <= budget * budget
    return count * gamma * gamma <= budget


def _max_true(pred: Callable[[int], bool], cap: int | None) -> int:
    """Largest k in [1, cap] with pred(k), for monotone pred with
    pred(1) True; cap=None means unbounded (pred must eventually fail)."""
    k = 1
    while (cap is None or 2 * k <= cap) and pred(2 * k):
        k *= 2
    hi = 2 * k if cap is None else min(2 * k, cap)
    lo = k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def best_upper_rational(is_below: Callable[[Fraction], bool],
                        max_denominator: int) -> Fraction:
    """Smallest rational with denominator <= max_denominator strictly
    exceeding a positive real threshold t, where is_below(x) decides
    x <= t exactly.  Stern-Brocot descent with batched steps, so the
    number of exact comparisons is logarithmic in max_denominator.
    """
    if max_denominator < 1:
        raise InputError("max_denominator must be >= 1")
    a, b = 0, 1      # lower bound a/b <= t
    c, d = 1, 0      # upper bound c/d > t (starts at infinity)
    while True:
        if b + d > max_denominator:
            if d == 0:
                raise InputError("threshold has no finite upper bound")
            return Fraction(c, d)
        if is_below(Fraction(a + c, b + d)):
            if d == 0:
                k = _max_true(lambda k: is_below(Fraction(a + k, b)), None)
            else:
                k = _max_true(lambda k: is_below(Fraction(a + k * c, b + k * d)),
                              (max_denominator - b) // d)
            a, b = a + k * c, b + k * d
        else:
            k = _max_true(lambda k: not is_below(Fraction(c + k * a, d + k * b)),
                          (max_denominator - d) // b)
            c, d = c + k * a, d + k * b


def upper_approx(threshold: QuarticThreshold) -> Fraction:
    """Rational over-approximation of a root threshold: the smallest
    rational of denominator <= _MAX_DENOMINATOR strictly above it (or the
    exact value when the root is itself such a rational)."""
    r = threshold.fourth_power
    root = _exact_root(r)
    if root is not None:
        return root
    return best_upper_rational(lambda x: x ** 4 <= r, _MAX_DENOMINATOR)


def _exact_root(r: Fraction) -> Fraction | None:
    """r**(1/4) when exactly rational, else None."""
    num = _iroot(r.numerator)
    den = _iroot(r.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _iroot(n: int) -> int | None:
    """The integer fourth root of n >= 0 when n is a perfect fourth power,
    else None.  isqrt(isqrt(n)) is floor(n ** (1/4)) in integer
    arithmetic, so any size of n works."""
    root = math.isqrt(math.isqrt(n))
    return root if root ** 4 == n else None
