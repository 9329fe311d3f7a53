"""Exact rational plumbing: canonical "p/q" text form and exact
comparison against irrational thresholds of the form r**(1/2) or
r**(1/4).

fractions.Fraction is the rational type of the public API; values are
always in lowest terms with positive denominator, which the text form
relies on.  Comparisons against root thresholds are done on squares and
fourth powers so every verdict is an integer comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from .errors import InputError


def format_rational(x: Fraction | int) -> str:
    """Canonical text: 'p/q' in lowest terms, integers without '/1',
    sign on the numerator."""
    return str(x)


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


class SqrtThreshold:
    """The nonnegative real sqrt(square), for a rational radicand."""

    __slots__ = ("square",)

    def __init__(self, square: Fraction | int):
        if square < 0:
            raise InputError("negative radicand")
        self.square = Fraction(square)

    def __float__(self) -> float:
        return float(self.square) ** 0.5

    def __repr__(self) -> str:
        return f"sqrt({self.square})"


class QuarticThreshold:
    """The nonnegative real fourth_power**(1/4), for a rational radicand.
    Its square is an exact SqrtThreshold."""

    __slots__ = ("fourth_power",)

    def __init__(self, fourth_power: Fraction | int):
        if fourth_power < 0:
            raise InputError("negative radicand")
        self.fourth_power = Fraction(fourth_power)

    def squared(self) -> SqrtThreshold:
        return SqrtThreshold(self.fourth_power)

    def __float__(self) -> float:
        return float(self.fourth_power) ** 0.25

    def __repr__(self) -> str:
        return f"({self.fourth_power})**(1/4)"


GammaLike = Union[Fraction, int, SqrtThreshold, QuarticThreshold]


def gamma_below_abs(gamma: GammaLike, x: Fraction) -> bool:
    """gamma < |x|, exactly (the 'coefficient exceeds threshold' test)."""
    if isinstance(gamma, QuarticThreshold):
        return gamma.fourth_power < (x * x) ** 2
    if isinstance(gamma, SqrtThreshold):
        return gamma.square < x * x
    if gamma < 0:
        raise InputError("negative threshold")
    return gamma < abs(x)


def gamma_count_within(gamma: GammaLike, count: int, budget: Fraction) -> bool:
    """count <= budget / gamma**2, exactly, for count >= 0, budget >= 0."""
    if count < 0 or budget < 0:
        raise InputError("count and budget must be nonnegative")
    if isinstance(gamma, QuarticThreshold):
        # count * sqrt(r) <= budget, squared
        return count * count * gamma.fourth_power <= budget * budget
    if isinstance(gamma, SqrtThreshold):
        return count * gamma.square <= budget
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


def upper_approx(threshold: SqrtThreshold | QuarticThreshold,
                 max_denominator: int = 10 ** 6) -> Fraction:
    """Rational over-approximation of a root threshold: the smallest
    rational of denominator <= max_denominator strictly above it (or the
    exact value when the root is itself such a rational)."""
    if isinstance(threshold, QuarticThreshold):
        root = _exact_root(threshold.fourth_power, 4)
        if root is not None:
            return root
        r = threshold.fourth_power
        return best_upper_rational(lambda x: x ** 4 <= r, max_denominator)
    root = _exact_root(threshold.square, 2)
    if root is not None:
        return root
    r = threshold.square
    return best_upper_rational(lambda x: x * x <= r, max_denominator)


def _exact_root(r: Fraction, k: int) -> Fraction | None:
    """r**(1/k) when exactly rational, else None."""
    if r == 0:
        return Fraction(0)
    num = _iroot(r.numerator, k)
    den = _iroot(r.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _iroot(n: int, k: int) -> int | None:
    """The integer k-th root of n >= 0 when n is a perfect k-th power, else
    None; integer arithmetic throughout, so any size of n works."""
    if n < 2:
        return n
    if k == 2:
        root = math.isqrt(n)
    else:
        # Newton's step from above decreases to floor(n ** (1/k))
        root = 1 << -(-n.bit_length() // k)
        while True:
            step = ((k - 1) * root + n // root ** (k - 1)) // k
            if step >= root:
                break
            root = step
    return root if root ** k == n else None
