"""Boolean functions on {-1,1}^n with exact Walsh-Hadamard analysis.

Representation: a dense table of 2^n integer numerators `nums` over one
positive denominator `den`, in lowest terms, so equal functions have
equal (den, nums).  Every exact operation here (mean, sup norm, density
checks, transforms, junta tests) runs on those integers;
`values`, the table as Fractions, is built on first use for callers that
want rationals.  A table may be deferred: it is made with a function
that builds its numerators (slack.slack_functions unpacks a row's packed
lanes), and nums and den are built and reduced on their first read, so
a caller that never reads them never pays for the table.

Index bit b of a table position is 1 exactly when x_{b+1} = -1;
position 0 is the all-ones assignment.  This indexing is part of the
JSON file format contract:

    {"n": 3, "values": ["1/2", "0", ...]}   # length exactly 2^n

Variable sets (junta supports, restriction sets) use 1-based indices to
match the instance file formats; subset bitmasks tie variable i to bit
i-1, consistent with the table indexing.

The transform is the integer butterfly on the numerators, so it is exact
and fast.  Its nonzero integer entries are cached on the table, and the
coefficients as Fractions are built from them on first read.  A table
may arrive with its integer spectrum already known, and then it is never
transformed: a character chi_alpha is the single entry 2^n at alpha, a
relaxation coordinate comes with its closed form, slack.slack_functions
derives each slack's from its row (the rhs at mask 0 minus the row's
combination of the coordinates' spectra), and `scaled` carries a known
spectrum over times the factor.  The mean is the mask-0 entry of a known
spectrum, and a sup norm within a bound is decided from a known
spectrum whenever the sum of its absolute entries is within it;
otherwise the table's (min, max), cached on first use, decides it.  A
table can also carry the fact that it is nonnegative, recorded by the
code that proved it (slack.slack_functions checks every lane) and kept
by `scaled` with a positive factor; Density trusts that field and
otherwise reads the table's min.  Entropy is the single deliberately
floating-point quantity in the package.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .caps import caps
from .errors import InputError, ParameterError, SizeCapError
from .rationals import (GammaLike, format_rational, gamma_count_within,
                        int_vector, parse_rational, threshold_power)

ENTROPY_TOLERANCE = 1e-12  # documented absolute tolerance of entropy_deficit


def mask_of(variables: Iterable[int], n: int) -> int:
    """Subset bitmask for 1-based variable indices."""
    m = 0
    for i in variables:
        if not 1 <= i <= n:
            raise InputError(f"variable {i} outside [1, {n}]")
        m |= 1 << (i - 1)
    return m


def _lowest_terms(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """The table nums / den, for den != 0, in lowest terms: divided by the
    gcd of den and nums, with the sign that makes den positive.  A den of
    1 keeps nums as they are."""
    if den != 1:
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    return nums, den


def vars_of(mask: int) -> frozenset[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


class BoolFn:
    """Function {-1,1}^n -> Q as the table nums[i] / den; immutable by
    convention.  A deferred table (see `deferred`) builds nums and den on
    their first read."""

    # _pending: (build, den) of a deferred table until it is built, else
    # None; _nonneg: every entry is proved >= 0, recorded by the code that
    # proved it
    __slots__ = ("n", "_nums", "_den", "_pending", "_values", "_spectrum",
                 "_coeffs", "_range", "_nonneg")

    def __init__(self, n: int, values: Sequence[Fraction]):
        # over the lcm of reduced denominators the table is in lowest terms
        nums, den = int_vector(
            [v if type(v) is Fraction else Fraction(v) for v in values])
        self._init(n)
        self._set_table(nums, den)

    @classmethod
    def from_ints(cls, n: int, nums: Sequence[int], den: int = 1) -> "BoolFn":
        """The table nums[i] / den for integers nums and den != 0, reduced
        to lowest terms (a tuple in lowest terms is kept, not copied)."""
        if den == 0:
            raise InputError("zero denominator")
        f = object.__new__(cls)
        f._init(n)
        f._set_table(*_lowest_terms(nums, den))
        return f

    @classmethod
    def deferred(cls, n: int, build: Callable[[], Sequence[int]],
                 den: int) -> "BoolFn":
        """The table build() / den, for a den > 0 and a build giving 2^n
        integers.  build runs on the first read of nums or den, and its
        table is then reduced to lowest terms as from_ints reduces it."""
        f = object.__new__(cls)
        f._init(n)
        f._pending = (build, den)
        return f

    def _init(self, n: int) -> None:
        if n < 0:
            raise InputError("n must be nonnegative")
        if n > caps().boolfn_n:
            raise SizeCapError(f"n = {n} exceeds table cap {caps().boolfn_n}")
        self.n = n
        self._nums = None
        self._den = None
        self._pending = None
        self._values = None
        self._spectrum = None
        self._coeffs = None
        self._range = None
        self._nonneg = False

    def _set_table(self, nums: Sequence[int], den: int) -> None:
        if len(nums) != 1 << self.n:
            raise InputError(f"table length {len(nums)} != 2^{self.n}")
        self._nums = tuple(nums)
        self._den = den

    def _build(self) -> None:
        build, den = self._pending
        self._set_table(*_lowest_terms(build(), den))
        self._pending = None

    @property
    def nums(self) -> tuple[int, ...]:
        """The numerators, in lowest terms over den."""
        if self._nums is None:
            self._build()
        return self._nums

    @property
    def den(self) -> int:
        if self._nums is None:
            self._build()
        return self._den

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The table as Fractions, built on first use; equal entries share
        one object."""
        if self._values is None:
            shared = {v: Fraction(v, self.den) for v in set(self.nums)}
            self._values = tuple(map(shared.__getitem__, self.nums))
        return self._values

    def __eq__(self, other) -> bool:
        return (isinstance(other, BoolFn) and self.n == other.n
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.n, self.den, self.nums))

    def __repr__(self) -> str:
        return f"BoolFn(n={self.n})"

    def mean(self) -> Fraction:
        """The coefficient at mask 0: read off a known spectrum, whose
        entries are in increasing mask order, else summed."""
        if self._spectrum is None:
            return Fraction(sum(self.nums), self.den << self.n)
        entries, scale = self._spectrum
        s = entries[0][1] if entries and entries[0][0] == 0 else 0
        return Fraction(s, scale)

    def _num_range(self) -> tuple[int, int]:
        """(min(nums), max(nums)), cached."""
        if self._range is None:
            self._range = (min(self.nums), max(self.nums))
        return self._range

    def sup_norm(self) -> Fraction:
        lo, hi = self._num_range()
        return Fraction(max(hi, -lo), self.den)

    def sup_norm_at_most(self, cap: Fraction | int) -> bool:
        """sup_norm() <= cap, exactly.  Each f(x) is sum_a f^(a) chi_a(x),
        so max|f| <= sum_a |f^(a)|: with the spectrum known, a sum within
        cap decides it without the table.  Otherwise the table's exact
        range does."""
        if self._spectrum is not None:
            entries, scale = self._spectrum
            cap = Fraction(cap)
            if (sum(abs(s) for _, s in entries) * cap.denominator
                    <= cap.numerator * scale):
                return True
        return self.sup_norm() <= cap

    def scaled(self, factor: Fraction | int) -> "BoolFn":
        """The function times a rational factor, exactly.  A deferred
        table stays deferred."""
        factor = Fraction(factor)
        if factor == 1:
            return self
        p, q = factor.numerator, factor.denominator
        if self._pending is not None:
            build, den = self._pending
            out = BoolFn.deferred(self.n, lambda: [v * p for v in build()],
                                  den * q)
        else:
            out = BoolFn.from_ints(self.n, [v * p for v in self.nums],
                                   self.den * q)
        if self._spectrum is not None and p:
            # the transform is linear, so the spectrum scales with the table
            entries, scale = self._spectrum
            out._spectrum = ([(a, s * p) for a, s in entries], scale * q)
        out._nonneg = self._nonneg and p > 0
        return out

    @staticmethod
    def constant(n: int, value: Fraction | int) -> "BoolFn":
        value = Fraction(value)
        return BoolFn.from_ints(n, [value.numerator] * (1 << n),
                                value.denominator)

    @staticmethod
    def character(n: int, variables: Iterable[int]) -> "BoolFn":
        """chi_alpha(x) = prod_{i in alpha} x_i, with its spectrum, the
        single entry 2^n at alpha over 2^n, cached."""
        alpha = mask_of(variables, n)
        # positions 2^i .. 2^(i+1) - 1 have bit i set: there chi repeats
        # the first 2^i entries, negated when i + 1 is in alpha
        nums = [1]
        for i in range(n):
            nums += [-v for v in nums] if alpha >> i & 1 else nums
        f = BoolFn.from_ints(n, nums)
        _cache_spectrum(f, [(alpha, 1 << n)], 1 << n)
        return f


@dataclass(frozen=True)
class FourierCoeffs:
    """Sparse coefficient map: subset bitmask -> nonzero coefficient."""
    n: int
    coeffs: dict[int, Fraction]

    def get(self, alpha_mask: int) -> Fraction:
        return self.coeffs.get(alpha_mask, Fraction(0))

    def degree(self) -> int:
        return max((m.bit_count() for m in self.coeffs), default=0)


def _butterfly(vals: Sequence[int]) -> list[int]:
    """Walsh-Hadamard butterfly on integers: output position a holds
    sum_i vals[i] * (-1)^{popcount(i & a)}.  Each pass sends the pair at
    (2i, 2i+1) to (i, half + i) as (sum, difference), which transforms the
    lowest index bit and rotates it to the top; after n passes every bit
    is transformed and back in place."""
    out = list(vals)
    for _ in range(len(out).bit_length() - 1):
        even, odd = out[0::2], out[1::2]
        out = list(map(operator.add, even, odd))
        out += map(operator.sub, even, odd)
    return out


def _cache_spectrum(f: BoolFn, spectrum: Iterable[tuple[int, int]],
                    scale: int) -> None:
    """Cache on f its integer spectrum, given as (mask, s) pairs in
    increasing mask order: the coefficient at mask a is s / scale.  Zero
    entries are left out."""
    f._spectrum = ([(a, s) for a, s in spectrum if s], scale)


def integer_spectrum(f: BoolFn) -> tuple[list[tuple[int, int]], int]:
    """f's nonzero integer spectrum as (mask, s) pairs in increasing mask
    order, and its scale: the coefficient at mask a is s / scale.  The
    scale is a multiple of f.den << f.n.  Cached; the butterfly runs only
    when no spectrum is known."""
    if f._spectrum is None:
        _cache_spectrum(f, enumerate(_butterfly(f.nums)), f.den << f.n)
    return f._spectrum


def fourier_transform(f: BoolFn) -> FourierCoeffs:
    """Exact coefficients; inverse_transform is the exact inverse."""
    if f._coeffs is None:
        entries, scale = integer_spectrum(f)
        f._coeffs = FourierCoeffs(f.n, {a: Fraction(s, scale)
                                        for a, s in entries})
    return f._coeffs


def inverse_transform(c: FourierCoeffs) -> BoolFn:
    if not c.coeffs:
        return BoolFn.constant(c.n, 0)
    ints, denom = int_vector(list(c.coeffs.values()))
    dense = [0] * (1 << c.n)
    for a, v in zip(c.coeffs, ints):
        if a >= 1 << c.n:
            raise InputError("coefficient mask out of range")
        dense[a] = v
    return BoolFn.from_ints(c.n, _butterfly(dense), denom)


class Density(object):
    """Nonnegative function with mean exactly 1; wraps its BoolFn."""

    __slots__ = ("fn",)

    def __init__(self, fn: BoolFn):
        # a nonnegativity proved where fn was made is carried in
        # fn._nonneg; without it the table's exact min decides
        if not fn._nonneg and fn._num_range()[0] < 0:
            raise InputError("density must be nonnegative")
        if fn.mean() != 1:
            raise InputError("density must have mean exactly 1")
        self.fn = fn

    @property
    def n(self) -> int:
        return self.fn.n

    def __repr__(self) -> str:
        return f"Density(n={self.n})"


def entropy_deficit(q: Density) -> float:
    """n minus the Shannon entropy (bits) of the measure with density q.
    Floating point; absolute tolerance ENTROPY_TOLERANCE.  Uniform -> 0,
    a point mass -> n."""
    n = q.n
    scale = q.fn.den << n
    entropy = 0.0
    for v in q.fn.nums:
        if v:
            fp = v / scale  # correctly rounded, as float(Fraction(v, scale))
            entropy -= fp * math.log2(fp)
    return n - entropy


@dataclass(frozen=True)
class JuntaCertificate:
    """Outcome of the junta extraction for a high-entropy density.

    On success every low-degree coefficient outside the junta J is at
    most gamma in absolute value and |J| <= 2*t*d/gamma^2.  On failure
    (the independent large-coefficient count exceeds 2*t/gamma^2, i.e.
    the entropy hypothesis fails for the supplied t) the violations list
    carries the independent large coefficients that overflow the budget.
    """
    junta: frozenset[int]
    degree: int
    gamma: GammaLike
    t: Fraction
    success: bool
    violations: tuple[tuple[frozenset[int], Fraction], ...] = ()


def chang_junta(q: Density, t: Fraction | int, d: int,
                gamma: GammaLike) -> JuntaCertificate:
    """Extract the coordinate set hiding all large low-degree coefficients.

    Scans coefficients with |alpha| <= d and |coeff| > gamma in order of
    decreasing magnitude (lexicographic mask tie-break), keeps a maximal
    F2-linearly-independent subset via Gaussian elimination on the
    characteristic vectors, and returns the union J of the kept subsets.
    Succeeds when the independent count is within 2*t/gamma^2.
    """
    if isinstance(gamma, (int, Fraction)) and gamma <= 0:
        raise ParameterError("gamma must be positive")
    if not 1 <= d <= q.n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={q.n}")
    t = Fraction(t)
    # coefficient a is s / scale: with gamma^k == N / D it is large when
    # D |s|^k > N scale^k, and one scale orders them as their integers
    entries, scale = integer_spectrum(q.fn)
    k, num, den = threshold_power(gamma)
    bound = num * scale ** k
    large = [(a, s) for a, s in entries
             if a.bit_count() <= d and den * abs(s) ** k > bound]
    large.sort(key=lambda av: (-abs(av[1]), av[0]))

    pivots: dict[int, int] = {}  # highest set bit -> reduced mask
    independent: list[tuple[int, int]] = []
    for a, s in large:
        reduced = a
        while reduced:
            hb = reduced.bit_length() - 1
            if hb not in pivots:
                pivots[hb] = reduced
                independent.append((a, s))
                break
            reduced ^= pivots[hb]

    junta_mask = 0
    for a, _ in independent:
        junta_mask |= a
    ok = gamma_count_within(gamma, len(independent), 2 * t)
    violations = () if ok else tuple(
        (vars_of(a), Fraction(s, scale)) for a, s in independent)
    return JuntaCertificate(junta=vars_of(junta_mask), degree=d, gamma=gamma,
                            t=t, success=ok, violations=violations)


def junta_support(f: BoolFn) -> frozenset[int]:
    """The unique minimal set f depends on: the union of all subsets
    carrying a nonzero coefficient."""
    support = 0
    for a in fourier_transform(f).coeffs:
        support |= a
    return vars_of(support)


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------


def boolfn_to_json(f: BoolFn) -> str:
    return json.dumps(
        {"n": f.n, "values": [format_rational(v) for v in f.values]},
        sort_keys=True)


def boolfn_from_json(text: str) -> BoolFn:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "values" not in obj:
        raise InputError('expected {"n": ..., "values": [...]}')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("n must be an integer")
    values = obj["values"]
    if not isinstance(values, list):
        raise InputError("values must be a list")
    return BoolFn(n, [_json_rational(v) for v in values])


def _json_rational(v: object) -> Fraction:
    """A table value: "p/q" text or a JSON integer.  Floats, bools and null
    are refused, as parse_rational refuses "0.5"."""
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise InputError(f'values must be "p/q" strings or integers, got {v!r}')
