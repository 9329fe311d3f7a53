"""Sherali-Adams relaxations as local expectation functionals.

A level-d functional on n variables is stored through its moments
(subset bitmask -> rational) with the empty moment pinned to 1.  The LP
that computes the level-d value has one variable per nonempty subset of
size <= d and one inequality per partial assignment of width <= d,
asserting nonnegativity of the corresponding local probability.

The edge-variable variant for Max Cut, over 0/1 variables y_{i,j} with
the metric facets, lives here too, together with the two exact
translation maps between vertex functionals and edge functionals.  One
enumerator expands its rows, over monomial bitmasks with integer
coefficients, for the LP builder and the functional check alike, and
the translation maps expand their products as the rows do, by doubling.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boolfn import (BoolFn, FourierCoeffs, fourier_transform,
                     inverse_transform, spread, vars_of)
from .caps import caps
from .csp import Instance, instance_polynomial, is_maxcut
from .errors import (HypothesisError, InputError, InternalError,
                     ParameterError, SizeCapError)
from .lp import GREATER_EQ, LinearConstraint, LinearProgram, solve_lp
from .rationals import format_rational, int_vector, parse_rational

Pair = tuple[int, int]
Monomial = tuple[Pair, ...]  # sorted tuple of sorted pairs; () is the unit


@dataclass(frozen=True)
class PseudoExpectation:
    """Moments {X_alpha : |alpha| <= min(d, n)} with X_empty = 1.

    d may exceed n; the functional then coincides with the full level-n
    one.  Construction validates only the empty moment and key ranges so
    that deliberately broken functionals can be built and fed to
    check_lef.
    """
    n: int
    d: int
    moments: dict[int, Fraction]

    def __post_init__(self):
        if self.moments.get(0) != 1:
            raise InputError("empty moment must be exactly 1")
        loc = self.locality
        for a in self.moments:
            if not 0 <= a < 1 << self.n or a.bit_count() > loc:
                raise InputError(f"moment mask {a} out of range for locality {loc}")

    @property
    def locality(self) -> int:
        return min(self.d, self.n)

    def moment(self, alpha_mask: int) -> Fraction:
        return self.moments.get(alpha_mask, Fraction(0))


def pe_apply(pe: PseudoExpectation, f: BoolFn | FourierCoeffs) -> Fraction:
    """Apply the functional: coefficients above the locality are sent to
    zero (extension by zero)."""
    if isinstance(f, BoolFn):
        coeffs = fourier_transform(f).coeffs
    elif isinstance(f, FourierCoeffs):
        coeffs = f.coeffs
    else:
        raise InputError("cannot apply functional to this object")
    loc = pe.locality
    total = Fraction(0)
    for a, v in coeffs.items():
        if a.bit_count() <= loc:
            mv = pe.moments.get(a)
            if mv is not None and mv:
                total += v * mv
    return total


def _subsets_upto(n: int, d: int):
    """Subset bitmasks of [n] with size <= d, by size and then by the
    lexicographic order of their index tuples: 9 = {0, 3} before 6."""
    for size in range(d + 1):
        for combo in itertools.combinations(range(n), size):
            yield sum(1 << i for i in combo)


def _indicators(n: int, d: int):
    """The partial-assignment indicators of width <= d.  For every subset
    S of [n] with |S| <= d, in _subsets_upto order, and then every
    minus-pattern a (the submask of S set to -1) in increasing order,
    yields (S, a, terms), where terms lists (alpha, chi_alpha(a)) for every
    alpha subset of S: the indicator of x_S = a is
    2^-|S| sum_alpha chi_alpha(a) chi_alpha."""
    for s_mask in _subsets_upto(n, d):
        subs = [s_mask]
        while subs[-1]:
            subs.append((subs[-1] - 1) & s_mask)
        for minus in reversed(subs):
            yield s_mask, minus, [
                (alpha, -1 if (alpha & minus).bit_count() & 1 else 1)
                for alpha in subs]


def sa_variable_masks(n: int, d: int) -> tuple[int, ...]:
    """LP variable order: the nonempty masks of _subsets_upto(n, d)."""
    return tuple(m for m in _subsets_upto(n, d) if m)


def _check_level(d: int) -> None:
    """A level is nonnegative; checked before any hypothesis on d."""
    if d < 0:
        raise ParameterError(f"need d >= 0, got d={d}")


def build_sa_lp(n: int, d: int, objective: FourierCoeffs) -> LinearProgram:
    """The level-d LP: one free variable per mask in sa_variable_masks,
    and, for every subset S of size <= d and assignment a to S, the row
    sum_{alpha subset S} chi_alpha(a) X_alpha >= 0 with X_empty = 1
    substituted (the empty S contributes only the vacuous 1 >= 0 and is
    omitted).  The objective drops the constant coefficient; sa_value
    adds it back."""
    _check_level(d)
    if d > n:
        raise ParameterError(f"level d={d} exceeds n={n}")
    if objective.degree() > d:
        raise HypothesisError(
            f"objective degree {objective.degree()} exceeds level {d}")
    masks = sa_variable_masks(n, d)
    index = {m: i for i, m in enumerate(masks)}
    rows = tuple(
        LinearConstraint(tuple(sorted((index[alpha], s)
                                      for alpha, s in terms if alpha)),
                         GREATER_EQ, -1, len(masks))
        for s_mask, _, terms in _indicators(n, d) if s_mask)
    obj = tuple(Fraction(objective.get(m)) for m in masks)
    return LinearProgram(len(masks), rows, obj, "maximize")


def sa_value(inst: Instance, d: int) -> tuple[Fraction, PseudoExpectation]:
    """Exact level-d value and an attaining functional.  Levels above n
    coincide with level n.  Requires max predicate arity <= d."""
    _check_level(d)
    k = inst.max_arity()
    if k > d:
        raise HypothesisError(f"predicate arity {k} exceeds level {d}")
    level = min(d, inst.n)
    poly = instance_polynomial(inst)
    lp = build_sa_lp(inst.n, level, poly)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InternalError(f"level-{level} LP is {sol.status}")
    masks = sa_variable_masks(inst.n, level)
    moments = {0: Fraction(1)}
    for m, v in zip(masks, sol.point):
        moments[m] = v
    value = sol.value + poly.get(0)
    return value, PseudoExpectation(inst.n, d, moments)


@dataclass(frozen=True)
class LefReport:
    """check_lef outcome; margins are reported so near-violations are
    visible.  failed_property is 1, 2 or 3 (first violated), or None."""
    ok: bool
    failed_property: int | None = None
    detail: str = ""
    min_indicator: Fraction | None = None
    max_abs_moment: Fraction | None = None
    sup_norm: Fraction | None = None
    sup_norm_bound: int | None = None


def moment_count_bound(n: int, d: int) -> int:
    """Number of stored coefficients, sum_{s<=d} C(n,s); bounds the sup
    norm of the functional since each coefficient is at most 1."""
    return sum(math.comb(n, s) for s in range(min(d, n) + 1))


def check_lef(pe: PseudoExpectation) -> LefReport:
    """Verify the three functional properties, in order:
    (i) nonnegativity on every partial-assignment indicator of width <=
    locality, (ii) every moment within [-1, 1], (iii) sup norm of the
    expansion within the coefficient-count bound.  Reports the first
    violation; margins always filled in."""
    loc = pe.locality
    n = pe.n
    min_ind: Fraction | None = None
    first = None
    detail = ""
    for s_mask, minus, terms in _indicators(n, loc):
        val = Fraction(0)
        for alpha, sign in terms:
            mv = pe.moments.get(alpha)
            if mv:
                val += sign * mv
        if min_ind is None or val < min_ind:
            min_ind = val
        if val < 0 and first is None:
            first = 1
            detail = (f"indicator on mask {s_mask} with minus-pattern "
                      f"{minus} has value {val}")
    max_abs = max((abs(v) for v in pe.moments.values()), default=Fraction(0))
    if first is None and max_abs > 1:
        first = 2
        worst = max(pe.moments, key=lambda a: abs(pe.moments[a]))
        detail = f"moment {worst} has absolute value {abs(pe.moments[worst])}"
    table = inverse_transform(FourierCoeffs(n, dict(pe.moments)))
    sup = table.sup_norm()
    bound = moment_count_bound(n, loc)
    if first is None and sup > bound:
        first = 3
        detail = f"sup norm {sup} exceeds coefficient-count bound {bound}"
    return LefReport(ok=first is None, failed_property=first, detail=detail,
                     min_indicator=min_ind, max_abs_moment=max_abs,
                     sup_norm=sup, sup_norm_bound=bound)


def pe_plant(pe: PseudoExpectation, positions: Sequence[int],
             n: int) -> PseudoExpectation:
    """Transport a functional on m variables through an ordered m-subset
    of [n]: moments on masks inside the image, zero elsewhere."""
    positions = tuple(positions)
    if len(positions) != pe.n:
        raise InputError(f"need {pe.n} positions, got {len(positions)}")
    if len(set(positions)) != len(positions):
        raise InputError("positions must be distinct")
    if not all(1 <= p <= n for p in positions):
        raise InputError(f"positions must lie in [1, {n}]")
    return PseudoExpectation(n, pe.d, {spread(a, positions): v
                                       for a, v in pe.moments.items()})


# ---------------------------------------------------------------------------
# Edge-variable relaxation for Max Cut (0/1 edge variables, metric facets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeFunctional:
    """Linear functional on squarefree edge-variable monomials of degree
    <= r+1, with the unit monomial pinned to 1."""
    n: int
    r: int
    moments: dict[Monomial, Fraction]

    def __post_init__(self):
        if self.moments.get(()) != 1:
            raise InputError("unit moment must be exactly 1")
        for mono in self.moments:
            if len(mono) > self.r + 1:
                raise InputError(f"monomial {mono} above degree {self.r + 1}")
            for (i, j) in mono:
                if not 1 <= i < j <= self.n:
                    raise InputError(f"bad edge variable {(i, j)}")

    def moment(self, mono: Monomial) -> Fraction:
        try:
            return self.moments[mono]
        except KeyError:
            raise InputError(f"moment of {mono} not stored") from None


def _all_pairs(n: int) -> list[Pair]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _metric_facets(n: int) -> list[tuple[str, list[tuple[int, int]]]]:
    """All metric facets as linear polynomials ell with {ell >= 0}: (name,
    [(monomial mask, coefficient)]), pair p of _all_pairs(n) being bit p
    of a mask and 0 the unit monomial."""
    pairs = _all_pairs(n)
    bit = {e: 1 << p for p, e in enumerate(pairs)}
    facets: list[tuple[str, list[tuple[int, int]]]] = []
    for e in pairs:
        facets.append((f"y{e}>=0", [(bit[e], 1)]))
        facets.append((f"y{e}<=1", [(0, 1), (bit[e], -1)]))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        eij, eik, ejk = (i, j), (i, k), (j, k)
        for long_e, a, b in ((eij, eik, ejk), (eik, eij, ejk), (ejk, eij, eik)):
            facets.append((f"tri{long_e}<={a}+{b}",
                           [(bit[a], 1), (bit[b], 1), (bit[long_e], -1)]))
        facets.append((f"perim{(i, j, k)}",
                       [(0, 2), (bit[eij], -1), (bit[eik], -1), (bit[ejk], -1)]))
    return facets


def _indicator_terms(bits: Sequence[int], pattern: int) -> list[tuple[int, int]]:
    """The indicator that the pair variable of bit bits[k] equals bit k of
    pattern, expanded as [(monomial mask, +1 / -1)]: the product of y_e
    over the ones and of (1 - y_e) over the zeros."""
    ones = 0
    terms = [(0, 1)]
    for k, b in enumerate(bits):
        if pattern >> k & 1:
            ones |= b
        else:
            terms += [(m | b, -s) for m, s in terms]
    return [(m | ones, s) for m, s in terms]


def _edge_rows(n: int, r: int):
    """The constraint family: every indicator junta on at most r pair
    variables (by size, then combination, then pattern) times every
    metric facet, expanded into squarefree monomials, where a product of
    monomials is the | of their masks.  Yields (t_vars, pattern, facet
    name, {monomial mask: int coefficient}) with zero coefficients
    dropped; the row's label is I{t_vars}:{pattern}*{name}."""
    pairs = _all_pairs(n)
    facets = _metric_facets(n)
    for t in _subsets_upto(len(pairs), r):
        ps = [p for p in range(len(pairs)) if t >> p & 1]
        t_vars = tuple(pairs[p] for p in ps)
        bits = [1 << p for p in ps]
        for pattern in range(1 << len(ps)):
            ind = _indicator_terms(bits, pattern)
            for name, ell in facets:
                poly: dict[int, int] = {}
                for m1, c1 in ind:
                    for m2, c2 in ell:
                        m = m1 | m2
                        poly[m] = poly.get(m, 0) + c1 * c2
                yield t_vars, pattern, name, {m: c for m, c in poly.items() if c}


def edge_monomials(n: int, r: int) -> tuple[Monomial, ...]:
    """LP variable order: monomials of degree 1..r+1 over all pairs, by
    (degree, lexicographic)."""
    pairs = _all_pairs(n)
    return tuple(tuple(e for p, e in enumerate(pairs) if m >> p & 1)
                 for m in _monomial_masks(n, r))


def _monomial_masks(n: int, r: int) -> tuple[int, ...]:
    """edge_monomials(n, r) as masks over the pair bits, in the same order."""
    return sa_variable_masks(n * (n - 1) // 2, r + 1)


def _check_edge_caps(n: int, r: int) -> None:
    c = caps()
    if n > c.edge_n or r > c.edge_r:
        raise SizeCapError(
            f"edge relaxation size (n={n}, r={r}) exceeds caps "
            f"(n<={c.edge_n}, r<={c.edge_r}); raise LIFTGAP_SIZE_CAPS to override")


def build_edge_sa_lp(n: int, r: int, inst: Instance) -> LinearProgram:
    """Level-r edge LP for a Max Cut instance on n vertices: maximize the
    mean edge moment subject to every indicator-times-facet product being
    nonnegative.  Duplicate rows are emitted once."""
    if r < 0 or n < 3:
        raise ParameterError("need r >= 0 and n >= 3")
    _check_edge_caps(n, r)
    if not is_maxcut(inst):
        raise InputError("operation requires a Max Cut instance")
    if inst.n != n:
        raise InputError(f"instance has {inst.n} vertices, relaxation has {n}")
    masks = _monomial_masks(n, r)
    index = {m: j for j, m in enumerate(masks)}
    rows = []
    seen = set()
    for _, _, _, poly in _edge_rows(n, r):
        const = poly.pop(0, 0)
        if not poly:
            continue  # constant row, trivially true (constant >= 0 here)
        key = (tuple(sorted((index[m], c) for m, c in poly.items())), const)
        if key in seen:
            continue
        seen.add(key)
        rows.append(LinearConstraint(key[0], GREATER_EQ, -const, len(masks)))
    pairs = _all_pairs(n)
    m_edges = len(inst.constraints)
    obj = [Fraction(0)] * len(masks)
    for c in inst.constraints:
        e = (min(c.vars), max(c.vars))
        obj[index[1 << pairs.index(e)]] = Fraction(1, m_edges)
    return LinearProgram(len(masks), tuple(rows), tuple(obj), "maximize")


def edge_sa_solve(inst: Instance, r: int) -> tuple[Fraction, EdgeFunctional]:
    lp = build_edge_sa_lp(inst.n, r, inst)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InternalError(f"edge LP is {sol.status}")
    monos = edge_monomials(inst.n, r)
    moments: dict[Monomial, Fraction] = {(): Fraction(1)}
    for m, v in zip(monos, sol.point):
        moments[m] = v
    return sol.value, EdgeFunctional(inst.n, r, moments)


@dataclass(frozen=True)
class EdgeLefReport:
    ok: bool
    detail: str = ""
    min_value: Fraction | None = None


def check_edge_functional(ef: EdgeFunctional) -> EdgeLefReport:
    """Enumerate every indicator r-junta times metric facet and verify
    the functional is nonnegative on it; reports the minimum value seen
    (the feasibility margin)."""
    _check_edge_caps(ef.n, ef.r)
    # the rows read every monomial of degree <= r+1, first in this order
    # (degree, then lexicographic), so a missing moment is named as a
    # row-by-row read would name it
    moments = [ef.moment(mono) for mono in ((),) + edge_monomials(ef.n, ef.r)]
    ints, scale = int_vector(moments)
    value = dict(zip((0,) + _monomial_masks(ef.n, ef.r), ints))
    min_val: int | None = None
    first = ""
    for t_vars, pattern, name, poly in _edge_rows(ef.n, ef.r):
        val = sum(c * value[m] for m, c in poly.items())
        if min_val is None or val < min_val:
            min_val = val
        if val < 0 and not first:
            first = (f"I{t_vars}:{pattern}*{name} evaluates to "
                     f"{Fraction(val, scale)}")
    return EdgeLefReport(ok=not first, detail=first, min_value=(
        None if min_val is None else Fraction(min_val, scale)))


def vertex_to_edge(pe: PseudoExpectation) -> EdgeFunctional:
    """Push a locality-k functional (k even, k >= 6) through the cut map
    x -> y with y_{i,j} = (1 - x_i x_j)/2, landing at edge level
    r = k/2 - 2.  Every pair moment equals the image of the cut
    polynomial by construction, so the Max Cut objective is preserved
    exactly."""
    k = pe.d
    if k % 2 or k < 6:
        raise ParameterError(f"locality must be even and >= 6, got {k}")
    r = k // 2 - 2
    n = pe.n
    moments: dict[Monomial, Fraction] = {(): Fraction(1)}
    for mono in edge_monomials(n, r):
        # 2^|mono| times the product of the (1 - x_i x_j) / 2
        terms = [(0, 1)]
        for (i, j) in mono:
            pair = (1 << (i - 1)) | (1 << (j - 1))
            terms += [(a ^ pair, -s) for a, s in terms]
        moments[mono] = Fraction(sum(s * pe.moment(a) for a, s in terms),
                                 1 << len(mono))
    ef = EdgeFunctional(n, r, moments)
    report = check_edge_functional(ef)
    if not report.ok:
        raise InternalError(f"translated functional infeasible: {report.detail}")
    return ef


def edge_to_vertex(ef: EdgeFunctional) -> PseudoExpectation:
    """Pull a level-r edge functional back to vertex variables through
    x_i = 1 - 2 y_{1,i} (vertex 1 anchors the bipartition), landing at
    locality r.

    For r >= 2 the Max Cut objective transfers exactly; this rests on the
    per-pair identity E[(y_{1,i} - y_{1,j})^2] = E[y_{i,j}], which is
    verified numerically here, per triple (1, i, j), by checking that the
    functional vanishes on every full-assignment indicator of the triple
    times the quadratic discrepancy.  At r < 2 the output locality cannot
    even express the degree-2 objective, so those checks are skipped."""
    r = ef.r
    n = ef.n
    moments: dict[int, Fraction] = {}
    for a in _subsets_upto(n, r):
        # the product of the 1 - 2 y_{1,i} over the i != 1 in a
        terms = [((), 1)]
        for i in sorted(vars_of(a & ~1)):
            terms += [(m + ((1, i),), -2 * s) for m, s in terms]
        moments[a] = sum((s * ef.moment(m) for m, s in terms), Fraction(0))
    pe = PseudoExpectation(n, r, moments)
    if r >= 2:
        _verify_objective_identity(ef, pe)
    report = check_lef(pe)
    if not report.ok:
        raise HypothesisError(
            f"translated functional fails property {report.failed_property}: "
            f"{report.detail}; input edge functional was not feasible")
    return pe


def _verify_objective_identity(ef: EdgeFunctional, pe: PseudoExpectation) -> None:
    """For every pair {i, j} not containing the anchor: the discrepancy
    (y_{1,i} - y_{1,j})^2 - y_{i,j}  (squarefree: y1i + y1j - 2 y1i y1j
    - yij) must vanish under the functional, both in aggregate and
    against each full indicator of the triple's three edge variables."""
    for i, j in itertools.combinations(range(2, ef.n + 1), 2):
        e1i, e1j, eij = (1, i), (1, j), (i, j)
        total = (ef.moment((e1i,)) + ef.moment((e1j,))
                 - 2 * ef.moment((e1i, e1j)) - ef.moment((eij,)))
        if total != 0:
            raise HypothesisError(
                f"objective identity fails at pair {(i, j)}: "
                f"discrepancy {total}; the input functional is not at level >= 2")
        # the triple's monomials as masks: bit 2 for e1i, 1 for e1j, 0 for eij
        triple = ((e1i, 4), (e1j, 2), (eij, 1))
        moments = [ef.moment(tuple(e for e, b in triple if u & b))
                   for u in range(8)]
        for pattern in range(8):
            a = pattern & 1
            b = pattern >> 1 & 1
            cval = pattern >> 2 & 1
            if (a - b) ** 2 == cval:
                continue
            value = sum(s * moments[u]
                        for u, s in _indicator_terms((4, 2, 1), pattern))
            if value:
                raise HypothesisError(
                    f"triple identity fails at (1, {i}, {j}), pattern "
                    f"{pattern}: indicator mass {value}")


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def pe_to_json(pe: PseudoExpectation) -> str:
    moments = {str(a): format_rational(pe.moment(a))
               for a in _subsets_upto(pe.n, pe.locality)}
    return json.dumps({"n": pe.n, "d": pe.d, "moments": moments}, sort_keys=True)


def _functional_fields(text: str, level: str) -> tuple[int, int, dict]:
    """(n, level, moments) of a functional JSON document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from None
    try:
        n, lvl, raw = obj["n"], obj[level], obj["moments"]
    except (TypeError, KeyError):
        raise InputError(f'expected {{"n", "{level}", "moments"}}') from None
    if not all(type(v) is int and v >= 0 for v in (n, lvl)):
        raise InputError(f'"n" and "{level}" must be nonnegative integers')
    if not isinstance(raw, dict):
        raise InputError('"moments" must be a JSON object')
    return n, lvl, raw


def pe_from_json(text: str) -> PseudoExpectation:
    n, d, raw = _functional_fields(text, "d")
    if raw.get("0") != "1":
        raise InputError('moments must contain "0": "1"')
    try:
        moments = {int(k): parse_rational(v) for k, v in raw.items()}
    except ValueError:
        raise InputError("moment keys must be decimal subset bitmasks") from None
    return PseudoExpectation(n, d, moments)


def _mono_key(mono: Monomial) -> str:
    return ",".join(f"{i}-{j}" for i, j in mono)


def _parse_mono(key: str) -> Monomial:
    if not key:
        return ()
    out = []
    for part in key.split(","):
        i, sep, j = part.partition("-")
        if not (sep and i.isdecimal() and j.isdecimal()):
            raise InputError(f"bad edge key {part!r}")
        out.append((int(i), int(j)))
    return tuple(sorted(out))


def edge_functional_to_json(ef: EdgeFunctional) -> str:
    moments = {_mono_key(m): format_rational(v) for m, v in ef.moments.items()}
    return json.dumps({"n": ef.n, "r": ef.r, "moments": moments}, sort_keys=True)


def edge_functional_from_json(text: str) -> EdgeFunctional:
    n, r, raw = _functional_fields(text, "r")
    moments = {_parse_mono(k): parse_rational(v) for k, v in raw.items()}
    return EdgeFunctional(n, r, moments)
