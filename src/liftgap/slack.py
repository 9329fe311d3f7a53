"""Polyhedral relaxations and their slack analysis.

A relaxation is a linearization (instance and assignment embeddings into
Q^D) plus a polyhedron given by inequalities <A_i, y> <= b_i.  The slack
of constraint i at an assignment is q_i(x) = b_i - <A_i, x~>, a
nonnegative function on the cube; whether c - instance is a nonnegative
combination of the slacks is decided exactly, in both directions, with
certificates.  Coordinate e of the assignment embedding, x -> x~_e, is a
BoolFn table: the cut indicator [x_i != x_j] = (1 - chi_ij)/2 for
metric, the character chi_m for universal, so the embedded points are
integer columns over a common denominator.  Both come with their
spectra in closed form, and each slack's spectrum is its row's
combination of its coordinates' spectra.

Also here: the slack matrix M[G, x] = c - G(x) over low-optimum Max Cut
instances, the edge-sampling protocol matrix M' that approximates it
entrywise from above, and the explicit nonnegative factorization of M'
whose inner dimension is the message count.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .boolfn import BoolFn, _cache_spectrum, integer_spectrum, vars_of
from .caps import caps
from .csp import (Instance, _satisfied_count, brute_force_opt, evaluate,
                  instance_polynomial, is_maxcut)
from .errors import (CertificationError, InputError, InternalError,
                     SizeCapError, UnboundedError)
from .lp import (EQUAL, LinearConstraint, LinearProgram, farkas_feasibility,
                 linear_program, solve_lp)
from .rationals import format_rational, int_vector
from .sa import _indicators, sa_variable_masks

log = logging.getLogger(__name__)

# The number type of the slack-table arithmetic; perfbench/run.py records
# it as this module's backend.
_mpq = int

# The byte order of `array` items.  Packed lanes are written little-endian
# and byteswapped after `frombytes` on a big-endian host.
_BYTE_ORDER = sys.byteorder

# A signed array typecode per lane width in bits that one exists for;
# wider lanes are unpacked one by one with int.from_bytes.
_TYPECODES = {array(c).itemsize * 8: c for c in "hilq"}


class _Lanes:
    """Vectors of 2^n integers packed as the w-bit lanes of one Python int
    (broadword arithmetic, Knuth, TAOCP 4A 7.1.3).  The vector v is the
    int sum_x v[x] 2^(w x), so sums and integer multiples of packed
    vectors are packed vectors of the lanewise sums and multiples.

    w is the smallest of 16, 32, 64, 128, ... bits with bound < 2^(w-2),
    and every vector formed must keep its lanes within the bound.  Adding
    HIGH, 2^(w-1) in every lane, then puts each lane in (2^(w-2),
    3 2^(w-2)): the biased lanes are the int's base-2^w digits, and a lane
    is nonnegative exactly when its top bit is set."""

    def __init__(self, n: int, bound: int):
        w = 16
        while bound >> (w - 2):
            w <<= 1
        self.width = w
        self.size = 1 << n
        # 1 in every lane, by doubling the run of lanes
        ones = 1
        for j in range(n):
            ones |= ones << (w << j)
        self.ones = ones
        self.high = ones << (w - 1)
        self._typecode = _TYPECODES.get(w)

    def pack(self, values: Sequence[int]) -> int:
        """sum_x values[x] 2^(w x), for 2^n values within the bound."""
        if self._typecode is None:
            k = self.width // 8
            data = b"".join(v.to_bytes(k, "little", signed=True)
                            for v in values)
        else:
            items = array(self._typecode, values)
            if _BYTE_ORDER == "big":
                items.byteswap()
            data = items.tobytes()
        # the digits hold each value mod 2^w; flipping their top bits makes
        # them the biased lanes
        return (int.from_bytes(data, "little") ^ self.high) - self.high

    def unpack(self, biased: int) -> Sequence[int]:
        """The lanes of a packed vector plus HIGH, as signed ints."""
        # flipping the top bits gives the lanes mod 2^w
        data = (biased ^ self.high).to_bytes(self.width * self.size // 8,
                                             "little")
        if self._typecode is None:
            k = self.width // 8
            return [int.from_bytes(data[i:i + k], "little", signed=True)
                    for i in range(0, len(data), k)]
        items = array(self._typecode)
        items.frombytes(data)
        if _BYTE_ORDER == "big":
            items.byteswap()
        return items


class PolyhedralRelaxation:
    """Immutable bundle: dimension, inequality list (stable indices), and
    the two embeddings.  Inequality i is ({e: a_e}, b), the row
    sum_e a_e y_e <= b with its zero coefficients left out; rows holds
    the same inequalities as integer LP rows, made once.  The
    assignment embedding is given by its coordinates: coordinate(e) is
    the table of x -> x~_e, a BoolFn on the n variables.  Instances of
    this class are built by the module factories; the embedding identity
    and point feasibility are checked exhaustively (n <= 12) on first
    use."""

    def __init__(self, name: str, n: int, dim: int,
                 inequalities: Sequence[tuple[Mapping[int, Fraction], Fraction]],
                 labels: Sequence[str],
                 coordinate: Callable[[int], BoolFn],
                 instance_embed: Callable[[Instance], tuple[Fraction, ...]]):
        if len(labels) != len(inequalities):
            raise InputError("one label per inequality required")
        if not all(type(e) is int and 0 <= e < dim
                   for row, _ in inequalities for e in row):
            raise InputError(
                f"inequality coordinates must be integers in [0, {dim})")
        self.name = name
        self.n = n
        self.dim = dim
        self.inequalities = tuple(inequalities)
        self.rows = linear_program(
            dim, [(row, "<=", rhs) for row, rhs in self.inequalities],
            (0,) * dim).constraints
        self.labels = tuple(labels)
        self.coordinate = coordinate
        self.instance_embed = instance_embed
        self._points = None
        self._slacks = None

    def __repr__(self):
        return f"PolyhedralRelaxation({self.name}, R={len(self.inequalities)})"

    def point_columns(self) -> tuple[list[int], int, _Lanes,
                                     list[list[tuple[int, int]]]]:
        """The coordinate tables as packed integer columns over one common
        denominator, the lcm of their dens: coordinate e of the point of
        assignment x is lane x of cols[e], over den.  The lanes are wide
        enough for every column and slack table: the bound is the larger
        of max|col_e| and, over the rows scaled to integers,
        |b den| + sum_e |a_e| max|col_e|.  With them, each column's
        nonzero integer spectrum over den << n as (mask, s) pairs in
        increasing mask order: the coordinate's known spectrum, rescaled
        (the butterfly runs only for a coordinate that has none).  The
        coordinate tables themselves are not kept.  Cached; callers
        enforce the size caps."""
        if self._points is None:
            fns = [self.coordinate(e) for e in range(self.dim)]
            den = math.lcm(*{f.den for f in fns})
            cols = [f.nums if f.den == den
                    else [v * (den // f.den) for v in f.nums] for f in fns]
            spectra = []
            for f in fns:
                # s / scale == s' / (den << n), and s' is the butterfly's
                # integer, so the division is exact
                entries, scale = integer_spectrum(f)
                spectra.append([(a, s * (den << self.n) // scale)
                                for a, s in entries])
            peak = [max(map(abs, set(col))) for col in cols]
            bound = max(peak, default=0)
            for c in self.rows:
                bound = max(bound, abs(c.rhs) * den
                            + sum(abs(a) * peak[e] for e, a in c.terms))
            lanes = _Lanes(self.n, bound)
            self._points = ([lanes.pack(col) for col in cols], den, lanes,
                            spectra)
        return self._points


def metric_maxcut(n: int) -> PolyhedralRelaxation:
    """Cut-indicator linearization with box and triangle facets:
    2*C(n,2) box rows plus 4 facets per triple."""
    if n < 3:
        raise InputError("metric relaxation needs n >= 3")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {e: k for k, e in enumerate(pairs)}
    dim = len(pairs)
    zero, one, two = Fraction(0), Fraction(1), Fraction(2)
    rows: list[tuple[dict[int, Fraction], Fraction]] = []
    # labels are interned: reports keep them, and relaxations of one shape
    # share them
    labels: list[str] = []
    for e in pairs:
        rows.append(({index[e]: -one}, zero))
        labels.append(sys.intern(f"y{e}>=0"))
    for e in pairs:
        rows.append(({index[e]: one}, one))
        labels.append(sys.intern(f"y{e}<=1"))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        eij, eik, ejk = (i, j), (i, k), (j, k)
        for long_e, a, b in ((eij, eik, ejk), (eik, eij, ejk), (ejk, eij, eik)):
            rows.append(({index[long_e]: one, index[a]: -one, index[b]: -one},
                         zero))
            labels.append(sys.intern(f"y{long_e}<=y{a}+y{b}"))
        rows.append(({index[eij]: one, index[eik]: one, index[ejk]: one}, two))
        labels.append(sys.intern(f"y{eij}+y{eik}+y{ejk}<=2"))

    half = 1 << (n - 1)

    def coordinate(e: int) -> BoolFn:
        """The cut indicator [x_i != x_j] = (1 - chi_ij)/2 of pair
        e = (i, j), with its spectrum cached: 1/2 at mask 0, -1/2 at
        {i, j}."""
        i, j = pairs[e]
        f = BoolFn.from_ints(n, [((x >> (i - 1)) ^ (x >> (j - 1))) & 1
                                 for x in range(1 << n)])
        _cache_spectrum(f, [(0, half), ((1 << (i - 1)) | (1 << (j - 1)),
                                        -half)], 1 << n)
        return f

    def embed_instance(inst: Instance) -> tuple[Fraction, ...]:
        if inst.n != n:
            raise InputError(f"instance on {inst.n} vars, relaxation on {n}")
        if not is_maxcut(inst):
            raise InputError("metric relaxation embeds Max Cut instances only")
        vec = [zero] * dim
        w = Fraction(1, len(inst.constraints))
        for c in inst.constraints:
            vec[index[(min(c.vars), max(c.vars))]] += w
        return tuple(vec)

    return PolyhedralRelaxation(f"metric({n})", n, dim, rows, labels,
                                coordinate, embed_instance)


def universal(n: int, d: int) -> PolyhedralRelaxation:
    """Character linearization up to degree d; the polyhedron is cut out
    by every partial-assignment indicator of width <= d plus the two rows
    pinning the empty coordinate to 1 (without which the indicator cone
    is unbounded in the objective direction).  Its LP value coincides
    with the level-d relaxation value."""
    if not 0 <= d <= n:
        raise InputError("need 0 <= d <= n")
    masks = (0,) + sa_variable_masks(n, d)
    index = {m: k for k, m in enumerate(masks)}
    dim = len(masks)
    zero, one = Fraction(0), Fraction(1)
    rows: list[tuple[dict[int, Fraction], Fraction]] = [
        ({0: one}, one), ({0: -one}, -one)]
    labels = ["y0<=1", "y0>=1"]
    # the indicator of x_S = a, scaled by 2^|S|, is >= 0: as a <= row,
    # sum_alpha -chi_alpha(a) y_alpha <= 0
    negated = {1: -one, -1: one}
    for s_mask, minus, terms in _indicators(n, d):
        rows.append(({index[alpha]: negated[sign] for alpha, sign in terms},
                     zero))
        labels.append(sys.intern(f"ind(S={s_mask},a={minus})"))

    def coordinate(e: int) -> BoolFn:
        """The character chi_m of mask m = masks[e]."""
        return BoolFn.character(n, vars_of(masks[e]))

    def embed_instance(inst: Instance) -> tuple[Fraction, ...]:
        if inst.n != n:
            raise InputError(f"instance on {inst.n} vars, relaxation on {n}")
        poly = instance_polynomial(inst)
        if poly.degree() > d:
            raise InputError(
                f"instance degree {poly.degree()} exceeds linearization degree {d}")
        return tuple(poly.get(m) for m in masks)

    return PolyhedralRelaxation(f"universal({n},{d})", n, dim, rows, labels,
                                coordinate, embed_instance)


def _validate_points(rel: PolyhedralRelaxation) -> None:
    """Every embedded assignment lies in the polyhedron (n <= 12); the
    check is the nonnegativity of all slack tables."""
    if rel.n > 12:
        log.info("%s: point-feasibility check skipped (n = %d > 12)",
                 rel.name, rel.n)
        return
    slack_functions(rel)


def _validate_pairing(rel: PolyhedralRelaxation, inst: Instance,
                      vec: tuple[Fraction, ...]) -> None:
    """<instance vector, embedded x> equals the instance value (n <= 12),
    sat(x) / m with sat(x) of the m constraints satisfied at x.  With vec
    scaled to integers by `scale`, the check is on integers:
    (scale den <vec, embedded x>) m == sat(x) scale den."""
    if rel.n > 12:
        log.info("%s: pairing-identity check skipped (n = %d > 12)",
                 rel.name, rel.n)
        return
    cols, den, lanes, _ = rel.point_columns()
    ints, scale = int_vector(vec)
    # scale * den * <vec, embedded x> as integers
    totals = [0] * (1 << rel.n)
    for e, w in enumerate(ints):
        if w:
            col = lanes.unpack(cols[e] + lanes.high)
            totals = [t + w * c for t, c in zip(totals, col)]
    m = len(inst.constraints)
    for x, total in enumerate(totals):
        if total * m != _satisfied_count(inst, x) * scale * den:
            raise InternalError(
                f"{rel.name}: pairing identity fails at assignment {x}")


def lp_value(rel: PolyhedralRelaxation, inst: Instance) -> Fraction:
    """Exact optimum of the relaxation on the instance; always at least
    the true optimum since every assignment embeds feasibly."""
    vec = rel.instance_embed(inst)
    _validate_points(rel)
    _validate_pairing(rel, inst, vec)
    sol = solve_lp(LinearProgram(rel.dim, rel.rows, vec))
    if sol.status == "unbounded":
        raise UnboundedError(f"{rel.name} does not bound this objective")
    if sol.status != "optimal":
        raise InternalError(f"relaxation LP is {sol.status}")
    return sol.value


def slack_functions(rel: PolyhedralRelaxation) -> tuple[BoolFn, ...]:
    """One table per inequality: q_i(x) = b_i - <A_i, x~>.  A negative
    entry would mean an embedded assignment outside the polyhedron, which
    is rejected as an InputError (a relaxation file may cut one off);
    computing the tables therefore doubles as the exhaustive
    point-feasibility check.  Tables are cached on the relaxation.

    Each table is built on the packed lanes of point_columns, with the row
    scaled to integers: (L b) den in every lane minus sum_e (L a_e) cols[e],
    a few big-int operations per row.  With HIGH added, the check that
    every lane is nonnegative is one AND against the lanes' top bits, and
    each BoolFn records it as its nonnegativity fact.  The BoolFn keeps
    the packed lanes, deferred: its nums and den are unpacked and reduced
    to lowest terms on their first read, so a caller that reads only
    spectra, means and sup norm bounds never unpacks a table.

    Each table comes with its Fourier spectrum cached.  The transform is
    linear, so spec(q_i) is b_i at mask 0 minus sum_e a_ie spec(col_e):
    the few nonzero entries of the columns' spectra from point_columns
    are combined per row, and no table is transformed."""
    if rel._slacks is not None:
        return rel._slacks
    n = rel.n
    if n > caps().slack_table_n:
        raise SizeCapError(f"n = {n} exceeds slack table cap")
    cols, den, lanes, col_spectra = rel.point_columns()
    high = lanes.high
    out = []
    for i, c in enumerate(rel.rows):
        # with L the row's scale: L * den * q_i = (L b) den - sum_e (L a_e)
        # cols[e], all integers, and the transform of the constant (L b) den
        # is (L b) den 2^n at 0
        b_int = c.rhs * den
        table = b_int * lanes.ones + high
        spectrum = {0: b_int << n}
        for e, a_int in c.terms:
            table -= a_int * cols[e]
            for m, s in col_spectra[e]:
                spectrum[m] = spectrum.get(m, 0) - a_int * s
        if table & high != high:
            raise InputError(
                f"{rel.name}: an embedded assignment violates row {i} "
                f"({rel.labels[i]})")
        q = BoolFn.deferred(n, functools.partial(lanes.unpack, table),
                            c.scale * den)
        q._nonneg = True  # every lane passed the check above
        _cache_spectrum(q, sorted(spectrum.items()), (c.scale * den) << n)
        out.append(q)
    rel._slacks = tuple(out)
    return rel._slacks


@dataclass(frozen=True)
class FarkasDecomposition:
    """Either an exact conic representation of c - instance over the
    slack functions (feasible) or an exact infeasibility certificate,
    one multiplier per assignment."""
    feasible: bool
    lam0: Fraction | None = None
    lam: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def farkas_decompose(c: Fraction, inst: Instance,
                     rel: PolyhedralRelaxation) -> FarkasDecomposition:
    """Decide exactly whether c - instance = lam0 + sum_i lam_i q_i holds
    pointwise on the cube with nonnegative multipliers.  For the built-in
    relaxations (whose embedded assignments affinely span the space)
    feasibility is equivalent to c >= lp_value."""
    if rel.n > caps().farkas_n:
        raise SizeCapError(f"n = {rel.n} exceeds decomposition cap")
    c = Fraction(c)
    slacks = slack_functions(rel)
    sol = farkas_feasibility(1 + len(slacks),
                             _decomposition_rows(c, inst, slacks, rel.n))
    if sol.status == "optimal":
        return FarkasDecomposition(feasible=True, lam0=sol.point[0],
                                   lam=tuple(sol.point[1:]))
    return FarkasDecomposition(feasible=False,
                               certificate=sol.dual_certificate)


def _decomposition_rows(c: Fraction, inst: Instance,
                        slacks: Sequence[BoolFn],
                        n: int) -> list[LinearConstraint]:
    """farkas_decompose's equalities lam0 + sum_i q_i(x) lam_i = c - inst(x),
    one per assignment x of the n variables, as the integer rows
    linear_program makes of them: entry q_i(x) = nums[x] / den is reduced
    to lowest terms, and the row is scaled by the lcm of its
    denominators, the rhs's included.  The tables are read as integers;
    no entry becomes a Fraction."""
    width = 1 + len(slacks)
    tables = [(i, q.nums, q.den) for i, q in enumerate(slacks, 1)]
    rows = []
    for x in range(1 << n):
        rhs = c - evaluate(inst, x)
        entries = []
        for i, nums, den in tables:
            v = nums[x]
            if v:
                g = math.gcd(v, den)
                entries.append((i, v // g, den // g))
        scale = math.lcm(rhs.denominator, *{d for _, _, d in entries})
        terms = [(0, scale)]
        terms += [(i, v * (scale // d)) for i, v, d in entries]
        rows.append(LinearConstraint(
            tuple(terms), EQUAL, rhs.numerator * (scale // rhs.denominator),
            width, scale))
    return rows


def verify_decomposition(c: Fraction, inst: Instance, lam0: Fraction,
                         lam: Sequence[Fraction],
                         slacks: Sequence[BoolFn]) -> bool:
    """Exact pointwise check of c - instance == lam0 + sum lam_i q_i."""
    if lam0 < 0 or any(v < 0 for v in lam):
        return False
    if len(lam) != len(slacks):
        raise InputError("one multiplier per slack function required")
    for x in range(1 << inst.n):
        total = lam0
        for v, q in zip(lam, slacks):
            if v:
                total += v * q.values[x]
        if total != c - evaluate(inst, x):
            return False
    return True


# ---------------------------------------------------------------------------
# Slack matrix and the edge-sampling protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlackMatrix:
    n: int
    rows: tuple[Instance, ...]
    cols: tuple[int, ...]          # assignment bitmasks
    c: Fraction
    s: Fraction
    entries: tuple[tuple[Fraction, ...], ...]

    def row_names(self) -> tuple[str, ...]:
        return tuple(inst.name or f"row{i}" for i, inst in enumerate(self.rows))


def build_slack_matrix(instances: Sequence[Instance], assignments: Sequence[int],
                       c: Fraction, s: Fraction) -> SlackMatrix:
    """Entries c - value; every row instance must certify opt <= s by
    brute force, and c > s makes every entry positive."""
    c, s = Fraction(c), Fraction(s)
    if c <= s:
        raise InputError(f"need c > s, got c={c}, s={s}")
    if not instances:
        raise InputError("need at least one row instance")
    n = instances[0].n
    if any(inst.n != n for inst in instances):
        raise InputError("all row instances must share the variable count")
    for inst in instances:
        opt, _ = brute_force_opt(inst)
        if opt > s:
            raise CertificationError(
                f"instance {inst.name or '?'} has optimum {opt} > s = {s}")
    entries = tuple(
        tuple(c - evaluate(inst, x) for x in assignments)
        for inst in instances)
    return SlackMatrix(n, tuple(instances), tuple(assignments), c, s, entries)


def _check_protocol(sm: SlackMatrix, T: int) -> None:
    if T < 1:
        raise InputError("need T >= 1")
    if not all(is_maxcut(inst) for inst in sm.rows):
        raise InputError("protocol rows must be Max Cut instances")


def _receiver_output(c: Fraction, theta: Fraction) -> Fraction:
    """What the receiver outputs on seeing cut fraction theta."""
    return c - theta if theta <= c else Fraction(0)


def _expected_over_samples(sm: SlackMatrix, T: int,
                           payoff: Callable[[Fraction], Fraction | int],
                           ) -> tuple[tuple[Fraction, ...], ...]:
    """E[payoff(theta)] entrywise, exactly, where theta is the fraction of
    T edges drawn uniformly from the row graph that the column assignment
    cuts: theta = k/T with probability C(T,k) p^k (1-p)^(T-k), p the
    cut fraction."""
    _check_protocol(sm, T)
    out = []
    for inst in sm.rows:
        row = []
        for x in sm.cols:
            p = evaluate(inst, x)
            q = 1 - p
            total = Fraction(0)
            for k in range(T + 1):
                v = payoff(Fraction(k, T))
                if v:
                    total += v * math.comb(T, k) * p ** k * q ** (T - k)
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def protocol_matrix(sm: SlackMatrix, T: int) -> tuple[tuple[Fraction, ...], ...]:
    """Expected output of the T-sample protocol: the sender draws T edges
    of the row graph uniformly at random; the receiver computes the
    fraction theta of drawn edges its assignment cuts and outputs
    c - theta if theta <= c, else 0.  Entrywise >= the slack matrix."""
    return _expected_over_samples(
        sm, T, lambda theta: _receiver_output(sm.c, theta))


def protocol_tail_probabilities(sm: SlackMatrix, T: int) -> tuple[tuple[Fraction, ...], ...]:
    """Pr[theta > c] entrywise, exactly; bounds the entrywise excess of
    the protocol matrix over the slack matrix."""
    return _expected_over_samples(sm, T, lambda theta: int(theta > sm.c))


@dataclass(frozen=True)
class ProtocolFactorization:
    """U V = protocol matrix, exactly.  U rows are the product sampling
    distributions over ordered edge tuples; V holds the receiver outputs,
    all within [0, c]."""
    T: int
    messages: tuple[tuple[tuple[int, int], ...], ...]
    U: tuple[tuple[Fraction, ...], ...]
    V: tuple[tuple[Fraction, ...], ...]


def protocol_factorization(sm: SlackMatrix, T: int) -> ProtocolFactorization:
    _check_protocol(sm, T)
    edge_sets = []
    universe = set()
    for inst in sm.rows:
        es = {(min(cc.vars), max(cc.vars)) for cc in inst.constraints}
        edge_sets.append(es)
        universe |= es
    edges = sorted(universe)
    count = len(edges) ** T
    if count > caps().protocol_messages:
        raise SizeCapError(
            f"{count} messages exceed cap {caps().protocol_messages}")
    messages = tuple(itertools.product(edges, repeat=T))
    U = []
    for es in edge_sets:
        w = Fraction(1, len(es) ** T)
        U.append(tuple(w if all(e in es for e in msg) else Fraction(0)
                       for msg in messages))
    V = []
    for msg in messages:
        row = []
        for x in sm.cols:
            cut = sum(1 for i, j in msg
                      if ((x >> (i - 1)) ^ (x >> (j - 1))) & 1)
            row.append(_receiver_output(sm.c, Fraction(cut, T)))
        V.append(tuple(row))
    return ProtocolFactorization(T, messages, tuple(U), tuple(V))


def factorization_product(pf: ProtocolFactorization) -> tuple[tuple[Fraction, ...], ...]:
    cols = len(pf.V[0]) if pf.V else 0
    out = []
    for urow in pf.U:
        row = [Fraction(0)] * cols
        for w, vrow in zip(urow, pf.V):
            if w:
                for j, v in enumerate(vrow):
                    if v:
                        row[j] += w * v
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------


def matrix_to_csv(entries: Sequence[Sequence[Fraction]], row_names: Sequence[str],
                  cols: Sequence[int | str], corner: str = "instance") -> str:
    lines = [",".join([corner] + [str(x) for x in cols])]
    for name, row in zip(row_names, entries):
        lines.append(",".join([name] + [format_rational(v) for v in row]))
    return "\n".join(lines) + "\n"


def slack_matrix_to_csv(sm: SlackMatrix) -> str:
    return matrix_to_csv(sm.entries, sm.row_names(), sm.cols)


def _message_key(msg: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{i}-{j}" for i, j in msg)


def factorization_to_csvs(pf: ProtocolFactorization, sm: SlackMatrix) -> dict[str, str]:
    """Returns {"U": csv, "V": csv, "manifest": json} for export."""
    msg_keys = [_message_key(m) for m in pf.messages]
    u_csv = matrix_to_csv(pf.U, sm.row_names(), msg_keys)
    v_csv = matrix_to_csv(pf.V, msg_keys, sm.cols, corner="message")
    manifest = json.dumps({
        "T": pf.T,
        "messageSpace": len(pf.messages),
        "rows": list(sm.row_names()),
        "cols": [str(x) for x in sm.cols],
    }, sort_keys=True)
    return {"U": u_csv, "V": v_csv, "manifest": manifest}
