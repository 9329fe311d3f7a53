"""Polyhedral relaxations and their slack analysis.

A relaxation is a linearization (instance and assignment embeddings into
Q^D) plus a polyhedron given by inequalities <A_i, y> <= b_i.  The slack
of constraint i at an assignment is q_i(x) = b_i - <A_i, x~>, a
nonnegative function on the cube; whether c - instance is a nonnegative
combination of the slacks is decided exactly, in both directions, with
certificates.

Also here: the slack matrix M[G, x] = c - G(x) over low-optimum Max Cut
instances, the edge-sampling protocol matrix M' that approximates it
entrywise from above, and the explicit nonnegative factorization of M'
whose inner dimension is the message count.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .boolfn import BoolFn
from .caps import caps
from .csp import (Instance, brute_force_opt, evaluate, instance_polynomial,
                  is_maxcut)
from .errors import (CertificationError, InputError, InternalError,
                     SizeCapError, UnboundedError)
from .lp import farkas_feasibility, linear_program, solve_lp
from .rationals import format_rational
from .sa import _indicators, sa_variable_masks

log = logging.getLogger(__name__)

# The number type of the slack-table arithmetic; perfbench/run.py records
# it as this module's backend.
_mpq = int


class PolyhedralRelaxation:
    """Immutable bundle: dimension, inequality list (stable indices), and
    the two embeddings.  Instances of this class are built by the module
    factories; the embedding identity and point feasibility are checked
    exhaustively (n <= 12) on first use."""

    def __init__(self, name: str, n: int, dim: int,
                 inequalities: Sequence[tuple[tuple[Fraction, ...], Fraction]],
                 labels: Sequence[str],
                 assignment_embed: Callable[[int], tuple[Fraction, ...]],
                 instance_embed: Callable[[Instance], tuple[Fraction, ...]]):
        if len(labels) != len(inequalities):
            raise InputError("one label per inequality required")
        self.name = name
        self.n = n
        self.dim = dim
        self.inequalities = tuple(inequalities)
        self.labels = tuple(labels)
        self.assignment_embed = assignment_embed
        self.instance_embed = instance_embed
        self._points_ok = False
        self._sparse = None
        self._points = None
        self._slacks = None

    def __repr__(self):
        return f"PolyhedralRelaxation({self.name}, R={len(self.inequalities)})"

    def sparse_rows(self) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
        if self._sparse is None:
            self._sparse = [
                ([(e, a) for e, a in enumerate(coeffs) if a], rhs)
                for coeffs, rhs in self.inequalities]
        return self._sparse

    def point_columns(self) -> tuple[list[list[int]], int]:
        """The embedded assignments as integer columns over one common
        denominator: coordinate e of the point of assignment x is
        cols[e][x] / den.  Cached; callers enforce the size caps."""
        if self._points is None:
            pts = [self.assignment_embed(x) for x in range(1 << self.n)]
            den = math.lcm(*{v.denominator for pt in pts for v in pt})
            cols = [[v.numerator * (den // v.denominator) for v in col]
                    for col in zip(*pts)]
            self._points = (cols, den)
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
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    labels: list[str] = []

    def dense(entries: dict[int, Fraction]) -> tuple[Fraction, ...]:
        return tuple(entries.get(k, zero) for k in range(dim))

    for e in pairs:
        rows.append((dense({index[e]: -one}), zero))
        labels.append(f"y{e}>=0")
    for e in pairs:
        rows.append((dense({index[e]: one}), one))
        labels.append(f"y{e}<=1")
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        eij, eik, ejk = (i, j), (i, k), (j, k)
        for long_e, a, b in ((eij, eik, ejk), (eik, eij, ejk), (ejk, eij, eik)):
            rows.append((dense({index[long_e]: one, index[a]: -one,
                                index[b]: -one}), zero))
            labels.append(f"y{long_e}<=y{a}+y{b}")
        rows.append((dense({index[eij]: one, index[eik]: one,
                            index[ejk]: one}), two))
        labels.append(f"y{eij}+y{eik}+y{ejk}<=2")

    def embed_assignment(x: int) -> tuple[Fraction, ...]:
        return tuple(
            one if ((x >> (i - 1)) ^ (x >> (j - 1))) & 1 else zero
            for i, j in pairs)

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
                                embed_assignment, embed_instance)


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
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    labels: list[str] = []
    empty = [zero] * dim
    e0 = list(empty)
    e0[0] = one
    rows.append((tuple(e0), one))
    labels.append("y0<=1")
    e0 = list(empty)
    e0[0] = -one
    rows.append((tuple(e0), -one))
    labels.append("y0>=1")
    # the indicator of x_S = a, scaled by 2^|S|, is >= 0: as a <= row,
    # sum_alpha -chi_alpha(a) y_alpha <= 0
    negated = {1: -one, -1: one}
    for s_mask, minus, terms in _indicators(n, d):
        coeffs = list(empty)
        for alpha, sign in terms:
            coeffs[index[alpha]] = negated[sign]
        rows.append((tuple(coeffs), zero))
        labels.append(f"ind(S={s_mask},a={minus})")

    def embed_assignment(x: int) -> tuple[Fraction, ...]:
        return tuple(-one if (m & x).bit_count() & 1 else one for m in masks)

    def embed_instance(inst: Instance) -> tuple[Fraction, ...]:
        if inst.n != n:
            raise InputError(f"instance on {inst.n} vars, relaxation on {n}")
        poly = instance_polynomial(inst)
        if poly.degree() > d:
            raise InputError(
                f"instance degree {poly.degree()} exceeds linearization degree {d}")
        return tuple(poly.get(m) for m in masks)

    return PolyhedralRelaxation(f"universal({n},{d})", n, dim, rows, labels,
                                embed_assignment, embed_instance)


def _validate_points(rel: PolyhedralRelaxation) -> None:
    """Every embedded assignment lies in the polyhedron (n <= 12); the
    check is the nonnegativity of all slack tables."""
    if rel._points_ok or rel.n > 12:
        return
    slack_functions(rel)


def _validate_pairing(rel: PolyhedralRelaxation, inst: Instance,
                      vec: tuple[Fraction, ...]) -> None:
    """<instance vector, embedded x> equals the instance value (n <= 12)."""
    if rel.n > 12:
        return
    cols, den = rel.point_columns()
    nz = [(e, v) for e, v in enumerate(vec) if v]
    scale = math.lcm(*(v.denominator for _, v in nz))
    # scale * den * <vec, embedded x> as integers
    totals = [0] * (1 << rel.n)
    for e, v in nz:
        w = v.numerator * (scale // v.denominator)
        totals = [t + w * c for t, c in zip(totals, cols[e])]
    for x, total in enumerate(totals):
        if total != evaluate(inst, x) * (scale * den):
            raise InternalError(
                f"{rel.name}: pairing identity fails at assignment {x}")


def lp_value(rel: PolyhedralRelaxation, inst: Instance) -> Fraction:
    """Exact optimum of the relaxation on the instance; always at least
    the true optimum since every assignment embeds feasibly."""
    vec = rel.instance_embed(inst)
    _validate_points(rel)
    _validate_pairing(rel, inst, vec)
    lp = linear_program(rel.dim,
                        [(coeffs, "<=", rhs) for coeffs, rhs in rel.inequalities],
                        vec, "maximize")
    sol = solve_lp(lp)
    if sol.status == "unbounded":
        raise UnboundedError(f"{rel.name} does not bound this objective")
    if sol.status != "optimal":
        raise InternalError(f"relaxation LP is {sol.status}")
    return sol.value


def slack_functions(rel: PolyhedralRelaxation) -> tuple[BoolFn, ...]:
    """One table per inequality: q_i(x) = b_i - <A_i, x~>.  A negative
    entry would mean an embedded assignment outside the polyhedron, which
    is rejected; computing the tables therefore doubles as the exhaustive
    point-feasibility check.  Tables are cached on the relaxation."""
    if rel._slacks is not None:
        return rel._slacks
    if rel.n > caps().slack_table_n:
        raise SizeCapError(f"n = {rel.n} exceeds slack table cap")
    cols, den = rel.point_columns()
    size = 1 << rel.n
    out = []
    for i, (row, rhs) in enumerate(rel.sparse_rows()):
        # with L = scale, the row's common denominator:
        # L * den * q_i = (L b) den - sum_e (L a_e) cols[e], all integers
        scale = math.lcm(rhs.denominator, *(a.denominator for _, a in row))
        table = [rhs.numerator * (scale // rhs.denominator) * den] * size
        for e, a in row:
            a_int = a.numerator * (scale // a.denominator)
            table = [t - a_int * c for t, c in zip(table, cols[e])]
        if min(table) < 0:
            raise InternalError(
                f"{rel.name}: an embedded assignment violates row {i} "
                f"({rel.labels[i]})")
        out.append(BoolFn.from_ints(rel.n, table, scale * den))
    rel._slacks = tuple(out)
    rel._points_ok = True
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
    size = 1 << rel.n
    equalities = []
    for x in range(size):
        coeffs = [Fraction(1)] + [q.values[x] for q in slacks]
        equalities.append((coeffs, c - evaluate(inst, x)))
    sol = farkas_feasibility(equalities)
    if sol.status == "optimal":
        return FarkasDecomposition(feasible=True, lam0=sol.point[0],
                                   lam=tuple(sol.point[1:]))
    return FarkasDecomposition(feasible=False,
                               certificate=sol.dual_certificate)


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
                  cols: Sequence[int], corner: str = "instance") -> str:
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
    u_csv = matrix_to_csv(pf.U, sm.row_names(), range(len(pf.messages)))
    u_lines = u_csv.splitlines()
    u_lines[0] = ",".join(["instance"] + msg_keys)
    v_csv = matrix_to_csv(pf.V, msg_keys, sm.cols, corner="message")
    manifest = json.dumps({
        "T": pf.T,
        "messageSpace": len(pf.messages),
        "rows": list(sm.row_names()),
        "cols": [str(x) for x in sm.cols],
    }, sort_keys=True)
    return {"U": "\n".join(u_lines) + "\n", "V": v_csv, "manifest": manifest}
