"""Exact rational linear programming over sparse integer rows.

Two-phase revised simplex with Bland's pivot rule, so every solve
terminates and returns bit-reproducible answers.  The loop is
fraction-free: the rows are integers from the moment they are built,
the basis inverse is an integer adjugate over |det B|, and values
become Fractions only on return.  Both public contracts share one
primal adapter and one verifier:

* solve_lp maximizes (a "minimize" LP is solved with its objective
  negated).  LPs with many more constraints than variables are solved
  through their explicit dual instead, and the primal optimum is
  recovered exactly from the dual multipliers.
* farkas_feasibility is the primal adapter on "=" rows with a zero
  objective, the variables flagged x >= 0 left unsplit.

The verifier re-checks every returned solution against the input.
Optimal: primal feasibility (x >= 0 on flagged variables included),
objective value, dual signs, dual feasibility and strong duality.
Infeasible: certificate signs, combination and normalization.  It works
on integers too, but shares nothing with the core: it reads the integer
rows of the LinearProgram as they are, the point over the lcm of its
denominators and the multipliers over one common denominator with each
row's scale, and every condition is an exact integer comparison.

Conventions
-----------
* A constraint is ({variable: coeff}, relation, rhs) with relation one
  of "<=", "=", ">=".  It is stored as an integer row over a positive
  integer scale: its nonzero integer terms sorted by variable, an
  integer rhs and the scale, the row being (terms, rhs) / scale.
  linear_program scales each rational row by the lcm of its
  denominators (LinearConstraint.coeffs is a dense view of the integer
  row for callers outside liftgap).  Constraint indices are stable
  identifiers.
* LinearProgram checks its shape when built: sense, objective length,
  relations, every variable in range, integer terms and rhs, and a
  scale of at least 1.
* Optimal solutions carry dual multipliers, one per constraint, for the
  rational rows: for sense "maximize", multiplier >= 0 on "<=" rows,
  <= 0 on ">=" rows, free on "=" rows, with
  sum_i mult_i * coeffs_i / scale_i == objective  and
  sum_i mult_i * rhs_i / scale_i == value.  For "minimize" all
  multiplier signs flip.
* Infeasible solutions carry a Farkas certificate with the same sign
  convention as the "maximize" duals and
  sum_i mult_i * coeffs_i / scale_i == 0,
  sum_i mult_i * rhs_i / scale_i == -1
  (farkas_feasibility: >= 0 instead of == 0 on the flagged variables).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import AbstractSet, Iterable, Mapping, Sequence

from .caps import caps
from .errors import InputError, InternalError, SizeCapError
from .rationals import int_vector

log = logging.getLogger(__name__)

# The number type of the simplex loop; perfbench/run.py records it as this
# module's backend.
_inner_q = int

LESS_EQ = "<="
EQUAL = "="
GREATER_EQ = ">="
_RELATIONS = (LESS_EQ, EQUAL, GREATER_EQ)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearConstraint:
    """(sum_j a_j x_j <relation> rhs) / scale over width variables: terms
    holds the nonzero integer (j, a_j), sorted by j, rhs is an integer
    and scale a positive integer."""
    terms: tuple[tuple[int, int], ...]
    relation: str
    rhs: int
    width: int
    scale: int = 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The dense integer row, rebuilt on each read."""
        row = [0] * self.width
        for j, a in self.terms:
            row[j] = a
        return tuple(row)


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[Fraction, ...]
    sense: str = "maximize"

    def __post_init__(self):
        n = self.num_vars
        if n < 0:
            raise InputError("num_vars must be nonnegative")
        if self.sense not in ("maximize", "minimize"):
            raise InputError(f"bad sense {self.sense!r}")
        if len(self.objective) != n:
            raise InputError(
                f"objective length {len(self.objective)} != num_vars {n}")
        for idx, c in enumerate(self.constraints):
            if c.relation not in _RELATIONS:
                raise InputError(f"constraint {idx}: bad relation {c.relation!r}")
            if c.width != n or not all(type(j) is int and 0 <= j < n
                                       for j, _ in c.terms):
                raise InputError(
                    f"constraint {idx}: variables must be integers in [0, {n})")
            if not (type(c.rhs) is type(c.scale) is int and c.scale >= 1
                    and all(type(a) is int for _, a in c.terms)):
                raise InputError(f"constraint {idx}: coefficients and rhs "
                                 "must be integers over a scale >= 1")


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    dual_certificate: tuple[Fraction, ...] | None = None


def linear_program(num_vars: int,
                   constraints: Iterable[tuple[Mapping, str, object]],
                   objective: Sequence,
                   sense: str = "maximize") -> LinearProgram:
    """Constructor from {variable: coeff} rows of rationals: each row is
    scaled to integers by the lcm of its denominators (rhs included), its
    zeros dropped.  LinearProgram validates the shape."""
    rows = []
    for coeffs, relation, rhs in constraints:
        rhs = Fraction(rhs)
        terms = [(j, a) for j, a in ((j, Fraction(v)) for j, v in coeffs.items())
                 if a]
        # a non-integer variable sorts first, for LinearProgram to reject
        terms.sort(key=lambda t: t[0] if type(t[0]) is int else -1)
        scale = lcm(rhs.denominator, *(a.denominator for _, a in terms))
        rows.append(LinearConstraint(
            tuple((j, a.numerator * (scale // a.denominator)) for j, a in terms),
            relation, rhs.numerator * (scale // rhs.denominator), num_vars,
            scale))
    return LinearProgram(num_vars, tuple(rows),
                         tuple(Fraction(v) for v in objective), sense)


def lp_nonzeros(lp: LinearProgram) -> int:
    return sum(len(c.terms) for c in lp.constraints)


# ---------------------------------------------------------------------------
# Revised simplex core: min costs.x  s.t.  columns.x = b, x >= 0.
# Columns are (terms, s): sparse integer terms [(row, value), ...] times
# a sign s = +1 / -1; b and costs are Fractions or ints.
# ---------------------------------------------------------------------------


class _CoreResult:
    __slots__ = ("status", "x", "value", "duals", "certificate", "ray")

    def __init__(self, status, x=None, value=None, duals=None,
                 certificate=None, ray=None):
        self.status = status
        self.x = x                    # structural values, len ncols
        self.value = value
        self.duals = duals            # per original row
        self.certificate = certificate  # per original row; cert.A <= 0, cert.b > 0
        self.ray = ray                # structural ray on unbounded


def _solve_standard(columns, b, costs, row_scale):
    """Two-phase revised simplex with Bland's rule.  Exact; terminating;
    deterministic.  Inputs are not modified; outputs are Fractions, and
    the duals and the certificate are those of the integer rows.

    The loop holds only Python ints.  The columns are integers already;
    b is taken over q, the lcm of its denominators, and the costs over L,
    the lcm of theirs.  The basis inverse is adj / den with den = |det B|,
    and a pivot updates adj, den * q * x_B and den * y by exact integer
    division (fraction-free pivoting: Edmonds 1967, Bareiss 1968).
    Positive scales leave Bland's choices as they are on the rational
    data: a row scale (an integer row is its rational row times its
    scale) cancels in B^-1 a_j, a column scale multiplies a whole column
    of B^-1 A and its reduced cost by one positive factor, and b over q
    scales every ratio of the ratio test alike; reduced costs and y do
    not involve b.  A column's sign is folded into the same integer
    scaling.  In phase 1 the artificial of row r costs L1 / row_scale[r]
    (L1 the lcm of the row scales): one unit of the row before scaling,
    so phase 1 minimizes the sum of the rational rows' residuals.  Unit
    costs would minimize the sum weighted by the scales instead, which
    takes other pivots to other certificates."""
    m = len(b)
    ncols = len(columns)

    # nonnegative right-hand sides over q (remember the flips)
    sign = [-1 if v < 0 else 1 for v in b]
    q = lcm(*(v.denominator for v in b))
    x_b = [abs(v.numerator) * (q // v.denominator) for v in b]
    cols = [[(r, s * sign[r] * v) for r, v in col] for col, s in columns]
    cost_scale = lcm(*(c.denominator for c in costs))
    c_int = [c.numerator * (cost_scale // c.denominator) for c in costs]

    row_of = list(range(m))        # reduced row -> original row
    adj = [[int(i == j) for j in range(m)] for i in range(m)]
    den = 1
    basis = [ncols + r for r in range(m)]   # artificial ids
    in_basis = [False] * ncols

    def ftran(j):
        col = cols[j]
        return [sum(row[r] * v for r, v in col) for row in adj]

    def pivot(leave, enter, d):
        nonlocal adj, x_b, den
        piv = d[leave]
        lrow = adj[leave]
        lx = x_b[leave]
        for p in range(m):
            if p == leave:
                continue
            f = d[p]
            if f:
                adj[p] = [(a * piv - f * v) // den
                          for a, v in zip(adj[p], lrow)]
            elif piv != den:
                adj[p] = [a * piv // den for a in adj[p]]
            x_b[p] = (x_b[p] * piv - f * lx) // den
        den = piv
        if piv < 0:  # only when driving artificials out
            adj = [[-a for a in row] for row in adj]
            x_b = [-v for v in x_b]
            den = -piv
        left = basis[leave]
        if left < ncols:
            in_basis[left] = False
        basis[leave] = enter
        in_basis[enter] = True

    def run_phase(cost_vec, cost_of_basic):
        """Returns (None, den * y) at the optimum, ((j, den * d), den * y)
        when column j is an unbounded direction."""
        y = [0] * m
        for p in range(m):
            cb = cost_of_basic(p)
            if cb:
                y = [a + cb * v for a, v in zip(y, adj[p])]
        iters = 0
        while True:
            for j in range(ncols):
                if not in_basis[j]:
                    rc = cost_vec[j] * den - sum(y[r] * v for r, v in cols[j])
                    if rc < 0:
                        break
            else:
                return None, y
            d = ftran(j)
            leave = None
            for p in range(m):
                dp = d[p]
                if dp > 0:
                    if leave is None:
                        leave = p
                        continue
                    lhs = x_b[p] * d[leave]
                    rhs = x_b[leave] * dp
                    if lhs < rhs or lhs == rhs and basis[p] < basis[leave]:
                        leave = p
            if leave is None:
                return (j, d), y
            piv = d[leave]
            y = [(a * piv + rc * v) // den for a, v in zip(y, adj[leave])]
            pivot(leave, j, d)
            iters += 1
            if log.isEnabledFor(logging.DEBUG):
                log.debug("pivot %d: enter %d leave slot %d", iters, j, leave)

    # ---- phase 1 ----
    art_scale = lcm(*row_scale)
    art_cost = lambda p: (art_scale // row_scale[basis[p] - ncols]
                          if basis[p] >= ncols else 0)
    unb, y = run_phase([0] * ncols, art_cost)
    if unb is not None:  # cannot happen: phase-1 objective bounded below by 0
        raise InternalError("phase 1 reported unbounded")
    if any(x_b[p] for p in range(m) if basis[p] >= ncols):
        cert = [Fraction(sign[r] * y[r], den * art_scale) for r in range(m)]
        return _CoreResult(INFEASIBLE, certificate=cert)

    # drive basic artificials out; rows that cannot pivot are redundant
    redundant = []
    for p in range(m):
        if basis[p] < ncols:
            continue
        row = adj[p]
        for j in range(ncols):
            if not in_basis[j] and sum(row[r] * v for r, v in cols[j]):
                pivot(p, j, ftran(j))
                break
        else:
            redundant.append(p)

    if redundant:
        # basis slot p holds the artificial of row r = basis[p]-ncols, and
        # adj[:, r] = den * e_p, so the minor without those slots and rows
        # is the adjugate of the reduced basis, with the same den.
        dead_rows = {basis[p] - ncols for p in redundant}
        keep_rows = [r for r in range(m) if r not in dead_rows]
        keep_slots = [p for p in range(m) if p not in redundant]
        remap = {r: i for i, r in enumerate(keep_rows)}
        cols = [[(remap[r], v) for r, v in col if r in remap] for col in cols]
        adj = [[adj[p][r] for r in keep_rows] for p in keep_slots]
        x_b = [x_b[p] for p in keep_slots]
        basis = [basis[p] for p in keep_slots]
        row_of = [row_of[r] for r in keep_rows]
        m = len(keep_rows)

    # ---- phase 2 ----
    unb, y = run_phase(c_int, lambda p: c_int[basis[p]])
    if unb is not None:
        j, d = unb
        ray = [Fraction(0)] * ncols
        ray[j] = Fraction(1)
        for p in range(m):
            if d[p]:
                ray[basis[p]] = Fraction(-d[p], den)
        return _CoreResult(UNBOUNDED, ray=ray)

    x = [Fraction(0)] * ncols
    for p in range(m):
        x[basis[p]] = Fraction(x_b[p], den * q)
    value = Fraction(sum(c_int[basis[p]] * x_b[p] for p in range(m)),
                     cost_scale * den * q)
    duals = [Fraction(0)] * len(b)
    for r in range(m):
        i = row_of[r]
        duals[i] = Fraction(sign[i] * y[r], cost_scale * den)
    return _CoreResult(OPTIMAL, x=x, value=value, duals=duals)


# ---------------------------------------------------------------------------
# LinearProgram solving
# ---------------------------------------------------------------------------


def _fold(owners, vec, size: int) -> list[Fraction]:
    """Sum a core vector back onto the variables or constraints that own
    its entries: owners[j] = (index, factor) for core entry j, the factor
    a sign, times a row scale on the dual path.  Entries past the end of
    owners (slack columns) are dropped."""
    out = [Fraction(0)] * size
    for (i, s), v in zip(owners, vec):
        if v:
            out[i] += s * v
    return out


def _solve_max_primal(lp: LinearProgram,
                      nonneg: frozenset[int] = frozenset()) -> LPSolution:
    """Direct path: one core column per variable, plus its negation for
    variables outside nonneg (free variables are split), then one
    slack/surplus per inequality row."""
    n = lp.num_vars
    entries = [[] for _ in range(n)]
    for r, c in enumerate(lp.constraints):
        for j, a in c.terms:
            entries[j].append((r, a))
    columns = []
    costs = []
    owners = []  # (var, +1 / -1) per structural core column
    for j, col in enumerate(entries):
        obj = lp.objective[j]
        columns.append((col, 1))
        costs.append(-obj)
        owners.append((j, 1))
        if j not in nonneg:
            columns.append((col, -1))
            costs.append(obj)
            owners.append((j, -1))
    for r, c in enumerate(lp.constraints):
        if c.relation == LESS_EQ:
            columns.append(([(r, 1)], 1))
            costs.append(0)
        elif c.relation == GREATER_EQ:
            columns.append(([(r, 1)], -1))
            costs.append(0)
    res = _solve_standard(columns, [c.rhs for c in lp.constraints], costs,
                          [c.scale for c in lp.constraints])

    if res.status == UNBOUNDED:
        return LPSolution(UNBOUNDED)
    if res.status == INFEASIBLE:
        y = res.certificate
        yb = sum(yr * c.rhs for yr, c in zip(y, lp.constraints) if yr)
        if yb <= 0:
            raise InternalError("bad infeasibility certificate")
        mult = [-yr * c.scale / yb for yr, c in zip(y, lp.constraints)]
        return LPSolution(INFEASIBLE, dual_certificate=tuple(mult))
    point = tuple(_fold(owners, res.x, n))
    value = -res.value
    duals = tuple(-yr * c.scale for yr, c in zip(res.duals, lp.constraints))
    return LPSolution(OPTIMAL, value=value, point=point, dual_certificate=duals)


def _solve_max_dual(lp: LinearProgram) -> LPSolution | None:
    """Dual path for wide LPs: one core column per constraint, one core
    row per variable.  Returns None when the dual is infeasible (primal
    unbounded or infeasible); caller falls back to the direct path."""
    n = lp.num_vars
    m = len(lp.constraints)
    columns = []
    costs = []
    # (constraint index, +scale / -scale) per core column: a core value
    # multiplies the integer row, so scale times it multiplies the row
    col_row = []
    for i, c in enumerate(lp.constraints):
        if c.relation in (LESS_EQ, EQUAL):
            columns.append((c.terms, 1))
            costs.append(c.rhs)
            col_row.append((i, c.scale))
        if c.relation in (GREATER_EQ, EQUAL):
            columns.append((c.terms, -1))
            costs.append(-c.rhs)
            col_row.append((i, -c.scale))
    res = _solve_standard(columns, lp.objective, costs, [1] * n)

    if res.status == INFEASIBLE:
        return None
    if res.status == UNBOUNDED:
        mult = _fold(col_row, res.ray, m)
        scale = -sum(m_i * c.rhs / c.scale
                     for m_i, c in zip(mult, lp.constraints) if m_i)
        if scale <= 0:
            raise InternalError("bad dual ray")
        mult = [m_i / scale for m_i in mult]
        return LPSolution(INFEASIBLE, dual_certificate=tuple(mult))
    return LPSolution(OPTIMAL, value=res.value, point=tuple(res.duals),
                      dual_certificate=tuple(_fold(col_row, res.x, m)))


def _int_multipliers(lp: LinearProgram,
                     mult: Sequence[Fraction]) -> tuple[list[int], int]:
    """(w, D) with mult_i / scale_i == w_i / D for each row, so that
    sum_i w_i * (integer row i) is D times mult . (A | b)."""
    ys, yd = int_vector(mult)
    s = lcm(*(c.scale for c, y in zip(lp.constraints, ys) if y))
    return [y * (s // c.scale) for c, y in zip(lp.constraints, ys)], yd * s


def _combination(lp: LinearProgram, w: Sequence[int]) -> list[int]:
    """w . A over the integer rows, in one pass over their nonzero entries."""
    acc = [0] * lp.num_vars
    for w_i, c in zip(w, lp.constraints):
        if w_i:
            for j, a in c.terms:
                acc[j] += w_i * a
    return acc


def _check_signs(lp: LinearProgram, mult: Sequence[int], pos: str,
                 what: str) -> None:
    """mult >= 0 on pos rows, <= 0 on the other inequality rows."""
    neg = GREATER_EQ if pos == LESS_EQ else LESS_EQ
    for i, (m_i, c) in enumerate(zip(mult, lp.constraints)):
        if (c.relation == pos and m_i < 0) or (c.relation == neg and m_i > 0):
            raise InternalError(f"{what} sign at row {i}")


def _check_optimal(lp: LinearProgram, sol: LPSolution,
                   nonneg: AbstractSet[int] = frozenset()) -> None:
    """Primal feasibility (x >= 0 on nonneg), the objective value, dual
    signs, dual feasibility (equality of mult . A with the objective on
    free variables, the right inequality on nonneg ones) and strong
    duality, all exact, on integers: the integer rows, x over the lcm of
    its denominators, the multipliers over a common denominator."""
    x, xd = int_vector(sol.point)
    for i, c in enumerate(lp.constraints):
        lhs = sum(a * x[j] for j, a in c.terms)
        rhs = c.rhs * xd
        ok = (lhs <= rhs if c.relation == LESS_EQ
              else lhs >= rhs if c.relation == GREATER_EQ
              else lhs == rhs)
        if not ok:
            raise InternalError(f"solution violates constraint {i}")
    for j in nonneg:
        if x[j] < 0:
            raise InternalError(f"negative nonneg variable {j}")
    obj, od = int_vector(lp.objective)
    value = sol.value
    if (sum(o * v for o, v in zip(obj, x) if o) * value.denominator
            != value.numerator * od * xd):
        raise InternalError("objective mismatch")
    maximize = lp.sense == "maximize"
    w, wd = _int_multipliers(lp, sol.dual_certificate)
    _check_signs(lp, w, LESS_EQ if maximize else GREATER_EQ, "dual")
    for j, (v, o) in enumerate(zip(_combination(lp, w), obj)):
        gap = v * od - o * wd if maximize else o * wd - v * od
        if gap < 0 or (gap and j not in nonneg):
            raise InternalError(f"dual combination mismatch at var {j}")
    if (sum(w_i * c.rhs for w_i, c in zip(w, lp.constraints))
            * value.denominator != value.numerator * wd):
        raise InternalError("strong duality mismatch")


def _check_infeasible(lp: LinearProgram, sol: LPSolution,
                      nonneg: AbstractSet[int] = frozenset()) -> None:
    """The certificate's signs, mult . A == 0 on free variables and >= 0
    on nonneg ones, and mult . b == -1, all exact on the integer rows."""
    w, wd = _int_multipliers(lp, sol.dual_certificate)
    _check_signs(lp, w, LESS_EQ, "certificate")
    for j, v in enumerate(_combination(lp, w)):
        if v < 0 or (v and j not in nonneg):
            raise InternalError(f"certificate combination wrong at var {j}")
    if sum(w_i * c.rhs for w_i, c in zip(w, lp.constraints)) != -wd:
        raise InternalError("certificate not normalized")


def _checked(lp: LinearProgram, sol: LPSolution,
             nonneg: AbstractSet[int] = frozenset()) -> LPSolution:
    if sol.status == OPTIMAL:
        _check_optimal(lp, sol, nonneg)
    elif sol.status == INFEASIBLE:
        _check_infeasible(lp, sol, nonneg)
    return sol


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve exactly.  Optimal points satisfy every constraint with exact
    rational arithmetic; infeasible outcomes carry an exact Farkas
    certificate.  Deterministic: identical inputs give identical outputs.
    """
    if not isinstance(lp, LinearProgram):
        raise InputError("expected a LinearProgram")
    limit = caps().lp_nonzeros
    nnz = lp_nonzeros(lp)
    if nnz > limit:
        raise SizeCapError(f"LP has {nnz} nonzeros, cap is {limit}")

    minimize = lp.sense == "minimize"
    work = (LinearProgram(lp.num_vars, lp.constraints,
                          tuple(-v for v in lp.objective), "maximize")
            if minimize else lp)
    wide = len(lp.constraints) >= 3 * max(lp.num_vars, 1)
    sol = _solve_max_dual(work) if wide else None
    if sol is None:
        sol = _solve_max_primal(work)
    if minimize and sol.status == OPTIMAL:
        sol = LPSolution(OPTIMAL, value=-sol.value, point=sol.point,
                         dual_certificate=tuple(-m for m in sol.dual_certificate))
    return _checked(lp, sol)


def farkas_feasibility(num_vars: int,
                       equalities: Sequence[tuple[Mapping, object]
                                            | LinearConstraint],
                       nonneg: Iterable[int] | None = None) -> LPSolution:
    """Exact feasibility for  A.x = b  over num_vars variables, given as
    ({variable: coeff}, rhs) rows, or as "=" LinearConstraint rows already
    in integer form, with x >= 0 on the flagged variables (all of them by
    default) and free otherwise.

    solve_lp's primal adapter and verifier on the "=" rows with a zero
    objective.  Optimal: point is an exact solution (value 0, all duals 0),
    checked row by row and for x >= 0 on the flagged variables.
    Infeasible: the certificate y (one entry per equality) is checked to
    satisfy, exactly, (y.A)_j >= 0 for flagged j, (y.A)_j == 0 for free j,
    and y.b == -1.
    """
    if not equalities:
        raise InputError("empty system")
    zero = (Fraction(0),) * num_vars
    if isinstance(equalities[0], LinearConstraint):
        if not all(isinstance(c, LinearConstraint) and c.relation == EQUAL
                   for c in equalities):
            raise InputError("integer rows must all be '=' constraints")
        lp = LinearProgram(num_vars, tuple(equalities), zero)
    else:
        lp = linear_program(
            num_vars, [(coeffs, EQUAL, rhs) for coeffs, rhs in equalities],
            zero)
    everything = frozenset(range(num_vars))
    flagged = everything if nonneg is None else frozenset(nonneg)
    if not flagged <= everything:
        raise InputError("nonneg set out of range")
    sol = _solve_max_primal(lp, flagged)
    if sol.status == UNBOUNDED:  # cannot happen: the objective is zero
        raise InternalError("feasibility core reported unbounded")
    return _checked(lp, sol, flagged)
