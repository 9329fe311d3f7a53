"""Max-CSP instances over {-1,1}: predicates, instance value, brute-force
optimum, planting, dummy extension, the multilinear instance polynomial,
plus generators and the two text formats (edge lists, DIMACS CNF).

Assignments are bitmask integers with the boolfn indexing convention
(bit b set means x_{b+1} = -1); variable indices in constraints and in
both file formats are 1-based.  Constraint weights are uniform 1/m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .boolfn import BoolFn, fourier_transform
from .caps import caps
from .errors import InputError, ParseError, SizeCapError

MAX_ARITY = 4


@dataclass(frozen=True)
class Predicate:
    """k-ary predicate given by its truth table; table index bit j is 1
    exactly when argument j+1 equals -1."""
    arity: int
    table: tuple[bool, ...]

    def __post_init__(self):
        if not 1 <= self.arity <= MAX_ARITY:
            raise InputError(f"arity {self.arity} outside [1, {MAX_ARITY}]")
        if len(self.table) != 1 << self.arity:
            raise InputError("truth table length != 2^arity")


@dataclass(frozen=True)
class Constraint:
    predicate_id: int
    vars: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    n: int
    predicates: tuple[Predicate, ...]
    constraints: tuple[Constraint, ...]
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise InputError("instance needs at least one variable")
        if not self.constraints:
            raise InputError("constraint list must be nonempty")
        for c in self.constraints:
            if not 0 <= c.predicate_id < len(self.predicates):
                raise InputError(f"unknown predicate id {c.predicate_id}")
            pred = self.predicates[c.predicate_id]
            if len(c.vars) != pred.arity:
                raise InputError("constraint arity mismatch")
            if len(set(c.vars)) != len(c.vars):
                raise InputError(f"constraint variables not distinct: {c.vars}")
            if not all(1 <= v <= self.n for v in c.vars):
                raise InputError(f"variable out of range in {c.vars}")

    def max_arity(self) -> int:
        return max(p.arity for p in self.predicates)


# the cut predicate: satisfied iff its two arguments differ
CUT_PREDICATE = Predicate(2, (False, True, True, False))


def is_maxcut(inst: Instance) -> bool:
    """Whether every constraint of inst is a cut constraint."""
    return all(inst.predicates[c.predicate_id] == CUT_PREDICATE
               for c in inst.constraints)


def _constraint_satisfied(inst: Instance, c: Constraint, x: int) -> bool:
    args = 0
    for j, v in enumerate(c.vars):
        if x >> (v - 1) & 1:
            args |= 1 << j
    return inst.predicates[c.predicate_id].table[args]


def evaluate(inst: Instance, x: int) -> Fraction:
    """Exact fraction of satisfied constraints at assignment bitmask x."""
    if not 0 <= x < 1 << inst.n:
        raise InputError(f"assignment {x} outside [0, 2^{inst.n})")
    sat = sum(1 for c in inst.constraints if _constraint_satisfied(inst, c, x))
    return Fraction(sat, len(inst.constraints))


def brute_force_opt(inst: Instance) -> tuple[Fraction, int]:
    """Exact maximum over all assignments; ties go to the smallest
    assignment index."""
    if inst.n > caps().bruteforce_n:
        raise SizeCapError(f"n = {inst.n} exceeds brute-force cap")
    best_sat = -1
    best_x = 0
    m = len(inst.constraints)
    tables = [inst.predicates[c.predicate_id].table for c in inst.constraints]
    varlists = [c.vars for c in inst.constraints]
    for x in range(1 << inst.n):
        sat = 0
        for table, vs in zip(tables, varlists):
            args = 0
            for j, v in enumerate(vs):
                if x >> (v - 1) & 1:
                    args |= 1 << j
            if table[args]:
                sat += 1
        if sat > best_sat:
            best_sat = sat
            best_x = x
            if sat == m:
                break
    return Fraction(best_sat, m), best_x


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial as a sparse map subset-mask -> coefficient."""
    n: int
    coeffs: dict[int, Fraction]

    def degree(self) -> int:
        return max((a.bit_count() for a in self.coeffs), default=0)

    def get(self, mask: int) -> Fraction:
        return self.coeffs.get(mask, Fraction(0))

    def evaluate(self, x: int) -> Fraction:
        total = Fraction(0)
        for a, v in self.coeffs.items():
            total += -v if (a & x).bit_count() & 1 else v
        return total


def _predicate_poly(pred: Predicate) -> dict[int, Fraction]:
    """Multilinear expansion of the 0/1 predicate over its k arguments."""
    table = BoolFn(pred.arity, [Fraction(1 if s else 0) for s in pred.table])
    return fourier_transform(table).coeffs


def instance_polynomial(inst: Instance) -> MultilinearPoly:
    """The value map as a multilinear polynomial: pairing it with the
    character vector of any assignment reproduces evaluate()."""
    m = len(inst.constraints)
    acc: dict[int, Fraction] = {}
    pred_polys = [_predicate_poly(p) for p in inst.predicates]
    for c in inst.constraints:
        for local_mask, coeff in pred_polys[c.predicate_id].items():
            g = 0
            lm = local_mask
            j = 0
            while lm:
                if lm & 1:
                    g |= 1 << (c.vars[j] - 1)
                lm >>= 1
                j += 1
            acc[g] = acc.get(g, Fraction(0)) + coeff
    out = {a: v / m for a, v in acc.items() if v}
    return MultilinearPoly(inst.n, out)


def assignment_point(x: int, n: int, degree: int) -> MultilinearPoly:
    """Character evaluation vector of an assignment up to the given
    degree: coefficient chi_alpha(x) = +-1 on every |alpha| <= degree."""
    coeffs: dict[int, Fraction] = {}
    for a in range(1 << n):
        if a.bit_count() <= degree:
            coeffs[a] = Fraction(-1 if (a & x).bit_count() & 1 else 1)
    return MultilinearPoly(n, coeffs)


def plant(inst: Instance, positions: tuple[int, ...] | list[int], n: int) -> Instance:
    """Re-index an m-variable instance through an ordered m-subset of
    [n]: old variable j becomes positions[j-1]."""
    positions = tuple(positions)
    if len(positions) != inst.n:
        raise InputError(f"need exactly {inst.n} positions, got {len(positions)}")
    if len(set(positions)) != len(positions):
        raise InputError("positions must be distinct")
    if not all(1 <= p <= n for p in positions):
        raise InputError(f"positions must lie in [1, {n}]")
    constraints = tuple(
        Constraint(c.predicate_id, tuple(positions[v - 1] for v in c.vars))
        for c in inst.constraints)
    label = f"{inst.name}@{positions}" if inst.name else ""
    return Instance(n, inst.predicates, constraints, label)


def dummy_extend(inst: Instance) -> Instance:
    """Double the variable count; the new variables carry no constraints,
    so the value map and optimum are unchanged."""
    return Instance(2 * inst.n, inst.predicates, inst.constraints,
                    f"{inst.name}+dummies" if inst.name else "")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def graph_instance(n: int, edges: list[tuple[int, int]], name: str = "") -> Instance:
    """Max Cut instance for an explicit edge list."""
    seen = set()
    constraints = []
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate edge {key}")
        seen.add(key)
        constraints.append(Constraint(0, key))
    return Instance(n, (CUT_PREDICATE,), tuple(constraints), name)


def cycle(n: int) -> Instance:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return graph_instance(n, edges, f"C{n}")


def complete(n: int) -> Instance:
    if n < 2:
        raise InputError("complete graph needs n >= 2")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return graph_instance(n, edges, f"K{n}")


def random_graph(n: int, p: Fraction, seed: int) -> Instance:
    """G(n, p): each pair included independently; deterministic in seed
    (Mersenne Twister, pairs scanned in lexicographic order)."""
    if not 0 <= p <= 1:
        raise InputError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    if not edges:
        raise InputError(f"G({n},{p}) draw with seed {seed} has no edges")
    return graph_instance(n, edges, f"G({n},{p};{seed})")


# All eight 3-literal disjunctions: pattern bit j set means literal j+1 is
# negated.  A positive literal on variable v is satisfied when x_v = +1.
def _or3_predicate(pattern: int) -> Predicate:
    table = []
    for args in range(8):
        sat = False
        for j in range(3):
            negated = pattern >> j & 1
            arg_is_minus = args >> j & 1
            # positive literal satisfied by +1, negated literal by -1
            if (not negated and not arg_is_minus) or (negated and arg_is_minus):
                sat = True
        table.append(sat)
    return Predicate(3, tuple(table))


THREE_SAT_PREDICATES = tuple(_or3_predicate(p) for p in range(8))


def random_3sat(n: int, m: int, seed: int) -> Instance:
    """m random 3-clauses on n variables; deterministic in seed.  Each
    clause picks 3 distinct sorted variables and a sign pattern."""
    if n < 3:
        raise InputError("3-SAT needs n >= 3")
    if m < 1:
        raise InputError("need at least one clause")
    rng = random.Random(seed)
    constraints = []
    for _ in range(m):
        vs = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        pattern = rng.randrange(8)
        constraints.append(Constraint(pattern, vs))
    return Instance(n, THREE_SAT_PREDICATES, tuple(constraints),
                    f"3sat({n},{m};{seed})")


# ---------------------------------------------------------------------------
# Parsers (bit-exact format contracts)
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Instance:
    """First line "n m", then m lines "u v", 1-indexed, no self-loops or
    duplicates."""
    lines = text.splitlines()
    meaningful = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not meaningful:
        raise ParseError("empty edge list", 1)
    lineno, header = meaningful[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be two integers", lineno) from None
    body = meaningful[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edges, found {len(body)}",
                         body[-1][0] if body else lineno)
    edges = []
    seen = set()  # normalized (min, max) endpoints of the edges so far
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            col = ln.index(parts[0]) + 1
            raise ParseError("edge endpoints must be integers", lineno, col) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint outside [1, {n}]", lineno)
        if u == v:
            raise ParseError(f"self-loop at {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        seen.add(key)
        edges.append((u, v))
    return graph_instance(n, edges)


def write_edge_list(inst: Instance) -> str:
    """Inverse of parse_edge_list for Max Cut instances."""
    if any(p != CUT_PREDICATE for p in inst.predicates):
        raise InputError("not a Max Cut instance")
    lines = [f"{inst.n} {len(inst.constraints)}"]
    lines += [f"{c.vars[0]} {c.vars[1]}" for c in inst.constraints]
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str) -> Instance:
    """Standard 'p cnf n m' DIMACS with clauses of exactly three distinct
    literals, each terminated by 0."""
    n = m = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    pending_line = 0
    for lineno, ln in enumerate(text.splitlines(), start=1):
        s = ln.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            parts = s.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("problem line must be 'p cnf n m'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("bad counts in problem line", lineno) from None
            continue
        if n is None:
            raise ParseError("clause before problem line", lineno)
        for tok in s.split():
            try:
                lit = int(tok)
            except ValueError:
                col = ln.index(tok) + 1
                raise ParseError(f"bad literal {tok!r}", lineno, col) from None
            if lit == 0:
                if len(pending) != 3:
                    raise ParseError(
                        f"clause has {len(pending)} literals, need exactly 3",
                        lineno)
                clauses.append(tuple(pending))
                pending = []
            else:
                if not 1 <= abs(lit) <= n:
                    raise ParseError(f"literal {lit} outside variable range", lineno)
                pending.append(lit)
                pending_line = lineno
    if pending:
        raise ParseError("unterminated clause", pending_line)
    if n is None:
        raise ParseError("missing problem line", 1)
    if len(clauses) != m:
        raise ParseError(f"expected {m} clauses, found {len(clauses)}",
                         len(text.splitlines()))
    constraints = []
    for lits in clauses:
        if len({abs(l) for l in lits}) != 3:
            raise InputError(f"clause variables not distinct: {lits}")
        order = sorted(range(3), key=lambda j: abs(lits[j]))
        vs = tuple(abs(lits[j]) for j in order)
        pattern = 0
        for pos, j in enumerate(order):
            if lits[j] < 0:
                pattern |= 1 << pos
        constraints.append(Constraint(pattern, vs))
    return Instance(n, THREE_SAT_PREDICATES, tuple(constraints))


def write_dimacs(inst: Instance) -> str:
    if inst.predicates != THREE_SAT_PREDICATES:
        raise InputError("not a 3-SAT instance")
    lines = [f"p cnf {inst.n} {len(inst.constraints)}"]
    for c in inst.constraints:
        lits = [v if not (c.predicate_id >> j & 1) else -v
                for j, v in enumerate(c.vars)]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def assignment_to_signs(x: int, n: int) -> str:
    """'+-+' string: character i is the sign of x_i."""
    return "".join("-" if x >> i & 1 else "+" for i in range(n))


def signs_to_assignment(s: str) -> int:
    x = 0
    for i, ch in enumerate(s):
        if ch == "-":
            x |= 1 << i
        elif ch != "+":
            raise InputError(f"bad sign character {ch!r}")
    return x
