"""Output checks that do not trust the program.

Every quantity a check compares against is computed here from the
definitions: optima by enumerating assignments, instance polynomials and
slack values from the constraint semantics, Farkas conditions from the
certificate itself, and LP values by scipy's HiGHS (floating point,
compared within ``HIGHS_TOLERANCE``).  The one program object a check
uses is the edge LP that ``sa.build_edge_sa_lp`` returns, which HiGHS
re-solves.  A failed check raises ``CheckFailed``.

Instances are described by the benchmark's own data:

* a graph is ``(n, edges)`` with 1-based vertex pairs ``(i, j)``, i < j;
* a 3-SAT formula is ``(n, clauses)`` with clauses ``((v1, v2, v3), pattern)``,
  pattern bit k set meaning literal k is negated.

Assignments are bitmasks: bit b set means x_{b+1} = -1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

HIGHS_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Instance semantics
# ---------------------------------------------------------------------------


def _minus(x: int, v: int) -> bool:
    """x_v == -1 under assignment bitmask x (v is 1-based)."""
    return bool(x >> (v - 1) & 1)


def graph_value(edges, x: int) -> Fraction:
    cut = sum(1 for i, j in edges if _minus(x, i) != _minus(x, j))
    return Fraction(cut, len(edges))


def sat_value(clauses, x: int) -> Fraction:
    sat = 0
    for vs, pattern in clauses:
        # a literal holds when x_v = +1, or x_v = -1 for a negated one
        if any(_minus(x, v) == bool(pattern >> k & 1) for k, v in enumerate(vs)):
            sat += 1
    return Fraction(sat, len(clauses))


def instance_value(kind: str, data, x: int) -> Fraction:
    return graph_value(data, x) if kind == "graph" else sat_value(data, x)


def optimum(kind: str, n: int, data) -> Fraction:
    return max(instance_value(kind, data, x) for x in range(1 << n))


def instance_poly(kind: str, data) -> dict[int, Fraction]:
    """Multilinear expansion of the value, subset mask -> coefficient.
    A cut edge is (1 - x_i x_j)/2; a clause is 1 - prod_k (1 - s_k x_k)/2
    with s_k = -1 for a negated literal."""
    poly: dict[int, Fraction] = {}

    def add(mask: int, coeff: Fraction) -> None:
        poly[mask] = poly.get(mask, Fraction(0)) + coeff

    w = Fraction(1, len(data))
    if kind == "graph":
        for i, j in data:
            add(0, w / 2)
            add((1 << (i - 1)) | (1 << (j - 1)), -w / 2)
    else:
        for vs, pattern in data:
            add(0, w)
            for size in range(4):
                for ks in itertools.combinations(range(3), size):
                    sign = 1
                    mask = 0
                    for k in ks:
                        s = -1 if pattern >> k & 1 else 1
                        sign *= -s
                        mask |= 1 << (vs[k] - 1)
                    add(mask, -w * Fraction(sign, 8))
    return {m: c for m, c in poly.items() if c}


def _chi(alpha: int, x: int) -> int:
    return -1 if (alpha & x).bit_count() & 1 else 1


def _subsets(n: int, d: int):
    """Nonempty subset masks of [n] of size <= d."""
    for size in range(1, d + 1):
        for combo in itertools.combinations(range(n), size):
            yield sum(1 << i for i in combo)


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# HiGHS reference values
# ---------------------------------------------------------------------------


def highs_max(objective, rows_le, rhs_le) -> float:
    """max objective.y subject to rows_le.y <= rhs_le, y free, by HiGHS."""
    from scipy.optimize import linprog
    res = linprog([-float(c) for c in objective],
                  A_ub=[[float(a) for a in row] for row in rows_le],
                  b_ub=[float(b) for b in rhs_le],
                  bounds=(None, None), method="highs")
    require(res.status == 0, f"HiGHS did not solve the reference LP: {res.message}")
    return -res.fun


def highs_sa_value(n: int, d: int, poly: dict[int, Fraction]) -> float:
    """The level-d value from the definition: moments X_alpha for nonempty
    |alpha| <= d with X_empty = 1, nonnegative on every indicator of an
    assignment a to a set S of size <= d, i.e.
    sum_{alpha in S} chi_alpha(a) X_alpha >= 0."""
    masks = list(_subsets(n, d))
    index = {m: k for k, m in enumerate(masks)}
    rows, rhs = [], []
    for s_mask in masks:
        for a in _submasks(s_mask):
            row = [0] * len(masks)
            for alpha in _submasks(s_mask):
                if alpha:
                    row[index[alpha]] = -_chi(alpha, a)
            rows.append(row)
            rhs.append(1)
    objective = [poly.get(m, 0) for m in masks]
    return highs_max(objective, rows, rhs) + float(poly.get(0, 0))


def highs_lp_value(lp) -> float:
    """HiGHS on a program LinearProgram (maximize; <=, >= and = rows)."""
    rows, rhs = [], []
    for c in lp.constraints:
        if c.relation in ("<=", "="):
            rows.append(c.coeffs)
            rhs.append(c.rhs)
        if c.relation in (">=", "="):
            rows.append([-a for a in c.coeffs])
            rhs.append(-c.rhs)
    require(lp.sense == "maximize", "edge LP is expected to maximize")
    return highs_max(lp.objective, rows, rhs)


def require_close(exact: Fraction, reference: float, what: str) -> None:
    require(abs(float(exact) - reference) <= HIGHS_TOLERANCE,
            f"{what}: exact {exact} = {float(exact):.12g}, HiGHS {reference:.12g}")


# ---------------------------------------------------------------------------
# sa-lp
# ---------------------------------------------------------------------------


def check_sa_value(kind: str, n: int, data, d: int, value: Fraction,
                   moments: dict[int, Fraction]) -> None:
    """Level-d value and functional: opt <= value <= 1, the moments are
    nonnegative on every partial-assignment indicator and attain the value,
    at full level the value is the optimum, and HiGHS agrees."""
    opt = optimum(kind, n, data)
    require(opt <= value <= 1, f"value {value} outside [opt={opt}, 1]")
    level = min(d, n)
    require(moments.get(0) == 1, "empty moment is not 1")
    require(all(m.bit_count() <= level for m in moments),
            "a moment lies above the level")
    for s_mask in itertools.chain([0], _subsets(n, level)):
        for a in _submasks(s_mask):
            mass = sum(_chi(alpha, a) * moments.get(alpha, 0)
                       for alpha in _submasks(s_mask))
            require(mass >= 0, f"indicator of S={s_mask}, a={a} has mass {mass}")
    poly = instance_poly(kind, data)
    attained = sum(c * moments.get(m, 0) for m, c in poly.items())
    require(attained == value, f"moments attain {attained}, reported {value}")
    if level == n:
        require(value == opt, f"full-level value {value} != optimum {opt}")
    require_close(value, highs_sa_value(n, level, poly), f"level-{level} value")


def check_monotone(lower: Fraction, higher: Fraction) -> None:
    require(higher <= lower, f"value rises with the level: {lower} -> {higher}")


def check_edge_sa(n: int, edges, value: Fraction,
                  edge_moments: dict[tuple[int, int], Fraction], lp) -> None:
    """Edge LP: opt <= value <= 1, the value is the mean edge moment, and
    HiGHS agrees on the program's LinearProgram."""
    opt = optimum("graph", n, edges)
    require(opt <= value <= 1, f"edge value {value} outside [opt={opt}, 1]")
    mean = sum(edge_moments[e] for e in edges) / len(edges)
    require(mean == value, f"edge moments average {mean}, reported {value}")
    require_close(value, highs_lp_value(lp), "edge LP value")


# ---------------------------------------------------------------------------
# certify: relaxations from their definitions
# ---------------------------------------------------------------------------


def _pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def metric_rows(n: int):
    """The metric polytope in the documented row order: y_e >= 0 for every
    pair, then y_e <= 1, then per triple i<j<k the three triangle facets
    (long edge ij, ik, jk in turn) and the perimeter facet.  Each row is
    ({pair: coeff}, rhs) for coeffs.y <= rhs."""
    rows = [({e: -1}, 0) for e in _pairs(n)]
    rows += [({e: 1}, 1) for e in _pairs(n)]
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        eij, eik, ejk = (i, j), (i, k), (j, k)
        for long_e, a, b in ((eij, eik, ejk), (eik, eij, ejk), (ejk, eij, eik)):
            rows.append(({long_e: 1, a: -1, b: -1}, 0))
        rows.append(({eij: 1, eik: 1, ejk: 1}, 2))
    return rows


def _cut(x: int, e) -> int:
    return int(_minus(x, e[0]) != _minus(x, e[1]))


def metric_slacks(n: int) -> list[list[Fraction]]:
    """Slack tables q_i(x) = b_i - <A_i, cut vector of x>."""
    return [[Fraction(rhs - sum(c * _cut(x, e) for e, c in row.items()))
             for x in range(1 << n)] for row, rhs in metric_rows(n)]


def universal_slacks(n: int, d: int) -> list[list[Fraction]]:
    """Slack tables of the degree-d character relaxation in its documented
    row order: the two rows pinning y_empty = 1 (slack 0), then for every
    set S of size <= d (by size, then lexicographically) and every
    assignment a to S (bit k of the counter negates the k-th variable of S)
    the indicator row, whose slack is 2^|S| [x agrees with a on S]."""
    size = 1 << n
    tables = [[Fraction(0)] * size, [Fraction(0)] * size]
    for k in range(d + 1):
        for combo in itertools.combinations(range(n), k):
            s_mask = sum(1 << i for i in combo)
            for pick in range(1 << k):
                a = sum(1 << combo[b] for b in range(k) if pick >> b & 1)
                tables.append([Fraction(1 << k) if x & s_mask == a else Fraction(0)
                               for x in range(size)])
    return tables


def relaxation_slacks(spec: str, n: int) -> list[list[Fraction]]:
    if spec == "metric":
        return metric_slacks(n)
    require(spec.startswith("universal:"), f"unknown relaxation {spec}")
    return universal_slacks(n, int(spec.split(":", 1)[1]))


def highs_metric_value(n: int, edges) -> float:
    pairs = _pairs(n)
    objective = [Fraction(1, len(edges)) if e in edges else 0 for e in pairs]
    rows = metric_rows(n)
    return highs_max(objective, [[row.get(e, 0) for e in pairs] for row, _ in rows],
                     [rhs for _, rhs in rows])


def check_decomposition(n: int, edges, c: Fraction, lam0: Fraction,
                        lam: list[Fraction], slacks) -> None:
    """c - G(x) == lam0 + sum_i lam_i q_i(x) at every x, lam >= 0."""
    require(len(lam) == len(slacks), f"{len(lam)} multipliers for {len(slacks)} slacks")
    require(lam0 >= 0 and all(v >= 0 for v in lam), "negative multiplier")
    for x in range(1 << n):
        total = lam0 + sum(v * q[x] for v, q in zip(lam, slacks) if v)
        require(total == c - graph_value(edges, x),
                f"decomposition misses c - G at x = {x}: {total}")


def check_farkas_certificate(n: int, edges, c: Fraction, y: list[Fraction],
                             slacks) -> None:
    """y proves that c - G = lam0 + sum lam_i q_i has no solution lam >= 0:
    y.1 >= 0, y.q_i >= 0 for every slack, and y.(c - G) == -1."""
    require(len(y) == 1 << n, f"certificate has {len(y)} entries, need {1 << n}")
    require(sum(y) >= 0, "certificate negative on the constant column")
    for i, q in enumerate(slacks):
        require(sum(yx * qx for yx, qx in zip(y, q) if yx) >= 0,
                f"certificate negative on slack {i}")
    yb = sum(yx * (c - graph_value(edges, x)) for x, yx in enumerate(y) if yx)
    require(yb == -1, f"certificate pairs with c - G to {yb}, not -1")


def check_farkas_output(n: int, edges, c: Fraction, out: dict, slacks,
                        value: Fraction | float) -> None:
    """A `farkas` CLI payload: feasible exactly when c >= the LP value,
    with a decomposition or a certificate that checks exactly.  A float
    value comes from HiGHS; c within HIGHS_TOLERANCE of it is a tie, left
    to the exact decomposition or certificate check."""
    feasible = out["feasible"]
    if isinstance(value, Fraction):
        require(feasible == (c >= value),
                f"c = {c} against LP value {value}: feasible = {feasible}")
    elif abs(float(c) - value) > HIGHS_TOLERANCE:
        require(feasible == (float(c) > value),
                f"c = {c} against LP value {value:.12g}: feasible = {feasible}")
    if feasible:
        require(out["verified"] is True, "program did not verify its decomposition")
        check_decomposition(n, edges, c, Fraction(out["lam0"]),
                            [Fraction(v) for v in out["lam"]], slacks)
    else:
        check_farkas_certificate(n, edges, c, [Fraction(v) for v in out["certificate"]],
                                 slacks)


def check_symmetric_output(c: Fraction, report: dict, level_value: float) -> None:
    """A `symmetric-check` report: infeasible exactly below the level-d
    value, the closure holds, and saBase agrees with HiGHS."""
    sa_base = Fraction(report["saBase"])
    require_close(sa_base, level_value, "saBase")
    require(Fraction(report["cMinusSa"]) == c - sa_base, "cMinusSa != c - saBase")
    require(report["closureOk"] is True and report["consistent"] is True,
            "closure or consistency not reported")
    require(report["decompositionFeasible"] == (c >= sa_base),
            f"c = {c}, level value {sa_base}: feasible = {report['decompositionFeasible']}")


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def check_main_report(report, records, n: int, m: int, d: int,
                      level_value: float) -> None:
    """The main inequality report of universal(n, d) on an m-variable
    instance, with the junta records of the restriction that produced it."""
    require(report.holds is True, "value inequality does not hold")
    require(report.lhs == report.lp_planted - report.sa_base, "lhs != lpPlanted - saBase")
    require(report.lp_planted == report.sa_base,
            f"lpPlanted {report.lp_planted} != saBase {report.sa_base}")
    require_close(report.sa_base, level_value, "saBase")
    s = report.S
    require(len(s) == m and len(set(s)) == m and all(1 <= i <= n for i in s),
            f"S = {s} is not an {m}-subset of [1, {n}]")
    for rec in records:
        require(set(rec.junta) <= set(s) and len(rec.junta) <= d,
                f"junta {sorted(rec.junta)} of density {rec.density_id} "
                f"not inside S = {s} with at most {d} elements")
    t = (n ** d - 1).bit_length()
    require(report.t == t, f"t = {report.t}, smallest t with 2^t >= n^d is {t}")
    require(report.gamma_fourth == Fraction((16 * m * t * d) ** 2, n),
            "gammaFourth != (16 m t d)^2 / n")
    require(report.gamma_upper ** 4 >= report.gamma_fourth,
            "gammaUpper^4 < gammaFourth")
