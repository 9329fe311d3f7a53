import dataclasses
import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftgap.csp import cycle
from liftgap.errors import InputError, InternalError, SizeCapError
from liftgap.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearConstraint,
                        LinearProgram, LPSolution, _check_infeasible,
                        _check_optimal, _solve_standard, farkas_feasibility,
                        linear_program, lp_nonzeros, solve_lp)
from liftgap.sa import edge_sa_solve, sa_value
from liftgap.slack import farkas_decompose, universal

F = Fraction


def test_single_variable_optimum():
    lp = linear_program(1, [({0: 1}, "<=", F(2, 3)), ({0: 1}, ">=", 0)], (1,))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == F(2, 3)
    assert sol.point == (F(2, 3),)


def test_contradictory_bounds_infeasible():
    lp = linear_program(1, [({0: 1}, "<=", -1), ({0: 1}, ">=", 0)], (1,))
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    mult = sol.dual_certificate
    # exact Farkas certificate: combination is 0 <= -1
    assert mult[0] >= 0 and mult[1] <= 0
    assert mult[0] * 1 + mult[1] * 1 == 0
    assert mult[0] * F(-1) + mult[1] * 0 == -1


def _metric_triangle_lp():
    # variables y12, y13, y23; objective = mean of the edge variables
    rows = []
    for e in range(3):
        rows.append(({e: F(-1)}, "<=", F(0)))
        rows.append(({e: F(1)}, "<=", F(1)))
    for long_e, a, b in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        rows.append(({long_e: F(1), a: F(-1), b: F(-1)}, "<=", F(0)))
    rows.append(({0: F(1), 1: F(1), 2: F(1)}, "<=", F(2)))
    return linear_program(3, rows, (F(1, 3),) * 3)


def test_metric_triangle_value():
    # hand check: y = (2/3, 2/3, 2/3) is feasible and the perimeter row
    # y12+y13+y23 <= 2 binds, capping the mean at 2/3
    sol = solve_lp(_metric_triangle_lp())
    assert sol.status == OPTIMAL
    assert sol.value == F(2, 3)
    assert sum(sol.point) <= 2


def test_unbounded():
    lp = linear_program(1, [({0: 1}, ">=", 0)], (1,))
    assert solve_lp(lp).status == UNBOUNDED
    assert solve_lp(lp).value is None


def test_reproducibility_bit_identical():
    lp = _metric_triangle_lp()
    a, b = solve_lp(lp), solve_lp(lp)
    assert a == b


def test_weak_duality_exact():
    lp = _metric_triangle_lp()
    sol = solve_lp(lp)
    mult = sol.dual_certificate
    assert all(m >= 0 for m, c in zip(mult, lp.constraints) if c.relation == "<=")
    total = sum(m * c.rhs for m, c in zip(mult, lp.constraints))
    assert total == sol.value
    for j in range(lp.num_vars):
        assert sum(m * c.coeffs[j] for m, c in zip(mult, lp.constraints)) \
            == lp.objective[j]


def test_minimize_sense():
    lp = linear_program(2, [({0: 1, 1: 1}, ">=", 3), ({0: 1}, "<=", 2)],
                        (1, 2), "minimize")
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL and sol.value == 4
    assert sol.point == (F(2), F(1))


def test_equality_constraints():
    lp = linear_program(2, [({0: 1, 1: 1}, "=", 1), ({0: 1, 1: -1}, "=", 0)],
                        (1, 0))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.point == (F(1, 2), F(1, 2))


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        linear_program(2, [({2: 1}, "<=", 0)], (1, 0))
    with pytest.raises(InputError):
        linear_program(1, [({0: 1}, "<<", 0)], (1,))


@pytest.mark.parametrize("row", [{-1: 1}, {3: 1}, {F(1, 2): 1}, {"x": 1},
                                 {"x": 1, 0: 1}, {True: 1}],
                         ids=["negative", "past-end", "fraction", "text",
                              "text-and-int", "bool"])
def test_bad_variable_key_rejected(row):
    with pytest.raises(InputError, match="constraint 1: variables"):
        linear_program(3, [({0: 1}, "<=", 1), (row, "<=", 1)], (1, 1, 1))


def test_direct_construction_is_validated():
    ok = LinearConstraint(((0, 1),), "<=", 1, 2)
    LinearProgram(2, (ok,), (F(1), F(0)))
    LinearProgram(2, (LinearConstraint(((0, 1),), "<=", 1, 2, 3),),
                  (F(1), F(0)))
    for bad in (LinearConstraint(((0, 1),), "<<", 1, 2),
                LinearConstraint(((2, 1),), "<=", 1, 2),
                LinearConstraint(((0, 1),), "<=", 1, 3),
                LinearConstraint(((0, F(1)),), "<=", 1, 2),
                LinearConstraint(((0, 1),), "<=", F(1), 2),
                LinearConstraint(((0, 1),), "<=", 1, 2, 0),
                LinearConstraint(((0, True),), "<=", 1, 2)):
        with pytest.raises(InputError):
            LinearProgram(2, (ok, bad), (F(1), F(0)))
    with pytest.raises(InputError):
        LinearProgram(2, (ok,), (F(1),))
    with pytest.raises(InputError):
        LinearProgram(2, (ok,), (F(1), F(0)), "maximise")


def test_zero_coefficients_are_not_stored():
    lp = linear_program(3, [({2: F(1, 2), 0: 0, 1: F(0)}, "<=", 1),
                            ({1: -1, 0: 3}, ">=", 0)], (1, 1, 1))
    # {2: 1/2} <= 1 is stored as the integer row {2: 1} <= 2 over scale 2
    assert [(c.terms, c.rhs, c.scale) for c in lp.constraints] == [
        (((2, 1),), 2, 2), (((0, 3), (1, -1)), 0, 1)]
    assert lp_nonzeros(lp) == 3
    assert lp.constraints[0].coeffs == (0, 0, 1)
    assert lp.constraints[1].coeffs == (3, -1, 0)


def test_size_cap(monkeypatch):
    lp = linear_program(2, [({0: 1, 1: 1}, "<=", 1)] * 3, (1, 1))
    monkeypatch.setenv("LIFTGAP_SIZE_CAPS", "lp_nonzeros=5")
    with pytest.raises(SizeCapError):
        solve_lp(lp)


def test_farkas_feasibility_examples():
    sol = farkas_feasibility(1, [({0: 1}, 1)])
    assert sol.status == OPTIMAL and sol.point == (F(1),)
    sol = farkas_feasibility(1, [({0: 1}, -1)])
    assert sol.status == INFEASIBLE
    y = sol.dual_certificate
    assert y[0] * 1 >= 0 and y[0] * F(-1) == -1
    with pytest.raises(InputError):
        farkas_feasibility(1, [])


def test_farkas_feasibility_takes_integer_rows():
    # x/2 + y = 3/4 and x - y/3 = 1, as dict rows and as the integer rows
    # linear_program makes of them
    equalities = [({0: F(1, 2), 1: 1}, F(3, 4)), ({0: 1, 1: F(-1, 3)}, 1)]
    rows = linear_program(2, [(row, "=", b) for row, b in equalities],
                          (0, 0)).constraints
    assert [(c.terms, c.rhs, c.scale) for c in rows] == [
        (((0, 2), (1, 4)), 3, 4), (((0, 3), (1, -1)), 3, 3)]
    assert farkas_feasibility(2, list(rows)) == farkas_feasibility(
        2, equalities)
    assert farkas_feasibility(2, list(rows), nonneg={1}).status == OPTIMAL
    with pytest.raises(InputError, match="'=' constraints"):
        farkas_feasibility(2, [rows[0], equalities[1]])
    with pytest.raises(InputError, match="'=' constraints"):
        farkas_feasibility(2, [dataclasses.replace(rows[0], relation="<=")])


def test_farkas_free_variables():
    # x free, y >= 0: x + y = -2 is solvable with free x
    sol = farkas_feasibility(2, [({0: 1, 1: 1}, -2)], nonneg={1})
    assert sol.status == OPTIMAL
    x, y = sol.point
    assert x + y == -2 and y >= 0


def test_wide_lp_uses_same_contract():
    # many rows, few vars: exercised through the dual path
    rows = [({0: 1, 1: 1}, "<=", F(k, 7)) for k in range(3, 40)]
    rows += [({0: 1, 1: -1}, "<=", 1), ({0: -1}, "<=", 0), ({1: -1}, "<=", 0)]
    lp = linear_program(2, rows, (1, 1))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == F(3, 7)


@pytest.mark.parametrize("call, pivots", [
    (lambda: sa_value(cycle(5), 3), 59),
    (lambda: sa_value(cycle(7), 3), 218),
    (lambda: edge_sa_solve(cycle(5), 1), 569),
    # phase 1 on the scaled rows with unit artificial costs would take 19
    (lambda: farkas_decompose(F(9, 10), cycle(4), universal(4, 2)), 18),
], ids=["sa C5 level 3", "sa C7 level 3", "edge C5 level 1",
        "farkas C4 universal:2 c=9/10"])
def test_pivot_counts_are_pinned(caplog, call, pivots):
    """The simplex path is pinned: the count of per-pivot DEBUG records
    (perfbench's lp.pivots) changes with the pivot rule or the phase-1
    costs, and outputs with it."""
    with caplog.at_level(logging.DEBUG, logger="liftgap.lp"):
        call()
    assert sum(r.name == "liftgap.lp" and r.msg.startswith("pivot ")
               for r in caplog.records) == pivots


# --- the verifier rejects corrupted solutions -----------------------------


def _assert_rejected(message, check, lp, sol, *args):
    with pytest.raises(InternalError, match=message):
        check(lp, sol, *args)


def test_check_optimal_rejects_corruptions():
    # max x + 2y  s.t.  x + y <= 3,  x >= 0,  y = 1
    lp = linear_program(2, [({0: 1, 1: 1}, "<=", 3), ({0: 1}, ">=", 0),
                            ({1: 1}, "=", 1)], (1, 2))
    sol = solve_lp(lp)
    assert sol == LPSolution(OPTIMAL, F(4), (F(2), F(1)), (F(1), F(0), F(1)))
    _check_optimal(lp, sol)
    _assert_rejected("violates constraint 0", _check_optimal, lp, LPSolution(
        OPTIMAL, F(5), (F(3), F(1)), sol.dual_certificate))
    _assert_rejected("dual sign at row 1", _check_optimal, lp, LPSolution(
        OPTIMAL, F(4), sol.point, (F(1), F(1), F(1))))
    _assert_rejected("dual combination mismatch at var 1", _check_optimal,
                     lp, LPSolution(OPTIMAL, F(4), sol.point,
                                    (F(1), F(0), F(2))))
    # (1, 1) is feasible with objective 3, but the duals certify 4
    _assert_rejected("strong duality", _check_optimal, lp, LPSolution(
        OPTIMAL, F(3), (F(1), F(1)), sol.dual_certificate))


def test_check_optimal_rejects_negative_nonneg_variable():
    # x + y = 0 with y >= 0: (1, -1) satisfies the row but not y >= 0
    lp = linear_program(2, [({0: 1, 1: 1}, "=", 0)], (0, 0))
    bad = LPSolution(OPTIMAL, F(0), (F(1), F(-1)), (F(0),))
    _check_optimal(lp, bad)
    _assert_rejected("negative nonneg variable 1", _check_optimal, lp, bad,
                     {1})


def test_check_infeasible_rejects_corruptions():
    # x = -1 with x >= 0: y = 1 has y.A = 1 >= 0 and y.b = -1
    lp = linear_program(1, [({0: 1}, "=", -1)], (0,))
    good = LPSolution(INFEASIBLE, dual_certificate=(F(1),))
    _check_infeasible(lp, good, {0})
    # nonzero on a free variable
    _assert_rejected("combination wrong at var 0", _check_infeasible, lp,
                     good)
    # negative on a flagged variable: x = 1, y = -1
    _assert_rejected("combination wrong at var 0", _check_infeasible,
                     linear_program(1, [({0: 1}, "=", 1)], (0,)),
                     LPSolution(INFEASIBLE, dual_certificate=(F(-1),)), {0})
    _assert_rejected("not normalized", _check_infeasible, lp,
                     LPSolution(INFEASIBLE, dual_certificate=(F(2),)), {0})
    # a wrong sign on an inequality row
    lp_le = linear_program(1, [({0: 1}, "<=", -1), ({0: 1}, ">=", 0)], (1,))
    cert = solve_lp(lp_le).dual_certificate
    assert cert == (F(1), F(-1))
    _assert_rejected("certificate sign at row 0", _check_infeasible, lp_le,
                     LPSolution(INFEASIBLE, dual_certificate=(F(-1), F(1))))


def test_core_column_sign_matches_negated_column():
    # a (terms, -1) column is solved as the column of negated integers:
    # same status, point, value, duals, certificate and ray
    statuses = set()
    for seed in range(150):
        rng = random.Random(seed)
        m, ncols = rng.randint(1, 4), rng.randint(1, 5)

        def q():
            return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))

        signed = []
        for _ in range(ncols):
            terms = [(r, rng.randint(-4, 4))
                     for r in sorted(rng.sample(range(m), rng.randint(1, m)))]
            signed.append((terms, rng.choice((1, -1))))
        negated = [([(r, s * v) for r, v in terms], 1) for terms, s in signed]
        b = [q() for _ in range(m)]
        costs = [q() for _ in range(ncols)]
        scales = [rng.choice((1, 2, 3, 7)) for _ in range(m)]
        got = _solve_standard(signed, b, costs, scales)
        want = _solve_standard(negated, b, costs, scales)
        assert [getattr(got, f) for f in got.__slots__] == \
            [getattr(want, f) for f in want.__slots__], seed
        statuses.add(got.status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def _rationals(bound: int):
    """Rationals k/q with |k| <= bound and q in {1, 2, 3, 7}, so rows get
    scales above 1 and the core takes b and the costs over lcms above 1."""
    return st.builds(F, st.integers(-bound, bound),
                     st.sampled_from([1, 2, 3, 7]))


def _with_doubled_row(draw, rows, double):
    """Sometimes append a copy of one row scaled by 2, making it redundant."""
    if rows and draw(st.booleans()):
        rows = rows + [double(draw(st.sampled_from(rows)))]
    return rows


@st.composite
def _equality_systems(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(_rationals(3), min_size=n, max_size=n),
                  _rationals(4)),
        min_size=1, max_size=4))
    rows = _with_doubled_row(draw, rows,
                             lambda row: ([2 * c for c in row[0]], 2 * row[1]))
    flagged = draw(st.sets(st.integers(0, n - 1)))
    return n, rows, flagged


@given(_equality_systems())
@settings(max_examples=120, deadline=None)
def test_farkas_status_matches_solve_lp(data):
    n, rows, flagged = data
    rows = [(dict(enumerate(cs)), b) for cs, b in rows]
    sol = farkas_feasibility(n, rows, nonneg=flagged)
    bounds = [({j: 1}, ">=", 0) for j in sorted(flagged)]
    lp = linear_program(n, [(cs, "=", b) for cs, b in rows] + bounds,
                        (0,) * n)
    assert sol.status == solve_lp(lp).status


# --- independent oracle: exhaustive vertex enumeration --------------------


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None when singular."""
    n = len(rhs)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _oracle_max(num_vars, rows, objective):
    """Max over feasible vertices; None when no feasible vertex (the box
    rows below make the region a polytope, so None means infeasible)."""
    best = None
    for subset in itertools.combinations(range(len(rows)), num_vars):
        point = _solve_square([rows[i][0] for i in subset],
                              [rows[i][2] for i in subset])
        if point is None:
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(c * p for c, p in zip(coeffs, point))
            if rel == "<=" and lhs > rhs:
                ok = False
            elif rel == ">=" and lhs < rhs:
                ok = False
            elif rel == "=" and lhs != rhs:
                ok = False
            if not ok:
                break
        if ok:
            val = sum(c * p for c, p in zip(objective, point))
            if best is None or val > best:
                best = val
    return best


@st.composite
def _boxed_lps(draw):
    n = draw(st.integers(1, 3))
    coeff = _rationals(3)
    extra = draw(st.lists(
        st.tuples(st.lists(coeff, min_size=n, max_size=n),
                  st.sampled_from(["<=", ">=", "="]),
                  _rationals(4)),
        min_size=0, max_size=3))
    rows = [(tuple(cs), rel, b) for cs, rel, b in extra]
    rows = _with_doubled_row(draw, rows, lambda row: (
        tuple(2 * c for c in row[0]), row[1], 2 * row[2]))
    for j in range(n):
        unit = [F(0)] * n
        unit[j] = F(1)
        rows.append((tuple(unit), "<=", F(3)))
        rows.append((tuple(unit), ">=", F(-3)))
    objective = tuple(draw(st.lists(coeff, min_size=n, max_size=n)))
    return n, rows, objective


@given(_boxed_lps())
@settings(max_examples=120, deadline=None)
def test_against_vertex_enumeration(data):
    n, rows, objective = data
    lp = linear_program(n, [(dict(enumerate(cs)), rel, b)
                            for cs, rel, b in rows], objective)
    sol = solve_lp(lp)
    oracle = _oracle_max(n, rows, objective)
    if oracle is None:
        assert sol.status == INFEASIBLE
    else:
        assert sol.status == OPTIMAL
        assert sol.value == oracle


# --- the integer verifier against a Fraction reference --------------------


def _reference_check_optimal(lp, sol, nonneg=frozenset()):
    """_check_optimal's conditions, in its order, on Fractions."""
    x = sol.point
    for i, c in enumerate(lp.constraints):
        terms, rhs = _rational_row(c)
        lhs = sum(a * x[j] for j, a in terms)
        ok = (lhs <= rhs if c.relation == "<="
              else lhs >= rhs if c.relation == ">=" else lhs == rhs)
        if not ok:
            raise InternalError(f"solution violates constraint {i}")
    for j in nonneg:
        if x[j] < 0:
            raise InternalError(f"negative nonneg variable {j}")
    if sum(o * v for o, v in zip(lp.objective, x)) != sol.value:
        raise InternalError("objective mismatch")
    mult = sol.dual_certificate
    maximize = lp.sense == "maximize"
    _reference_signs(lp, mult, "<=" if maximize else ">=", "dual")
    for j, (v, o) in enumerate(zip(_reference_combination(lp, mult),
                                   lp.objective)):
        gap = v - o if maximize else o - v
        if gap < 0 or (gap and j not in nonneg):
            raise InternalError(f"dual combination mismatch at var {j}")
    if sum(m_i * _rational_row(c)[1]
           for m_i, c in zip(mult, lp.constraints)) != sol.value:
        raise InternalError("strong duality mismatch")


def _reference_check_infeasible(lp, sol, nonneg=frozenset()):
    mult = sol.dual_certificate
    _reference_signs(lp, mult, "<=", "certificate")
    for j, v in enumerate(_reference_combination(lp, mult)):
        if v < 0 or (v and j not in nonneg):
            raise InternalError(f"certificate combination wrong at var {j}")
    if sum(m_i * _rational_row(c)[1]
           for m_i, c in zip(mult, lp.constraints)) != -1:
        raise InternalError("certificate not normalized")


def _reference_combination(lp, mult):
    acc = [F(0)] * lp.num_vars
    for m_i, c in zip(mult, lp.constraints):
        for j, a in _rational_row(c)[0]:
            acc[j] += m_i * a
    return acc


def _rational_row(c):
    """The constraint's terms and rhs as Fractions: its integer row over
    its scale."""
    return ([(j, F(a, c.scale)) for j, a in c.terms], F(c.rhs, c.scale))


def _reference_signs(lp, mult, pos, what):
    neg = ">=" if pos == "<=" else "<="
    for i, (m_i, c) in enumerate(zip(mult, lp.constraints)):
        if (c.relation == pos and m_i < 0) or (c.relation == neg and m_i > 0):
            raise InternalError(f"{what} sign at row {i}")


def _verdict(check, lp, sol, nonneg):
    try:
        check(lp, sol, nonneg)
    except InternalError as exc:
        return str(exc)
    return None


def _assert_same_verdicts(lp, sol, nonneg, q):
    """Both verifiers accept sol, and give the same verdict on every
    change of one entry of the point or of the multipliers by +-1/q."""
    check, reference = ((_check_optimal, _reference_check_optimal)
                        if sol.status == OPTIMAL else
                        (_check_infeasible, _reference_check_infeasible))
    assert _verdict(check, lp, sol, nonneg) is None
    assert _verdict(reference, lp, sol, nonneg) is None
    fields = ("point", "dual_certificate") if sol.point else ("dual_certificate",)
    for field in fields:
        vec = getattr(sol, field)
        for k in range(len(vec)):
            for step in (F(1, q), F(-1, q)):
                bad = dataclasses.replace(sol, **{field: tuple(
                    v + step if i == k else v for i, v in enumerate(vec))})
                assert (_verdict(check, lp, bad, nonneg)
                        == _verdict(reference, lp, bad, nonneg)), (field, k, step)


@given(_boxed_lps(), st.sampled_from(["maximize", "minimize"]),
       st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=80, deadline=None)
def test_verifier_matches_fraction_reference(data, sense, q):
    n, rows, objective = data
    lp = linear_program(n, [(dict(enumerate(cs)), rel, b)
                            for cs, rel, b in rows], objective, sense)
    sol = solve_lp(lp)
    _assert_same_verdicts(lp, sol, frozenset(), q)


@given(_equality_systems(), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=80, deadline=None)
def test_farkas_verifier_matches_fraction_reference(data, q):
    n, rows, flagged = data
    sol = farkas_feasibility(n, [(dict(enumerate(cs)), b) for cs, b in rows],
                             nonneg=flagged)
    lp = linear_program(n, [(dict(enumerate(cs)), "=", b) for cs, b in rows],
                        (0,) * n)
    _assert_same_verdicts(lp, sol, frozenset(flagged), q)
