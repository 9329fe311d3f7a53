import itertools
import json
import random
from fractions import Fraction

import pytest

from liftgap.boolfn import BoolFn, FourierCoeffs
from liftgap.csp import (brute_force_opt, cycle, graph_instance,
                         instance_polynomial, plant, random_3sat,
                         random_graph)
from liftgap.errors import HypothesisError, InputError, ParameterError
from liftgap.lp import linear_program
from liftgap.sa import (EdgeFunctional, PseudoExpectation, _all_pairs,
                        _edge_rows, _verify_objective_identity,
                        build_edge_sa_lp, build_sa_lp, check_edge_functional,
                        check_lef, edge_functional_from_json,
                        edge_functional_to_json, edge_monomials,
                        edge_sa_solve, edge_to_vertex,
                        pe_apply, pe_from_json, pe_plant, pe_to_json,
                        sa_value, sa_variable_masks, vertex_to_edge)

F = Fraction


def point_pe(n: int, d: int, x: int = 0) -> PseudoExpectation:
    """Moments of the deterministic distribution at assignment x."""
    moments = {}
    for mask in (0,) + sa_variable_masks(n, min(d, n)):
        moments[mask] = F(-1 if bin(mask & x).count("1") % 2 else 1)
    return PseudoExpectation(n, d, moments)


def uniform_pe(n: int, d: int) -> PseudoExpectation:
    moments = {0: F(1)}
    for mask in sa_variable_masks(n, min(d, n)):
        moments[mask] = F(0)
    return PseudoExpectation(n, d, moments)


def test_build_sa_lp_level_one():
    lp = build_sa_lp(1, 1, FourierCoeffs(1, {0b1: F(1)}))
    rows = [(c.coeffs, c.relation, c.rhs) for c in lp.constraints]
    assert rows == [((F(1),), ">=", F(-1)), ((F(-1),), ">=", F(-1))]


def test_build_sa_lp_guards():
    with pytest.raises(ParameterError):
        build_sa_lp(1, 2, FourierCoeffs(1, {}))
    with pytest.raises(HypothesisError):
        build_sa_lp(3, 1, FourierCoeffs(3, {0b111: F(1)}))


def test_single_edge_level_two():
    value, pe = sa_value(graph_instance(2, [(1, 2)]), 2)
    assert value == 1
    assert pe.moment(0b11) == -1


def test_triangle_level_two_is_one():
    # witness: zero singleton moments with all pairs fully anticorrelated
    # is locally consistent, so the relaxation reaches the trivial cap 1
    witness = PseudoExpectation(3, 2, {0: F(1), 0b001: F(0), 0b010: F(0),
                                       0b100: F(0), 0b011: F(-1),
                                       0b101: F(-1), 0b110: F(-1)})
    assert check_lef(witness).ok
    assert pe_apply(witness, instance_polynomial(cycle(3))) == 1
    value, pe = sa_value(cycle(3), 2)
    assert value == 1
    assert check_lef(pe).ok


def test_full_level_equals_brute_force():
    for inst in (cycle(3), cycle(4), graph_instance(4, [(1, 2), (3, 4)])):
        value, pe = sa_value(inst, inst.n)
        assert value == brute_force_opt(inst)[0]
        assert check_lef(pe).ok
        assert pe_apply(pe, instance_polynomial(inst)) == value


def test_monotone_in_level():
    for seed in (1, 2, 3):
        inst = random_graph(6, F(1, 2), seed)
        values = [sa_value(inst, d)[0] for d in (2, 3, 4)]
        assert values[0] >= values[1] >= values[2] >= brute_force_opt(inst)[0]


def test_desk_scale_3sat_level_three_equals_optimum():
    # the objective's denominators divide 8m = 480; the LP is wide, so the
    # core solves its dual, where they are the right-hand side
    inst = random_3sat(8, 60, 1)
    assert sa_value(inst, 3)[0] == brute_force_opt(inst)[0] == F(59, 60)


def test_level_above_n_is_full_level():
    tri = cycle(3)
    assert sa_value(tri, 6)[0] == sa_value(tri, 3)[0]


def test_arity_hypothesis():
    from liftgap.csp import random_3sat
    with pytest.raises(HypothesisError):
        sa_value(random_3sat(5, 4, 1), 2)


def test_pe_apply():
    pe = uniform_pe(3, 2)
    assert pe_apply(pe, BoolFn.constant(3, 1)) == 1
    # coefficient above the locality: extension by zero
    assert pe_apply(pe, BoolFn.character(3, [1, 2, 3])) == 0
    value, pe = sa_value(cycle(3), 2)
    assert pe_apply(pe, instance_polynomial(cycle(3))) == value


def test_check_lef_examples():
    assert check_lef(uniform_pe(4, 2)).ok
    assert check_lef(point_pe(4, 2)).ok
    bad = PseudoExpectation(2, 1, {0: F(1), 0b01: F(2), 0b10: F(0)})
    report = check_lef(bad)
    assert not report.ok
    # the oversized moment already breaks local nonnegativity
    assert report.failed_property == 1
    assert report.max_abs_moment == 2
    in_range = PseudoExpectation(2, 1, {0: F(1), 0b01: F(-1), 0b10: F(1)})
    assert check_lef(in_range).ok


def test_pseudo_expectation_validation():
    with pytest.raises(InputError):
        PseudoExpectation(2, 1, {0: F(2)})
    with pytest.raises(InputError):
        PseudoExpectation(2, 1, {0: F(1), 0b11: F(1)})  # above locality


def test_pe_plant():
    value, pe = sa_value(cycle(3), 2)
    assert pe_plant(pe, (1, 2, 3), 3).moments == pe.moments
    planted_pe = pe_plant(pe, (2, 4, 5), 6)
    planted = plant(cycle(3), (2, 4, 5), 6)
    assert pe_apply(planted_pe, instance_polynomial(planted)) == value
    assert pe_apply(planted_pe, FourierCoeffs(6, {0b1: F(1)})) == 0
    assert check_lef(planted_pe).ok


def test_edge_lp_triangle_level_zero():
    # perimeter facet caps the mean at 2/3; the cut point (1,1,0) attains it
    assert edge_sa_solve(cycle(3), 0)[0] == F(2, 3)


def test_edge_lp_single_edge():
    assert edge_sa_solve(graph_instance(3, [(1, 2)]), 0)[0] == 1


def test_edge_lp_c5_level_one():
    value = edge_sa_solve(cycle(5), 1)[0]
    assert value >= F(4, 5)


def test_edge_lp_rejects_non_maxcut():
    from liftgap.csp import random_3sat
    with pytest.raises(InputError):
        build_edge_sa_lp(5, 1, random_3sat(5, 4, 1))


def edge_functional_from_cut(n: int, r: int, x: int) -> EdgeFunctional:
    moments = {(): F(1)}
    for mono in edge_monomials(n, r):
        value = F(1)
        for i, j in mono:
            cut = ((x >> (i - 1)) ^ (x >> (j - 1))) & 1
            value *= cut
        moments[mono] = value
    return EdgeFunctional(n, r, moments)


def test_vertex_to_edge_point_distribution():
    x = 0b010  # +-+ on 3 variables
    pe = point_pe(3, 6, x)
    ef = vertex_to_edge(pe)
    assert ef.r == 1
    expected = edge_functional_from_cut(3, 1, x)
    assert ef.moments == expected.moments


def test_vertex_to_edge_uniform():
    pe = uniform_pe(6, 6)
    ef = vertex_to_edge(pe)
    for i, j in itertools.combinations(range(1, 7), 2):
        assert ef.moment(((i, j),)) == F(1, 2)


def test_vertex_to_edge_parameter_errors():
    with pytest.raises(ParameterError):
        vertex_to_edge(uniform_pe(4, 4))  # even but too small
    with pytest.raises(ParameterError):
        vertex_to_edge(uniform_pe(8, 7))  # odd


def test_vertex_to_edge_preserves_objective():
    for inst in (cycle(3), cycle(5)):
        value, pe = sa_value(inst, 6)
        ef = vertex_to_edge(pe)  # checks the translated functional
        m = len(inst.constraints)
        obj = sum(ef.moment(((min(c.vars), max(c.vars)),))
                  for c in inst.constraints) / m
        assert obj == value


def test_edge_to_vertex_deterministic_cut():
    x = 0b01100  # bipartition on 5 vertices
    ef = edge_functional_from_cut(5, 2, x)
    pe = edge_to_vertex(ef)
    # anchored at vertex 1: the recovered point is x or its global flip
    signs = [pe.moment(1 << (i - 1)) for i in range(1, 6)]
    assert all(s in (F(1), F(-1)) for s in signs)
    flip = -1 if x & 1 else 1
    assert signs == [flip * (-1 if x >> (i - 1) & 1 else 1) for i in range(1, 6)]
    assert check_lef(pe).ok


def test_edge_to_vertex_roundtrip_point():
    x = 0b0110
    # locality 6 needs n >= ... use n = 6 and a 6-variable point
    pe_in = point_pe(6, 6, x)
    ef = vertex_to_edge(pe_in)
    pe_out = edge_to_vertex(ef)
    # bipartition recovered up to global sign (anchor is vertex 1)
    got = [pe_out.moment(1 << i) for i in range(6)]
    want = [F(-1 if x >> i & 1 else 1) for i in range(6)]
    assert got == want or got == [-w for w in want]


def test_universal_value_matches_sa():
    from liftgap.slack import lp_value, universal
    for inst in (cycle(3), cycle(4), graph_instance(4, [(1, 2), (2, 3)])):
        for d in (2, 3):
            rel = universal(inst.n, d)
            assert lp_value(rel, inst) == sa_value(inst, d)[0]


def test_pe_json_roundtrip():
    value, pe = sa_value(cycle(3), 2)
    text = pe_to_json(pe)
    back = pe_from_json(text)
    assert back == pe
    assert json.loads(text)["moments"]["0"] == "1"
    with pytest.raises(InputError):
        pe_from_json('{"n": 1, "d": 1, "moments": {"1": "0"}}')


def test_edge_functional_json_roundtrip():
    ef = edge_functional_from_cut(4, 1, 0b0101)
    text = edge_functional_to_json(ef)
    back = edge_functional_from_json(text)
    assert back == ef
    keys = json.loads(text)["moments"]
    assert "" in keys and "1-2" in keys


def test_check_edge_functional_flags_violation():
    ef = edge_functional_from_cut(3, 0, 0b001)
    bad = EdgeFunctional(3, 0, {**ef.moments, ((1, 2),): F(2)})
    report = check_edge_functional(bad)
    assert not report.ok and report.min_value < 0


# --- oracle: the edge rows expanded over tuple monomials -------------------
# Monomials are sorted tuples of pairs and polynomials {monomial: Fraction};
# a product multiplies monomials by the union of their pairs.


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(sorted(set(m1) | set(m2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _oracle_facets(n):
    one = F(1)
    facets = []
    for e in _all_pairs(n):
        facets.append((f"y{e}>=0", {(e,): one}))
        facets.append((f"y{e}<=1", {(): one, (e,): -one}))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        eij, eik, ejk = (i, j), (i, k), (j, k)
        for long_e, a, b in ((eij, eik, ejk), (eik, eij, ejk), (ejk, eij, eik)):
            facets.append((f"tri{long_e}<={a}+{b}",
                           {(a,): one, (b,): one, (long_e,): -one}))
        facets.append((f"perim{(i, j, k)}",
                       {(): F(2), (eij,): -one, (eik,): -one, (ejk,): -one}))
    return facets


def _oracle_indicator(t_vars, pattern):
    poly = {(): F(1)}
    for j, e in enumerate(t_vars):
        factor = {(e,): F(1)} if pattern >> j & 1 else {(): F(1), (e,): F(-1)}
        poly = _poly_mul(poly, factor)
    return poly


def _oracle_rows(n, r):
    """(label, poly) for every indicator r-junta times metric facet."""
    facets = _oracle_facets(n)
    for size in range(r + 1):
        for t_vars in itertools.combinations(_all_pairs(n), size):
            for pattern in range(1 << size):
                ind = _oracle_indicator(t_vars, pattern)
                for name, ell in facets:
                    yield f"I{t_vars}:{pattern}*{name}", _poly_mul(ind, ell)


def _oracle_edge_lp(n, r, inst):
    index = {m: i for i, m in enumerate(edge_monomials(n, r))}
    rows = []
    seen = set()
    for _, poly in _oracle_rows(n, r):
        const = poly.get((), F(0))
        body = [(index[m], c) for m, c in poly.items() if m]
        key = (tuple(sorted(body)), const)
        if body and key not in seen:
            seen.add(key)
            rows.append((dict(body), ">=", -const))
    obj = [F(0)] * len(index)
    for c in inst.constraints:
        obj[index[((min(c.vars), max(c.vars)),)]] = F(1, len(inst.constraints))
    return linear_program(len(index), rows, obj, "maximize")


def _oracle_check(ef):
    """(ok, detail, min_value) of the rows evaluated in the oracle's order,
    each monomial read through ef.moment as the row reaches it."""
    min_val = None
    first = ""
    for label, poly in _oracle_rows(ef.n, ef.r):
        val = F(0)
        for mono, c in poly.items():
            val += c * ef.moment(mono)
        if min_val is None or val < min_val:
            min_val = val
        if val < 0 and not first:
            first = f"{label} evaluates to {val}"
    return not first, first, min_val


def _oracle_identity(ef):
    for i, j in itertools.combinations(range(2, ef.n + 1), 2):
        e1i, e1j, eij = (1, i), (1, j), (i, j)
        total = (ef.moment((e1i,)) + ef.moment((e1j,))
                 - 2 * ef.moment((e1i, e1j)) - ef.moment((eij,)))
        if total != 0:
            raise HypothesisError(
                f"objective identity fails at pair {(i, j)}: "
                f"discrepancy {total}; the input functional is not at "
                "level >= 2")
        for pattern in range(8):
            value = sum(c * ef.moment(mono) for mono, c in
                        _oracle_indicator((e1i, e1j, eij), pattern).items())
            a, b, c = pattern & 1, pattern >> 1 & 1, pattern >> 2 & 1
            if ((a - b) ** 2 - c) * value != 0:
                raise HypothesisError(
                    f"triple identity fails at (1, {i}, {j}), pattern "
                    f"{pattern}: indicator mass {value}")


def _outcome(call, *args):
    try:
        return call(*args)
    except (InputError, HypothesisError) as exc:
        return type(exc).__name__, str(exc)


def _perturbed(ef, rng, count):
    """ef with `count` moments moved to random k/q and one of `count`
    other monomials (sometimes) deleted."""
    monos = edge_monomials(ef.n, ef.r)
    moments = dict(ef.moments)
    for mono in rng.sample(monos, count):
        moments[mono] = F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7)))
    if rng.random() < 0.3:
        for mono in rng.sample(monos, count):
            del moments[mono]
    return EdgeFunctional(ef.n, ef.r, moments)


@pytest.mark.parametrize("n, r", [(n, r) for n in (3, 4, 5) for r in (0, 1, 2)])
def test_edge_rows_match_tuple_expansion(n, r):
    """The bitmask rows are the oracle's, label by label and in order, and
    the LP built from them is the one the oracle's rows give."""
    pairs = _all_pairs(n)
    rows = [(f"I{t_vars}:{pattern}*{name}",
             {tuple(e for p, e in enumerate(pairs) if m >> p & 1): c
              for m, c in poly.items()})
            for t_vars, pattern, name, poly in _edge_rows(n, r)]
    assert rows == list(_oracle_rows(n, r))
    for inst in (cycle(n), graph_instance(n, [(1, 2), (2, 3)])):
        assert build_edge_sa_lp(n, r, inst) == _oracle_edge_lp(n, r, inst)


@pytest.mark.parametrize("n, r", [(3, 0), (3, 2), (4, 1), (4, 2), (5, 1)])
def test_check_edge_functional_matches_tuple_expansion(n, r):
    """Reports (ok, label of the first violated row, minimum) and the
    missing-moment error agree with the oracle on perturbed cut
    functionals."""
    rng = random.Random(f"edge check {n} {r}")
    base = edge_functional_from_cut(n, r, 0b01101 % (1 << n))
    assert _outcome(check_edge_functional, base).ok
    for _ in range(6):
        ef = _perturbed(base, rng, rng.choice((1, 2)))
        got = _outcome(check_edge_functional, ef)
        if not isinstance(got, tuple):
            got = (got.ok, got.detail, got.min_value)
        assert got == _outcome(_oracle_check, ef)


@pytest.mark.parametrize("n", [4, 5])
def test_objective_identity_matches_tuple_expansion(n):
    """The same first failure, and the same message, as the oracle; the
    draws reach the aggregate check, the triple check and missing moments."""
    rng = random.Random(f"identity {n}")
    base = edge_functional_from_cut(n, 2, 0b10110 % (1 << n))
    assert _verify_objective_identity(base, None) is None
    seen = set()
    for _ in range(16):
        ef = _perturbed(base, rng, 1)
        got = _outcome(_verify_objective_identity, ef, None)
        assert got == _outcome(_oracle_identity, ef)
        seen.add(got and got[1].split()[0])
    assert seen == {None, "objective", "triple", "moment"}
