from fractions import Fraction

import pytest

from liftgap.boolfn import inverse_transform
from liftgap.errors import InputError, ParseError, SizeCapError
from liftgap.csp import (CUT_PREDICATE, Constraint, Instance, Predicate,
                         assignment_to_signs, brute_force_opt,
                         complete, cycle, dummy_extend, evaluate, graph_instance,
                         instance_polynomial, parse_dimacs_cnf, parse_edge_list,
                         plant, random_3sat, random_graph, write_dimacs,
                         write_edge_list)

F = Fraction


def test_evaluate_examples():
    tri = cycle(3)
    assert evaluate(tri, 0) == 0                       # +++ cuts nothing
    assert evaluate(tri, 0b100) == F(2, 3)             # ++- cuts two edges
    edge = graph_instance(2, [(1, 2)])
    assert evaluate(edge, 0b10) == 1                   # +-


def test_evaluate_rejects_bad_assignment():
    with pytest.raises(InputError):
        evaluate(cycle(3), 8)


def test_brute_force_examples():
    assert brute_force_opt(graph_instance(2, [(1, 2)]))[0] == 1
    # independent oracle: inline enumeration for the triangle and C5
    tri = cycle(3)
    oracle = max(evaluate(tri, x) for x in range(8))
    value, witness = brute_force_opt(tri)
    assert value == oracle == F(2, 3)
    assert evaluate(tri, witness) == value
    # smallest-index tie break
    assert witness == min(x for x in range(8) if evaluate(tri, x) == value)

    c5 = cycle(5)
    assert brute_force_opt(c5)[0] == max(evaluate(c5, x) for x in range(32)) == F(4, 5)


def test_instance_polynomial_examples():
    edge = graph_instance(2, [(1, 2)])
    poly = instance_polynomial(edge)
    assert poly.coeffs == {0: F(1, 2), 0b11: F(-1, 2)}

    true_pred = Predicate(1, (True, True))
    tautology = Instance(1, (true_pred,), (Constraint(0, (1,)),))
    assert instance_polynomial(tautology).coeffs == {0: F(1)}

    tri_poly = instance_polynomial(cycle(3))
    assert tri_poly.get(0b011) == tri_poly.get(0b101) == tri_poly.get(0b110) == F(-1, 6)


@pytest.mark.parametrize("inst", [
    cycle(3), cycle(5), complete(4), random_3sat(5, 12, 3),
    plant(cycle(3), (2, 9, 11), 12),
])
def test_pairing_identity_exhaustive(inst):
    poly = instance_polynomial(inst)
    k = max(p.arity for p in inst.predicates)
    assert poly.degree() <= k
    values = inverse_transform(poly).values
    for x in range(1 << inst.n):
        assert values[x] == evaluate(inst, x)


def test_plant_examples():
    tri = cycle(3)
    assert plant(tri, (1, 2, 3), 3).constraints == tri.constraints
    edge = graph_instance(2, [(1, 2)])
    planted = plant(edge, (3, 7), 8)
    assert planted.constraints[0].vars == (3, 7)
    p645 = plant(tri, (2, 4, 5), 6)
    assert brute_force_opt(p645)[0] == F(2, 3)
    # value map transported exactly
    for x in range(1 << 6):
        restricted = 0
        for j, pos in enumerate((2, 4, 5)):
            if x >> (pos - 1) & 1:
                restricted |= 1 << j
        assert evaluate(p645, x) == evaluate(tri, restricted)


def test_plant_validation():
    with pytest.raises(InputError):
        plant(cycle(3), (1, 2), 6)
    with pytest.raises(InputError):
        plant(cycle(3), (1, 2, 2), 6)


def test_dummy_extend():
    edge = graph_instance(2, [(1, 2)])
    ext = dummy_extend(edge)
    assert ext.n == 4 and brute_force_opt(ext)[0] == 1
    tri_ext = dummy_extend(cycle(3))
    assert tri_ext.n == 6
    assert brute_force_opt(tri_ext)[0] == F(2, 3)
    for x in range(1 << 6):
        assert evaluate(tri_ext, x) == evaluate(cycle(3), x & 0b111)


def test_generators():
    assert cycle(3).constraints == graph_instance(
        3, [(1, 2), (2, 3), (1, 3)]).constraints
    assert len(complete(4).constraints) == 6
    g1 = random_graph(6, F(1, 2), seed=1)
    g2 = random_graph(6, F(1, 2), seed=1)
    assert g1 == g2
    assert random_graph(6, F(1, 2), seed=2) != g1
    s1 = random_3sat(6, 14, seed=9)
    assert s1 == random_3sat(6, 14, seed=9)
    for c in s1.constraints:
        assert len(set(c.vars)) == 3 and c.vars == tuple(sorted(c.vars))


def test_cut_symmetry():
    for inst in (cycle(5), complete(4), random_graph(6, F(1, 2), 4)):
        full = (1 << inst.n) - 1
        for x in range(1 << inst.n):
            assert evaluate(inst, x) == evaluate(inst, full ^ x)


def test_parse_edge_list():
    inst = parse_edge_list("3 3\n1 2\n2 3\n1 3")
    assert inst.constraints == cycle(3).constraints
    assert parse_edge_list("\n2 1\n\n1 2\n") .n == 2


@pytest.mark.parametrize("text,line", [
    ("junk", 1),
    ("2 1\n1 1", 2),          # self-loop
    ("2 2\n1 2\n2 1", 3),     # duplicate
    ("3 3\n1 2\n2 3\n3 2", 4),            # duplicate, reversed, not adjacent
    ("3 3\n1 2\n\n2 3\n\n1 2\n", 6),     # duplicate after blank lines
    ("2 1\n1 3", 2),          # out of range
    ("2 2\n1 2", 2),          # missing edge
])
def test_parse_edge_list_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_parse_long_edge_list():
    import random
    rng = random.Random(3)
    pairs = [(u, v) for u in range(1, 101) for v in range(u + 1, 101)]
    edges = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in rng.sample(pairs, 4000)]
    text = "100 4000\n" + "".join(f"{u} {v}\n" for u, v in edges)
    inst = parse_edge_list(text)
    assert inst == graph_instance(100, edges)
    assert len(inst.constraints) == 4000
    with pytest.raises(ParseError) as err:
        parse_edge_list("100 4001\n" + "".join(f"{u} {v}\n" for u, v in edges)
                        + f"{edges[0][1]} {edges[0][0]}\n")
    assert err.value.line == 4002


def test_edge_list_roundtrip():
    inst = random_graph(7, F(1, 3), 11)
    assert parse_edge_list(write_edge_list(inst)).constraints == inst.constraints


def test_dimacs_roundtrip():
    inst = random_3sat(6, 20, 2)
    text = write_dimacs(inst)
    back = parse_dimacs_cnf(text)
    assert back.n == inst.n and back.constraints == inst.constraints
    for x in range(1 << 6):
        assert evaluate(back, x) == evaluate(inst, x)


def test_dimacs_semantics():
    # clause (x1 or not x2 or x3) fails only at x1=F, x2=T, x3=F;
    # +1 encodes true, table index bit means -1
    inst = parse_dimacs_cnf("p cnf 3 1\n1 -2 3 0\n")
    assert evaluate(inst, 0b101) == 0
    sat_count = sum(evaluate(inst, x) == 1 for x in range(8))
    assert sat_count == 7


@pytest.mark.parametrize("text", [
    "p cnf 2 1\n1 -2 0\n",          # clause of 2 literals
    "p cnf 3 1\n1 1 2 0\n",         # repeated variable (InputError)
    "p cnf 3 1\n1 2 4 0\n",         # literal out of range
    "p cnf 3 2\n1 2 3 0\n",         # wrong clause count
    "1 2 3 0\n",                    # clause before header
    "p cnf 3 1\n1 2 3\n",           # unterminated
])
def test_dimacs_errors(text):
    with pytest.raises(InputError):
        parse_dimacs_cnf(text)


def test_signs_conversion():
    assert assignment_to_signs(0b010, 3) == "+-+"


def test_predicate_validation():
    with pytest.raises(InputError):
        Predicate(5, (False,) * 32)
    with pytest.raises(InputError):
        Instance(2, (CUT_PREDICATE,), (Constraint(0, (1, 1)),))
    with pytest.raises(InputError):
        Instance(2, (CUT_PREDICATE,), ())


def test_brute_force_cap():
    with pytest.raises(SizeCapError):
        brute_force_opt(graph_instance(25, [(1, 2)]))
