"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.  Run with -s to see the
lines as they complete:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from liftgap.boolfn import (BoolFn, Density, FourierCoeffs, chang_junta,
                            entropy_deficit, fourier_transform,
                            inverse_transform, junta_support, mask_of)
from liftgap.csp import (brute_force_opt, cycle, evaluate, graph_instance,
                         instance_polynomial, plant, random_3sat, random_graph)
from liftgap.restriction import (antidiagonal_restriction,
                                 detect_symmetric_structure, epsilon_formula,
                                 main_inequality_experiment,
                                 symmetric_contradiction_check)
from liftgap.sa import (check_edge_functional, check_lef, edge_sa_solve,
                        edge_to_vertex, pe_apply, sa_value, vertex_to_edge)
from liftgap.slack import (build_slack_matrix, factorization_product,
                           farkas_decompose, lp_value, metric_maxcut,
                           protocol_factorization, protocol_matrix,
                           protocol_tail_probabilities, slack_functions,
                           universal, verify_decomposition)

F = Fraction


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{verdict}  {self.name}: {elapsed:.1f}s (budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded budget: {elapsed:.1f}s")
        return False


def _all_4vertex_maxcut():
    pairs = list(itertools.combinations(range(1, 5), 2))
    for pick in range(1, 64):
        edges = [e for i, e in enumerate(pairs) if pick >> i & 1]
        yield graph_instance(4, edges, name=f"g{pick}")


def test_criterion_1_sa_exactness():
    with _Budget("1. full-level exactness", 120):
        for inst in _all_4vertex_maxcut():
            value, _ = sa_value(inst, 4)
            assert value == brute_force_opt(inst)[0], inst.name
        for seed in range(1, 21):
            inst = random_3sat(4, 8, seed)
            value, _ = sa_value(inst, 4)
            assert value == brute_force_opt(inst)[0], inst.name


def test_criterion_2_sa_monotone_and_sound():
    with _Budget("2. level monotonicity", 60):
        for seed in range(1, 11):
            inst = random_graph(6, F(1, 2), seed)
            v2, _ = sa_value(inst, 2)
            v3, _ = sa_value(inst, 3)
            v4, _ = sa_value(inst, 4)
            opt = brute_force_opt(inst)[0]
            assert v2 >= v3 >= v4 >= opt, inst.name


def test_criterion_3_triangle_chain():
    with _Budget("3. triangle chain", 5):
        tri = cycle(3)
        assert brute_force_opt(tri)[0] == F(2, 3)
        rel = metric_maxcut(3)
        assert lp_value(rel, tri) == F(2, 3)
        result = farkas_decompose(F(2, 3), tri, rel)
        assert result.feasible
        assert verify_decomposition(F(2, 3), tri, result.lam0, result.lam,
                                    slack_functions(rel))
        below = farkas_decompose(F(2, 3) - F(1, 100), tri, rel)
        assert not below.feasible
        assert below.certificate is not None


def test_criterion_4_five_cycle():
    with _Budget("4. five-cycle", 10):
        c5 = cycle(5)
        assert brute_force_opt(c5)[0] == F(4, 5)
        assert lp_value(metric_maxcut(5), c5) == F(4, 5)
        v2, _ = sa_value(c5, 2)
        assert F(4, 5) <= v2 <= 1


def test_criterion_5_decomposition_iff_value():
    with _Budget("5. decomposition iff value", 30):
        rel = metric_maxcut(4)
        instances = [
            plant(cycle(3), (1, 2, 3), 4),
            graph_instance(4, [(1, 2), (2, 3), (3, 4)], name="P4"),
            cycle(4),
            graph_instance(4, [(i, j) for i in range(1, 5)
                               for j in range(i + 1, 5)], name="K4"),
            graph_instance(4, [(1, 2), (1, 3), (1, 4)], name="star"),
        ]
        eps = F(1, 1000)
        for inst in instances:
            value = lp_value(rel, inst)
            assert farkas_decompose(value + eps, inst, rel).feasible
            assert farkas_decompose(value, inst, rel).feasible
            assert not farkas_decompose(value - eps, inst, rel).feasible


def test_criterion_6_translations():
    with _Budget("6. edge/vertex translations", 120):
        for inst in (cycle(3), cycle(5)):
            value, pe = sa_value(inst, 6)
            ef = vertex_to_edge(pe)            # verifies feasibility
            assert check_edge_functional(ef).ok
            m = len(inst.constraints)
            obj = sum(ef.moment(((min(c.vars), max(c.vars)),))
                      for c in inst.constraints) / m
            assert obj == value

            edge_value, ef2 = edge_sa_solve(inst, 2)
            pe2 = edge_to_vertex(ef2)          # verifies the identity
            assert pe2.d == 2
            assert check_lef(pe2).ok
            assert pe_apply(pe2, instance_polynomial(inst)) == edge_value

        five = [cycle(3), cycle(4), cycle(6),
                graph_instance(5, [(1, 2), (2, 3), (3, 4)], name="P5"),
                random_graph(6, F(1, 2), 3)]
        for inst in five:
            for d in (1, 2):
                if inst.max_arity() > d:
                    continue
                assert lp_value(universal(inst.n, d), inst) == sa_value(inst, d)[0]


def test_criterion_7_fourier_suite():
    with _Budget("7. Fourier suite", 60):
        rng = random.Random(2024)
        for trial in range(50):
            n = rng.randint(1, 10)
            values = [F(rng.randint(-24, 24), rng.randint(1, 12))
                      for _ in range(1 << n)]
            f = BoolFn(n, values)
            coeffs = fourier_transform(f)
            assert inverse_transform(coeffs) == f
            energy = sum(v * v for v in f.values) / (1 << n)
            assert sum(c * c for c in coeffs.coeffs.values()) == energy

        dictator = Density(BoolFn(3, [F(0) if i & 1 else F(2)
                                      for i in range(8)]))
        cert = chang_junta(dictator, 1, 1, F(1, 2))
        assert cert.success and cert.junta == {1}

        majority = Density(BoolFn(3, [F(2) if bin(i).count("1") <= 1 else F(0)
                                      for i in range(8)]))
        assert entropy_deficit(majority) == pytest.approx(1, abs=1e-12)
        cert = chang_junta(majority, 1, 1, F(1, 4))
        assert cert.success and cert.junta == {1, 2, 3}

        for seed in range(10):
            local = random.Random(seed)
            n, d, gamma, t = 8, 2, F(1, 4), F(1)
            coeffs = {0: F(1)}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    c = local.randint(-2, 2)
                    if c:
                        coeffs[mask_of([i, j], n)] = F(c, 40)
            q = Density(inverse_transform(FourierCoeffs(n, coeffs)))
            cert = chang_junta(q, t, d, gamma)
            assert cert.success
            # junta cardinality within 2td/gamma^2
            assert len(cert.junta) * gamma ** 2 <= 2 * t * d
            j_mask = mask_of(cert.junta, n) if cert.junta else 0
            for alpha, v in fourier_transform(q.fn).coeffs.items():
                if alpha.bit_count() <= d and alpha & ~j_mask:
                    assert abs(v) <= gamma


def test_criterion_8_restriction_pipeline():
    with _Budget("8. restriction pipeline", 600):
        report = main_inequality_experiment(metric_maxcut(12), cycle(3), 2,
                                            seed=1)
        assert report.holds and report.lhs >= report.rhs
        assert epsilon_formula(12, 3, 2) > epsilon_formula(16, 3, 2)


def test_criterion_9_protocol_matrix():
    with _Budget("9. protocol matrix", 120):
        rows = [g for g in _all_4vertex_maxcut()
                if brute_force_opt(g)[0] <= F(3, 4)]
        assert rows
        sm = build_slack_matrix(rows, list(range(16)), F(7, 8), F(3, 4))
        prev = None
        for T in range(1, 6):
            mp = protocol_matrix(sm, T)
            tails = protocol_tail_probabilities(sm, T)
            for i in range(len(rows)):
                for j, x in enumerate(sm.cols):
                    excess = mp[i][j] - sm.entries[i][j]
                    assert 0 <= excess <= tails[i][j]
                    if prev is not None:
                        # G(x) <= s for every entry; the tail decays
                        # strictly wherever it is not identically zero
                        # (zero-cut assignments have zero tails at all T)
                        if evaluate(rows[i], x) > 0:
                            assert tails[i][j] < prev[i][j]
                        else:
                            assert tails[i][j] == 0 == prev[i][j]
            prev = tails
        for T in (1, 2, 3):
            pf = protocol_factorization(sm, T)
            assert factorization_product(pf) == protocol_matrix(sm, T)
            for urow in pf.U:
                assert sum(urow) == 1


def test_criterion_10_symmetric_pipeline():
    with _Budget("10. symmetric pipeline", 120):
        n = 8
        for seed in range(1, 21):
            rng = random.Random(seed)
            j = rng.randrange(0, n + 1)  # 0 encodes the empty junta
            j_mask = 1 << (j - 1) if j else 0
            table = {}
            values = []
            for x in range(1 << n):
                key = (x & j_mask, n - 2 * bin(x).count("1"))
                if key not in table:
                    table[key] = F(rng.randrange(-8, 9))
                values.append(table[key])
            f = BoolFn(n, values)
            st = detect_symmetric_structure(f, 1)
            assert st.found
            assert st.junta <= ({j} if j else frozenset())
            # planted structure reproduced exactly
            got_mask = mask_of(st.junta, n) if st.junta else 0
            for x in range(1 << n):
                assert st.table[(x & got_mask, n - 2 * bin(x).count("1"))] \
                    == f.values[x]
            h = antidiagonal_restriction(f)
            assert len(junta_support(h)) <= (1 if j else 0)

        tri = cycle(3)
        c = sa_value(tri, 2)[0] - F(1, 100)
        report = symmetric_contradiction_check(tri, universal(6, 2), c, 2)
        assert not report.decomposition_feasible
        assert report.consistent
