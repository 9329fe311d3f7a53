"""Each output check of the benchmark passes on a true output of the
program and fails on a deliberately corrupted one.  Small instances keep
these tests quick."""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from liftgap import csp, sa, slack

import checks
import run
import spans
from checks import CheckFailed

C3 = [(1, 2), (2, 3), (1, 3)]
P3 = [(1, 2), (2, 3)]


def _nudge(values, delta=Fraction(1, 1000)):
    """Add delta to the first nonzero entry."""
    i = next(k for k, v in enumerate(values) if v)
    return values[:i] + [values[i] + delta] + values[i + 1:]


def test_sa_value_check():
    value, pe = sa.sa_value(csp.graph_instance(3, C3), 2)
    checks.check_sa_value("graph", 3, C3, 2, value, pe.moments)
    with pytest.raises(CheckFailed):  # value off by 1/1000
        checks.check_sa_value("graph", 3, C3, 2, value - Fraction(1, 1000), pe.moments)
    broken = dict(pe.moments)
    broken[0b011] = Fraction(-2)      # an indicator of {x1, x2} goes negative
    with pytest.raises(CheckFailed):
        checks.check_sa_value("graph", 3, C3, 2, value, broken)


def test_full_level_and_sat_value_check():
    clauses = [((1, 2, 3), 0), ((1, 2, 3), 7), ((1, 2, 3), 1)]
    inst = csp.Instance(3, csp.THREE_SAT_PREDICATES,
                        tuple(csp.Constraint(p, vs) for vs, p in clauses))
    value, pe = sa.sa_value(inst, 3)
    assert value == checks.optimum("3sat", 3, clauses) == 1
    checks.check_sa_value("3sat", 3, clauses, 3, value, pe.moments)
    with pytest.raises(CheckFailed):  # the full-level value is the optimum
        checks.check_sa_value("3sat", 3, clauses, 3, value - Fraction(1, 1000),
                              pe.moments)


def test_monotone_check():
    checks.check_monotone(Fraction(5, 6), Fraction(5, 6))
    with pytest.raises(CheckFailed):
        checks.check_monotone(Fraction(5, 6), Fraction(5, 6) + Fraction(1, 1000))


def test_edge_sa_check():
    inst = csp.graph_instance(3, C3)
    value, ef = sa.edge_sa_solve(inst, 1)
    lp = sa.build_edge_sa_lp(3, 1, inst)
    edge_moments = {e: ef.moments[(e,)] for e in C3}
    checks.check_edge_sa(3, C3, value, edge_moments, lp)
    off = {e: v + Fraction(1, 1000) for e, v in edge_moments.items()}
    with pytest.raises(CheckFailed):  # value off by 1/1000
        checks.check_edge_sa(3, C3, value + Fraction(1, 1000), off, lp)


@pytest.mark.parametrize("spec, rel", [("metric", slack.metric_maxcut(4)),
                                       ("universal:2", slack.universal(4, 2))])
def test_own_slacks_match_the_program(spec, rel):
    own = checks.relaxation_slacks(spec, 4)
    assert own == [list(q.values) for q in slack.slack_functions(rel)]


def test_metric_value_check():
    value = slack.lp_value(slack.metric_maxcut(3), csp.graph_instance(3, C3))
    checks.require_close(value, checks.highs_metric_value(3, C3), "metric")
    with pytest.raises(CheckFailed):
        checks.require_close(value + Fraction(1, 1000),
                             checks.highs_metric_value(3, C3), "metric")


def test_decomposition_check():
    inst = csp.graph_instance(3, C3)
    c = Fraction(2, 3)
    dec = slack.farkas_decompose(c, inst, slack.metric_maxcut(3))
    assert dec.feasible
    own = checks.metric_slacks(3)
    payload = {"feasible": True, "verified": True, "lam0": str(dec.lam0),
               "lam": [str(v) for v in dec.lam]}
    checks.check_farkas_output(3, C3, c, payload, own, c)
    perturbed = dict(payload, lam=[str(v) for v in _nudge(list(dec.lam))])
    with pytest.raises(CheckFailed):  # a perturbed lambda
        checks.check_farkas_output(3, C3, c, perturbed, own, c)
    with pytest.raises(CheckFailed):  # feasible although c is below the value
        checks.check_farkas_output(3, C3, c - Fraction(1, 1000), payload, own, c)


def test_certificate_check():
    inst = csp.graph_instance(3, C3)
    c = Fraction(2, 3) - Fraction(1, 1000)
    dec = slack.farkas_decompose(c, inst, slack.metric_maxcut(3))
    assert not dec.feasible
    own = checks.metric_slacks(3)
    y = list(dec.certificate)
    payload = {"feasible": False, "certificate": [str(v) for v in y]}
    checks.check_farkas_output(3, C3, c, payload, own, Fraction(2, 3))
    i = next(k for k, v in enumerate(y) if v)
    flipped = y[:i] + [-y[i]] + y[i + 1:]
    with pytest.raises(CheckFailed):  # a certificate with a flipped sign
        checks.check_farkas_certificate(3, C3, c, flipped, own)


def test_symmetric_check():
    level = checks.highs_sa_value(3, 2, checks.instance_poly("graph", P3))
    report = {"saBase": "1", "cMinusSa": "-1/100", "closureOk": True,
              "consistent": True, "decompositionFeasible": False}
    checks.check_symmetric_output(Fraction(99, 100), report, level)
    with pytest.raises(CheckFailed):  # feasible below the level-2 value
        checks.check_symmetric_output(Fraction(99, 100),
                                      dict(report, decompositionFeasible=True), level)
    with pytest.raises(CheckFailed):  # saBase off by 1/1000
        checks.check_symmetric_output(Fraction(99, 100),
                                      dict(report, saBase="1001/1000"), level)


def _main_report(**changes):
    # n = 12, m = 3, d = 2: t = 8 and gamma^4 = (16*3*8*2)^2 / 12 = 49152
    report = SimpleNamespace(holds=True, lhs=Fraction(0), lp_planted=Fraction(1),
                             sa_base=Fraction(1), S=(1, 4, 5), t=8,
                             gamma_fourth=Fraction(49152), gamma_upper=Fraction(15))
    return SimpleNamespace(**{**vars(report), **changes})


def test_main_report_check():
    records = [SimpleNamespace(density_id=0, junta=frozenset({1, 4})),
               SimpleNamespace(density_id=1, junta=frozenset())]
    checks.check_main_report(_main_report(), records, 12, 3, 2, 1.0)
    outside = records + [SimpleNamespace(density_id=2, junta=frozenset({2}))]
    with pytest.raises(CheckFailed):  # a junta outside S
        checks.check_main_report(_main_report(), outside, 12, 3, 2, 1.0)
    for broken in (_main_report(lhs=Fraction(1, 1000)),
                   _main_report(lp_planted=Fraction(1001, 1000)),
                   _main_report(gamma_upper=Fraction(14)),
                   _main_report(S=(1, 4, 13))):
        with pytest.raises(CheckFailed):
            checks.check_main_report(broken, records, 12, 3, 2, 1.0)


def test_tracer_spans_and_restore():
    original = sa.build_sa_lp
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sa.build_sa_lp is not original
        with tracer.job("tiny"):
            sa.sa_value(csp.graph_instance(3, C3), 2)
    finally:
        tracer.uninstall()
    assert sa.build_sa_lp is original
    names = [s[3] for s in tracer.spans]
    assert {"sa.sa_value", "sa.build_sa_lp", "lp.solve_lp", "job:tiny"} <= set(names)
    assert all(s[2] == tracer.spans[-1][0] for s in tracer.spans)  # one job id
    metrics = tracer.metrics(1.0)
    assert metrics["lp.pivots"] > 0
    assert set(metrics) == set(spans.per_layer_metric_units())
    total = sum(metrics[f"module.{m}.self_s"] for m in spans.MODULES)
    assert 0 < total <= tracer.spans[-1][5] - tracer.spans[-1][4]


def _raise(exc):
    raise exc


def test_a_job_that_raises_or_fails_its_check_makes_the_run_incorrect():
    ok = SimpleNamespace(name="ok", run=lambda: 1, check=lambda out: None)
    raises = SimpleNamespace(name="raises", run=lambda: _raise(ValueError("boom")),
                             check=lambda out: None)
    wrong = SimpleNamespace(name="wrong", run=lambda: 2,
                            check=lambda out: _raise(CheckFailed("off by 1/1000")))
    for jobs in ([ok, raises], [ok, wrong]):
        rounds, durations, errors, _ = run._timed_loop(jobs, 0, None)
        result = run._result(jobs, rounds, errors, run._check(jobs, rounds), {}, {})
        assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    rounds, _, errors, _ = run._timed_loop([ok], 0, None)
    assert run._result([ok], rounds, errors, run._check([ok], rounds), {}, {})["correct"]


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_metric_units()
