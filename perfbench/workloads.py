"""The three workloads: fixed job lists generated from the workload seed.

A job is a short, fixed sequence of calls into liftgap, timed whole; it
is the unit a user would ask for (the relaxation values of one draw of
instances, the certificates of one graph, one symmetric check, one
pipeline run).  Each call keeps its raw output, and its check (see
checks.py) runs after the timed loop.  Instances are drawn by the
benchmark's own random.Random, seeded with "<workload>:<seed>", and
handed to the program as instances or files; the program never sees the
seed.

Why jobs are bundles: single exact LPs of these sizes vary two- to
threefold in cost from one random instance to the next (the simplex path
length and the size of the rationals change), so a run of single-LP jobs
measures the draw more than the program.  A bundle with one draw from
every family varies far less, and so does the median job.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from liftgap import cli, csp, restriction, sa, slack

import checks


@dataclass
class Call:
    label: str
    # results of the job's earlier calls by label -> output
    run: Callable[[dict], Any]
    # (output, results of the job by label) -> None; raises CheckFailed
    check: Callable[[Any, dict], None]


@dataclass
class Job:
    name: str
    calls: list[Call]

    def run(self) -> dict:
        results: dict = {}
        for call in self.calls:
            results[call.label] = call.run(results)
        return results

    def check(self, results: dict) -> None:
        for call in self.calls:
            try:
                call.check(results[call.label], results)
            except checks.CheckFailed as exc:
                raise checks.CheckFailed(f"{call.label}: {exc}") from None


def _gnp_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """G(n, 1/2), redrawn until it has an edge."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        edges = [e for e in pairs if rng.random() < 0.5]
        if edges:
            return edges


def _3sat_clauses(rng: random.Random, n: int, m: int):
    return [(tuple(sorted(rng.sample(range(1, n + 1), 3))), rng.randrange(8))
            for _ in range(m)]


def _instance(kind: str, n: int, data) -> csp.Instance:
    if kind == "graph":
        return csp.graph_instance(n, data)
    return csp.Instance(n, csp.THREE_SAT_PREDICATES,
                        tuple(csp.Constraint(p, vs) for vs, p in data))


_REFERENCE: dict = {}


def _reference(key, compute):
    """Reference data for the checks, computed once, after the timed loop."""
    if key not in _REFERENCE:
        _REFERENCE[key] = compute()
    return _REFERENCE[key]


def _level_value(n: int, d: int, edges) -> float:
    """The level-d value of a graph, by HiGHS."""
    return _reference(("level", n, d, tuple(edges)), lambda: checks.highs_sa_value(
        n, d, checks.instance_poly("graph", edges)))


# ---------------------------------------------------------------------------
# sa-lp: Sherali-Adams values, almost all of it in lp.solve_lp
# ---------------------------------------------------------------------------


def _sa_call(label: str, kind: str, n: int, data, d: int,
             lower: str | None = None) -> Call:
    """sa_value at level d; `lower` names the same instance's call one
    level down, for the monotonicity check."""
    inst = _instance(kind, n, data)

    def run(results):
        value, pe = sa.sa_value(inst, d)
        return value, pe.moments

    def check(out, results):
        value, moments = out
        checks.check_sa_value(kind, n, data, d, value, moments)
        if lower is not None:
            checks.check_monotone(results[lower][0], value)

    return Call(label, run, check)


def _edge_call(label: str, n: int, edges, r: int) -> Call:
    inst = _instance("graph", n, edges)

    def run(results):
        value, ef = sa.edge_sa_solve(inst, r)
        return value, ef.moments

    def check(out, results):
        value, moments = out
        checks.check_edge_sa(n, edges, value, {e: moments[(e,)] for e in edges},
                             sa.build_edge_sa_lp(n, r, inst))

    return Call(label, run, check)


def _is_5_cycle(edges) -> bool:
    """Five edges on five vertices, every degree 2: a 5-cycle."""
    degrees = [v for e in edges for v in e]
    return len(edges) == 5 and all(degrees.count(v) == 2 for v in range(1, 6))


def sa_lp_jobs(seed: int, workdir: Path) -> list[Job]:
    """Four jobs that each take one fresh draw from every instance family,
    and one job with the edge LP of C5 at r=1, the smallest member of the
    C5 edge family.  That LP costs 0.8-7 s depending on the vertex labels
    alone, so C5 keeps its natural labels and the G(5,1/2) draws skip
    5-cycles; otherwise the rare C5 draw (about 1 in 85) would decide a
    run's time."""
    rng = random.Random(f"sa-lp:{seed}")
    jobs = []
    for k in range(4):
        g6 = _gnp_edges(rng, 6)
        f5 = _3sat_clauses(rng, 5, 15)
        g5 = _gnp_edges(rng, 5)
        while _is_5_cycle(g5):
            g5 = _gnp_edges(rng, 5)
        g4 = _gnp_edges(rng, 4)
        jobs.append(Job(f"family draw {k}", [
            _sa_call("G(6,1/2) d=3", "graph", 6, g6, 3),
            _sa_call("G(6,1/2) d=4", "graph", 6, g6, 4, lower="G(6,1/2) d=3"),
            _sa_call("3-SAT(5,15) d=4", "3sat", 5, f5, 4),
            _sa_call("3-SAT(5,15) d=5", "3sat", 5, f5, 5, lower="3-SAT(5,15) d=4"),
            _sa_call("G(5,1/2) d=5", "graph", 5, g5, 5),
            _edge_call("G(5,1/2) edge r=1", 5, g5, 1),
            _edge_call("G(4,1/2) edge r=2", 4, g4, 2),
        ]))
    c5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    jobs.append(Job("C5 edge r=1", [_edge_call("C5 edge r=1", 5, c5, 1)]))
    return jobs


# ---------------------------------------------------------------------------
# certify: the CLI on edge-list files; Farkas systems and symmetric checks
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[list[str], dict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"liftgap {' '.join(argv)} exited {code}: "
                           f"{err.getvalue().strip()}")
    return argv, json.loads(out.getvalue())


def _write_graph(path: Path, n: int, edges) -> str:
    path.write_text(f"{n} {len(edges)}\n"
                    + "".join(f"{i} {j}\n" for i, j in edges))
    return str(path)


def _c_of(argv: list[str]) -> Fraction:
    return Fraction(argv[argv.index("--c") + 1])


def _certify_graph_calls(k: int, n: int, edges, path: str) -> list[Call]:
    """`lp` with the metric relaxation, then `farkas` at the printed value
    (feasible), 1/1000 below it (infeasible), and with universal:2 at it."""
    lp_label = f"g{k} lp metric"

    def lp_value(results) -> Fraction:
        return Fraction(results[lp_label][1]["value"])

    def check_lp(out, results):
        checks.require_close(lp_value(results), checks.highs_metric_value(n, edges),
                             "metric LP value")

    def farkas(label, spec, shift):
        def run(results):
            c = lp_value(results) - shift
            return _cli(["farkas", path, "--c", str(c), "--relaxation", spec])

        def check(out, results):
            argv, payload = out
            value = (lp_value(results) if spec == "metric"
                     else _level_value(n, 2, edges))
            slacks = _reference((spec, n), lambda: checks.relaxation_slacks(spec, n))
            checks.check_farkas_output(n, edges, _c_of(argv), payload, slacks, value)

        return Call(f"g{k} {label}", run, check)

    return [
        Call(lp_label, lambda results: _cli(["lp", path, "--relaxation", "metric"]),
             check_lp),
        farkas("farkas metric at value", "metric", Fraction(0)),
        farkas("farkas metric below value", "metric", Fraction(1, 1000)),
        farkas("farkas universal:2 at value", "universal:2", Fraction(0)),
    ]


def _symmetric_job(name: str, path: str, edges, c: str) -> Job:
    def check(out, results):
        argv, payload = out
        checks.check_symmetric_output(_c_of(argv), payload["report"],
                                      _level_value(3, 2, edges))

    argv = ["symmetric-check", "--inst0", path, "--c", c, "--d", "2"]
    return Job(name, [Call("symmetric-check", lambda results: _cli(argv), check)])


def certify_jobs(seed: int, workdir: Path) -> list[Job]:
    """One job certifies three G(6,1/2) graphs; four jobs check C3 and P3
    below and above their level-2 value (which is 1).  The graph job is
    the longest, so the median job is a symmetric check, whose cost does
    not depend on the seed."""
    rng = random.Random(f"certify:{seed}")
    calls = []
    for k in range(3):
        edges = _gnp_edges(rng, 6)
        calls += _certify_graph_calls(k, 6, edges,
                                      _write_graph(workdir / f"g{k}.txt", 6, edges))
    jobs = [Job("certify three G(6,1/2) graphs", calls)]
    for name, edges in (("C3", [(1, 2), (2, 3), (1, 3)]), ("P3", [(1, 2), (2, 3)])):
        path = _write_graph(workdir / f"{name}.txt", 3, edges)
        for c in ("99/100", "101/100"):
            jobs.append(_symmetric_job(f"symmetric-check {name} c={c}", path, edges, c))
    return jobs


# ---------------------------------------------------------------------------
# restriction: the main inequality pipeline on universal(12, 2)
# ---------------------------------------------------------------------------


class _RestrictionRecorder:
    """Keeps the last result of restriction.find_good_restriction, whose
    junta records the main report does not carry."""

    def __init__(self):
        self.original = restriction.find_good_restriction
        self.last = None
        restriction.find_good_restriction = self

    def __call__(self, *args, **kwargs):
        self.last = self.original(*args, **kwargs)
        return self.last


def restriction_jobs(seed: int, workdir: Path) -> list[Job]:
    """One job: a fresh universal(12, 2) relaxation, C3 planted, d = 2,
    restriction trials seeded from the workload seed."""
    rng = random.Random(f"restriction:{seed}")
    n, m, d = 12, 3, 2
    edges = [(1, 2), (2, 3), (1, 3)]
    inst0 = _instance("graph", m, edges)
    experiment_seed = rng.getrandbits(64)
    recorder = _RestrictionRecorder()

    def run(results):
        report = restriction.main_inequality_experiment(
            slack.universal(n, d), inst0, d, experiment_seed)
        return report, recorder.last[1].records

    def check(out, results):
        report, records = out
        checks.check_main_report(report, records, n, m, d, _level_value(m, d, edges))

    return [Job("main inequality universal(12,2) C3", [Call("main-ineq", run, check)])]


BUILDERS = {"sa-lp": sa_lp_jobs, "certify": certify_jobs,
            "restriction": restriction_jobs}
