"""Golden digests: the sha256 of outputs that refactors must not change.

Each case renders one output as text (LP rows, relaxation rows and
labels, functional reports and JSON, CLI stdout and the files it writes)
and compares its digest with the one recorded in GOLDEN.  A failure names
the output that changed.  A change that means to alter an output prints
the new digests with

    PYTHONPATH=src python tests/test_golden.py

and says which digests it replaced and why.  Every case is small: the
whole file runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction as F

import pytest

from liftgap.boolfn import (BoolFn, Density, FourierCoeffs, boolfn_to_json,
                            integer_spectrum, inverse_transform)
from liftgap.cli import main
from liftgap.lp import farkas_feasibility, linear_program, solve_lp
from liftgap.csp import (complete, cycle, graph_instance, instance_polynomial,
                         random_3sat, write_dimacs, write_edge_list)
from liftgap.restriction import (check_restriction,
                                 main_inequality_experiment,
                                 main_report_to_json,
                                 restriction_report_to_json,
                                 symmetric_contradiction_check,
                                 symmetric_report_to_json)
from liftgap.sa import (EdgeFunctional, PseudoExpectation, build_edge_sa_lp,
                        build_sa_lp, check_edge_functional, check_lef,
                        edge_functional_to_json, edge_monomials,
                        edge_sa_solve, edge_to_vertex, pe_to_json, sa_value)
from liftgap.slack import (PolyhedralRelaxation, build_slack_matrix,
                           matrix_to_csv, metric_maxcut,
                           protocol_tail_probabilities, slack_functions,
                           universal)
from test_slack import _rescaled_metric4


_K4_MINUS_EDGE = graph_instance(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
_P3 = graph_instance(3, [(1, 2), (2, 3)])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _row(coeffs) -> str:
    return " ".join(map(str, coeffs))


def _lp_text(lp) -> str:
    lines = [f"{lp.sense} {lp.num_vars}", _row(lp.objective)]
    lines += [f"{_row(c.coeffs)} {c.relation} {c.rhs}" for c in lp.constraints]
    return "\n".join(lines)


def _universal_text(n: int, d: int) -> str:
    rel = universal(n, d)
    lines = [f"{rel.name} {rel.dim}"]
    lines += [f"{label}: {_row(row.get(e, F(0)) for e in range(rel.dim))} "
              f"<= {rhs}"
              for (row, rhs), label in zip(rel.inequalities, rel.labels)]
    return "\n".join(lines)


def _report_text(report) -> str:
    return "\n".join(f"{f.name}={getattr(report, f.name)}"
                     for f in dataclasses.fields(report))


def _lef_text(pe: PseudoExpectation) -> str:
    return _report_text(check_lef(pe))


def _cut_mixture(n: int, r: int, cuts: dict[int, F]) -> EdgeFunctional:
    """The edge functional of a convex combination of cuts: each assignment
    x (a bitmask) with weight w adds w to every monomial all of whose edges
    x cuts."""
    moments = {(): F(1)}
    for mono in edge_monomials(n, r):
        moments[mono] = sum((w for x, w in cuts.items()
                             if all((x >> (i - 1) ^ x >> (j - 1)) & 1
                                    for i, j in mono)), F(0))
    return EdgeFunctional(n, r, moments)


def _failing_edge_functional() -> EdgeFunctional:
    """A cut mixture on 4 vertices at r=1 with the moment of y12*y34 moved
    from 1/6 to -1/5: the first violated row is not the minimal one."""
    ef = _cut_mixture(4, 1, {0b0001: F(1, 2), 0b0011: F(1, 3),
                             0b0110: F(1, 6)})
    return EdgeFunctional(4, 1, {**ef.moments, ((1, 2), (3, 4)): F(-1, 5)})


def _tail_csv(T: int) -> str:
    sm = build_slack_matrix([complete(4), _K4_MINUS_EDGE], range(16),
                            F(7, 8), F(4, 5))
    return matrix_to_csv(protocol_tail_probabilities(sm, T), sm.row_names(),
                         sm.cols)


def _cli(argv: list[str], inputs: dict[str, str] | None = None,
         outputs: tuple[str, ...] = (), stdin: str = "") -> str:
    """stdout of the CLI run in a fresh directory holding the input files,
    with stdin as standard input, followed by the files it wrote there."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (inputs or {}).items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        cwd, saved_stdin = os.getcwd(), sys.stdin
        os.chdir(tmp)
        sys.stdin = io.StringIO(stdin)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            texts = [f"exit {code}", out.getvalue()]
            for name in outputs:
                with open(name) as fh:
                    texts.append(f"{name}\n{fh.read()}")
        finally:
            os.chdir(cwd)
            sys.stdin = saved_stdin
    return "\n".join(texts)


def _symmetric_text(inst, c: F, rel=None) -> str:
    rel = universal(6, 2) if rel is None else rel
    return symmetric_report_to_json(
        symmetric_contradiction_check(inst, rel, c, 2))


def _restrict_family() -> str:
    """A constant density and the density 1 + x1*x2 on 12 variables."""
    chi = BoolFn.character(12, [1, 2])
    bump = BoolFn.from_ints(12, [chi.den + v for v in chi.nums], chi.den)
    return "[" + ",".join(map(boolfn_to_json,
                              (BoolFn.constant(12, 1), bump))) + "]"


def _failing_restriction_text() -> str:
    """A report without a seed whose one record fails: the density
    1 + (x1 + x2 + x3)/4 has sup norm 7/4 > 2^0, and its junta {1, 2, 3}
    is wider than d = 2."""
    q = Density(inverse_transform(FourierCoeffs(
        12, {0: F(1), 1: F(1, 4), 2: F(1, 4), 4: F(1, 4)})))
    return restriction_report_to_json(
        check_restriction([q], {1, 2, 3}, d=2, t=0, m=3, n=12))


def _metric_file(n: int) -> str:
    """metric(n)'s rows as a relaxation file, dense and labelled."""
    rel = metric_maxcut(n)
    return json.dumps({"embed": "metric", "inequalities": [
        {"coeffs": [str(row.get(e, 0)) for e in range(rel.dim)],
         "b": str(b), "label": label}
        for (row, b), label in zip(rel.inequalities, rel.labels)]})


def _slack_text(rel) -> str:
    """Each slack table of rel as its denominator and numerators, then its
    cached integer spectrum: the scale and the nonzero (mask, s) pairs."""
    lines = []
    for q in slack_functions(rel):
        entries, scale = integer_spectrum(q)
        lines.append(f"{q.den} {_row(q.nums)}")
        lines.append(f"{scale} " + " ".join(f"{a}:{s}" for a, s in entries))
    return "\n".join(lines)


def _oversized_file_relaxation() -> PolyhedralRelaxation:
    """metric(4)'s rows as a relaxation file would give them, each times a
    fraction near 2^70, plus a row whose rhs alone is near 2^79: its table
    entries do not fit in 64 bits."""
    base = metric_maxcut(4)
    rows = [({e: a * F(2 ** 70 + i, 3 + i % 4) for e, a in row.items()},
             rhs * F(2 ** 70 + i, 3 + i % 4))
            for i, (row, rhs) in enumerate(base.inequalities)]
    rows.append(({0: F(-5, 7), 5: F(2, 11)}, F(3 ** 50, 11)))
    return PolyhedralRelaxation(
        "file:oversized.json", 4, base.dim, rows, base.labels + ("big",),
        base.coordinate, base.instance_embed)


_PROTOCOL_FILES = tuple(f"out_{name}.{ext}" for name, ext in (
    ("M", "csv"), ("Mprime", "csv"), ("U", "csv"), ("V", "csv"),
    ("manifest", "json")))

OUTPUTS = {
    "universal(3,2)": lambda: _universal_text(3, 2),
    "universal(6,2)": lambda: _universal_text(6, 2),
    "universal(12,2)": lambda: _universal_text(12, 2),
    "build_sa_lp(C3,2)": lambda: _lp_text(
        build_sa_lp(3, 2, instance_polynomial(cycle(3)))),
    "build_sa_lp(3sat(5,8,seed=1),3)": lambda: _lp_text(
        build_sa_lp(5, 3, instance_polynomial(random_3sat(5, 8, 1)))),
    # the edge relaxation's rows as values, apart from their repr
    "build_edge_sa_lp(C5,1)": lambda: _lp_text(
        build_edge_sa_lp(5, 1, cycle(5))),
    "build_edge_sa_lp(K4-e,2)": lambda: _lp_text(
        build_edge_sa_lp(4, 2, _K4_MINUS_EDGE)),
    "check_lef(sa C5,2)": lambda: _lef_text(sa_value(cycle(5), 2)[1]),
    "check_lef(sa 3sat(4,6,seed=2),3)": lambda: _lef_text(
        sa_value(random_3sat(4, 6, 2), 3)[1]),
    # the first violated indicator is on mask 0b0110 with minus-pattern
    # 0b0010, ahead of the pattern 0b0100 and of mask 0b1100
    "check_lef(failing)": lambda: _lef_text(PseudoExpectation(4, 2, {
        0: F(1), 0b0001: F(1, 3), 0b0110: F(3, 2), 0b1100: F(-5, 4)})),
    "pe_to_json(sa C3,2)": lambda: pe_to_json(sa_value(cycle(3), 2)[1]),
    "pe_to_json(sa C5,3)": lambda: pe_to_json(sa_value(cycle(5), 3)[1]),
    "pe_to_json(sa 3sat(4,6,seed=2),3)": lambda: pe_to_json(
        sa_value(random_3sat(4, 6, 2), 3)[1]),
    "edge_to_vertex(cut mixture n=4,r=2)": lambda: pe_to_json(edge_to_vertex(
        _cut_mixture(4, 2, {0b0001: F(1, 2), 0b0011: F(1, 3),
                            0b0110: F(1, 6)}))),
    "protocol_tail_probabilities(K4,K4-e,T=3)": lambda: _tail_csv(3),
    "cli slack metric n=4": lambda: _cli(
        ["slack", "--relaxation", "metric", "--n", "4"]),
    "cli slack universal:2 n=4": lambda: _cli(
        ["slack", "--relaxation", "universal:2", "--n", "4"]),
    "cli protocol K4,K4-e T=2": lambda: _cli(
        ["protocol", "--rows", "k4.graph,k4e.graph", "--c", "7/8",
         "--s", "4/5", "--T", "2", "--out-prefix", "out"],
        {"k4.graph": write_edge_list(complete(4)),
         "k4e.graph": write_edge_list(_K4_MINUS_EDGE)}, _PROTOCOL_FILES),
    "cli farkas K4 metric c=2/3": lambda: _cli(
        ["farkas", "k4.graph", "--c", "2/3", "--relaxation", "metric"],
        {"k4.graph": write_edge_list(complete(4))}),
    "cli farkas K4 metric c=1/2": lambda: _cli(
        ["farkas", "k4.graph", "--c", "1/2", "--relaxation", "metric"],
        {"k4.graph": write_edge_list(complete(4))}),
    "cli farkas C4 universal:2 c=9/10": lambda: _cli(
        ["farkas", "c4.graph", "--c", "9/10", "--relaxation", "universal:2"],
        {"c4.graph": write_edge_list(cycle(4))}),
    "cli farkas K4 universal:2 c=3/5": lambda: _cli(
        ["farkas", "k4.graph", "--c", "3/5", "--relaxation", "universal:2"],
        {"k4.graph": write_edge_list(complete(4))}),
    "cli sa-edge C4 level 1": lambda: _cli(
        ["sa-edge", "c4.graph", "--level", "1"],
        {"c4.graph": write_edge_list(cycle(4))}),
    "solve_lp(minimize)": lambda: repr(solve_lp(linear_program(
        2, [({0: 1, 1: 1}, ">=", 3), ({0: 1}, "<=", 2)], (1, 2), "minimize"))),
    "solve_lp(contradictory bounds)": lambda: repr(solve_lp(linear_program(
        1, [({0: 1}, "<=", -1), ({0: 1}, ">=", 0)], (1,)))),
    "farkas_feasibility(x=-1, x>=0)": lambda: repr(
        farkas_feasibility(1, [({0: 1}, -1)])),
    "farkas_feasibility(x+y=-2, y>=0)": lambda: repr(
        farkas_feasibility(2, [({0: 1, 1: 1}, -2)], nonneg={1})),
    "cli protocol C4,K4-e T=2": lambda: _cli(
        ["protocol", "--rows", "c4.graph,k4e.graph", "--c", "11/10",
         "--s", "1", "--T", "2", "--out-prefix", "out"],
        {"c4.graph": write_edge_list(cycle(4)),
         "k4e.graph": write_edge_list(_K4_MINUS_EDGE)}, _PROTOCOL_FILES),
    # pivot-heavy simplex outputs and the README CLI examples
    "symmetric C3 universal(6,2) c=99/100": lambda: _symmetric_text(
        cycle(3), F(99, 100)),
    "symmetric C3 universal(6,2) c=101/100": lambda: _symmetric_text(
        cycle(3), F(101, 100)),
    "symmetric P3 universal(6,2) c=99/100": lambda: _symmetric_text(
        _P3, F(99, 100)),
    "symmetric P3 universal(6,2) c=101/100": lambda: _symmetric_text(
        _P3, F(101, 100)),
    # feasible branches whose slacks mix sparse tables and sparse spectra
    "symmetric C3 metric(6) c=101/100": lambda: _symmetric_text(
        cycle(3), F(101, 100), metric_maxcut(6)),
    "symmetric C3 universal(6,3) c=101/100": lambda: _symmetric_text(
        cycle(3), F(101, 100), universal(6, 3)),
    "symmetric P3 metric(6) c=99/100": lambda: _symmetric_text(
        _P3, F(99, 100), metric_maxcut(6)),
    "restriction_report(failing, no seed)": _failing_restriction_text,
    "main_report(universal(12,2),C3,d=2,seed=1)": lambda: main_report_to_json(
        main_inequality_experiment(universal(12, 2), cycle(3), 2, 1)),
    "main_report(universal(12,2),C3,d=2,seed=7)": lambda: main_report_to_json(
        main_inequality_experiment(universal(12, 2), cycle(3), 2, 7)),
    "main_report(metric(12),P3,d=2,seed=2)": lambda: main_report_to_json(
        main_inequality_experiment(metric_maxcut(12), _P3, 2, 2)),
    "edge_sa_solve(C5,2)": lambda: edge_functional_to_json(
        edge_sa_solve(cycle(5), 2)[1]),
    "pe_to_json(sa C9,3)": lambda: pe_to_json(sa_value(cycle(9), 3)[1]),
    "pe_to_json(sa 3sat(7,25,seed=1),3)": lambda: pe_to_json(
        sa_value(random_3sat(7, 25, 1), 3)[1]),
    "cli lp C5 metric": lambda: _cli(
        ["lp", "c5.graph", "--relaxation", "metric"],
        {"c5.graph": write_edge_list(cycle(5))}),
    "cli main-ineq metric C3 n=12 d=2 seed=1": lambda: _cli(
        ["main-ineq", "--relaxation", "metric", "--inst0", "tri.graph",
         "--n", "12", "--d", "2", "--seed", "1"],
        {"tri.graph": write_edge_list(cycle(3))}),
    "cli symmetric-check C3 c=99/100": lambda: _cli(
        ["symmetric-check", "--inst0", "tri.graph", "--c", "99/100",
         "--d", "2"], {"tri.graph": write_edge_list(cycle(3))}),
    "cli translate v2e sa C5 rounds 6": lambda: _cli(
        ["translate", "--direction", "v2e", "--in", "pe.json"],
        {"pe.json": pe_to_json(sa_value(cycle(5), 6)[1])}),
    "cli translate e2v sa-edge C5 level 1": lambda: _cli(
        ["translate", "--direction", "e2v", "--in", "ef.json"],
        {"ef.json": edge_functional_to_json(edge_sa_solve(cycle(5), 1)[1])}),
    "cli restrict n=12 m=3 d=2 seed=1": lambda: _cli(
        ["restrict", "--family", "densities.json", "--n", "12", "--m", "3",
         "--d", "2", "--seed", "1"], {"densities.json": _restrict_family()}),
    # one case per manifest shape the cases above leave out
    "cli opt C5": lambda: _cli(
        ["opt", "c5.graph"], {"c5.graph": write_edge_list(cycle(5))}),
    "cli opt 3sat(5,8,seed=1) dimacs": lambda: _cli(
        ["opt", "f.cnf"], {"f.cnf": write_dimacs(random_3sat(5, 8, 1))}),
    "cli opt C3 stdin": lambda: _cli(
        ["opt", "-"], stdin=write_edge_list(cycle(3))),
    "cli sa C5 rounds 2": lambda: _cli(
        ["sa", "c5.graph", "--rounds", "2"],
        {"c5.graph": write_edge_list(cycle(5))}),
    "cli gen gnp n=6 p=1/2 seed=3": lambda: _cli(
        ["gen", "gnp", "--n", "6", "--p", "1/2", "--seed", "3"]),
    "cli lp C5 file:metric": lambda: _cli(
        ["lp", "c5.graph", "--relaxation", "file:rel.json"],
        {"c5.graph": write_edge_list(cycle(5)), "rel.json": _metric_file(5)}),
    "cli slack metric n=3 --out": lambda: _cli(
        ["slack", "--relaxation", "metric", "--n", "3", "--out", "s.csv"],
        outputs=("s.csv",)),
    "cli restrict n=12 m=3 d=2 t=1 max-trials=5 seed=2": lambda: _cli(
        ["restrict", "--family", "densities.json", "--n", "12", "--m", "3",
         "--d", "2", "--t", "1", "--max-trials", "5", "--seed", "2"],
        {"densities.json": _restrict_family()}),
    # the edge relaxation's rows, and the labels of its report
    "repr(build_edge_sa_lp(C5,1))": lambda: repr(
        build_edge_sa_lp(5, 1, cycle(5))),
    "repr(build_edge_sa_lp(K4-e,2))": lambda: repr(
        build_edge_sa_lp(4, 2, _K4_MINUS_EDGE)),
    "check_edge_functional(edge_sa_solve C5,1)": lambda: _report_text(
        check_edge_functional(edge_sa_solve(cycle(5), 1)[1])),
    "check_edge_functional(failing)": lambda: _report_text(
        check_edge_functional(_failing_edge_functional())),
    # slack tables and their cached spectra, from 16-bit to wide lanes
    "slack_functions(metric(7))": lambda: _slack_text(metric_maxcut(7)),
    "slack_functions(universal(7,3))": lambda: _slack_text(universal(7, 3)),
    "slack_functions(rescaled metric(4), points/2)": lambda: _slack_text(
        _rescaled_metric4(F(1, 2))),
    "slack_functions(oversized file relaxation)": lambda: _slack_text(
        _oversized_file_relaxation()),
}

GOLDEN = {
    'build_edge_sa_lp(C5,1)': '50c095d05718c9e6d7509f9fa38654bdb520bb8df88f22087f0ab99d9396118f',
    'build_edge_sa_lp(K4-e,2)': '5b022bb1329f76fcedf8168866ee1375ec24fde60edb8f4bd15b94a5ac28a9c7',
    'build_sa_lp(3sat(5,8,seed=1),3)': '83f6c80692e3276736b3d63dbfc9eb7c286f281764b012642e5f82b401e76dcd',
    'build_sa_lp(C3,2)': 'f967d93096e0590d4ae8bc522831398c08ebb9a4b6bee8cd9c7e6364ad5b12ac',
    'check_edge_functional(edge_sa_solve C5,1)': 'bbb9b1b18235dd43af9f3f6fadb5e75a0ef4945f9ff674c1cea094bc2562ff05',
    'check_edge_functional(failing)': 'b7f0d54eb88954e43ae41a85f32a3607e37d6c2095d742e483e75d302433f6c7',
    'check_lef(failing)': 'e84d2c3df2ac8f7c0dbfd7d0f0a9575df8b6ce203be3d177ffcd2fdee6c428c0',
    'check_lef(sa 3sat(4,6,seed=2),3)': 'e2af55c1ae2bc7d5fade81facfa8c818fc8fb7573193da5068f47bde0a756425',
    'check_lef(sa C5,2)': 'cbdd3593b4cb3bd4a57648e8bd9a54d30318fd0325b520bef9a1c3693a4a09a1',
    'cli farkas C4 universal:2 c=9/10': 'f585bc0a0fec2aae552d592db229fe28f1b85bb1564e739b48cab2f77bc8e29f',
    'cli farkas K4 metric c=1/2': '61314111fa8cbbff9b1b3932fe31da4c2286d578410994f3f1cf6efbb67d7f17',
    'cli farkas K4 metric c=2/3': 'a474110bbffefc8c2659e8ae07b533da6b48a009167edea9fcb77b222af50a06',
    'cli farkas K4 universal:2 c=3/5': 'd9bd6f360854a79a84e092ac6cf2e78f1113e1aa5e9c9308da913a3cadbd2c92',
    'cli gen gnp n=6 p=1/2 seed=3': '7d0545b7703bef863f022aa8cfcd3249493b4acc9e7e1842bce1267923f3d1eb',
    'cli lp C5 file:metric': 'dad2548ba77adff28d85e08be656e7986af84cfe4c1c8a730f3aa36d826eddfe',
    'cli lp C5 metric': '40c2687be777ce3337cb31bb9e76416a0ae64650b7ea1837c25936c7209114a9',
    'cli main-ineq metric C3 n=12 d=2 seed=1': '344be4c4114486308478306cf2dddd52b2c0132c13cf8dc3b26d2056b16220e4',
    'cli opt 3sat(5,8,seed=1) dimacs': 'd369566af6a37c0d9b3f5c5aef7308749e0e0a4f479f283c6ad5157772c625bb',
    'cli opt C3 stdin': 'b79b7fa200666f828dd4c7633d01e005649eaf583036e44c7fab04e6eb15e644',
    'cli opt C5': '278a61c16c1cbffca697102ab40938fa76e9b63dfaad8abc263169c3c6e320dd',
    'cli protocol C4,K4-e T=2': '86a338db15a15e9c3011e68952faadc3bab5f876325c064e86952cc07a3dbc14',
    'cli protocol K4,K4-e T=2': '89de0c53796f6504f45ec6abf3abed4ae4336f4f97a09d692ed3eae6f60135b3',
    'cli restrict n=12 m=3 d=2 seed=1': '2473a45188ad9d2dba4196812904965a32589f5b41934e7b38b87b3b7838e28e',
    'cli restrict n=12 m=3 d=2 t=1 max-trials=5 seed=2': '8d865892dd649acbeb34922d9def5dd510980b64088410067973dd5d6ab59d2c',
    'cli sa C5 rounds 2': '0c35bdb8d601aee9831646b662134ae5d9584b62b9460d6a0132fcdc016c1813',
    'cli sa-edge C4 level 1': 'b24993bc47a1ed87c1a7730cee237ab892563687e3f3cb09456bd0abfc88dfc4',
    'cli slack metric n=3 --out': '873899c2a97620887051bf23f2ec20bae5c9d9f6858647e20d5f3a2d586a6e31',
    'cli slack metric n=4': '022e4bb510f3bdbf53997cdf553dab88f8fb474e0aa6c8086fab7ebb37674782',
    'cli slack universal:2 n=4': '4c4dd64533f2e9bd2148acbfb239d935e9a95eac1476d870a88bf323b04a068a',
    'cli symmetric-check C3 c=99/100': 'fbf79ceefbd1983c3df85fb22bcd386c5a5922beb2d8eec32a2e08232d7406c4',
    'cli translate e2v sa-edge C5 level 1': '113aa48ef2615d5bd7e809cc9a75b60d33ca890a1ba3b0b2ba92ec0f0ec6566e',
    'cli translate v2e sa C5 rounds 6': '0d229b104819519d9264b460051b409df6e744e8141829400372395f75cc4c92',
    'edge_sa_solve(C5,2)': '7e22aeabe8653f167cd4397f4003a618e3e462ff647b27b94d78bd7a14cef2db',
    'edge_to_vertex(cut mixture n=4,r=2)': '0ffa87111c6d7611ada5581d51ec0a15946a77f97b10e46ef9bacef853981584',
    'farkas_feasibility(x+y=-2, y>=0)': 'ae8591b4bcfe745af5f878c1d5e97c30c3bee0141a8f935fc2cc48cd43cd74a3',
    'farkas_feasibility(x=-1, x>=0)': '15a9fa9e607637c95c2089f89335b9d54736ecc2d6c82e22f8670b5aebc4df69',
    'main_report(metric(12),P3,d=2,seed=2)': '4fc9652041b43b4d3f1ef91575507248565d9c7f01719bc5ffafe8f0bd3b1579',
    'main_report(universal(12,2),C3,d=2,seed=1)': '750bf9feb6e4afbcb4e92599e92022542eead0325534136f6c6c76ecfa628fa4',
    'main_report(universal(12,2),C3,d=2,seed=7)': '66271a478222f4178bb85f46f2373c46c7765f58a271bb8d41c4b0ed70ace45e',
    'pe_to_json(sa 3sat(4,6,seed=2),3)': 'a5a3aa3194aa4165556f0344f814dc3c7419924b268bced28b50c345e2e783dc',
    'pe_to_json(sa 3sat(7,25,seed=1),3)': 'fa41a35a926d5dc9725a9a6a1159f485f93ed2e0c8259be5edc8157c3b50080e',
    'pe_to_json(sa C3,2)': '8baec360f5e621c9bb61704f54da7a9e9436632b8161d18e598d0c0f3ae45ffe',
    'pe_to_json(sa C5,3)': '30f3b75caf8442708355737646981594e10f0f510f2f4b7cfaacd0fb04df935c',
    'pe_to_json(sa C9,3)': 'b9393c7fe3b8dd62656c2baa552379382af76417acf56481dae6b4349982917f',
    'protocol_tail_probabilities(K4,K4-e,T=3)': '6938bd612ebcc5279852a45c0100a05a7f0f8718fe1ff3d7b4471745dd3e423c',
    'repr(build_edge_sa_lp(C5,1))': '03aa96354a99390caaec981501558ad877a19185618c081d837c942b72b45fb3',
    'repr(build_edge_sa_lp(K4-e,2))': '1e65107f7cf1a2d9e43e602652efcf31035cc41237169cc6bad883c35b310865',
    'restriction_report(failing, no seed)': '163043912d9aeadca6822d71c952ade8b176fbae3e136ef624d33d444b3b5be7',
    'slack_functions(metric(7))': '75c5e0723e0124d6814b54213558261f21e90dfc1ed55bf5adb07bf574152f72',
    'slack_functions(oversized file relaxation)': 'e8976dd09c762d5b406b8d0632a77231b1bec325b3a322e1e451dc797d7b8cd4',
    'slack_functions(rescaled metric(4), points/2)': '4e39167c52ba46180c21f4e844c7d1675eb4a1950863c49812f267376b0b0e0d',
    'slack_functions(universal(7,3))': '284f9baf1cf9ca616cd94a716199c8312c36a31f14b7e7bb29575d1db47bf575',
    'solve_lp(contradictory bounds)': 'ecf97d0a618fbff043a2c4f8d5a3afe122f76cb92b8872b4da7f1f18f53817c6',
    'solve_lp(minimize)': '2ea5176509409c2a495d38c1c32ad3d6455b8201bc176574e774f8f15e1f9285',
    'symmetric C3 metric(6) c=101/100': 'eb41a609191b6e9c75a6c9a892ec2acda1553eb3d5947d04dfe1ed69f8a4a850',
    'symmetric C3 universal(6,2) c=101/100': 'd6ee77d99226c33e1a91ceaa8ad8ec13edf07927037401cdd31c84c48be62c65',
    'symmetric C3 universal(6,2) c=99/100': 'b3028de54dfa2787625de9a62b50da0eb8a9c95570c810479fbd7421184a0149',
    'symmetric C3 universal(6,3) c=101/100': '244871c8c80699f7de648e62c32c5b2af0c6d0e28b2f6eb4fad1587b1223271b',
    'symmetric P3 metric(6) c=99/100': 'cc82ea9b3dcc668730373b0970918ce5ea4cb411ae66cbba035b2715f77e3063',
    'symmetric P3 universal(6,2) c=101/100': 'd65cd1549d84f20909e156a6206d53946bd8c0cd5087c912f8fad7894c2409cc',
    'symmetric P3 universal(6,2) c=99/100': '41eb68ad67b099e704bd46952e695a878bc52648af903da7df7ad6e44b705e70',
    'universal(12,2)': 'd14076cfc3a7a3de35633962832ec0192e3efa6851bc164e32d1454beeb9e177',
    'universal(3,2)': '9898a0adf6e8b9994a4a4093d80f3f57d8a5cba2dc88e6338396bc7f9b5d1c29',
    'universal(6,2)': '94a2cb829a0302aad87ac980c2fc3bd65b9e72059041cc9eb94da4e33399a396',
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_golden_output(name):
    assert _digest(OUTPUTS[name]()) == GOLDEN[name], name


if __name__ == "__main__":
    for name in sorted(OUTPUTS):
        print(f"    {name!r}: {_digest(OUTPUTS[name]())!r},")
    sys.exit(0)
