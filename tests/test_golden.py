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
import os
import sys
import tempfile
from fractions import Fraction as F

import pytest

from liftgap.cli import main
from liftgap.csp import (complete, cycle, graph_instance, instance_polynomial,
                         random_3sat, write_edge_list)
from liftgap.sa import (EdgeFunctional, PseudoExpectation, build_sa_lp,
                        check_lef, edge_monomials, edge_to_vertex, pe_to_json,
                        sa_value)
from liftgap.slack import (build_slack_matrix, matrix_to_csv,
                           protocol_tail_probabilities, universal)


_K4_MINUS_EDGE = graph_instance(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


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
    lines += [f"{label}: {_row(coeffs)} <= {rhs}"
              for (coeffs, rhs), label in zip(rel.inequalities, rel.labels)]
    return "\n".join(lines)


def _lef_text(pe: PseudoExpectation) -> str:
    report = check_lef(pe)
    return "\n".join(f"{f.name}={getattr(report, f.name)}"
                     for f in dataclasses.fields(report))


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


def _tail_csv(T: int) -> str:
    sm = build_slack_matrix([complete(4), _K4_MINUS_EDGE], range(16),
                            F(7, 8), F(4, 5))
    return matrix_to_csv(protocol_tail_probabilities(sm, T), sm.row_names(),
                         sm.cols)


def _cli(argv: list[str], inputs: dict[str, str] | None = None,
         outputs: tuple[str, ...] = ()) -> str:
    """stdout of the CLI run in a fresh directory holding the input files,
    followed by the files it wrote there."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (inputs or {}).items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
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
    return "\n".join(texts)


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
    "cli protocol C4,K4-e T=2": lambda: _cli(
        ["protocol", "--rows", "c4.graph,k4e.graph", "--c", "11/10",
         "--s", "1", "--T", "2", "--out-prefix", "out"],
        {"c4.graph": write_edge_list(cycle(4)),
         "k4e.graph": write_edge_list(_K4_MINUS_EDGE)}, _PROTOCOL_FILES),
}

GOLDEN = {
    'build_sa_lp(3sat(5,8,seed=1),3)': '83f6c80692e3276736b3d63dbfc9eb7c286f281764b012642e5f82b401e76dcd',
    'build_sa_lp(C3,2)': 'f967d93096e0590d4ae8bc522831398c08ebb9a4b6bee8cd9c7e6364ad5b12ac',
    'check_lef(failing)': 'e84d2c3df2ac8f7c0dbfd7d0f0a9575df8b6ce203be3d177ffcd2fdee6c428c0',
    'check_lef(sa 3sat(4,6,seed=2),3)': 'e2af55c1ae2bc7d5fade81facfa8c818fc8fb7573193da5068f47bde0a756425',
    'check_lef(sa C5,2)': 'cbdd3593b4cb3bd4a57648e8bd9a54d30318fd0325b520bef9a1c3693a4a09a1',
    'cli protocol C4,K4-e T=2': '86a338db15a15e9c3011e68952faadc3bab5f876325c064e86952cc07a3dbc14',
    'cli protocol K4,K4-e T=2': '89de0c53796f6504f45ec6abf3abed4ae4336f4f97a09d692ed3eae6f60135b3',
    'cli slack metric n=4': '022e4bb510f3bdbf53997cdf553dab88f8fb474e0aa6c8086fab7ebb37674782',
    'cli slack universal:2 n=4': '4c4dd64533f2e9bd2148acbfb239d935e9a95eac1476d870a88bf323b04a068a',
    'edge_to_vertex(cut mixture n=4,r=2)': '0ffa87111c6d7611ada5581d51ec0a15946a77f97b10e46ef9bacef853981584',
    'pe_to_json(sa 3sat(4,6,seed=2),3)': 'a5a3aa3194aa4165556f0344f814dc3c7419924b268bced28b50c345e2e783dc',
    'pe_to_json(sa C3,2)': '8baec360f5e621c9bb61704f54da7a9e9436632b8161d18e598d0c0f3ae45ffe',
    'pe_to_json(sa C5,3)': '30f3b75caf8442708355737646981594e10f0f510f2f4b7cfaacd0fb04df935c',
    'protocol_tail_probabilities(K4,K4-e,T=3)': '6938bd612ebcc5279852a45c0100a05a7f0f8718fe1ff3d7b4471745dd3e423c',
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
