"""Command-line surface.

Every command prints a single JSON document to stdout with sorted keys
and canonical "p/q" rationals, and embeds a run manifest (command,
parameters, master seed, sha256 digests of file inputs, tool version,
outputs list), so identical manifests give byte-identical outputs.
Errors are single-line JSON on stderr: exit 1 for domain errors, 2 for
usage errors, 3 for an InternalError (a failed exact self-check: a bug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .boolfn import Density, boolfn_from_json
from .csp import (Instance, assignment_to_signs, brute_force_opt, complete,
                  cycle, parse_dimacs_cnf, parse_edge_list, random_3sat,
                  random_graph, write_dimacs, write_edge_list)
from .errors import InputError, InternalError, LiftgapError
from .rationals import format_rational, parse_rational
from .restriction import (find_good_restriction,
                          main_inequality_experiment, main_report_to_json,
                          restriction_report_to_json, smoothness_exponent,
                          symmetric_contradiction_check,
                          symmetric_report_to_json)
from .sa import (check_edge_functional, check_lef, edge_functional_from_json,
                 edge_functional_to_json, edge_sa_solve, edge_to_vertex,
                 pe_from_json, pe_to_json, sa_value, vertex_to_edge)
from .slack import (PolyhedralRelaxation, build_slack_matrix,
                    factorization_to_csvs, farkas_decompose, lp_value,
                    matrix_to_csv, metric_maxcut, protocol_factorization,
                    protocol_matrix, slack_functions, slack_matrix_to_csv,
                    universal, verify_decomposition)


class _JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}),
              file=sys.stderr)
        raise SystemExit(2)


def _read_input(path: str) -> tuple[str, str]:
    """Returns (text, digest); '-' reads stdin (digest of what was read)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    return text, hashlib.sha256(text.encode()).hexdigest()


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_instance(path: str) -> tuple[Instance, str]:
    text, digest = _read_input(path)
    head = next((ln for ln in text.splitlines() if ln.strip()), "")
    if head.startswith(("p ", "c", "p\t")):
        return parse_dimacs_cnf(text), digest
    return parse_edge_list(text), digest


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: bad JSON: {exc}") from None


def _relaxation(spec: str, n: int) -> tuple[PolyhedralRelaxation, dict]:
    if spec == "metric":
        return metric_maxcut(n), {}
    if spec.startswith("universal:"):
        level = spec.split(":", 1)[1]
        if not level.isdecimal():
            raise InputError(f"bad level in relaxation {spec!r}")
        return universal(n, int(level)), {}
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        text, digest = _read_input(path)
        obj = _load_json(text, path)
        try:
            embed, inequalities = obj["embed"], obj["inequalities"]
            rows = [(row["coeffs"], parse_rational(row["b"]))
                    for row in inequalities]
            labels = [row.get("label", f"row{i}")
                      for i, row in enumerate(inequalities)]
        except (KeyError, TypeError):
            raise InputError(
                f'{path}: expected {{"embed", "inequalities": '
                f'[{{"coeffs", "b", "label"?}}, ...]}}') from None
        if not isinstance(embed, str) or embed.startswith("file:"):
            raise InputError(f"{path}: embed must be metric or universal:<d>")
        if not all(isinstance(label, str) for label in labels):
            raise InputError(f"{path}: labels must be strings")
        if not all(isinstance(coeffs, list) for coeffs, _ in rows):
            raise InputError(f'{path}: "coeffs" must be a JSON array')
        base, _ = _relaxation(embed, n)
        if any(len(coeffs) != base.dim for coeffs, _ in rows):
            raise InputError(f"{path}: every row needs {base.dim} coefficients")
        rows = [({e: a for e, a in enumerate(map(parse_rational, coeffs))
                  if a}, b) for coeffs, b in rows]
        rel = PolyhedralRelaxation(f"file:{path}", n, base.dim, rows, labels,
                                   base.assignment_embed, base.instance_embed)
        return rel, {path: digest}
    raise InputError(f"unknown relaxation {spec!r}; "
                     "use metric, universal:<d>, or file:<path>")


def _manifest(command: str, params: dict, digests: dict, seed=None,
              outputs=None) -> dict:
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "inputDigests": digests,
        "version": __version__,
        "outputs": outputs or ["stdout"],
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_opt(args) -> None:
    inst, digest = _load_instance(args.instance)
    value, witness = brute_force_opt(inst)
    _emit({
        "manifest": _manifest("opt", {"instance": args.instance},
                              {args.instance: digest}),
        "value": format_rational(value),
        "witness": assignment_to_signs(witness, inst.n),
    })


def _cmd_sa(args) -> None:
    inst, digest = _load_instance(args.instance)
    value, pe = sa_value(inst, args.rounds)
    _emit({
        "manifest": _manifest("sa", {"instance": args.instance,
                                     "rounds": args.rounds},
                              {args.instance: digest}),
        "value": format_rational(value),
        "pseudoExpectation": json.loads(pe_to_json(pe)),
    })


def _cmd_sa_edge(args) -> None:
    inst, digest = _load_instance(args.graph)
    value, ef = edge_sa_solve(inst, args.level)
    _emit({
        "manifest": _manifest("sa-edge", {"graph": args.graph,
                                          "level": args.level},
                              {args.graph: digest}),
        "value": format_rational(value),
        "edgeFunctional": json.loads(edge_functional_to_json(ef)),
    })


def _cmd_translate(args) -> None:
    text, digest = _read_input(args.infile)
    if args.direction == "v2e":
        pe = pe_from_json(text)
        ef = vertex_to_edge(pe)
        report = check_edge_functional(ef)
        out = {
            "edgeFunctional": json.loads(edge_functional_to_json(ef)),
            "feasible": report.ok,
            "minConstraintValue": format_rational(report.min_value),
        }
    else:
        ef = edge_functional_from_json(text)
        pe = edge_to_vertex(ef)
        report = check_lef(pe)
        out = {
            "pseudoExpectation": json.loads(pe_to_json(pe)),
            "feasible": report.ok,
            "minIndicator": format_rational(report.min_indicator),
        }
    out["manifest"] = _manifest("translate",
                                {"direction": args.direction,
                                 "in": args.infile},
                                {args.infile: digest})
    _emit(out)


def _cmd_lp(args) -> None:
    inst, digest = _load_instance(args.instance)
    rel, extra = _relaxation(args.relaxation, inst.n)
    digests = {args.instance: digest, **extra}
    value = lp_value(rel, inst)
    _emit({
        "manifest": _manifest("lp", {"instance": args.instance,
                                     "relaxation": args.relaxation}, digests),
        "value": format_rational(value),
    })


def _cmd_slack(args) -> None:
    n = args.n
    rel, extra = _relaxation(args.relaxation, n)
    tables = slack_functions(rel)
    csv = matrix_to_csv([q.values for q in tables], rel.labels,
                        range(1 << n), corner="constraint")
    outputs = ["stdout"]
    if args.out:
        _write_output(args.out, csv)
        outputs = [args.out]
    _emit({
        "manifest": _manifest("slack", {"relaxation": args.relaxation, "n": n},
                              extra, outputs=outputs),
        "constraints": len(tables),
        **({} if args.out else {"csv": csv}),
    })


def _cmd_farkas(args) -> None:
    inst, digest = _load_instance(args.instance)
    rel, extra = _relaxation(args.relaxation, inst.n)
    c = parse_rational(args.c)
    result = farkas_decompose(c, inst, rel)
    out = {
        "manifest": _manifest("farkas", {"instance": args.instance,
                                         "c": args.c,
                                         "relaxation": args.relaxation},
                              {args.instance: digest, **extra}),
        "feasible": result.feasible,
    }
    if result.feasible:
        slacks = slack_functions(rel)
        out["lam0"] = format_rational(result.lam0)
        out["lam"] = [format_rational(v) for v in result.lam]
        out["verified"] = verify_decomposition(c, inst, result.lam0,
                                               result.lam, slacks)
    else:
        out["certificate"] = [format_rational(v) for v in result.certificate]
    _emit(out)


def _cmd_restrict(args) -> None:
    text, digest = _read_input(args.family)
    obj = _load_json(text, args.family)
    if not isinstance(obj, list):
        raise InputError("family file must be a JSON array of functions")
    densities = [Density(boolfn_from_json(json.dumps(item))) for item in obj]
    t = args.t if args.t is not None else smoothness_exponent(args.n, args.d)
    S, report = find_good_restriction(densities, args.n, args.m, args.d, t,
                                      args.max_trials, args.seed)
    _emit({
        "manifest": _manifest("restrict",
                              {"family": args.family, "n": args.n,
                               "m": args.m, "d": args.d, "t": t,
                               "maxTrials": args.max_trials},
                              {args.family: digest}, seed=args.seed),
        "report": json.loads(restriction_report_to_json(report, args.seed)),
    })


def _cmd_main_ineq(args) -> None:
    inst, digest = _load_instance(args.inst0)
    rel, extra = _relaxation(args.relaxation, args.n)
    report = main_inequality_experiment(rel, inst, args.d, args.seed)
    _emit({
        "manifest": _manifest("main-ineq",
                              {"relaxation": args.relaxation,
                               "inst0": args.inst0, "n": args.n, "d": args.d},
                              {args.inst0: digest, **extra}, seed=args.seed),
        "report": json.loads(main_report_to_json(report)),
    })


def _cmd_protocol(args) -> None:
    digests = {}
    instances = []
    for path in args.rows.split(","):
        inst, digest = _load_instance(path)
        digests[path] = digest
        instances.append(inst)
    c, s = parse_rational(args.c), parse_rational(args.s)
    n = instances[0].n
    assignments = list(range(1 << n))
    sm = build_slack_matrix(instances, assignments, c, s)
    mprime = protocol_matrix(sm, args.T)
    pf = protocol_factorization(sm, args.T)
    csvs = factorization_to_csvs(pf, sm)
    prefix = args.out_prefix
    written = []
    for name, content in (("M", slack_matrix_to_csv(sm)),
                          ("Mprime", matrix_to_csv(mprime, sm.row_names(), sm.cols)),
                          ("U", csvs["U"]), ("V", csvs["V"]),
                          ("manifest", csvs["manifest"])):
        ext = "json" if name == "manifest" else "csv"
        path = f"{prefix}_{name}.{ext}"
        _write_output(path, content)
        written.append(path)
    _emit({
        "manifest": _manifest("protocol",
                              {"rows": args.rows, "c": args.c, "s": args.s,
                               "T": args.T, "outPrefix": prefix},
                              digests, outputs=written),
        "messages": len(pf.messages),
        "rows": len(sm.rows),
    })


def _cmd_symmetric_check(args) -> None:
    inst, digest = _load_instance(args.inst0)
    rel, extra = _relaxation(args.relaxation, 2 * inst.n)
    c = parse_rational(args.c)
    report = symmetric_contradiction_check(inst, rel, c, args.d)
    _emit({
        "manifest": _manifest("symmetric-check",
                              {"inst0": args.inst0, "c": args.c, "d": args.d,
                               "relaxation": args.relaxation},
                              {args.inst0: digest, **extra}),
        "report": json.loads(symmetric_report_to_json(report)),
    })


def _cmd_gen(args) -> None:
    if args.kind == "cycle":
        inst = cycle(args.n)
        text = write_edge_list(inst)
    elif args.kind == "complete":
        inst = complete(args.n)
        text = write_edge_list(inst)
    elif args.kind == "gnp":
        if args.p is None:
            raise InputError("gnp needs --p")
        inst = random_graph(args.n, parse_rational(args.p), args.seed)
        text = write_edge_list(inst)
    elif args.kind == "3sat":
        if args.m is None:
            raise InputError("3sat needs --m")
        inst = random_3sat(args.n, args.m, args.seed)
        text = write_dimacs(inst)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown generator {args.kind}")
    if args.out:
        _write_output(args.out, text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonArgumentParser(prog="liftgap")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("opt", help="brute-force optimum and witness")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("sa", help="Sherali-Adams value and functional")
    p.add_argument("instance")
    p.add_argument("--rounds", type=int, required=True)
    p.set_defaults(func=_cmd_sa)

    p = sub.add_parser("sa-edge", help="edge-variable relaxation value")
    p.add_argument("graph")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_sa_edge)

    p = sub.add_parser("translate", help="translate functionals between "
                                         "vertex and edge variables")
    p.add_argument("--direction", choices=("v2e", "e2v"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("lp", help="relaxation value of an instance")
    p.add_argument("instance")
    p.add_argument("--relaxation", required=True)
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("slack", help="slack function tables")
    p.add_argument("--relaxation", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_slack)

    p = sub.add_parser("farkas", help="conic decomposition of c - instance")
    p.add_argument("instance")
    p.add_argument("--c", required=True)
    p.add_argument("--relaxation", required=True)
    p.set_defaults(func=_cmd_farkas)

    p = sub.add_parser("restrict", help="find a good random restriction")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-trials", type=int, default=50)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("main-ineq", help="value inequality experiment")
    p.add_argument("--relaxation", required=True)
    p.add_argument("--inst0", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_main_ineq)

    p = sub.add_parser("protocol", help="slack matrix, protocol matrix, "
                                        "and factorization CSVs")
    p.add_argument("--rows", required=True, help="comma-separated instance files")
    p.add_argument("--c", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--out-prefix", default="protocol")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("symmetric-check", help="antidiagonal contradiction check")
    p.add_argument("--inst0", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--relaxation", default="universal:2")
    p.set_defaults(func=_cmd_symmetric_check)

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument("kind", choices=("cycle", "complete", "gnp", "3sat"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="clause count for 3sat")
    p.add_argument("--p", help="edge probability for gnp, e.g. 1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except LiftgapError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 1
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
