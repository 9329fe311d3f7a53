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
from .rationals import camel_case, format_rational, parse_rational
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


def _read_input(path: str, digests: dict[str, str]) -> str:
    """The text at path ('-' reads stdin); records its sha256 in digests."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    digests[path] = hashlib.sha256(text.encode()).hexdigest()
    return text


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_instance(path: str, digests: dict[str, str]) -> Instance:
    text = _read_input(path, digests)
    head = next((ln for ln in text.splitlines() if ln.strip()), "")
    if head.startswith(("p ", "c", "p\t")):
        return parse_dimacs_cnf(text)
    return parse_edge_list(text)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: bad JSON: {exc}") from None


def _relaxation(spec: str, n: int,
                digests: dict[str, str]) -> PolyhedralRelaxation:
    if spec == "metric":
        return metric_maxcut(n)
    if spec.startswith("universal:"):
        level = spec.split(":", 1)[1]
        if not level.isdecimal():
            raise InputError(f"bad level in relaxation {spec!r}")
        return universal(n, int(level))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        obj = _load_json(_read_input(path, digests), path)
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
        base = _relaxation(embed, n, digests)
        if any(len(coeffs) != base.dim for coeffs, _ in rows):
            raise InputError(f"{path}: every row needs {base.dim} coefficients")
        rows = [({e: a for e, a in enumerate(map(parse_rational, coeffs))
                  if a}, b) for coeffs, b in rows]
        return PolyhedralRelaxation(f"file:{path}", n, base.dim, rows, labels,
                                    base.coordinate, base.instance_embed)
    raise InputError(f"unknown relaxation {spec!r}; "
                     "use metric, universal:<d>, or file:<path>")


_NOT_PARAMETERS = frozenset({"command", "func", "seed", "out"})


def _emit(args, digests: dict[str, str], payload: dict,
          outputs: list[str] | None = None) -> None:
    """Print payload with the run manifest as one JSON document.

    The manifest is built from the parsed arguments and the files read:
    "command" is the subcommand; "parameters" holds every parsed option
    under its camelCase name, except the seed, which is the "seed" member
    (null for a command without one), and --out, which is an output: the
    "outputs" list names the files written in place of "stdout".
    "inputDigests" maps each file read to its sha256, stdin under "-"."""
    manifest = {
        "command": args.command,
        "parameters": {camel_case(k): v for k, v in vars(args).items()
                       if k not in _NOT_PARAMETERS},
        "seed": getattr(args, "seed", None),
        "inputDigests": digests,
        "version": __version__,
        "outputs": outputs or ["stdout"],
    }
    print(json.dumps({**payload, "manifest": manifest}, sort_keys=True))


def _cmd_opt(args, digests: dict[str, str]) -> None:
    inst = _load_instance(args.instance, digests)
    value, witness = brute_force_opt(inst)
    _emit(args, digests, {"value": format_rational(value),
                          "witness": assignment_to_signs(witness, inst.n)})


def _cmd_sa(args, digests: dict[str, str]) -> None:
    value, pe = sa_value(_load_instance(args.instance, digests), args.rounds)
    _emit(args, digests, {"value": format_rational(value),
                          "pseudoExpectation": json.loads(pe_to_json(pe))})


def _cmd_sa_edge(args, digests: dict[str, str]) -> None:
    value, ef = edge_sa_solve(_load_instance(args.graph, digests), args.level)
    _emit(args, digests, {
        "value": format_rational(value),
        "edgeFunctional": json.loads(edge_functional_to_json(ef)),
    })


def _cmd_translate(args, digests: dict[str, str]) -> None:
    text = _read_input(vars(args)["in"], digests)
    if args.direction == "v2e":
        ef = vertex_to_edge(pe_from_json(text))
        report = check_edge_functional(ef)
        out = {
            "edgeFunctional": json.loads(edge_functional_to_json(ef)),
            "feasible": report.ok,
            "minConstraintValue": format_rational(report.min_value),
        }
    else:
        pe = edge_to_vertex(edge_functional_from_json(text))
        report = check_lef(pe)
        out = {
            "pseudoExpectation": json.loads(pe_to_json(pe)),
            "feasible": report.ok,
            "minIndicator": format_rational(report.min_indicator),
        }
    _emit(args, digests, out)


def _cmd_lp(args, digests: dict[str, str]) -> None:
    inst = _load_instance(args.instance, digests)
    value = lp_value(_relaxation(args.relaxation, inst.n, digests), inst)
    _emit(args, digests, {"value": format_rational(value)})


def _cmd_slack(args, digests: dict[str, str]) -> None:
    rel = _relaxation(args.relaxation, args.n, digests)
    tables = slack_functions(rel)
    csv = matrix_to_csv([q.values for q in tables], rel.labels,
                        range(1 << args.n), corner="constraint")
    if args.out:
        _write_output(args.out, csv)
        _emit(args, digests, {"constraints": len(tables)}, [args.out])
    else:
        _emit(args, digests, {"constraints": len(tables), "csv": csv})


def _cmd_farkas(args, digests: dict[str, str]) -> None:
    inst = _load_instance(args.instance, digests)
    rel = _relaxation(args.relaxation, inst.n, digests)
    c = parse_rational(args.c)
    result = farkas_decompose(c, inst, rel)
    out = {"feasible": result.feasible}
    if result.feasible:
        slacks = slack_functions(rel)
        out["lam0"] = format_rational(result.lam0)
        out["lam"] = [format_rational(v) for v in result.lam]
        out["verified"] = verify_decomposition(c, inst, result.lam0,
                                               result.lam, slacks)
    else:
        out["certificate"] = [format_rational(v) for v in result.certificate]
    _emit(args, digests, out)


def _cmd_restrict(args, digests: dict[str, str]) -> None:
    obj = _load_json(_read_input(args.family, digests), args.family)
    if not isinstance(obj, list):
        raise InputError("family file must be a JSON array of functions")
    densities = [Density(boolfn_from_json(json.dumps(item))) for item in obj]
    if args.t is None:  # the manifest records the t the run used
        args.t = smoothness_exponent(args.n, args.d)
    S, report = find_good_restriction(densities, args.n, args.m, args.d,
                                      args.t, args.max_trials, args.seed)
    _emit(args, digests, {"report": json.loads(
        restriction_report_to_json(report, args.seed))})


def _cmd_main_ineq(args, digests: dict[str, str]) -> None:
    inst = _load_instance(args.inst0, digests)
    rel = _relaxation(args.relaxation, args.n, digests)
    report = main_inequality_experiment(rel, inst, args.d, args.seed)
    _emit(args, digests, {"report": json.loads(main_report_to_json(report))})


def _cmd_protocol(args, digests: dict[str, str]) -> None:
    instances = [_load_instance(path, digests)
                 for path in args.rows.split(",")]
    sm = build_slack_matrix(instances, range(1 << instances[0].n),
                            parse_rational(args.c), parse_rational(args.s))
    mprime = protocol_matrix(sm, args.T)
    pf = protocol_factorization(sm, args.T)
    csvs = factorization_to_csvs(pf, sm)
    written = []
    for name, content in (("M", slack_matrix_to_csv(sm)),
                          ("Mprime", matrix_to_csv(mprime, sm.row_names(), sm.cols)),
                          ("U", csvs["U"]), ("V", csvs["V"]),
                          ("manifest", csvs["manifest"])):
        ext = "json" if name == "manifest" else "csv"
        path = f"{args.out_prefix}_{name}.{ext}"
        _write_output(path, content)
        written.append(path)
    _emit(args, digests, {"messages": len(pf.messages),
                          "rows": len(sm.rows)}, written)


def _cmd_symmetric_check(args, digests: dict[str, str]) -> None:
    inst = _load_instance(args.inst0, digests)
    rel = _relaxation(args.relaxation, 2 * inst.n, digests)
    report = symmetric_contradiction_check(inst, rel, parse_rational(args.c),
                                           args.d)
    _emit(args, digests, {"report": json.loads(
        symmetric_report_to_json(report))})


def _cmd_gen(args, _digests) -> None:
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
    p.add_argument("--in", required=True)
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
        # random.Random seeds with |seed| and trial seeds wrap mod 2^64, so
        # a seed outside [0, 2^64) would alias another
        seed = getattr(args, "seed", 0)
        if not 0 <= seed < 1 << 64:
            raise InputError(f"need 0 <= seed < 2^64, got seed={seed}")
        args.func(args, {})  # the digests of the files the command reads
    except LiftgapError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 1
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
