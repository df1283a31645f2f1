"""Command-line front end.

The commands read files and report; the library decides what it admits, and
its refusals become exit codes.  Exit codes: 0 for a positive verdict
(valid, found, satisfiable), 1 for a negative one, 2 for input or syntax
errors (a ValueError, such as a formula whose clauses use an operator it does
not declare), 3 for contract violations such as a supplied set that is not a
backdoor (:class:`~ltlbd.evaluation.BackdoorError`), 4 for an internal error
(any other exception, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

from .detection import HORN, KROM, detect_horn_backdoor, detect_krom_backdoor
from .evaluation import BackdoorError, evaluate_horn_star
from .fileio import (ParseError, format_model_table, format_snf,
                     parse_dimacs_col, parse_model_table, parse_snf)
from .formula import (OPERATOR_LETTERS, VAR_NAME_RE, Mod, operator_set,
                      validate_normal_form)
from .gen import planted_instance
from .interp import first_violation
from .oracle import star_sat_oracle, window_sat_oracle
from .propsat import to_dimacs
from .reductions import FP_HORN, STAR_KROM, threecol_to_fp_horn, threecol_to_star_krom


def _print_report(command: str, verdict: str, t0: float, **fields) -> None:
    print(f"command: {command}")
    for key, value in fields.items():
        print(f"{key.replace('_', '-')}: {value}")
    print(f"verdict: {verdict}")
    print(f"time: {time.perf_counter() - t0:.3f}s")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _ops_from_string(text: str) -> frozenset[Mod]:
    """The ``--ops`` operators: letters of an ``operators:`` line, spaces
    and commas skipped."""
    ops = set()
    for ch in text:
        if ch in " ,":
            continue
        if ch not in OPERATOR_LETTERS:
            raise ParseError(f"unknown operator character {ch!r}")
        ops.add(OPERATOR_LETTERS[ch])
    return operator_set(ops)


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    phi = parse_snf(_read(args.file))
    issues = validate_normal_form(phi)
    for issue in issues:
        print(f"violation: {issue.kind}: {issue.message}")
    _print_report("validate", "VALID" if not issues else "INVALID", t0,
                  file=args.file, vars=len(phi.variables),
                  clauses=len(phi.clauses))
    return 0 if not issues else 1


def cmd_detect(args) -> int:
    t0 = time.perf_counter()
    phi = parse_snf(_read(args.file))
    detect = detect_horn_backdoor if args.target == HORN else detect_krom_backdoor
    found = detect(phi, args.k)
    stats = dict(file=args.file, target=args.target, k=args.k,
                 vars=len(phi.variables), clauses=len(phi.clauses))
    if found is None:
        _print_report("detect", "NONE", t0, **stats)
        return 1
    _print_report("detect", "BACKDOOR_FOUND", t0, **stats,
                  backdoor_size=len(found))
    print("backdoor: " + ",".join(sorted(found)))
    return 0


def _write_certificate(args, interp) -> Path:
    """Write a model table to ``--model-out``, by default ``<file>.model``."""
    out = Path(args.model_out or Path(args.file).with_suffix(".model"))
    out.write_text(format_model_table(interp), encoding="utf-8")
    return out


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    phi = parse_snf(_read(args.file))
    # names are stripped and checked as on an ``init:`` line; a repeated
    # name is one backdoor variable, as the library evaluates it
    names = [v for v in (v.strip() for v in args.backdoor.split(",")) if v]
    for name in names:
        if not VAR_NAME_RE.match(name):
            raise ParseError(f"invalid variable name {name!r}")
    backdoor = tuple(dict.fromkeys(names))
    dump = None
    if args.dump_cnf:
        index = itertools.count()

        def dump(_, cnf):
            prefix = f"{args.dump_cnf}.{next(index)}"
            text, atoms = to_dimacs(cnf)
            Path(prefix + ".cnf").write_text(text, encoding="utf-8")
            Path(prefix + ".names").write_text("\n".join(atoms) + "\n",
                                               encoding="utf-8")
    result = evaluate_horn_star(phi, backdoor, on_candidate=dump)
    stats = dict(file=args.file, backdoor=",".join(backdoor) or "(empty)",
                 vars=len(phi.variables), clauses=len(phi.clauses),
                 backdoor_size=len(backdoor))
    if not result.satisfiable:
        _print_report("evaluate", "UNSAT", t0, **stats)
        return 1
    out = _write_certificate(args, result.interpretation)
    _print_report("evaluate", "SAT", t0, certificate=out, **stats)
    return 0


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    phi = parse_snf(_read(args.file))
    if args.oracle == "star":
        if args.window is not None:
            raise ValueError("--window applies only to the window oracle")
        witness = star_sat_oracle(phi)
        negative = "UNSAT"
    else:
        if args.window is None:
            raise ValueError("--window is required for the window oracle")
        witness = window_sat_oracle(phi, args.window)
        negative = "NO_MODEL_WITHIN_WINDOW"
    stats = dict(file=args.file, oracle=args.oracle,
                 vars=len(phi.variables), clauses=len(phi.clauses))
    if args.window is not None:
        stats["window"] = args.window
    if witness is None:
        _print_report("solve", negative, t0, **stats)
        return 1
    out = _write_certificate(args, witness)
    _print_report("solve", "SAT", t0, certificate=out, **stats)
    return 0


def _write_formula(path: Path, phi, backdoor) -> Path:
    """Write the formula and its comma-separated ``.backdoor`` sidecar;
    returns the sidecar path."""
    path.write_text(format_snf(phi), encoding="utf-8")
    sidecar = path.with_suffix(path.suffix + ".backdoor")
    sidecar.write_text(",".join(backdoor) + "\n", encoding="utf-8")
    return sidecar


def cmd_reduce(args) -> int:
    t0 = time.perf_counter()
    graph = parse_dimacs_col(_read(args.graph))
    if args.target == STAR_KROM:
        phi, backdoor = threecol_to_star_krom(graph)
    else:
        phi, backdoor = threecol_to_fp_horn(graph)
    out = Path(args.out) if args.out else Path(args.graph).with_suffix(".snf")
    sidecar = _write_formula(out, phi, backdoor)
    _print_report("reduce", "OK", t0, graph=args.graph, target=args.target,
                  vertices=graph.n, edges=len(graph.edges),
                  vars=len(phi.variables), clauses=len(phi.clauses),
                  formula=out, backdoor_file=sidecar)
    return 0


def cmd_check_model(args) -> int:
    t0 = time.perf_counter()
    phi = parse_snf(_read(args.formula))
    interp = parse_model_table(_read(args.model))
    if set(interp.left) != set(phi.variables):
        raise ValueError("model variable set does not match the formula")
    found = first_violation(interp, phi)
    stats = dict(formula=args.formula, model=args.model,
                 vars=len(phi.variables), clauses=len(phi.clauses))
    if found is None:
        _print_report("check-model", "VALID", t0, **stats)
        return 0
    what, world = found
    if isinstance(what, str):
        violated = f"init {what}"
    else:
        body = " | ".join(map(str, what)) or "(empty)"
        violated = f"clause {body} at world {world}"
    _print_report("check-model", "INVALID", t0, **stats, violated=violated)
    return 1


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    ops = _ops_from_string(args.ops)
    phi, backdoor = planted_instance(args.seed, args.vars, args.clauses,
                                     args.plant, args.backdoor_size, ops)
    out = Path(args.out)
    sidecar = _write_formula(out, phi, backdoor)
    _print_report("gen", "OK", t0, seed=args.seed, target=args.plant,
                  vars=len(phi.variables), clauses=len(phi.clauses),
                  backdoor=",".join(backdoor) or "(empty)",
                  formula=out, backdoor_file=sidecar)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlbd",
        description="Backdoor detection and evaluation for clausal temporal "
                    "formulas, with brute-force oracles and 3-colouring "
                    "reduction gadgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a formula file and check its shape")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("detect", help="find a strong backdoor of bounded size")
    p.add_argument("file")
    p.add_argument("--class", dest="target", choices=[HORN, KROM], required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate",
                       help="decide satisfiability through a Horn backdoor")
    p.add_argument("file")
    p.add_argument("--backdoor", required=True,
                   help="comma-separated variable names (empty for none)")
    p.add_argument("--model-out")
    p.add_argument("--dump-cnf", metavar="PREFIX",
                   help="dump each tried candidate's encoding as DIMACS + names")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("solve", help="run a brute-force oracle")
    p.add_argument("file")
    p.add_argument("--oracle", choices=["star", "window"], required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--model-out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="turn a DIMACS graph into a formula")
    p.add_argument("graph")
    p.add_argument("--target", choices=[STAR_KROM, FP_HORN], required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check-model", help="check a model table against a formula")
    p.add_argument("formula")
    p.add_argument("model")
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("gen", help="generate a planted-backdoor instance")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("--plant", choices=[HORN, KROM], required=True)
    p.add_argument("--backdoor-size", type=int, required=True)
    p.add_argument("--ops", required=True,
                   help="operator letters out of F, P, * (e.g. '*' or 'FP')")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="gen.snf")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ParseError and BackdoorError too
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BackdoorError) else 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
