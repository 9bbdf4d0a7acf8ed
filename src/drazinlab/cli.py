"""Command-line front end.

Exit codes follow one convention everywhere:

* 0 -- the requested computation succeeded and every checked property held
* 1 -- a mathematical property was falsified (formula/direct disagreement,
       a failed battery property, a broken identity)
* 2 -- usage or input error (bad flags, malformed JSON, violated
       preconditions such as the side conditions)
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .drazin import drazin
from .errors import (
    ConditionsViolatedError,
    IdentityFalsifiedError,
    InternalInvariantError,
    InternalInvertibilityError,
    NoGroupInverseError,
    ParseError,
    ShapeError,
)
from .generators import FAMILIES, GeneratorSpec, gen_family
from .transfer import check_conditions, power_instance, transfer_drazin, transfer_gdrazin, transfer_group
from .verify import run_battery, summarize

_TRANSFER_MODES = {
    "gdrazin": transfer_gdrazin,
    "drazin": transfer_drazin,
    "group": transfer_group,
}


def _print(obj, args) -> None:
    text = jsonio.dumps_pretty(obj) if args.pretty else jsonio.dumps(obj)
    print(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_drazin(args) -> int:
    try:
        matrix = jsonio.load_matrix_file(args.input)
        data = drazin(matrix)
    except (ParseError, ShapeError, OSError) as exc:
        return _fail(str(exc), 2)
    _print(jsonio.drazin_to_obj(data), args)
    return 0


def _cmd_transfer(args) -> int:
    try:
        quad = jsonio.load_quadruple_file(args.input)
    except (ParseError, ShapeError, OSError) as exc:
        return _fail(str(exc), 2)
    try:
        outcome = _TRANSFER_MODES[args.mode](quad)
    except (ConditionsViolatedError, NoGroupInverseError) as exc:
        return _fail(str(exc), 2)
    except (IdentityFalsifiedError, InternalInvertibilityError) as exc:
        return _fail(f"falsified: {exc}", 1)
    _print(jsonio.outcome_to_obj(outcome), args)
    return 0 if outcome.agrees else 1


def _cmd_check_conditions(args) -> int:
    try:
        quad = jsonio.load_quadruple_file(args.input)
    except (ParseError, ShapeError, OSError) as exc:
        return _fail(str(exc), 2)
    report = check_conditions(quad)
    _print(jsonio.condition_report_to_obj(report), args)
    return 0 if report.all_hold else 1


def _cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(args.family, args.size, args.seed, args.count)
        quads = gen_family(spec)
    except ValueError as exc:
        return _fail(str(exc), 2)
    text = jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), quads))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail(str(exc), 2)
    else:
        print(text)
    return 0


def _cmd_power(args) -> int:
    try:
        quad = jsonio.load_quadruple_file(args.input)
    except (ParseError, ShapeError, OSError) as exc:
        return _fail(str(exc), 2)
    try:
        derived = power_instance(quad, args.n)
    except (ConditionsViolatedError, ValueError) as exc:
        return _fail(str(exc), 2)
    except InternalInvariantError as exc:
        return _fail(f"falsified: {exc}", 1)
    _print(jsonio.quadruple_to_obj(derived), args)
    return 0


def _cmd_verify(args) -> int:
    try:
        spec = GeneratorSpec(args.family, args.size, args.seed, args.count)
        quads = gen_family(spec)
    except ValueError as exc:
        return _fail(str(exc), 2)
    report = run_battery(quads)
    _print(report.to_obj(), args)
    if not args.json:
        print(summarize(report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drazinlab",
        description="Exact Drazin/group inverse computation and transfer-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="machine output only")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("drazin", help="Drazin data of one matrix")
    p.add_argument("--input", required=True, help="path to a matrix JSON file")
    add_output_flags(p)
    p.set_defaults(func=_cmd_drazin)

    p = sub.add_parser("transfer", help="evaluate a transfer formula on a quadruple")
    p.add_argument("--input", required=True, help="path to a quadruple JSON file")
    p.add_argument("--mode", choices=sorted(_TRANSFER_MODES), default="drazin")
    add_output_flags(p)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("check-conditions", help="report the four side conditions")
    p.add_argument("--input", required=True, help="path to a quadruple JSON file")
    add_output_flags(p)
    p.set_defaults(func=_cmd_check_conditions)

    p = sub.add_parser("gen", help="write a deterministic corpus of quadruples")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="corpus file path (stdout when omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("power", help="derive the power-instance quadruple and re-verify")
    p.add_argument("--input", required=True, help="path to a quadruple JSON file")
    p.add_argument("--n", type=int, required=True, help="power to apply (n >= 1)")
    add_output_flags(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("verify", help="run the full property battery on a generated corpus")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
