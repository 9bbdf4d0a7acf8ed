"""Command-line front end.

Exit codes follow one convention everywhere:

* 0 -- the requested computation succeeded and every checked property held
* 1 -- a mathematical property was falsified (formula/direct disagreement,
       a failed battery property, a broken identity)
* 2 -- usage or input error (bad flags, malformed JSON, violated
       preconditions such as the side conditions)

The command functions return 0 or 1 from their result and raise on
anything else. `main` alone maps exceptions to a message and exit code,
so every command treats an error alike: `ValueError` (which covers
ParseError, ShapeError, ConditionsViolatedError and a file that is not
UTF-8), `OSError` and NoGroupInverseError exit 2; IdentityFalsifiedError
and InternalInvariantError exit 1 as "falsified". After the message, a
falsification prints each of its two sides that is set
(IdentityFalsifiedError's `lhs`, then `rhs`) as one JSON matrix per line.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .drazin import drazin
from .errors import IdentityFalsifiedError, InternalInvariantError, NoGroupInverseError
from .generators import FAMILIES, GeneratorSpec, gen_family
from .transfer import (
    MAX_POWER, MAX_POWER_BITS, power_instance, transfer_drazin, transfer_gdrazin, transfer_group
)
from .verify import VerifyReport, run_battery, summarize

_TRANSFER_MODES = {
    "gdrazin": transfer_gdrazin,
    "drazin": transfer_drazin,
    "group": transfer_group,
}


def _print(args, to_obj, value, code: int = 0) -> int:
    """Print to_obj(value) as JSON and return `code`. An entry with more
    digits than `str` converts is an input error: the input made it so large."""
    try:
        obj = to_obj(value)
    except ValueError as exc:
        raise ValueError(f"result too large to print: {exc}") from exc
    print(jsonio.dumps_pretty(obj) if args.pretty else jsonio.dumps(obj))
    return code


def _cmd_drazin(args) -> int:
    data = drazin(jsonio.load_matrix_file(args.input))
    return _print(args, jsonio.drazin_to_obj, data)


def _cmd_transfer(args) -> int:
    outcome = _TRANSFER_MODES[args.mode](jsonio.load_quadruple_file(args.input))
    return _print(args, jsonio.outcome_to_obj, outcome, 0 if outcome.agrees else 1)


def _cmd_check_conditions(args) -> int:
    report = jsonio.load_quadruple_file(args.input).conditions
    return _print(args, jsonio.condition_report_to_obj, report, 0 if report.all_hold else 1)


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.family, args.size, args.seed, args.count)
    text = jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), gen_family(spec)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_power(args) -> int:
    derived = power_instance(jsonio.load_quadruple_file(args.input), args.n)
    return _print(args, jsonio.quadruple_to_obj, derived)


def _cmd_verify(args) -> int:
    spec = GeneratorSpec(args.family, args.size, args.seed, args.count)
    report = run_battery(gen_family(spec))
    code = _print(args, VerifyReport.to_obj, report, 0 if report.ok else 1)
    print(summarize(report), file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drazinlab",
        description="Exact Drazin/group inverse computation and transfer-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    def add_corpus_flags(p):
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--size", type=int, default=2)
        p.add_argument("--count", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

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
    add_corpus_flags(p)
    p.add_argument("--output", help="corpus file path (stdout when omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("power", help="derive the power-instance quadruple and re-verify")
    p.add_argument("--input", required=True, help="path to a quadruple JSON file")
    n_help = f"power to apply (1 <= n <= {MAX_POWER}, n * longest entry bits <= {MAX_POWER_BITS})"
    p.add_argument("--n", type=int, required=True, help=n_help)
    add_output_flags(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("verify", help="run the full property battery on a generated corpus")
    add_corpus_flags(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NoGroupInverseError) as exc:
        message, code, witness = str(exc), 2, ()
    except (IdentityFalsifiedError, InternalInvariantError) as exc:
        message, code = f"falsified: {exc}", 1
        witness = (getattr(exc, "lhs", None), getattr(exc, "rhs", None))
    print(f"error: {message}", file=sys.stderr)
    for side in witness:
        if side is not None:
            try:
                print(jsonio.dumps(jsonio.matrix_to_obj(side)), file=sys.stderr)
            except ValueError:
                print("error: witness too large to print", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
