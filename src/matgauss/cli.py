"""Command-line interface.

Subcommands: eval-gl, eval-sl, count-trace, verify; each parser sets the
``run`` function ``main`` calls, which returns the JSON document and the exit
code.  ``main`` opens --output before that work, so an unwritable path is a
usage error at once (and a failed run leaves the file empty), and writes the
document after it.  All output is JSON with sorted keys; only verify
samples, and fixing its --seed fixes the output byte for byte.  Exit
codes: 0 success, 1 verification failure, 2 usage error.  GAUSS_SUMS_BUDGET,
the package's one enumeration budget, caps every brute-force check: over it,
eval-gl, eval-sl and count-trace report the oracle as skipped, and verify
fails with a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .budget import EnumerationBudgetError
from .characters import AdditiveCharacter, MultiplicativeCharacter
from .finite_field import make_field
from .gauss_sums import count_trace_bruteforce, count_trace_closed, oracle_report, verify_grid
from .matrix_fq import MatrixFq


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matgauss",
        description="Exact Gauss sums over GL_n/SL_n of finite fields, "
                    "with enumeration-backed verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field_args(sp):
        sp.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
        sp.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
        sp.add_argument("--n", type=int, required=True, help="matrix dimension")
        sp.add_argument("--output", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("eval-gl", help="closed-form GL Gauss sum for one matrix")
    sp.set_defaults(run=lambda args: _cmd_eval(args, "GL"))
    field_args(sp)
    sp.add_argument("--matrix", required=True, help="row-major JSON matrix of encodings")
    sp.add_argument("--chi", dest="chi_index", type=int, default=0,
                    help="multiplicative character index (default 0, trivial)")
    sp.add_argument("--lambda", dest="lambda_twist", type=int, default=1,
                    help="additive character twist encoding (default 1)")
    sp.add_argument("--check", action="store_true", help="also run the enumeration oracle")

    sp = sub.add_parser("eval-sl", help="closed-form SL Gauss sum for one matrix")
    sp.set_defaults(run=lambda args: _cmd_eval(args, "SL"))
    field_args(sp)
    sp.add_argument("--matrix", required=True, help="row-major JSON matrix of encodings")
    sp.add_argument("--lambda", dest="lambda_twist", type=int, default=1,
                    help="additive character twist encoding (default 1)")
    sp.add_argument("--check", action="store_true", help="also run the enumeration oracle")

    sp = sub.add_parser("count-trace", help="count invertible matrices by trace")
    sp.set_defaults(run=_cmd_count_trace)
    field_args(sp)
    sp.add_argument("--beta", type=int, default=None,
                    help="trace value encoding (default: all of F_q)")
    sp.add_argument("--check", action="store_true", help="also count by enumeration")

    sp = sub.add_parser("verify", help="closed forms vs oracles over a grid")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("--max-n", type=int, default=2, help="largest dimension (default 2)")
    sp.add_argument("--fields", default="2,3,4,5",
                    help="comma-separated prime powers (default 2,3,4,5)")
    sp.add_argument("--samples", type=int, default=5,
                    help="random matrices per rank (default 5)")
    sp.add_argument("--lambda", dest="lambda_twist", type=int, default=1,
                    help="additive character twist encoding (default 1)")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.add_argument("--output", default=None, help="output path (default: stdout)")

    return parser


def _parse_matrix(text: str, field, n: int) -> MatrixFq:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"matrix is not valid JSON: {err}") from err
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(r, list) or len(r) != n for r in data)):
        raise ValueError(f"matrix must be a JSON array of {n} rows of {n} integers")
    for row in data:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError("matrix entries must be integers")
    return MatrixFq(field, data)


def _cmd_eval(args, group: str) -> tuple[dict, int]:
    fld = make_field(args.p, args.e)
    lam = AdditiveCharacter(fld.element(args.lambda_twist))
    U = _parse_matrix(args.matrix, fld, args.n)
    chi = MultiplicativeCharacter(fld, args.chi_index) if group == "GL" else None
    try:
        report = oracle_report(U, chi, lam, check=args.check)
    except EnumerationBudgetError as err:
        # refused before the walk and the closed form, so nothing runs twice
        report = oracle_report(U, chi, lam, check=False)._replace(note=f"oracle skipped: {err}")
    doc = {"command": f"eval-{group.lower()}", **report.to_json_dict()}
    return doc, 1 if report.verified is False else 0


def _cmd_count_trace(args) -> tuple[dict, int]:
    fld = make_field(args.p, args.e)
    betas = range(fld.q) if args.beta is None else [args.beta]
    rows = []
    all_ok = True
    checked = False
    for b in betas:
        beta = fld.element(b)
        closed = count_trace_closed(fld, args.n, beta)
        entry = {"beta": b, "N_closed": closed, "N_bruteforce": None}
        if args.check:
            try:
                brute = count_trace_bruteforce(fld, args.n, beta)
                entry["N_bruteforce"] = brute
                checked = True
                if brute != closed:
                    all_ok = False
            except EnumerationBudgetError as err:
                entry["note"] = f"oracle skipped: {err}"
        rows.append(entry)
    doc = {
        "command": "count-trace",
        "p": fld.p, "e": fld.e, "q": fld.q, "n": args.n,
        "counts": rows,
        "verified": all_ok if checked else None,
    }
    return doc, 1 if checked and not all_ok else 0


def _cmd_verify(args) -> tuple[dict, int]:
    sizes = [int(tok) for tok in args.fields.split(",") if tok.strip()]
    reports = verify_grid(
        args.max_n, sizes, samples=args.samples, seed=args.seed,
        lambda_twist=args.lambda_twist,
    )
    passed = sum(1 for r in reports if r.verified)
    doc = {
        "command": "verify",
        "max_n": args.max_n,
        "fields": sorted(set(sizes)),
        "samples": args.samples,
        "seed": args.seed,
        "lambda_twist": args.lambda_twist,
        "summary": {"cells": len(reports), "passed": passed,
                    "failed": len(reports) - passed},
        "reports": [r.to_json_dict() for r in reports],
    }
    return doc, 0 if passed == len(reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # opened before the work, so an unwritable path fails at once
        out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
        try:
            doc, code = args.run(args)
            out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        finally:
            if out is not sys.stdout:
                out.close()
        return code
    except (ValueError, ZeroDivisionError, EnumerationBudgetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
