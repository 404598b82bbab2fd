"""Command-line front end.

Subcommands: ``qp-num`` (one deformed number), ``series`` (knot or link
polynomial series), ``table`` (knot table with classical names),
``verify`` (identity checks) and ``eval`` (expression evaluation and
identity assertion).

Exit codes: 0 on success, 1 on a failed verification check, failed
assertion or impossible exact operation, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from qpknot.errors import (
    BadRangeError,
    DivisionByZeroError,
    ExprSyntaxError,
    NegativeIndexError,
    NotDivisibleError,
    NotExpressibleError,
    UnknownCheckError,
)
from qpknot.exprparse import parse_expression, eval_expression
from qpknot.laurent import LaurentPoly, _render_terms
from qpknot.qpnumbers import Family, family_spec, qp_number
from qpknot.skein import InvariantKind, InvariantSeries, knot_series, link_series, to_az_form
from qpknot.verify import CheckReport, check_names, run_all, run_check

_FORMATS = ("text", "json", "csv", "latex")

_FAMILY_LATEX = {
    Family.ALEXANDER: "[{}]^{{A}}",
    Family.JONES: "[{}]^{{V}}",
    Family.HOMFLY: "[{}]^{{H}}",
    Family.H1: "[{}]^{{H_1}}",
    Family.H2: "[{}]^{{H_2}}",
    Family.BMQ: "[{}]_{{q}}",
}

_SERIES_LATEX = "P_{{{},2}}"

_KNOT_NAMES = {1: "0_1", 3: "3_1", 5: "5_1", 7: "7_1", 9: "9_1"}  # T(n,2) by n


def _latex_mono(items) -> str:
    return " ".join(
        v if n == d == 1 else f"{v}^{{{n}}}" if d == 1 else f"{v}^{{{n}/{d}}}"
        for v, n, d in items
    )


def latex_poly(p: LaurentPoly) -> str:
    """Render with braced exponents, same canonical term order as text."""
    return _render_terms(p, _latex_mono, " ")


def _csv_rows(rows: list[tuple[int, LaurentPoly]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(["n", "polynomial"])
    for n, p in rows:
        writer.writerow([n, str(p)])
    return buf.getvalue()


def _emit_series(rows: list[tuple[int, LaurentPoly]], fmt: str, out, line, lhs, doc) -> None:
    """Print ``rows`` of (n, polynomial) in ``fmt``: text prints line(n, p)
    per row, LaTeX ``$lhs(n) = p$`` per row, CSV the rows, and JSON the
    object ``doc()``, which no other format builds."""
    if fmt == "text":
        for n, p in rows:
            print(line(n, p), file=out)
    elif fmt == "csv":
        out.write(_csv_rows(rows))
    elif fmt == "latex":
        for n, p in rows:
            print(f"${lhs(n)} = {latex_poly(p)}$", file=out)
    else:
        print(json.dumps(doc()), file=out)


def _cmd_qp_num(args, out) -> int:
    family = Family(args.family)
    poly = qp_number(family_spec(family), args.n)
    label = _FAMILY_LATEX[family].format
    doc = lambda: {"family": family.value, "n": args.n, "poly": poly.to_json_dict()}
    _emit_series([(args.n, poly)], args.format, out, lambda n, p: p, label, doc)
    return 0


def _cmd_series(args, out) -> int:
    series = (knot_series if args.knots else link_series)(InvariantKind(args.invariant), args.max)
    rows = [(n, series.entry(n)) for n in series.indices()]
    line = lambda n, p: f"P({n},2) = {p}"
    _emit_series(rows, args.format, out, line, _SERIES_LATEX.format, series.to_json_dict)
    return 0


def _cmd_table(args, out) -> int:
    kind = InvariantKind(args.invariant)
    series = knot_series(kind, args.max)
    convert = to_az_form if args.az else lambda p: p
    rows = [(n, convert(series.entry(n))) for n in series.indices()]
    line = lambda n, p: f"m={n // 2}\tT({n},2)\t{_KNOT_NAMES.get(n, '-')}\t{p}"
    doc = lambda: InvariantSeries(kind, "knot", dict(rows)).to_json_dict()
    _emit_series(rows, args.format, out, line, _SERIES_LATEX.format, doc)
    return 0


def _print_report(report: CheckReport, out) -> None:
    lo, hi = report.n_range
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}  {report.name}  (n={lo}..{hi})", file=out)
    if report.detail:
        print(f"      {report.detail}", file=out)


def _cmd_verify(args, out) -> int:
    if args.check:
        reports = [run_check(args.check, args.n_max)]
    else:
        reports = run_all(args.n_max)
    for report in reports:
        _print_report(report, out)
    ok = all(r.passed for r in reports)
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed", file=out)
    return 0 if ok else 1


def _cmd_eval(args, out) -> int:
    if args.assert_identity is not None:
        pieces = args.assert_identity.split("==")
        if len(pieces) != 2:
            print("error: --assert needs exactly one '=='", file=sys.stderr)
            return 2
        lhs = eval_expression(parse_expression(pieces[0]))
        rhs = eval_expression(parse_expression(pieces[1], len(pieces[0]) + 2))
        if lhs == rhs:
            print(f"identity holds: {lhs}", file=out)
            return 0
        print(f"identity FAILS: {lhs} != {rhs}", file=out)
        return 1
    poly = eval_expression(parse_expression(args.expr))
    print(poly, file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpknot",
        description="Exact torus-knot polynomial invariants via deformed integer families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qp-num", help="print one deformed number [n]")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--format", default="text", choices=_FORMATS)

    p = sub.add_parser("series", help="print a knot or link polynomial series")
    p.add_argument("--invariant", required=True, choices=[k.value for k in InvariantKind])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--knots", action="store_true", help="torus knots T(2m+1,2), --max is m")
    group.add_argument("--links", action="store_true", help="series L(n,2), --max is n")
    p.add_argument("--max", required=True, type=int)
    p.add_argument("--format", default="text", choices=_FORMATS)

    p = sub.add_parser("table", help="knot table T(2m+1,2) with classical names")
    p.add_argument("--invariant", required=True, choices=[k.value for k in InvariantKind])
    p.add_argument("--max", required=True, type=int, help="largest m")
    p.add_argument("--format", default="text", choices=_FORMATS)
    p.add_argument("--az", action="store_true", help="rewrite entries over (a, z)")

    p = sub.add_parser("verify", help="run the identity checks")
    p.add_argument(
        "--check",
        default=None,
        help=f"one of: {', '.join(check_names())}; "
        "a knot-vs-link pass relies on az-roundtrip passing too",
    )
    p.add_argument("--n-max", dest="n_max", default=50, type=int)

    p = sub.add_parser("eval", help="evaluate an expression or assert an identity")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--assert", dest="assert_identity", default=None, metavar="'LHS == RHS'")

    return parser


_DISPATCH = {
    "qp-num": _cmd_qp_num,
    "series": _cmd_series,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}


def _eval_argv(argv: list[str]) -> list[str]:
    """eval's arguments with their expressions out of argparse's way.

    argparse takes a word that starts with "-", such as "-t", "-h^2" or an
    --assert value "-t==-t", for an option.  Before any "--", the --assert
    value is joined to its option as "--assert=VALUE", and a lone operand
    that starts with "-" goes after a "--".  No expression starts with
    "--", so a mistyped long option stays one, and "-h" stays help.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    head, tail = argv[:cut], argv[cut:]
    if "--assert" in head[:-1]:
        i = head.index("--assert")
        head[i : i + 2] = [f"--assert={head[i + 1]}"]
    operands = [a for a in head if not a.startswith("--")]
    lone = operands[0] if len(operands) == 1 and len(tail) < 2 else ""
    if lone.startswith("-") and lone != "-h":
        head.remove(lone)
        tail = ["--", lone]
    return head + tail


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["eval"]:
        argv = ["eval", *_eval_argv(argv[1:])]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "eval" and (args.expr is None) == (args.assert_identity is None):
        print("error: eval needs an expression or --assert, not both", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args, out)
    except (ExprSyntaxError, UnknownCheckError, BadRangeError, NegativeIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotDivisibleError, DivisionByZeroError, NotExpressibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``qpknot ... | head``).  Point
        # stdout at devnull so the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
