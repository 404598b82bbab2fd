"""The CLI contract under generated input: ``cli.main`` exits 0, 1 or 2 and
raises nothing; a failure that is not a verdict prints nothing to stdout
and one ``error:`` line to stderr (argparse's usage errors excepted); what
``eval`` prints parses back to the value of the expression and, at the
rational point of the benchmark's stdlib oracle (``perfbench/oracle.py``),
evaluates to the oracle's exact value of the expression; and the JSON that
``qp-num``, ``series`` and ``table`` print loads back through
``from_json_dict`` to the value the library computes.  A parse error of
``eval`` points into the text it names: at a character that is not
whitespace, or at the end (a blank text at its start).

Inputs follow the grammar in the ``exprparse`` docstring, with one-character
insert, delete and truncate corruptions, and argv for the other subcommands
with numbers out of range.  Exponents stay at most 12 and indices at most
30, since no request has a work limit yet.  Runs are derandomized, with
fixed example counts."""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from qpknot import (
    Family,
    InvariantKind,
    InvariantSeries,
    LaurentPoly,
    check_names,
    family_spec,
    knot_series,
    link_series,
    qp_number,
    to_az_form,
)
from qpknot.cli import main
from qpknot.errors import ExprSyntaxError
from qpknot.exprparse import parse_expression, parse_poly

_SETTINGS = dict(derandomize=True, deadline=None, database=None)

# The oracle never imports qpknot; it is loaded from its file, without
# putting perfbench/ on sys.path.
_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# -- expressions from the exprparse grammar ----------------------------------
#
# A seeded walk over the grammar: Hypothesis draws the seed, so examples are
# fixed under derandomize and cost one draw each.


def _expr(rnd: Random, depth: int) -> str:
    text = _term(rnd, depth)
    for _ in range(rnd.randrange(3)):
        text += rnd.choice([" + ", " - ", "+", "-"]) + _term(rnd, depth)
    return text


def _term(rnd: Random, depth: int) -> str:
    text = "*".join(_factor(rnd, depth) for _ in range(rnd.randint(1, 2)))
    return text + ("/" + _factor(rnd, depth) if rnd.random() < 0.3 else "")


def _factor(rnd: Random, depth: int) -> str:
    """A variable takes any exponent and a number an integer one; a
    parenthesized sum takes a small integer power, so that one expression
    stays cheap to evaluate."""
    sign = rnd.choice(["", "-"])
    kind = rnd.randrange(3 if depth else 2)
    if kind == 0:
        return sign + rnd.choice("ahpqt") + rnd.choice(["", "^" + _exponent(rnd)])
    if kind == 1:
        return sign + str(rnd.randint(0, 12)) + rnd.choice(["", "^" + _int_exponent(rnd)])
    return f"{sign}({_expr(rnd, depth - 1)})" + rnd.choice(["", "^2", "^-1", "^0"])


def _int_exponent(rnd: Random) -> str:
    return rnd.choice(["", "-"]) + str(rnd.randint(0, 12))


def _exponent(rnd: Random) -> str:
    if rnd.random() < 0.5:
        return _int_exponent(rnd)
    return f"({_int_exponent(rnd)}{rnd.choice(['', '/1', '/2', '/3', '/12'])})"


def _corrupted(rnd: Random) -> str:
    """An expression with one character inserted, deleted, or the text cut."""
    text = _expr(rnd, 1)
    i = rnd.randint(0, len(text))
    how = rnd.choice(["insert", "delete", "truncate"])
    if how == "insert":
        return text[:i] + rnd.choice("+-*/^()0123456789az $.=\u00b2") + text[i:]
    if how == "delete":
        return text[:i] + text[i + 1 :]
    return text[:i]


_seeds = st.integers(0, 2**32).map(Random)
expressions = _seeds.map(lambda rnd: _expr(rnd, 1))
corrupted = _seeds.map(_corrupted)


# -- argv for the other subcommands ------------------------------------------

_formats = st.sampled_from(["text", "json", "csv", "latex"])
_numbers = st.one_of(st.integers(-5, 30).map(str), st.sampled_from(["x", "1.5", "", "-0"]))

argvs = st.one_of(
    st.builds(
        lambda f, n, fmt: ["qp-num", "--family", f, "--n", n, "--format", fmt],
        st.sampled_from([f.value for f in Family] + ["kauffman"]),
        _numbers,
        _formats,
    ),
    st.builds(
        lambda k, which, n, fmt: ["series", "--invariant", k, which, "--max", n, "--format", fmt],
        st.sampled_from([k.value for k in InvariantKind]),
        st.sampled_from(["--knots", "--links"]),
        _numbers,
        _formats,
    ),
    st.builds(
        lambda k, n, fmt, az: ["table", "--invariant", k, "--max", n, "--format", fmt] + az,
        st.sampled_from([k.value for k in InvariantKind]),
        _numbers,
        _formats,
        st.sampled_from([[], ["--az"]]),
    ),
    st.builds(
        lambda check, n: ["verify", *check, "--n-max", n],
        st.sampled_from([[]] + [["--check", c] for c in check_names()] + [["--check", "x"]]),
        st.one_of(st.integers(-3, 6).map(str), st.sampled_from(["x", ""])),
    ),
)


# -- the contract ------------------------------------------------------------


def _run(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, in process."""
    out, sys_out, err = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sys_out), contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue() + sys_out.getvalue(), err.getvalue()


def _is_verdict(argv, code, out):
    """A failed check or assertion, which prints its verdict to stdout."""
    return code == 1 and (
        (argv[0] == "verify" and out.endswith(" checks passed\n"))
        or out.startswith("identity FAILS: ")
    )


def _check_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif not _is_verdict(argv, code, out):
        assert out == ""
        if err.startswith("usage: "):  # argparse: usage, then "prog: error: ..."
            assert code == 2 and ": error: " in err.splitlines()[-1]
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        _check_parse_offset(argv, err)
    return code, out


_OFFSET = re.compile(r"\(offset (\d+)\)$")


def _check_parse_offset(argv, err):
    """A parse error of ``eval`` or ``eval --assert`` names an offset k with
    0 <= k <= len(text) and either k == len(text) or text[k] not
    whitespace; a blank text gives "empty expression" at its start.  For
    ``--assert L==R`` the error is L's when L does not parse, else R's,
    whose offsets count from len(L) + 2.  Returns whether it checked one."""
    match = _OFFSET.search(err.rstrip("\n"))
    if argv[0] != "eval" or match is None:
        return False
    text, k = argv[-1], int(match.group(1))
    if "--assert" in argv:
        left, right = text.split("==")
        try:
            parse_expression(left)
        except ExprSyntaxError:
            text = left
        else:
            text, k = right, k - len(left) - 2
    if text.strip():
        assert 0 <= k <= len(text) and (k == len(text) or not text[k].isspace()), (argv, err)
    else:
        assert k == 0 and err.startswith("error: empty expression "), (argv, err)
    return True


def _check_oracle_value(expr, out):
    """What ``eval`` printed has the oracle's value of ``expr`` at its point.
    The oracle's point gives values to a, p, q and t only, so h is renamed,
    in the input and the output alike, to one of them that the input lacks.
    Inputs the oracle still cannot evaluate there are skipped: h beside all
    four, an exponent that is not a multiple of 1/6, or a division by a
    factor that vanishes at the point."""
    free = [v for v in "apqt" if v not in expr]
    if "h" in expr and free:
        expr, out = expr.replace("h", free[0]), out.replace("h", free[0])
    try:
        want = oracle.expression_value(expr)
    except (oracle.OracleError, ZeroDivisionError):
        return
    assert oracle.value(oracle.parse_text_poly(out)) == want


@settings(max_examples=150, **_SETTINGS)
@given(expressions)
def test_eval_output_parses_back(expr):
    code, out = _check_contract(["eval", expr])
    if code == 0:
        assert out.endswith("\n") and out.count("\n") == 1
        assert parse_poly(out) == parse_poly(expr)
        _check_oracle_value(expr, out)


@settings(max_examples=150, **_SETTINGS)
@given(corrupted)
def test_eval_on_corrupted_text(expr):
    code, out = _check_contract(["eval", expr])
    if code == 0 and expr != "-h":  # "-h" alone asks for eval's help
        assert parse_poly(out) == parse_poly(expr)
        _check_oracle_value(expr, out)


@settings(max_examples=80, **_SETTINGS)
@given(expressions, corrupted)
def test_eval_assert(lhs, rhs):
    _check_contract(["eval", "--assert", f"{lhs} == {rhs}"])


@settings(max_examples=600, **_SETTINGS)
@given(corrupted, expressions)
def test_parse_error_offsets(text, lhs):
    # a corrupted text that does not parse, alone and as the right side of
    # an identity, whose left side may fail to evaluate first (exit 1 or
    # 2, no offset); alone it names an offset unless argparse takes it for
    # an option
    try:
        parse_expression(text)
    except ExprSyntaxError:
        code, _, err = _run(["eval", text])
        assert code == 2
        assert _check_parse_offset(["eval", text], err) or err.startswith("usage: ")
        argv = ["eval", "--assert", f"{lhs} == {text}"]
        _check_parse_offset(argv, _run(argv)[2])


@settings(max_examples=120, **_SETTINGS)
@given(argvs)
def test_other_subcommands(argv):
    _check_contract(argv)


# -- JSON output loads back --------------------------------------------------

_json_requests = st.one_of(
    st.builds(
        lambda f, n: ["qp-num", "--family", f, "--n", n],
        st.sampled_from([f.value for f in Family]),
        _numbers,
    ),
    st.builds(
        lambda k, which, n: ["series", "--invariant", k, which, "--max", n],
        st.sampled_from([k.value for k in InvariantKind]),
        st.sampled_from(["--knots", "--links"]),
        _numbers,
    ),
    st.builds(
        lambda k, n, az: ["table", "--invariant", k, "--max", n] + az,
        st.sampled_from([k.value for k in InvariantKind]),
        _numbers,
        st.sampled_from([[], ["--az"]]),
    ),
)


def _library_value(argv):
    """What the library computes for a qp-num, series or table request:
    a polynomial for qp-num, an `InvariantSeries` otherwise."""
    if argv[0] == "qp-num":
        return qp_number(family_spec(Family(argv[2])), int(argv[4]))
    kind, n = InvariantKind(argv[2]), int(argv[argv.index("--max") + 1])
    if argv[0] == "series":
        return (knot_series if "--knots" in argv else link_series)(kind, n)
    series = knot_series(kind, n)
    if "--az" in argv:
        return InvariantSeries(kind, "knot", {m: to_az_form(p) for m, p in series.entries.items()})
    return series


@settings(max_examples=60, **_SETTINGS)
@given(_json_requests)
def test_json_output_loads_back(argv):
    code, out = _check_contract(argv + ["--format", "json"])
    if code != 0:
        return
    doc = json.loads(out)
    want = _library_value(argv)
    if argv[0] == "qp-num":
        got = LaurentPoly.from_json_dict(doc["poly"])
        assert (doc["family"], doc["n"]) == (argv[2], int(argv[4]))
        assert got == want
        assert json.dumps(got.to_json_dict()) == json.dumps(doc["poly"])
    else:
        got = InvariantSeries.from_json_dict(doc)
        assert (got.kind, got.indexing) == (want.kind, want.indexing)
        assert got.entries == want.entries
        assert json.dumps(got.to_json_dict()) == out.rstrip("\n")
