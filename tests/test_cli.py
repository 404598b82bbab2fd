"""CLI surface: output formats, exit codes, error routing."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpknot.cli import main

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestQpNum:
    def test_text(self):
        code, out = run("qp-num", "--family", "bmq", "--n", "4")
        assert code == 0
        assert out == "q^3 + q + q^-1 + q^-3\n"

    def test_alexander_n3(self):
        code, out = run("qp-num", "--family", "alexander", "--n", "3")
        assert code == 0
        assert out == "t^2 + 1 + t^-2\n"

    def test_json(self):
        code, out = run("qp-num", "--family", "homfly", "--n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == "homfly"
        assert obj["n"] == 2
        assert obj["poly"]["terms"][0] == {"coeff": "1", "monomial": {"a": "2/1", "t": "1/1"}}

    def test_csv(self):
        code, out = run("qp-num", "--family", "jones", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == '"n","polynomial"\n2,"t^3 + t"\n'

    def test_latex(self):
        code, out = run("qp-num", "--family", "homfly", "--n", "3", "--format", "latex")
        assert code == 0
        assert out == "$[3]^{H} = a^{4} t^{2} + a^{4} + a^{4} t^{-2}$\n"

    def test_negative_n_is_usage_error(self):
        code, _ = run("qp-num", "--family", "bmq", "--n", "-1")
        assert code == 2

    def test_unknown_family_is_usage_error(self):
        code, _ = run("qp-num", "--family", "kauffman", "--n", "1")
        assert code == 2


class TestSeries:
    def test_knots_text(self):
        code, out = run("series", "--invariant", "alexander", "--knots", "--max", "2")
        assert code == 0
        assert out.splitlines() == [
            "P(1,2) = 1",
            "P(3,2) = t - 1 + t^-1",
            "P(5,2) = t^2 - t + 1 - t^-1 + t^-2",
        ]

    def test_links_include_seed(self):
        code, out = run("series", "--invariant", "jones", "--links", "--max", "2")
        assert code == 0
        assert out.splitlines() == [
            "P(0,2) = -t^(1/2) - t^(-1/2)",
            "P(1,2) = 1",
            "P(2,2) = -t^(5/2) - t^(1/2)",
        ]

    def test_homfly_links_are_in_az(self):
        code, out = run("series", "--invariant", "homfly", "--links", "--max", "2")
        assert code == 0
        assert out.splitlines() == [
            "P(1,2) = 1",
            "P(2,2) = -a^3*z^-1 + a*z + a*z^-1",
        ]

    def test_json_schema(self):
        code, out = run(
            "series", "--invariant", "homfly", "--knots", "--max", "1", "--format", "json"
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["kind"] == "homfly"
        assert obj["indexing"] == "knot"
        assert [e["n"] for e in obj["entries"]] == [1, 3]

    def test_csv(self):
        code, out = run(
            "series", "--invariant", "alexander", "--knots", "--max", "1", "--format", "csv"
        )
        assert out == '"n","polynomial"\n1,"1"\n3,"t - 1 + t^-1"\n'

    def test_latex(self):
        code, out = run(
            "series", "--invariant", "alexander", "--knots", "--max", "1", "--format", "latex"
        )
        assert out.splitlines()[1] == "$P_{3,2} = t - 1 + t^{-1}$"

    def test_requires_knots_or_links(self):
        code, _ = run("series", "--invariant", "jones", "--max", "3")
        assert code == 2

    def test_bad_range(self):
        code, _ = run("series", "--invariant", "jones", "--links", "--max", "1")
        assert code == 2


class TestTable:
    def test_text_with_names(self):
        code, out = run("table", "--invariant", "homfly", "--max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m=0\tT(1,2)\t0_1\t1"
        assert lines[1] == "m=1\tT(3,2)\t3_1\t-a^4 + a^2*t + a^2*t^-1"
        assert lines[2].startswith("m=2\tT(5,2)\t5_1\t")

    def test_az_flag(self):
        code, out = run("table", "--invariant", "homfly", "--max", "1", "--az")
        assert code == 0
        assert out.splitlines()[1] == "m=1\tT(3,2)\t3_1\t-a^4 + a^2*z^2 + 2*a^2"

    def test_az_on_jones_is_math_error(self):
        code, _ = run("table", "--invariant", "jones", "--max", "1", "--az")
        assert code == 1

    def test_az_on_jones_names_the_residue(self, capsys):
        code, out = run("table", "--invariant", "jones", "--max", "2", "--az")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: residue -t^-1 - t^-3 + t^-4 has no z-polynomial form\n"
        )

    def test_csv_columns(self):
        code, out = run("table", "--invariant", "alexander", "--max", "1", "--format", "csv")
        assert out == '"n","polynomial"\n1,"1"\n3,"t - 1 + t^-1"\n'

    def test_json_with_az(self):
        code, out = run(
            "table", "--invariant", "homfly", "--max", "1", "--format", "json", "--az"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "homfly"
        mono_vars = {
            v
            for e in obj["entries"]
            for term in e["poly"]["terms"]
            for v in term["monomial"]
        }
        assert mono_vars <= {"a", "z"}


class TestEmitter:
    @pytest.mark.parametrize("fmt", ["text", "csv", "latex"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["qp-num", "--family", "homfly", "--n", "3"],
            ["series", "--invariant", "homfly", "--links", "--max", "3"],
            ["table", "--invariant", "homfly", "--max", "2", "--az"],
        ],
        ids=["qp-num", "series", "table"],
    )
    def test_only_json_builds_the_json_object(self, monkeypatch, argv, fmt):
        from qpknot import LaurentPoly

        def no_json(self):
            raise AssertionError("a JSON object was built")

        monkeypatch.setattr(LaurentPoly, "to_json_dict", no_json)
        code, out = run(*argv, "--format", fmt)
        assert code == 0 and out


class TestVerify:
    def test_single_check(self):
        code, out = run("verify", "--check", "trefoil", "--n-max", "1")
        assert code == 0
        assert out.startswith("PASS  trefoil")
        assert "1/1 checks passed" in out

    def test_eq34_reports_discrepancy(self):
        code, out = run("verify", "--check", "eq34-multiplier", "--n-max", "10")
        assert code == 0
        assert "(a*t^-1)^(2(n-1))" in out
        assert "does NOT match" in out

    def test_full_suite_default_range(self):
        code, out = run("verify", "--n-max", "10")
        assert code == 0
        assert "12/12 checks passed" in out

    @pytest.mark.parametrize(
        "u, v, passed",
        [
            ({"a": 2, "t": 3}, {"a": 2, "t": 1}, 2),
            ({"a": 2, "b": 1}, {"a": 2, "b": -1}, 2),
            ({"a": 2, "t": 2}, {"a": 2, "t": -1}, 2),
            ({"a": 2, "t": 3}, {"a": 2, "t": -3}, 3),
        ],
        ids=["non-symmetric", "stray-variable", "not-divisible", "non-monomial-quotient"],
    )
    def test_wrong_number_pair_reports_every_check(self, monkeypatch, u, v, passed):
        # no check raises out of the run: each wrong HOMFLY pair still
        # yields twelve verdicts and the summary line
        from qpknot import Family, Monomial, QPSpec, qpnumbers

        wrong = QPSpec(Monomial(u), Monomial(v))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        code, out = run("verify", "--n-max", "5")
        assert code == 1
        verdicts = [line for line in out.splitlines() if line.startswith(("PASS  ", "FAIL  "))]
        assert len(verdicts) == 12
        assert out.splitlines()[-1] == f"{passed}/12 checks passed"

    def test_unknown_check_is_usage_error(self):
        code, _ = run("verify", "--check", "bogus")
        assert code == 2

    def test_bad_range_is_usage_error(self):
        code, _ = run("verify", "--n-max", "0")
        assert code == 2


class TestEval:
    def test_expression(self):
        code, out = run("eval", "(q^3 - p^3)/(q - p)")
        assert code == 0
        assert out == "p^2 + p*q + q^2\n"

    def test_assert_holds(self):
        code, out = run("eval", "--assert", "(q^2 - p^2)/(q - p) == q + p")
        assert code == 0
        assert out.startswith("identity holds")

    def test_assert_fails(self):
        code, out = run("eval", "--assert", "q + p == q - p")
        assert code == 1
        assert out.startswith("identity FAILS")

    def test_syntax_error(self):
        code, _ = run("eval", "q +")
        assert code == 2

    def test_not_divisible(self):
        code, _ = run("eval", "(t^2 - 1)/(t - 2)")
        assert code == 1

    @pytest.mark.parametrize("expr", ["(5 + 3*t)/2", "(3*t + 5)/2"])
    def test_monomial_division_names_the_leading_offending_term(self, capsys, expr):
        assert run("eval", expr) == (1, "")
        assert capsys.readouterr().err == "error: coefficient 3 not divisible by 2\n"

    @pytest.mark.parametrize(
        "identity, error",
        [
            ("t == (t", "expected ')' (offset 7)"),
            ("t == t $", "unexpected character '$' (offset 7)"),
            ("(t == t", "expected ')' (offset 3)"),
            ("t == ", "empty expression (offset 4)"),
            ("== t", "empty expression (offset 0)"),
        ],
    )
    def test_assert_error_offsets_count_from_the_full_text(self, capsys, identity, error):
        assert run("eval", "--assert", identity) == (2, "")
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "argv, offset",
        [
            (["t + " + "9" * 5000], 4),
            (["--assert", "9" * 5000 + " == t"], 0),
            (["--assert", "t == 2*" + "9" * 5000], 7),
        ],
    )
    def test_integer_literal_past_the_digit_limit(self, capsys, argv, offset):
        # the interpreter's limit on int-string conversion, 4300 digits by
        # default: a longer literal is a parse error at its offset
        limit = sys.get_int_max_str_digits()
        assert run("eval", *argv) == (2, "")
        assert capsys.readouterr().err == f"error: integer literal longer than {limit} digits (offset {offset})\n"
        assert run("eval", "9" * limit) == (0, "9" * limit + "\n")

    @pytest.mark.parametrize("identity", ["t", "t==t==t"])
    def test_assert_needs_exactly_one_equals(self, capsys, identity):
        assert run("eval", "--assert", identity) == (2, "")
        assert capsys.readouterr().err == "error: --assert needs exactly one '=='\n"

    @pytest.mark.parametrize(
        "argv, printed",
        [
            (["-t"], "-t\n"),
            (["-(t+1)"], "-t - 1\n"),
            (["-2"], "-2\n"),
            (["-t + x"], "-t + x\n"),
            (["--", "-t"], "-t\n"),
            (["-h^2"], "-h^2\n"),
            (["--assert", "-t==-t"], "identity holds: -t\n"),
        ],
    )
    def test_expression_with_leading_minus(self, monkeypatch, argv, printed):
        from qpknot import cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert run("eval", *argv) == (0, printed)
        assert built == [1]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["-t", "q"], "qpknot: error: unrecognized arguments: -t\n"),
            (["--t"], "qpknot: error: unrecognized arguments: --t\n"),
            (["-t", "--assert", "t == t"], "error: eval needs an expression or --assert, not both\n"),
        ],
    )
    def test_leading_minus_beside_another_operand_is_usage_error(self, capsys, argv, error):
        assert run("eval", *argv) == (2, "")
        assert capsys.readouterr().err.endswith(error)

    def test_help_is_still_an_option(self, capsys):
        assert run("eval", "-h") == (0, "")
        assert capsys.readouterr().out.startswith(
            "usage: qpknot eval [-h] [--assert 'LHS == RHS'] [expr]\n"
        )

    def test_non_ascii_digit_is_usage_error(self, capsys):
        code, out = run("eval", "t^\u00b2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: unexpected character '\u00b2' (offset 2)\n"
        code, out = run("eval", "t*\u0663")
        assert (code, out) == (2, "")

    def test_deep_nesting_is_usage_error(self):
        code, _ = run("eval", "(" * 1000 + "q" + ")" * 1000)
        assert code == 2

    def test_missing_operands(self):
        code, _ = run("eval")
        assert code == 2

    def test_both_operands(self):
        code, _ = run("eval", "q", "--assert", "q == q")
        assert code == 2


class TestUsage:
    def test_no_command(self):
        code, _ = run()
        assert code == 2

    def test_unknown_command(self):
        code, _ = run("frobnicate")
        assert code == 2


class TestClosedStdout:
    def test_broken_pipe_exits_quietly(self):
        # About 200 kB in one print, more than a pipe buffer holds, so the
        # write is still pending when the reader goes away.
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "qpknot", "qp-num", "--family", "bmq", "--n", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""  # no traceback, no "Exception ignored" note
