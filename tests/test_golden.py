"""Golden output: stdout, stderr and exit code of a fixed set of CLI commands
hash to values recorded from a known-good build.

Any refactor that must keep outputs byte-identical (canonical text, JSON,
CSV, LaTeX, error texts, exit codes) runs against this set.  When an output
changes on purpose, print the new hashes with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change log
which commands moved and why.  A command added to the set is hashed on a
``git archive`` copy of the parent commit, before any source change, so
that its recorded value is the known-good output.
"""

import contextlib
import hashlib
import io

import pytest

from qpknot import cli

_FORMATS = ("text", "json", "csv", "latex")
_FAMILIES = ("alexander", "jones", "homfly", "h1", "h2", "bmq")
_INVARIANTS = ("alexander", "jones", "homfly")

COMMANDS = (
    [f"qp-num --family {f} --n 40 --format {fmt}" for f in _FAMILIES for fmt in _FORMATS]
    + [
        f"series --invariant {i} {shape} --format {fmt}"
        for i in _INVARIANTS
        for shape in ("--knots --max 25", "--links --max 31")
        for fmt in _FORMATS
    ]
    + [f"table --invariant {i} --az --max 25 --format {fmt}" for i in ("alexander", "homfly") for fmt in _FORMATS]
    + ["verify --n-max 30"]
    # long ladders, well past the link ladder's first re-frames
    + [f"series --invariant {i} --links --max 171 --format json" for i in _INVARIANTS]
)
EVALS = (
    "(x^3+1)/(x+1)",
    "(t^(7/2)+1)/(t^(1/2)+1)",
    "(x^3+1)/(x-1)",
    "(t^(7/2)+1)/(t^(1/2)-1)",
)


def _argvs() -> list[list[str]]:
    return [c.split() for c in COMMANDS] + [["eval", e] for e in EVALS]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    blob = "\0".join((out.getvalue(), err.getvalue(), str(code)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


EXPECTED = {
    "qp-num --family alexander --n 40 --format text": "a2b3987352a431c2",
    "qp-num --family alexander --n 40 --format json": "6bab1fceb9d688c5",
    "qp-num --family alexander --n 40 --format csv": "92fafab82e79c59c",
    "qp-num --family alexander --n 40 --format latex": "7254965c66cfc0f4",
    "qp-num --family jones --n 40 --format text": "341208ad888a1b67",
    "qp-num --family jones --n 40 --format json": "fc62261053edd6c7",
    "qp-num --family jones --n 40 --format csv": "585a10b81bf766f9",
    "qp-num --family jones --n 40 --format latex": "8b0fa794ec0da371",
    "qp-num --family homfly --n 40 --format text": "37b7091f2c0bbd80",
    "qp-num --family homfly --n 40 --format json": "290d9a286f2524a3",
    "qp-num --family homfly --n 40 --format csv": "147a7e3f6cf65d72",
    "qp-num --family homfly --n 40 --format latex": "69a23a4b0dd7edc4",
    "qp-num --family h1 --n 40 --format text": "1636de114e9dd70f",
    "qp-num --family h1 --n 40 --format json": "83167c3beff32c82",
    "qp-num --family h1 --n 40 --format csv": "083e5e02d386a448",
    "qp-num --family h1 --n 40 --format latex": "9cf880184ca29698",
    "qp-num --family h2 --n 40 --format text": "09b1516bffb2a003",
    "qp-num --family h2 --n 40 --format json": "c3f792dedbe2f254",
    "qp-num --family h2 --n 40 --format csv": "60457cdfeaddaca9",
    "qp-num --family h2 --n 40 --format latex": "9ff7e7d166face22",
    "qp-num --family bmq --n 40 --format text": "9df937541ad066d9",
    "qp-num --family bmq --n 40 --format json": "93088e9b722e09fd",
    "qp-num --family bmq --n 40 --format csv": "472f48ceb2f39dfc",
    "qp-num --family bmq --n 40 --format latex": "ea52c2b6b1ba6fa6",
    "series --invariant alexander --knots --max 25 --format text": "925769797e331ab6",
    "series --invariant alexander --knots --max 25 --format json": "7d117780337eda46",
    "series --invariant alexander --knots --max 25 --format csv": "46effb9d1df341af",
    "series --invariant alexander --knots --max 25 --format latex": "1f7bcb16a3cc47ec",
    "series --invariant alexander --links --max 31 --format text": "dd26e1e4dcd47688",
    "series --invariant alexander --links --max 31 --format json": "3224cc1b83a3d9f2",
    "series --invariant alexander --links --max 31 --format csv": "7b3d39cf51fd9a96",
    "series --invariant alexander --links --max 31 --format latex": "1dde5d8cb297f214",
    "series --invariant jones --knots --max 25 --format text": "8c4bd38fb05411c1",
    "series --invariant jones --knots --max 25 --format json": "2563dc05f64f9f9f",
    "series --invariant jones --knots --max 25 --format csv": "f2a66c73f4a0d531",
    "series --invariant jones --knots --max 25 --format latex": "a7b3ea1381d29a0c",
    "series --invariant jones --links --max 31 --format text": "46e7d17ab099b267",
    "series --invariant jones --links --max 31 --format json": "d30c2a9146bd3fd0",
    "series --invariant jones --links --max 31 --format csv": "35077312bd4f9a7a",
    "series --invariant jones --links --max 31 --format latex": "971d1c9b7a95ed36",
    "series --invariant homfly --knots --max 25 --format text": "e6b441ad875ea90e",
    "series --invariant homfly --knots --max 25 --format json": "db4c12d9726036f3",
    "series --invariant homfly --knots --max 25 --format csv": "95140eb922faade8",
    "series --invariant homfly --knots --max 25 --format latex": "a6c2ec28042ac8d4",
    "series --invariant homfly --links --max 31 --format text": "6432dbf63c27c58e",
    "series --invariant homfly --links --max 31 --format json": "9cddca9eff11e280",
    "series --invariant homfly --links --max 31 --format csv": "bee0d699fd8daab6",
    "series --invariant homfly --links --max 31 --format latex": "a5b60650edf59656",
    "table --invariant alexander --az --max 25 --format text": "8b74b7b670807e0d",
    "table --invariant alexander --az --max 25 --format json": "a24e50ed2f67f757",
    "table --invariant alexander --az --max 25 --format csv": "5464a2b04f6fd09a",
    "table --invariant alexander --az --max 25 --format latex": "c2df14bde9c1d40e",
    "table --invariant homfly --az --max 25 --format text": "87637c724aa7be0b",
    "table --invariant homfly --az --max 25 --format json": "cc96c565b6c7d84d",
    "table --invariant homfly --az --max 25 --format csv": "8a18dff602aef879",
    "table --invariant homfly --az --max 25 --format latex": "9eb9df5996968cc4",
    "verify --n-max 30": "76f74401f90a1e7b",
    "series --invariant alexander --links --max 171 --format json": "c42c2d7debf367b6",
    "series --invariant jones --links --max 171 --format json": "f9664a64026e25a2",
    "series --invariant homfly --links --max 171 --format json": "f60742d318c13921",
    "eval (x^3+1)/(x+1)": "9d55eabe757b5c14",
    "eval (t^(7/2)+1)/(t^(1/2)+1)": "a8dd15134710290e",
    "eval (x^3+1)/(x-1)": "a2da8ae9cec9914e",
    "eval (t^(7/2)+1)/(t^(1/2)-1)": "e3f6891e23182b56",
}


def test_command_set_is_complete():
    assert len(_argvs()) == len(EXPECTED) == 64


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_output_hash(argv):
    assert digest(argv) == EXPECTED[" ".join(argv)]


if __name__ == "__main__":
    for argv in _argvs():
        print(f'    "{" ".join(argv)}": "{digest(argv)}",')
