"""The README's library quick start and CLI examples run as written.

The examples are taken from the fenced python block under "Library quick
start" and run with doctest.  ``doctest.testfile`` is not used: it reads
the closing fence as expected output of the last example.  Each
``qpknot ...`` line of the fenced sh block under "CLI" is run through
``cli.main`` and must exit 0.
"""

import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from qpknot import cli

_README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = _README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _cli_examples() -> list[list[str]]:
    text = _README.read_text()
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "qpknot"]


def test_cli_block_has_every_example():
    assert len(_cli_examples()) == 10


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example_exits_zero(argv):
    assert cli.main(argv, out=io.StringIO()) == 0


def test_quick_start_examples_pass():
    parser = doctest.DocTestParser()
    test = parser.get_doctest(_quick_start(), {}, "README quick start", str(_README), 0)
    assert len(test.examples) == 6
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted == 6
