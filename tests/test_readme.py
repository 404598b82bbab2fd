"""The README's library quick start runs as written.

The examples are taken from the fenced python block under "Library quick
start" and run with doctest.  ``doctest.testfile`` is not used: it reads
the closing fence as expected output of the last example.
"""

import doctest
import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = _README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_examples_pass():
    parser = doctest.DocTestParser()
    test = parser.get_doctest(_quick_start(), {}, "README quick start", str(_README), 0)
    assert len(test.examples) == 6
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted == 6
