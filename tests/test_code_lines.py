"""The code-line counter in `tests/code_lines.py`."""

from code_lines import count_code_lines

_SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """A function docstring."""
    s = """a string over
two lines"""
    return (x +
            1)
'''


def test_counts_code_without_docstrings_comments_or_blanks():
    # import, def, the two lines of the string, the two of the return
    assert count_code_lines(_SOURCE) == 6
