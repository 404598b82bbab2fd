"""Make the src layout importable when the package is not installed, and
share the fixtures of more than one test file."""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def decoded_keys(monkeypatch):
    """A one-element list that counts the packed keys decoded by
    `Frame.unpack` while the test runs."""
    from qpknot._pykernel import Frame

    count = [0]
    unpack = Frame.unpack

    def counting(self, key):
        count[0] += 1
        return unpack(self, key)

    monkeypatch.setattr(Frame, "unpack", counting)
    return count
