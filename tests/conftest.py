"""Make the src layout importable when the package is not installed, share
the fixtures of more than one test file, and register the Hypothesis
profile of the mutation gate."""

import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

# `tests/mutants.py` runs pytest with --hypothesis-profile=mutants: a killed
# mutant needs only the first failing example, so the gate skips shrinking
# it.  The ordinary suite keeps Hypothesis' default profile.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])

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
