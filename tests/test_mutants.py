"""The mutation gate's records against the current source, and its matching
of named test ids against pytest's failures."""

import pytest
from mutants import MUTANTS, _failed, _failing, _mutated


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_record_old_text_occurs_once(mutant):
    _mutated(mutant)  # a stale record raises SystemExit, naming it


def test_bare_function_id_matches_its_parametrized_instances():
    assert _failing(["t.py::test_f"], {"t.py::test_f[x]"}) == ["t.py::test_f"]


def test_id_does_not_match_a_longer_name():
    failed = {"t.py::test_foo", "t.py::test_foo[x]", "t.py::TestF::test_g"}
    assert _failing(["t.py::test_f", "t.py::TestF::test_g"], failed) == ["t.py::TestF::test_g"]


def test_id_holding_a_dash_is_read_whole():
    failed = _failed("FAILED tests/test_d.py::test_f[a - b] - AssertionError\n")
    named = ["tests/test_d.py::test_f[a - b]", "tests/test_d.py::test_f[a]"]
    assert _failing(named, failed) == ["tests/test_d.py::test_f[a - b]"]


def test_summary_lines_without_a_message():
    failed = _failed("..F\nFAILED t.py::test_f\nERROR t.py::test_g[x]\n1 failed\n")
    assert _failing(["t.py::test_f", "t.py::test_g", "t.py::test_h"], failed) == [
        "t.py::test_f",
        "t.py::test_g",
    ]
