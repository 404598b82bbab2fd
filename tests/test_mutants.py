"""The mutation gate's matching of named test ids against pytest's failures."""

from mutants import _failing


def test_bare_function_id_matches_its_parametrized_instances():
    assert _failing(["t.py::test_f"], {"t.py::test_f[x]"}) == ["t.py::test_f"]


def test_id_does_not_match_a_longer_name():
    failed = {"t.py::test_foo", "t.py::test_foo[x]", "t.py::TestF::test_g"}
    assert _failing(["t.py::test_f", "t.py::TestF::test_g"], failed) == ["t.py::TestF::test_g"]
