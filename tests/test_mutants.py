"""The mutation gate's records against the current source, its matching of
named test ids against pytest's failures, its two Hypothesis seeds and the
records whose verdict differs between them, and a run that cannot collect
its tests."""

import shutil
from pathlib import Path

import pytest
import mutants
from mutants import (
    MUTANTS,
    SEED,
    _failed,
    _failing,
    _mutated,
    _parse_args,
    _pytest_command,
    _run,
    _seeds,
    _verdict,
)


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


def test_every_run_draws_from_one_named_seed():
    cmd = _pytest_command(["t.py::test_f"], 7)
    assert cmd.count("--hypothesis-seed=7") == 1
    assert cmd[-1] == "t.py::test_f"


def test_seed_defaults_to_the_fixed_one_and_replays_another():
    assert _parse_args([]).seed == SEED
    assert _parse_args(["--seed", "12345"]).seed == 12345
    with pytest.raises(SystemExit):
        _parse_args(["--seed", "x"])


def test_a_run_that_cannot_collect_fails_every_named_test(tmp_path):
    # pytest exits 4 when a named test's module does not import, as in a
    # mutant that breaks the package's import
    tests = tmp_path / "tests"
    tests.mkdir()
    shutil.copy(Path(__file__).with_name("conftest.py"), tests)
    (tests / "test_x.py").write_text("import qpknot_no_such_module\n\n\ndef test_f():\n    pass\n")
    named = ["tests/test_x.py::test_f"]
    assert _run(tmp_path, named, 0)[0] == set(named)


def test_verdict_names_the_survivors():
    tests = ["t.py::test_f", "t.py::test_g"]
    assert _verdict(tests, {"t.py::test_f", "t.py::test_g[x]"}) == "killed"
    assert _verdict(tests, {"t.py::test_f"}) == "SURVIVED: t.py::test_g"
    assert _verdict(tests, None) == "killed (timeout)"


def test_every_record_runs_under_two_seeds():
    assert _seeds(SEED) == (SEED, SEED + 1)
    assert _seeds(12345) == (12345, 12346)


def test_a_verdict_that_differs_between_the_seeds_is_reported(monkeypatch, capsys):
    # the record is killed under the first seed and survives the second
    record = MUTANTS[0]
    monkeypatch.setattr(mutants, "MUTANTS", [record])

    def copy_tree(dest):  # the mutated file's directory, nothing more
        (dest / "src" / "qpknot").mkdir(parents=True)

    def run(tree, tests, seed):
        return (set(tests) if tree.name != "base" and seed == SEED else set()), ""

    monkeypatch.setattr(mutants, "_copy_tree", copy_tree)
    monkeypatch.setattr(mutants, "_run", run)
    assert mutants.main([]) == 1
    out = capsys.readouterr().out
    assert f"hypothesis seeds {SEED} and {SEED + 1}" in out
    assert f"seed {SEED}: killed | seed {SEED + 1}: SURVIVED" in out
    assert "killed 0/1 under both seeds" in out
    assert out.endswith(f"verdict differs between the seeds: {record.name}\n")
