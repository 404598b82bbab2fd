"""The benchmark's stdlib oracle (`perfbench/oracle.py`) as an ordinary test.

The oracle never imports qpknot: it checks each printed answer by exact
evaluation at one rational point.  Here it checks one fixed request-mix
batch, run in-process through `cli.main` (every family, all four formats,
`table --az`, `eval` and its expected exit codes), and the large-index
library calls at small sizes, so a wrong answer in any renderer or
conversion fails the suite and not only a later benchmark run."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qpknot import cli

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("oracle", "workloads", "worker", "reference")

# Small stand-ins for the large-index base sizes; every entry the later
# calls take (az, div, sqrt) lies within the knot series.
_SMALL_BASE = {
    "knot_m": 20,
    "link_n": 24,
    "az_m": 18,
    "div_a": 12,
    "div_b": 9,
    "sqrt_m": 10,
    "rec_n": 40,
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import oracle
    import worker
    import workloads

    yield oracle, workloads, worker
    for name in _MODULES:
        sys.modules.pop(name, None)


def test_request_mix_batch_is_right(perfbench):
    oracle, workloads, _ = perfbench
    bad = []
    for req in workloads.request_mix_pass(5, 0):
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req["argv"], out=out)
        reason = oracle.check_request(req["argv"], req["expect"], code, out.getvalue())
        if reason is not None:
            bad.append((req["argv"], reason))
    assert bad == []


def test_large_index_calls_are_right(perfbench, monkeypatch):
    oracle, workloads, worker = perfbench
    for key, size in _SMALL_BASE.items():
        monkeypatch.setitem(workloads.LARGE_BASE, key, size)
    ops = workloads.large_index_pass(1, 0)
    _, _, results = worker._run_large(ops, None)
    rendered = worker._render_large(results)
    verified = set()
    bad = []
    for op, r in zip(ops, rendered):
        reason = r["err"] or oracle.check_large(op, r["out"], verified)
        if reason is not None:
            bad.append((op, reason))
    assert len(rendered) == len(ops) == 9
    assert bad == []
