"""The benchmark's tracer (`perfbench/tracer.py`) fetches kernel entry points
and package functions by name and rebinds them from outside the package.
A rename or a removed name crashes the traced run; these tests catch that
in the ordinary suite, and check that every rebinding is undone."""

import sys
from pathlib import Path

import pytest

import qpknot
from qpknot import _kernel, _pykernel, cli, laurent, verify

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def _bindings() -> dict:
    """Every name the tracer may rebind, mapped to what it refers to now."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "qpknot" or modname.startswith("qpknot.")):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
    for attr, value in vars(laurent.LaurentPoly).items():
        out[("LaurentPoly", attr)] = value
    for key, fn in cli._DISPATCH.items():
        out[("cli._DISPATCH", key)] = fn
    for key, fn in verify.CHECKS.items():
        out[("verify.CHECKS", key)] = fn
    return out


def test_install_wraps_and_uninstall_restores(tracer_module):
    before = _bindings()
    t = tracer_module.Tracer()
    try:
        tracer_module.install(t)
        assert _kernel.mono_mul is not _pykernel.mono_mul
        s = qpknot.knot_series(qpknot.InvariantKind.HOMFLY, 3)
        p = s.knot(3)
        assert qpknot.from_az_form(qpknot.to_az_form(p)) == p
        # division reduces its remainder in place through the kernel
        assert qpknot.exact_div(p * s.knot(2), s.knot(2)) == p
        assert t.stats["kernel.poly_accum_term_mul"].calls > 0
        assert t.stats["skein.to_az_form"].calls == 1
        assert t.stats["skein.from_az_form"].calls == 1
        assert t.stats["kernel.mono_mul"].calls > 0
        # the knot series is built from the closed sums [0]..[4]
        assert t.stats["qpnumbers.qp_number"].calls == 5
        # the route is looked up when the check runs, so the wrapper sees it
        assert verify.run_check("h1-equivalence", 3).passed
        assert verify.run_check("h2-equivalence", 3).passed
        assert t.stats["substitutions.route"].calls == 6
    finally:
        tracer_module.uninstall(t)
    assert _kernel.mono_mul is _pykernel.mono_mul
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
