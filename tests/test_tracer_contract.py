"""The benchmark's tracer (`perfbench/tracer.py`) fetches kernel entry points
and package functions by name and rebinds them from outside the package.
A rename or a removed name crashes the traced run; these tests catch that
in the ordinary suite, and check that every rebinding is undone."""

import sys
from pathlib import Path

import pytest

import qpknot
from qpknot import _kernel, _pykernel, cli, laurent, verify
from qpknot.qpnumbers import qp_numbers, recurrence_coeffs
from qpknot.skein import _link_pair, link_entries

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
    # entries dense enough for the kernel's packed route, built untraced
    dense = qpknot.knot_series(qpknot.InvariantKind.HOMFLY, 30)
    big, mid = dense.knot(30), dense.knot(25)
    before = _bindings()
    t = tracer_module.Tracer()
    try:
        tracer_module.install(t)
        assert _kernel.mono_mul is not _pykernel.mono_mul
        s = qpknot.knot_series(qpknot.InvariantKind.HOMFLY, 3)
        p = s.knot(3)
        az = qpknot.to_az_form(p)
        merges = t.stats["kernel.poly_accum_term_mul"].calls
        # from_az_form merges its rows through the kernel's summing loop
        assert qpknot.from_az_form(az) == p
        assert t.stats["kernel.poly_accum_term_mul"].calls > merges
        # division reduces on packed keys inside exact_div: one traced call,
        # counted by its quotient's terms, whose steps are one call each of
        # the summing loop, the only traced kernel calls
        num, den = p * s.knot(2), s.knot(2)
        div = t.stats["laurent.exact_div"]
        start = (div.calls, div.count)
        kernel = _kernel_calls(t)
        assert qpknot.exact_div(num, den) == p
        assert (div.calls - start[0], div.count - start[1]) == (1, p.term_count())
        assert _added(t, kernel) == {"kernel.poly_accum_term_mul": p.term_count()}
        # so does the square root: one traced call, and two summing-loop calls
        # per root term past the leading one (the cross terms with 2 * root,
        # then the term's own square)
        square, roots = p * p, (p, -p)
        start = t.stats["laurent.exact_sqrt"].calls
        kernel = _kernel_calls(t)
        assert qpknot.exact_sqrt(square) in roots
        assert t.stats["laurent.exact_sqrt"].calls - start == 1
        assert _added(t, kernel) == {"kernel.poly_accum_term_mul": 2 * (p.term_count() - 1)}
        # a dense product, quotient and root take the kernel's packed route,
        # which calls no traced name: the product counts once under
        # poly_mul, the quotient and root once each under their own spans
        kernel = _kernel_calls(t)
        num, square, roots = big * mid, big * big, (big, -big)
        assert _added(t, kernel) == {"kernel.poly_mul": 2, "kernel.other": 1}
        start, kernel = (div.calls, div.count), _kernel_calls(t)
        assert qpknot.exact_div(num, mid) == big
        assert (div.calls - start[0], div.count - start[1]) == (1, big.term_count())
        start = t.stats["laurent.exact_sqrt"].calls
        assert qpknot.exact_sqrt(square) in roots
        assert t.stats["laurent.exact_sqrt"].calls - start == 1
        assert _added(t, kernel) == {}
        assert t.stats["skein.to_az_form"].calls == 1
        assert t.stats["skein.from_az_form"].calls == 1
        # the ring never multiplies tuple monomials: those are Monomial's
        assert t.stats["kernel.mono_mul"].calls == 0
        # the knot series is built from the closed sums [0]..[4]
        assert t.stats["qpnumbers.qp_number"].calls == 5
        # the route is looked up when the check runs, so the wrapper sees it
        assert verify.run_check("h1-equivalence", 3).passed
        assert verify.run_check("h2-equivalence", 3).passed
        assert t.stats["substitutions.route"].calls == 6
        # the kernel's sums and both product routes (a one-term operand, or
        # one frame) run on untraced kernel internals, so each ring operation
        # counts once under its own kernel name
        names = ("poly_mul", "poly_add", "poly_accum_term_mul", "mono_mul")
        a, b, m = p + 1, s.knot(2), qpknot.LaurentPoly.var("a", 2)
        for op, counted in [
            (lambda: a * b, "poly_mul"),
            (lambda: a * m, "poly_mul"),
            (lambda: a + b, "poly_add"),
            (lambda: a - b, "poly_accum_term_mul"),
        ]:
            start = {n: t.stats[f"kernel.{n}"].calls for n in names}
            op()
            added = {n: t.stats[f"kernel.{n}"].calls - start[n] for n in names}
            assert added == {n: int(n == counted) for n in names}
    finally:
        tracer_module.uninstall(t)
    assert _kernel.mono_mul is _pykernel.mono_mul
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_ladders_step_through_the_summing_loop(tracer_module):
    # a ladder step is one call of the summing loop per coefficient term,
    # made inside the generator, so the steps count under
    # kernel.poly_accum_term_mul and no other kernel name
    t = tracer_module.Tracer()
    try:
        tracer_module.install(t)
        pairs = [recurrence_coeffs(qpknot.family_spec(f)) for f in qpknot.Family]
        ladders = [qp_numbers(qpknot.family_spec(f), range(41)) for f in qpknot.Family]
        for kind in qpknot.InvariantKind:
            pairs.append(_link_pair(kind))  # over (a, z) for the two-variable kind
            ladders.append(link_entries(kind, range(41)))
        kernel = _kernel_calls(t)
        for ladder in ladders:
            assert len(list(ladder)) == 41
        steps = sum(39 * (c1.term_count() + c2.term_count()) for c1, c2 in pairs)
        assert _added(t, kernel) == {"kernel.poly_accum_term_mul": steps}
    finally:
        tracer_module.uninstall(t)


def _kernel_calls(t) -> dict:
    return {n: st.calls for n, st in t.stats.items() if n.startswith("kernel.")}


def _added(t, before: dict) -> dict:
    """The kernel names called since ``before`` was taken, with their calls."""
    now = _kernel_calls(t)
    return {n: c - before.get(n, 0) for n, c in now.items() if c != before.get(n, 0)}


def _enclosing_checks(tracer_module, run) -> dict:
    """Each span name traced while run() returns its reports, all passed,
    mapped to the verify checks whose spans enclose it (None outside every
    check)."""
    t = tracer_module.Tracer()
    try:
        tracer_module.install(t)
        assert all(r.passed for r in run())
    finally:
        tracer_module.uninstall(t)
    names = {sid: name for sid, _, _, name, _, _ in t.spans}
    parents = {sid: parent for sid, parent, _, _, _, _ in t.spans}

    def enclosing_check(sid):
        while sid:
            sid = parents[sid]
            if names.get(sid, "").startswith("verify."):
                return names[sid]
        return None

    seen = {}
    for sid, name in names.items():
        seen.setdefault(name, set()).add(enclosing_check(sid))
    return seen


def test_check_work_nests_inside_the_check_span(tracer_module):
    # `verify.<check>.s` times each check's call, so every traced callee a
    # check reaches must run inside that call, under that check's span
    seen = _enclosing_checks(tracer_module, lambda: verify.run_all(3))
    assert sorted(n for n in seen if n.startswith("verify.")) == sorted(
        f"verify.{name}" for name in verify.CHECKS
    )
    # the run table builds the (a, z) images in knot-vs-link, the first
    # check to ask, and az-roundtrip converts them back; a passing
    # knot-vs-link never converts a link entry to (a, t)
    assert {
        name: seen[name]
        for name in (
            "qpnumbers.multiplier",
            "substitutions.route",
            "laurent.substitute",
            "skein.to_az_form",
            "skein.from_az_form",
            "skein.specialize_homfly",
            "qpnumbers.qp_number_division",
        )
    } == {
        "qpnumbers.multiplier": {"verify.eq33-multiplier", "verify.eq34-multiplier"},
        "substitutions.route": {"verify.h1-equivalence", "verify.h2-equivalence"},
        "laurent.substitute": {
            "verify.bm-coincidence",
            "verify.homfly-specialize",
            "verify.h1-equivalence",
            "verify.h2-equivalence",
        },
        "skein.to_az_form": {"verify.knot-vs-link"},
        "skein.from_az_form": {"verify.az-roundtrip"},
        "skein.specialize_homfly": {"verify.homfly-specialize"},
        "qpnumbers.qp_number_division": {"verify.three-route"},
    }
    # run on its own, az-roundtrip builds the images itself
    alone = _enclosing_checks(tracer_module, lambda: [verify.run_check("az-roundtrip", 3)])
    assert alone["skein.to_az_form"] == {"verify.az-roundtrip"}
    assert alone["skein.from_az_form"] == {"verify.az-roundtrip"}
