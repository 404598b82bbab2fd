"""The check registry: names, reports, determinism and serialization."""

from collections import Counter

import pytest

from qpknot import (
    BadRangeError,
    CheckReport,
    Family,
    InvariantKind,
    KnotCoeffs,
    Monomial,
    UnknownCheckError,
    check_names,
    family_spec,
    run_all,
    run_check,
)

EXPECTED_NAMES = [
    "three-route",
    "bm-coincidence",
    "eq8-coeffs",
    "trefoil",
    "knot-vs-link",
    "homfly-specialize",
    "roundtrip-sect7",
    "eq33-multiplier",
    "eq34-multiplier",
    "h1-equivalence",
    "h2-equivalence",
    "az-roundtrip",
]


# wrong HOMFLY number pairs (u, v): one in a stray variable b, and one whose
# multiplier quotients are exact but not monomials
_STRAY = ({"a": 2, "b": 1}, {"a": 2, "b": -1})
_NON_MONOMIAL = ({"a": 2, "t": 3}, {"a": 2, "t": -3})


def _plus_one(real, when=lambda *args: True):
    """``real`` with 1 added to its value where ``when`` holds for the
    arguments."""
    return lambda *args: real(*args) + (1 if when(*args) else 0)


# (check, callee rebound in qpknot.verify, wrong callee from the real one,
# the failure detail); the texts were captured before a check returned at
# its first mismatch and must not change
FAILURE_TEXTS = [
    (
        "three-route",
        "qp_number_division",
        lambda real: _plus_one(real, lambda spec, n: spec == family_spec(Family.JONES)),
        "jones n=1: sum 1 / recurrence 1 / division 2",
    ),
    (
        "bm-coincidence",
        "qp_number",
        lambda real: _plus_one(
            real, lambda spec, n: spec == family_spec(Family.ALEXANDER) and n == 3
        ),
        "n=3: t^2 + 1 + t^-2 != t^2 + 2 + t^-2",
    ),
    (
        "h1-equivalence",
        "h1_to_h",
        _plus_one,
        "n=1: 2 != 1",
    ),
    (
        "h2-equivalence",
        "h2_to_h",
        lambda real: _plus_one(real, lambda p: p.term_count() == 2),
        "n=2: a^2*t + a^2*t^-1 + 1 != a^2*t + a^2*t^-1",
    ),
    (
        "az-roundtrip",
        "from_az_form",
        _plus_one,
        "m=0: round trip gives 2 != 1",
    ),
    (
        "roundtrip-sect7",
        "skein_from_numbers",
        lambda real: lambda f: real(Family.ALEXANDER if f is Family.JONES else f),
        "jones: (t^(1/2) - t^(-1/2), 1) != (t^(3/2) - t^(1/2), t^2)",
    ),
    (
        "eq8-coeffs",
        "_EXPECTED_KNOT_COEFFS",
        lambda real: {**real, InvariantKind.JONES: ("t^3 + t", "t^4")},
        "jones: (t^3 + t, -t^4) != tabulated (t^3 + t, t^4)",
    ),
    (
        "trefoil",
        "knot_coeffs",
        lambda real: lambda kind: KnotCoeffs(real(kind).k1, real(kind).k2 + 1),
        "alexander: t - 1 + t^-1 != k1 + k2",
    ),
    (
        "eq34-multiplier",
        "homfly_jones_multiplier",
        lambda real: lambda n: Monomial({"a": 2 * (n - 1), "t": 2 * (n - 1)}),
        "n=2: a^2*t^2 != (a*t^-1)^(2(n-1)) = a^2*t^-2",
    ),
]


_EQ34_NOTE = "computed multiplier is (a*t^-1)^(2(n-1)); "

# every check's PASS report at n_max 1 and 2, as (name, n_max, detail,
# n_range); captured before the checks yielded their mismatches to one
# runner, and must not change
PASS_REPORTS = [
    ("three-route", 1, "", (1, 1)),
    ("three-route", 2, "", (1, 2)),
    ("bm-coincidence", 1, "", (1, 1)),
    ("bm-coincidence", 2, "", (1, 2)),
    ("eq8-coeffs", 1, "", (1, 1)),
    ("eq8-coeffs", 2, "", (1, 1)),
    ("trefoil", 1, "", (1, 1)),
    ("trefoil", 2, "", (1, 1)),
    ("knot-vs-link", 1, "", (0, 1)),
    ("knot-vs-link", 2, "", (0, 2)),
    ("homfly-specialize", 1, "", (0, 1)),
    ("homfly-specialize", 2, "", (0, 2)),
    ("roundtrip-sect7", 1, "", (1, 1)),
    ("roundtrip-sect7", 2, "", (1, 1)),
    ("eq33-multiplier", 1, "", (1, 1)),
    ("eq33-multiplier", 2, "", (1, 2)),
    ("eq34-multiplier", 1, _EQ34_NOTE + "matches the tabulated form (a*t)^(2(n-1))", (1, 1)),
    (
        "eq34-multiplier",
        2,
        _EQ34_NOTE + "tabulated form (a*t)^(2(n-1)) does NOT match"
        " (first difference at n=2: computed a^2*t^-2, tabulated a^2*t^2)",
        (1, 2),
    ),
    ("h1-equivalence", 1, "", (1, 1)),
    ("h1-equivalence", 2, "", (1, 2)),
    ("h2-equivalence", 1, "", (1, 1)),
    ("h2-equivalence", 2, "", (1, 2)),
    ("az-roundtrip", 1, "", (0, 1)),
    ("az-roundtrip", 2, "", (0, 2)),
]


class TestRegistry:
    def test_names(self):
        assert check_names() == EXPECTED_NAMES

    def test_unknown_check(self):
        with pytest.raises(UnknownCheckError):
            run_check("no-such-check", 10)

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            run_check("three-route", 0)
        with pytest.raises(BadRangeError):
            run_all(0)


class TestReports:
    def test_all_pass_at_25(self):
        reports = run_all(25)
        assert len(reports) == 12
        assert all(r.passed for r in reports)
        assert [r.name for r in reports] == EXPECTED_NAMES

    def test_all_pass_at_1(self):
        assert all(r.passed for r in run_all(1))

    def test_trefoil_single(self):
        report = run_check("trefoil", 1)
        assert report.passed
        assert report.n_range == (1, 1)

    def test_eq34_records_mismatch(self):
        report = run_check("eq34-multiplier", 10)
        assert report.passed
        assert "(a*t^-1)^(2(n-1))" in report.detail
        assert "does NOT match" in report.detail
        assert "a^2*t^-2" in report.detail  # the computed n=2 monomial

    def test_json_shape(self):
        report = run_check("trefoil", 5)
        obj = report.to_json_dict()
        assert set(obj) == {"name", "passed", "detail", "n_max"}
        assert obj["name"] == "trefoil"
        assert obj["passed"] is True

    def test_determinism(self):
        first = run_all(10)
        second = run_all(10)
        assert first == second

    def test_checks_are_independent(self):
        # a check run on its own equals its run inside the batch
        batch = run_all(10)
        for report in batch:
            assert run_check(report.name, 10) == report

    def test_each_knot_series_built_once_per_run(self, monkeypatch):
        # one table per run: no repeats inside a run, nothing kept across runs
        from qpknot import verify

        builds = Counter()
        real = verify.knot_series

        def counting(kind, m_max):
            builds[kind, m_max] += 1
            return real(kind, m_max)

        monkeypatch.setattr(verify, "knot_series", counting)
        for _ in range(2):
            builds.clear()
            assert all(r.passed for r in run_all(10))
            assert set(builds.values()) == {1}
            assert {m for _, m in builds} == {1, 10}
        builds.clear()
        assert run_check("az-roundtrip", 10).passed
        assert list(builds) == [(InvariantKind.HOMFLY, 10)]

    def test_eq33_reports_a_wrong_multiplier(self, monkeypatch):
        from qpknot import qpnumbers
        from qpknot.laurent import Monomial

        wrong = qpnumbers.QPSpec(Monomial({"a": 3, "t": 1}), Monomial({"a": 3, "t": -1}))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        report = run_check("eq33-multiplier", 5)
        assert not report.passed
        assert report.detail == "n=2: a^3 != a^2"

    def test_knot_checks_report_a_wrong_number_pair(self, monkeypatch):
        # the knot series and knot coefficients come from the numbers, so a
        # wrong (u, v) no longer agrees with the link coefficients
        from qpknot import qpnumbers
        from qpknot.laurent import Monomial

        wrong = qpnumbers.QPSpec(Monomial({"a": 3, "t": 1}), Monomial({"a": 3, "t": -1}))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        expected = {
            "eq8-coeffs": "homfly: (a^3*t + a^3*t^-1, -a^6) does not match formula",
            "knot-vs-link": "homfly m=1: knot -a^6 + a^3*t + a^3*t^-1"
            " != link -a^4 + a^2*t + a^2*t^-1",
            "trefoil": "homfly: -a^6 + a^3*t + a^3*t^-1 != -a^4 + a^2*t + a^2*t^-1",
            "homfly-specialize": "m=1: a->t gives -t^6 + t^4 + t^2 != -t^4 + t^3 + t",
        }
        for name, detail in expected.items():
            report = run_check(name, 5)
            assert not report.passed
            assert report.detail == detail

    def test_knot_vs_link_walks_the_ladder(self, monkeypatch):
        # the check streams link_entries; a stored link_series is never built
        import qpknot
        from qpknot import qpnumbers, skein, verify
        from qpknot.laurent import Monomial

        def no_series(*args):
            raise AssertionError("knot-vs-link built a link_series")

        for module in (qpknot, skein):
            monkeypatch.setattr(module, "link_series", no_series)
        monkeypatch.setattr(verify, "link_series", no_series, raising=False)
        assert run_check("knot-vs-link", 8).passed

        wrong = qpnumbers.QPSpec(Monomial({"a": 3, "t": 1}), Monomial({"a": 3, "t": -1}))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        report = run_check("knot-vs-link", 8)
        assert not report.passed
        assert report.detail == (
            "homfly m=1: knot -a^6 + a^3*t + a^3*t^-1 != link -a^4 + a^2*t + a^2*t^-1"
        )

    def test_knot_vs_link_decodes_only_odd_link_entries(self, decoded_keys):
        # a passing check compares packed keys only: the ladder hands over
        # its odd entries undecoded, the (a, z) images are built by field
        # arithmetic, and the seed unlink2 stays on its quotient's keys
        assert run_check("knot-vs-link", 60).passed
        assert decoded_keys[0] == 0

    @pytest.mark.parametrize(
        "u, v, detail",
        [
            (
                {"a": 2, "t": 3},
                {"a": 2, "t": 1},
                "homfly m=1: knot -a^4*t^4 + a^2*t^3 + a^2*t != link -a^4 + a^2*t + a^2*t^-1",
            ),
            (
                {"a": 2, "b": 1},
                {"a": 2, "b": -1},
                "homfly m=1: knot -a^4 + a^2*b + a^2*b^-1 != link -a^4 + a^2*t + a^2*t^-1",
            ),
        ],
        ids=["non-symmetric", "stray-variable"],
    )
    def test_knot_vs_link_on_a_knot_entry_with_no_az_form(self, monkeypatch, u, v, detail):
        # the knot entry has no (a, z) form, so it matches no link entry:
        # knot-vs-link reports the mismatch in (a, t), as it did when it
        # converted every link entry to (a, t)
        from qpknot import qpnumbers
        from qpknot.laurent import Monomial

        wrong = qpnumbers.QPSpec(Monomial(u), Monomial(v))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        report = run_check("knot-vs-link", 5)
        assert not report.passed
        assert report.detail == detail

    def test_az_roundtrip_on_a_knot_entry_with_no_az_form(self, monkeypatch):
        # to_az_form's error is the verdict, not an exception out of the run
        from qpknot import qpnumbers
        from qpknot.laurent import Monomial

        wrong = qpnumbers.QPSpec(Monomial({"a": 2, "t": 3}), Monomial({"a": 2, "t": 1}))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        report = run_check("az-roundtrip", 5)
        assert not report.passed
        assert report.detail == (
            "m=1: residue -a^2*t^-1 + a^4*t^-4 - a^2*t^-3 has no z-polynomial form"
        )
        assert report.n_range == (0, 5)

    @pytest.mark.parametrize(
        "pair, name, detail, n_range",
        [
            (
                _STRAY,
                "eq33-multiplier",
                "n=2: quotient term needs t-exponent -1, outside the Newton bound [1, -1]",
                (1, 5),
            ),
            (
                _STRAY,
                "eq34-multiplier",
                "n=2: quotient term needs t-exponent -3, outside the Newton bound [-1, -3]",
                (1, 5),
            ),
            (_STRAY, "homfly-specialize", "m=1: no image for variable 'b'", (0, 5)),
            (_STRAY, "az-roundtrip", "m=1: expected variables a and t only, found ['b']", (0, 5)),
            (
                _NON_MONOMIAL,
                "eq33-multiplier",
                "n=2: quotient is not a monomial: a^2*t^2 - a^2 + a^2*t^-2",
                (1, 5),
            ),
            (
                _NON_MONOMIAL,
                "eq34-multiplier",
                "n=2: quotient is not a monomial: a^2 - a^2*t^-2 + a^2*t^-4",
                (1, 5),
            ),
        ],
        ids=[
            "eq33-multiplier",
            "eq34-multiplier",
            "homfly-specialize",
            "az-roundtrip",
            "non-monomial-eq33-multiplier",
            "non-monomial-eq34-multiplier",
        ],
    )
    def test_failed_exact_operation_is_the_verdict(self, monkeypatch, pair, name, detail, n_range):
        # a HOMFLY pair in a stray variable: the multipliers do not divide,
        # a -> 1 has no image for b and the knot entries no (a, z) form; with
        # (a^2*t^3, a^2*t^-3) both divisions are exact but neither quotient
        # is a monomial.  Each check reports the error; nothing raises.
        from qpknot import qpnumbers
        from qpknot.laurent import Monomial

        wrong = qpnumbers.QPSpec(*map(Monomial, pair))
        monkeypatch.setitem(qpnumbers._FAMILY_SPECS, Family.HOMFLY, wrong)
        report = run_check(name, 5)
        assert not report.passed
        assert report.detail == detail
        assert report.n_range == n_range

    def test_one_conversion_pass_each_way_per_run(self, monkeypatch):
        # the run table converts each HOMFLY knot entry m = 0..10 to (a, z)
        # once, and a passing knot-vs-link converts no link entry back
        from qpknot import verify

        calls = Counter()

        def counting(name):
            real = getattr(verify, name)

            def fn(*args):
                calls[name] += 1
                return real(*args)

            return fn

        for name in ("to_az_form", "from_az_form"):
            monkeypatch.setattr(verify, name, counting(name))
        assert all(r.passed for r in run_all(10))
        assert calls == {"to_az_form": 11, "from_az_form": 11}

    def test_three_route_stops_at_its_first_mismatch(self, monkeypatch):
        # a wrong Jones quotient is the verdict; no route is asked for a
        # number of a later family
        from qpknot import verify

        later = [family_spec(f) for f in (Family.H1, Family.H2, Family.BMQ)]
        asked = []

        def recording(real):
            def fn(spec, *rest):
                asked.append(spec)
                return real(spec, *rest)

            return fn

        for name in ("qp_number", "qp_numbers", "qp_number_division"):
            monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
        assert run_check("three-route", 5).passed
        assert set(later) <= set(asked)

        asked.clear()
        jones = family_spec(Family.JONES)
        wrong = _plus_one(verify.qp_number_division, lambda spec, n: spec == jones)
        monkeypatch.setattr(verify, "qp_number_division", wrong)
        report = run_check("three-route", 5)
        assert not report.passed
        assert report.detail == "jones n=1: sum 1 / recurrence 1 / division 2"
        assert [spec for spec in asked if spec in later] == []

    @pytest.mark.parametrize(
        "name, n_max, detail, n_range",
        PASS_REPORTS,
        ids=[f"{name}@{n_max}" for name, n_max, _, _ in PASS_REPORTS],
    )
    def test_pass_reports(self, name, n_max, detail, n_range):
        assert run_check(name, n_max) == CheckReport(name, True, detail, n_range)

    @pytest.mark.parametrize(
        "name, callee, wrong, detail", FAILURE_TEXTS, ids=[row[0] for row in FAILURE_TEXTS]
    )
    def test_failure_texts(self, monkeypatch, name, callee, wrong, detail):
        from qpknot import verify

        n_range = run_check(name, 5).n_range
        monkeypatch.setattr(verify, callee, wrong(getattr(verify, callee)))
        report = run_check(name, 5)
        assert not report.passed
        assert report.detail == detail
        assert report.n_range == n_range


class TestConcurrency:
    def test_parallel_series_and_conversions(self):
        # pure functions over immutable values: concurrent use must agree
        # with serial results
        from concurrent.futures import ThreadPoolExecutor

        from qpknot import InvariantKind, from_az_form, knot_series, to_az_form

        def work(kind):
            series = knot_series(kind, 30)
            if kind is InvariantKind.HOMFLY:
                for m in range(0, 31):
                    p = series.knot(m)
                    assert from_az_form(to_az_form(p)) == p
            return series

        serial = {kind: work(kind) for kind in InvariantKind}
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, kind) for kind in InvariantKind for _ in range(2)]
            for fut, kind in zip(futures, [k for k in InvariantKind for _ in range(2)]):
                assert dict(fut.result().entries) == dict(serial[kind].entries)
