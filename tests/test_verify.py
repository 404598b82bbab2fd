"""The check registry: names, reports, determinism and serialization."""

from collections import Counter

import pytest

from qpknot import (
    BadRangeError,
    Family,
    InvariantKind,
    UnknownCheckError,
    check_names,
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

    def test_failure_rendering(self):
        from qpknot.verify import _report

        report = _report("demo", (1, 5), ["n=3: t != t^2"])
        assert not report.passed
        assert report.detail == "n=3: t != t^2"
        assert report.n_range == (1, 5)
        assert _report("demo", (1, 5), []).passed


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
