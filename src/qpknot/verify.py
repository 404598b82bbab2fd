"""Named, machine-runnable identity checks; the acceptance source of truth.

Every check is an exhaustive exact comparison over an index range (no
sampling).  Checks are independent pure computations; the runner executes
them in registry order.  A check gets its knot series from a table that
lives for one run, so a series that several checks compare is built once.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from itertools import islice

from qpknot._record import Record
from qpknot.errors import BadRangeError, UnknownCheckError
from qpknot.laurent import Monomial
from qpknot.qpnumbers import (
    Family,
    family_spec,
    homfly_alexander_multiplier,
    homfly_jones_multiplier,
    qp_number,
    qp_number_division,
    qp_numbers,
)
from qpknot.skein import (
    InvariantKind,
    InvariantSeries,
    from_az_form,
    kind_for_family,
    knot_coeffs,
    knot_series,
    link_coeffs,
    link_entries,
    skein_from_numbers,
    specialize_homfly,
    to_az_form,
)
from qpknot.substitutions import h1_to_h, h2_to_h


# knot_series(kind, m_max) for one run: ``cache(knot_series)``, made by the
# runner, so each series is built on first use and dropped with the run.
KnotTable = Callable[[InvariantKind, int], InvariantSeries]


class CheckReport(Record):
    __slots__ = ("name", "passed", "detail", "n_range")
    name: str
    passed: bool
    detail: str
    n_range: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "n_max": self.n_range[1],
        }


def _report(name: str, n_range: tuple[int, int], failures: list[str], detail: str = "") -> CheckReport:
    if failures:
        return CheckReport(name, False, failures[0], n_range)
    return CheckReport(name, True, detail, n_range)


def _check_three_route(n_max: int, knots: KnotTable) -> CheckReport:
    """Closed sum, recurrence and exact division agree for every family.

    The recurrence route walks the number generator once per family, so
    the check stays quadratic in n_max.
    """
    failures = []
    for fam in Family:
        spec = family_spec(fam)
        # range first: zip stops before asking for an unused number
        for n, r in zip(range(1, n_max + 1), islice(qp_numbers(spec), 1, None)):
            s = qp_number(spec, n)
            d = qp_number_division(spec, n)
            if not (s == r == d):
                failures.append(
                    f"{fam.value} n={n}: sum {s} / recurrence {r} / division {d}"
                )
                break
    return _report("three-route", (1, n_max), failures)


def _check_bm_coincidence(n_max: int, knots: KnotTable) -> CheckReport:
    """The one-parameter q-family equals the Alexander family up to the
    renaming q <-> t."""
    failures = []
    rename = {"q": Monomial.var("t")}
    for n in range(1, n_max + 1):
        lhs = qp_number(family_spec(Family.BMQ), n).substitute(rename)
        rhs = qp_number(family_spec(Family.ALEXANDER), n)
        if lhs != rhs:
            failures.append(f"n={n}: {lhs} != {rhs}")
            break
    return _report("bm-coincidence", (1, n_max), failures)


_EXPECTED_KNOT_COEFFS = {
    InvariantKind.ALEXANDER: ("t + t^-1", "-1"),
    InvariantKind.JONES: ("t^3 + t", "-t^4"),
    InvariantKind.HOMFLY: ("a^2*t + a^2*t^-1", "-a^4"),
}


def _check_eq8_coeffs(n_max: int, knots: KnotTable) -> CheckReport:
    """The knot coefficients k1 = u + v, k2 = -u*v of the number families
    match l1^2 + 2*l2, -l2^2 of the link coefficients and the tabulated
    closed forms."""
    failures = []
    for kind in InvariantKind:
        c = link_coeffs(kind)
        k = knot_coeffs(kind)
        if k.k1 != c.l1 * c.l1 + 2 * c.l2 or k.k2 != -(c.l2 * c.l2):
            failures.append(f"{kind.value}: ({k.k1}, {k.k2}) does not match formula")
            continue
        want1, want2 = _EXPECTED_KNOT_COEFFS[kind]
        if str(k.k1) != want1 or str(k.k2) != want2:
            failures.append(
                f"{kind.value}: ({k.k1}, {k.k2}) != tabulated ({want1}, {want2})"
            )
    return _report("eq8-coeffs", (1, 1), failures)


_EXPECTED_TREFOIL = {
    InvariantKind.ALEXANDER: "t - 1 + t^-1",
    InvariantKind.JONES: "-t^4 + t^3 + t",
    InvariantKind.HOMFLY: "-a^4 + a^2*t + a^2*t^-1",
}


def _check_trefoil(n_max: int, knots: KnotTable) -> CheckReport:
    """The m = 1 knot entry equals k1 + k2 and the tabulated trefoil
    polynomial for all three kinds."""
    failures = []
    for kind in InvariantKind:
        got = knots(kind, 1).knot(1)
        k = knot_coeffs(kind)
        if got != k.k1 + k.k2:
            failures.append(f"{kind.value}: {got} != k1 + k2")
        elif str(got) != _EXPECTED_TREFOIL[kind]:
            failures.append(f"{kind.value}: {got} != {_EXPECTED_TREFOIL[kind]}")
    return _report("trefoil", (1, 1), failures)


def _check_knot_vs_link(n_max: int, knots: KnotTable) -> CheckReport:
    """Knot entries, built from the numbers, agree with the odd entries of
    the link ladder, m = 0..n_max.  The ladder is walked, never stored."""
    failures = []
    for kind in InvariantKind:
        series = knots(kind, n_max)
        odd_links = islice(link_entries(kind), 1, 2 * n_max + 2, 2)
        for m, link_entry in enumerate(odd_links):
            if kind is InvariantKind.HOMFLY:
                link_entry = from_az_form(link_entry)
            if series.knot(m) != link_entry:
                failures.append(
                    f"{kind.value} m={m}: knot {series.knot(m)} != link {link_entry}"
                )
                break
    return _report("knot-vs-link", (0, n_max), failures)


def _check_homfly_specialize(n_max: int, knots: KnotTable) -> CheckReport:
    """a -> 1 and a -> t collapse the two-variable knot series onto the
    Alexander and Jones knot series."""
    failures = []
    hom = knots(InvariantKind.HOMFLY, n_max)
    alex = knots(InvariantKind.ALEXANDER, n_max)
    jones = knots(InvariantKind.JONES, n_max)
    for m in range(0, n_max + 1):
        h = hom.knot(m)
        sa = specialize_homfly(h, InvariantKind.ALEXANDER)
        sj = specialize_homfly(h, InvariantKind.JONES)
        if sa != alex.knot(m):
            failures.append(f"m={m}: a->1 gives {sa} != {alex.knot(m)}")
            break
        if sj != jones.knot(m):
            failures.append(f"m={m}: a->t gives {sj} != {jones.knot(m)}")
            break
    return _report("homfly-specialize", (0, n_max), failures)


def _check_roundtrip_sect7(n_max: int, knots: KnotTable) -> CheckReport:
    """Reconstructing (l1, l2) from the number families by square roots
    lands exactly on the defining link coefficients."""
    failures = []
    for fam in (Family.ALEXANDER, Family.JONES, Family.HOMFLY):
        got = skein_from_numbers(fam)
        want = link_coeffs(kind_for_family(fam))
        if got.l1 != want.l1 or got.l2 != want.l2:
            failures.append(
                f"{fam.value}: ({got.l1}, {got.l2}) != ({want.l1}, {want.l2})"
            )
    return _report("roundtrip-sect7", (1, 1), failures)


def _check_eq33_multiplier(n_max: int, knots: KnotTable) -> CheckReport:
    """[n]^H / [n]^A is the monomial a^(2(n-1))."""
    failures = []
    for n in range(1, n_max + 1):
        got = homfly_alexander_multiplier(n)
        want = Monomial.var("a") ** (2 * (n - 1))
        if got != want:
            failures.append(f"n={n}: {got} != {want}")
            break
    return _report("eq33-multiplier", (1, n_max), failures)


def _check_eq34_multiplier(n_max: int, knots: KnotTable) -> CheckReport:
    """[n]^H / [n]^V is a monomial; it equals (a*t^-1)^(2(n-1)), which
    does NOT match the tabulated closed form (a*t)^(2(n-1)).  The check
    passes on the computed value and records the mismatch."""
    failures = []
    matches_tabulated = True
    first_diff = ""
    for n in range(1, n_max + 1):
        got = homfly_jones_multiplier(n)
        computed = Monomial({"a": 2 * (n - 1), "t": -2 * (n - 1)})
        tabulated = Monomial({"a": 2 * (n - 1), "t": 2 * (n - 1)})
        if got != computed:
            failures.append(f"n={n}: {got} != (a*t^-1)^(2(n-1)) = {computed}")
            break
        if got != tabulated and matches_tabulated:
            matches_tabulated = False
            first_diff = f"first difference at n={n}: computed {got}, tabulated {tabulated}"
    detail = (
        "computed multiplier is (a*t^-1)^(2(n-1)); "
        + (
            "matches the tabulated form (a*t)^(2(n-1))"
            if matches_tabulated
            else f"tabulated form (a*t)^(2(n-1)) does NOT match ({first_diff})"
        )
    )
    return _report("eq34-multiplier", (1, n_max), failures, detail)


def _route_equivalence(name: str, route, fam: Family, n_max: int) -> CheckReport:
    failures = []
    for n in range(1, n_max + 1):
        lhs = route(qp_number(family_spec(fam), n))
        rhs = qp_number(family_spec(Family.HOMFLY), n)
        if lhs != rhs:
            failures.append(f"n={n}: {lhs} != {rhs}")
            break
    return _report(name, (1, n_max), failures)


def _check_h1_equivalence(n_max: int, knots: KnotTable) -> CheckReport:
    """Route-1 numbers substitute exactly onto the two-variable numbers."""
    return _route_equivalence("h1-equivalence", h1_to_h, Family.H1, n_max)


def _check_h2_equivalence(n_max: int, knots: KnotTable) -> CheckReport:
    """Route-2 numbers substitute exactly onto the two-variable numbers."""
    return _route_equivalence("h2-equivalence", h2_to_h, Family.H2, n_max)


def _check_az_roundtrip(n_max: int, knots: KnotTable) -> CheckReport:
    """to_az_form followed by z -> t^(1/2) - t^(-1/2) is the identity on
    the two-variable knot entries."""
    failures = []
    series = knots(InvariantKind.HOMFLY, n_max)
    for m in range(0, n_max + 1):
        p = series.knot(m)
        back = from_az_form(to_az_form(p))
        if back != p:
            failures.append(f"m={m}: round trip gives {back} != {p}")
            break
    return _report("az-roundtrip", (0, n_max), failures)


CHECKS = {
    "three-route": _check_three_route,
    "bm-coincidence": _check_bm_coincidence,
    "eq8-coeffs": _check_eq8_coeffs,
    "trefoil": _check_trefoil,
    "knot-vs-link": _check_knot_vs_link,
    "homfly-specialize": _check_homfly_specialize,
    "roundtrip-sect7": _check_roundtrip_sect7,
    "eq33-multiplier": _check_eq33_multiplier,
    "eq34-multiplier": _check_eq34_multiplier,
    "h1-equivalence": _check_h1_equivalence,
    "h2-equivalence": _check_h2_equivalence,
    "az-roundtrip": _check_az_roundtrip,
}


def check_names() -> list[str]:
    return list(CHECKS)


def run_check(name: str, n_max: int) -> CheckReport:
    """Run one named check over 1..n_max (or the check's natural range)."""
    if name not in CHECKS:
        raise UnknownCheckError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if n_max < 1:
        raise BadRangeError(f"n_max must be at least 1, got {n_max}")
    return CHECKS[name](n_max, cache(knot_series))


def run_all(n_max: int) -> list[CheckReport]:
    """Run every registered check in registry order, over one knot table."""
    if n_max < 1:
        raise BadRangeError(f"n_max must be at least 1, got {n_max}")
    knots = cache(knot_series)
    return [CHECKS[name](n_max, knots) for name in CHECKS]
