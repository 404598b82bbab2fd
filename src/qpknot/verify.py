"""Named, machine-runnable identity checks; the acceptance source of truth.

Every check is an exhaustive exact comparison over an index range (no
sampling).  A check yields the text of each mismatch it finds, and the runner
takes the first as the check's verdict and stops the check there, so it
computes nothing more.  Checks are pure computations; ``run_all`` runs them in
registry order.  A check gets its knot series, and the (a, z) images
of the HOMFLY knot entries, from a table that lives for one run, so a value
that several checks compare is built once.

One check leans on another: ``knot-vs-link`` compares the HOMFLY knot
entries with the link ladder over (a, z), which decides the (a, t) identity
only when ``az-roundtrip`` passes too (see its docstring).  A
``knot-vs-link`` pass run on its own says nothing about a fault in
to_az_form; ``run_all`` runs both.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache, partial

from qpknot._record import Record
from qpknot.errors import (
    BadRangeError,
    MissingImageError,
    NotDivisibleError,
    NotExpressibleError,
    UnknownCheckError,
)
from qpknot.laurent import LaurentPoly, Monomial
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


class RunTable:
    """What the checks of one run share, each value built on first use and
    dropped with the run: ``knots(kind, m_max)`` is ``knot_series``, and
    ``az_image(m_max, m)`` is ``to_az_form`` of HOMFLY knot entry m.  An
    entry with no (a, z) form raises to_az_form's error on every request;
    nothing is stored for it."""

    __slots__ = ("knots", "az_image")

    def __init__(self) -> None:
        knots = cache(knot_series)  # the lambda holds this, not self: no cycle
        self.knots: Callable[[InvariantKind, int], InvariantSeries] = knots
        self.az_image: Callable[[int, int], LaurentPoly] = cache(
            lambda m_max, m: to_az_form(knots(InvariantKind.HOMFLY, m_max).knot(m))
        )


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


def _per_index(
    n_max: int, lhs: Callable[[int], object], rhs: Callable[[int], object]
) -> Iterator[str]:
    """Compare lhs(n) with rhs(n) for n = 1..n_max.  Checks build lhs and
    rhs when they run, so a rebound callee is the one called.  A side whose
    exact division fails has no value to compare: that is a mismatch."""
    for n in range(1, n_max + 1):
        try:
            got, want = lhs(n), rhs(n)
        except NotDivisibleError as exc:
            yield f"n={n}: {exc}"
        if got != want:
            yield f"n={n}: {got} != {want}"


def _check_three_route(n_max: int, table: RunTable) -> Iterator[str]:
    """Closed sum, recurrence and exact division agree for every family.

    The recurrence route walks the number generator once per family, so
    the check stays quadratic in n_max.
    """
    indices = range(1, n_max + 1)
    for fam in Family:
        spec = family_spec(fam)
        for n, r in zip(indices, qp_numbers(spec, indices)):
            s = qp_number(spec, n)
            d = qp_number_division(spec, n)
            if not (s == r == d):
                yield f"{fam.value} n={n}: sum {s} / recurrence {r} / division {d}"


def _check_bm_coincidence(n_max: int, table: RunTable) -> Iterator[str]:
    """The one-parameter q-family equals the Alexander family up to the
    renaming q <-> t."""
    rename = {"q": Monomial.var("t")}
    bmq = partial(qp_number, family_spec(Family.BMQ))
    alexander = partial(qp_number, family_spec(Family.ALEXANDER))
    return _per_index(n_max, lambda n: bmq(n).substitute(rename), alexander)


_EXPECTED_KNOT_COEFFS = {
    InvariantKind.ALEXANDER: ("t + t^-1", "-1"),
    InvariantKind.JONES: ("t^3 + t", "-t^4"),
    InvariantKind.HOMFLY: ("a^2*t + a^2*t^-1", "-a^4"),
}


def _check_eq8_coeffs(n_max: int, table: RunTable) -> Iterator[str]:
    """The knot coefficients k1 = u + v, k2 = -u*v of the number families
    match l1^2 + 2*l2, -l2^2 of the link coefficients and the tabulated
    closed forms."""
    for kind in InvariantKind:
        c = link_coeffs(kind)
        k = knot_coeffs(kind)
        want1, want2 = _EXPECTED_KNOT_COEFFS[kind]
        if k.k1 != c.l1 * c.l1 + 2 * c.l2 or k.k2 != -(c.l2 * c.l2):
            yield f"{kind.value}: ({k.k1}, {k.k2}) does not match formula"
        if str(k.k1) != want1 or str(k.k2) != want2:
            yield f"{kind.value}: ({k.k1}, {k.k2}) != tabulated ({want1}, {want2})"


_EXPECTED_TREFOIL = {
    InvariantKind.ALEXANDER: "t - 1 + t^-1",
    InvariantKind.JONES: "-t^4 + t^3 + t",
    InvariantKind.HOMFLY: "-a^4 + a^2*t + a^2*t^-1",
}


def _check_trefoil(n_max: int, table: RunTable) -> Iterator[str]:
    """The m = 1 knot entry equals k1 + k2 and the tabulated trefoil
    polynomial for all three kinds."""
    for kind in InvariantKind:
        got = table.knots(kind, 1).knot(1)
        k = knot_coeffs(kind)
        if got != k.k1 + k.k2:
            yield f"{kind.value}: {got} != k1 + k2"
        if str(got) != _EXPECTED_TREFOIL[kind]:
            yield f"{kind.value}: {got} != {_EXPECTED_TREFOIL[kind]}"


def _check_knot_vs_link(n_max: int, table: RunTable) -> Iterator[str]:
    """Knot entries, built from the numbers, agree with the odd entries of
    the link ladder, m = 0..n_max.  The ladder is walked, never stored.

    HOMFLY knot entries live in (a, t) and the ladder's in (a, z), so the
    check compares over (a, z): the table's image P = to_az_form(knot m)
    with link entry L = link 2m+1.  This decides knot m == from_az_form(L).
    The map z -> t^(1/2) - t^(-1/2) is a ring homomorphism on polynomials
    in z over the a-parts, and it is injective: the top power z^j of each
    a-part goes to t^(j/2) plus lower powers of t^(1/2), so no nonzero
    polynomial goes to 0.  With from_az_form(P) == knot m, which
    ``az-roundtrip`` checks, from_az_form(L) == from_az_form(P) holds
    exactly when L == P.  A knot entry with no (a, z) form is no image, so
    it is a mismatch: to_az_form raises NotExpressibleError on a t-exponent
    or a residue it cannot express, and ValueError on a variable other than
    a and t.  Only a mismatch converts L to (a, t), for the detail text.
    """
    for kind in InvariantKind:
        series = table.knots(kind, n_max)
        odd_links = link_entries(kind, range(1, 2 * n_max + 2, 2))
        for m, link_entry in enumerate(odd_links):
            if kind is not InvariantKind.HOMFLY:
                same = series.knot(m) == link_entry
            else:
                try:
                    same = table.az_image(n_max, m) == link_entry
                except (NotExpressibleError, ValueError):
                    same = False
                if not same:
                    link_entry = from_az_form(link_entry)
            if not same:
                yield f"{kind.value} m={m}: knot {series.knot(m)} != link {link_entry}"


def _check_homfly_specialize(n_max: int, table: RunTable) -> Iterator[str]:
    """a -> 1 and a -> t collapse the two-variable knot series onto the
    Alexander and Jones knot series.  A knot entry in a variable other than
    a and t has no image under either map, so it is a mismatch."""
    hom = table.knots(InvariantKind.HOMFLY, n_max)
    alex = table.knots(InvariantKind.ALEXANDER, n_max)
    jones = table.knots(InvariantKind.JONES, n_max)
    for m in range(0, n_max + 1):
        h = hom.knot(m)
        try:
            sa = specialize_homfly(h, InvariantKind.ALEXANDER)
            sj = specialize_homfly(h, InvariantKind.JONES)
        except MissingImageError as exc:
            yield f"m={m}: {exc}"
        if sa != alex.knot(m):
            yield f"m={m}: a->1 gives {sa} != {alex.knot(m)}"
        if sj != jones.knot(m):
            yield f"m={m}: a->t gives {sj} != {jones.knot(m)}"


def _check_roundtrip_sect7(n_max: int, table: RunTable) -> Iterator[str]:
    """Reconstructing (l1, l2) from the number families by square roots
    lands exactly on the defining link coefficients."""
    for fam in (Family.ALEXANDER, Family.JONES, Family.HOMFLY):
        got = skein_from_numbers(fam)
        want = link_coeffs(kind_for_family(fam))
        if got.l1 != want.l1 or got.l2 != want.l2:
            yield f"{fam.value}: ({got.l1}, {got.l2}) != ({want.l1}, {want.l2})"


def _check_eq33_multiplier(n_max: int, table: RunTable) -> Iterator[str]:
    """[n]^H / [n]^A is the monomial a^(2(n-1))."""
    return _per_index(
        n_max, homfly_alexander_multiplier, lambda n: Monomial.var("a") ** (2 * (n - 1))
    )


def _check_eq34_multiplier(n_max: int, table: RunTable) -> Iterator[str]:
    """[n]^H / [n]^V is a monomial; it equals (a*t^-1)^(2(n-1)), which
    does NOT match the tabulated closed form (a*t)^(2(n-1)).  The check
    passes on the computed value and records the mismatch (`_eq34_note`).
    A quotient that is not exact fails the check."""
    for n in range(1, n_max + 1):
        try:
            got = homfly_jones_multiplier(n)
        except NotDivisibleError as exc:
            yield f"n={n}: {exc}"
        computed = Monomial({"a": 2 * (n - 1), "t": -2 * (n - 1)})
        if got != computed:
            yield f"n={n}: {got} != (a*t^-1)^(2(n-1)) = {computed}"


def _eq34_note(n_max: int) -> str:
    """The pass note of ``eq34-multiplier``.  On a pass every quotient is
    (a*t^-1)^(2(n-1)), which differs from the tabulated (a*t)^(2(n-1))
    exactly when n >= 2, so the first difference is at n = 2 when the
    range reaches it."""
    return "computed multiplier is (a*t^-1)^(2(n-1)); " + (
        "tabulated form (a*t)^(2(n-1)) does NOT match"
        " (first difference at n=2: computed a^2*t^-2, tabulated a^2*t^2)"
        if n_max >= 2
        else "matches the tabulated form (a*t)^(2(n-1))"
    )


def _check_h1_equivalence(n_max: int, table: RunTable) -> Iterator[str]:
    """Route-1 numbers substitute exactly onto the two-variable numbers."""
    h1 = partial(qp_number, family_spec(Family.H1))
    homfly = partial(qp_number, family_spec(Family.HOMFLY))
    return _per_index(n_max, lambda n: h1_to_h(h1(n)), homfly)


def _check_h2_equivalence(n_max: int, table: RunTable) -> Iterator[str]:
    """Route-2 numbers substitute exactly onto the two-variable numbers."""
    h2 = partial(qp_number, family_spec(Family.H2))
    homfly = partial(qp_number, family_spec(Family.HOMFLY))
    return _per_index(n_max, lambda n: h2_to_h(h2(n)), homfly)


def _check_az_roundtrip(n_max: int, table: RunTable) -> Iterator[str]:
    """to_az_form followed by z -> t^(1/2) - t^(-1/2) is the identity on
    the two-variable knot entries.  The (a, z) images are the table's, the
    ones ``knot-vs-link`` compares with the link ladder.  A knot entry with
    no (a, z) form fails the check with to_az_form's error text."""
    series = table.knots(InvariantKind.HOMFLY, n_max)
    for m in range(0, n_max + 1):
        p = series.knot(m)
        try:
            back = from_az_form(table.az_image(n_max, m))
        except (NotExpressibleError, ValueError) as exc:
            yield f"m={m}: {exc}"
        if back != p:
            yield f"m={m}: round trip gives {back} != {p}"


CHECKS: dict[str, Callable[[int, RunTable], CheckReport]] = {}


def _check(
    name: str,
    mismatches: Callable[[int, RunTable], Iterator[str]],
    first: int,
    last: int | None = None,
    note: Callable[[int], str] = lambda n_max: "",
) -> None:
    """Register check ``name`` over first..last, where ``last`` is n_max
    unless the check's range is fixed.  Its verdict is the first text
    ``mismatches`` yields, taken inside the registered call, which stops
    the check there; a pass reports ``note(n_max)``."""

    def run(n_max: int, table: RunTable) -> CheckReport:
        mismatch = next(mismatches(n_max, table), None)
        detail = note(n_max) if mismatch is None else mismatch
        return CheckReport(name, mismatch is None, detail, (first, last or n_max))

    CHECKS[name] = run


_check("three-route", _check_three_route, 1)
_check("bm-coincidence", _check_bm_coincidence, 1)
_check("eq8-coeffs", _check_eq8_coeffs, 1, 1)
_check("trefoil", _check_trefoil, 1, 1)
_check("knot-vs-link", _check_knot_vs_link, 0)
_check("homfly-specialize", _check_homfly_specialize, 0)
_check("roundtrip-sect7", _check_roundtrip_sect7, 1, 1)
_check("eq33-multiplier", _check_eq33_multiplier, 1)
_check("eq34-multiplier", _check_eq34_multiplier, 1, note=_eq34_note)
_check("h1-equivalence", _check_h1_equivalence, 1)
_check("h2-equivalence", _check_h2_equivalence, 1)
_check("az-roundtrip", _check_az_roundtrip, 0)


def check_names() -> list[str]:
    return list(CHECKS)


def run_check(name: str, n_max: int) -> CheckReport:
    """Run one named check over 1..n_max (or the check's natural range)."""
    if name not in CHECKS:
        raise UnknownCheckError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if n_max < 1:
        raise BadRangeError(f"n_max must be at least 1, got {n_max}")
    return CHECKS[name](n_max, RunTable())


def run_all(n_max: int) -> list[CheckReport]:
    """Run every registered check in registry order, over one run table."""
    if n_max < 1:
        raise BadRangeError(f"n_max must be at least 1, got {n_max}")
    table = RunTable()
    return [CHECKS[name](n_max, table) for name in CHECKS]
