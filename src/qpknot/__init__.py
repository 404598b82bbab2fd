"""Exact symbolic calculus for the polynomial invariants of the torus
knots T(2m+1,2) and torus links L(2m,2).

The package builds everything on one value type, a sparse multivariate
Laurent polynomial with exact rational exponents and arbitrary-precision
integer coefficients.  On top of it sit the deformed integer families
[n] = (u^n - v^n)/(u - v), the skein recurrences that generate the
Alexander, Jones and two-variable invariant series, the substitution
routes between the families, and a registry of machine-checkable
identities tying all of it together.
"""

from qpknot._kernel import BACKEND as KERNEL_BACKEND
from qpknot.errors import (
    BadRangeError,
    DivisionByZeroError,
    ExprSyntaxError,
    MissingImageError,
    NegativeIndexError,
    NonMonomialFractionalPowerError,
    NotAPerfectSquareError,
    NotDivisibleError,
    NotExpressibleError,
    QPKnotError,
    SpecMismatchError,
    UnknownCheckError,
)
from qpknot.exprparse import eval_expression, parse_expression, parse_poly
from qpknot.laurent import (
    LaurentPoly,
    Monomial,
    add,
    canonical_text,
    exact_div,
    exact_sqrt,
    mono_pow,
    mul,
    substitute,
)
from qpknot.qpnumbers import (
    Family,
    QPSpec,
    family_spec,
    homfly_alexander_multiplier,
    homfly_jones_multiplier,
    qp_number,
    qp_number_division,
    qp_number_recurrence,
)
from qpknot.skein import (
    InvariantKind,
    InvariantSeries,
    KnotCoeffs,
    SkeinCoeffs,
    family_for_kind,
    from_az_form,
    kind_for_family,
    knot_coeffs,
    knot_series,
    link_coeffs,
    link_series,
    skein_from_numbers,
    specialize_homfly,
    to_az_form,
    unlink2,
)
from qpknot.substitutions import SpecMap, apply_spec_map, h1_to_h, h2_to_h
from qpknot.verify import CheckReport, check_names, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # errors
    "QPKnotError",
    "DivisionByZeroError",
    "NotDivisibleError",
    "NotAPerfectSquareError",
    "MissingImageError",
    "NegativeIndexError",
    "SpecMismatchError",
    "BadRangeError",
    "UnknownCheckError",
    "NotExpressibleError",
    "ExprSyntaxError",
    "NonMonomialFractionalPowerError",
    # laurent core
    "Monomial",
    "LaurentPoly",
    "mono_pow",
    "add",
    "mul",
    "substitute",
    "exact_div",
    "exact_sqrt",
    "canonical_text",
    # deformed numbers
    "QPSpec",
    "Family",
    "family_spec",
    "qp_number",
    "qp_number_recurrence",
    "qp_number_division",
    "homfly_alexander_multiplier",
    "homfly_jones_multiplier",
    # skein engine
    "InvariantKind",
    "SkeinCoeffs",
    "KnotCoeffs",
    "InvariantSeries",
    "kind_for_family",
    "family_for_kind",
    "link_coeffs",
    "knot_coeffs",
    "unlink2",
    "link_series",
    "knot_series",
    "specialize_homfly",
    "skein_from_numbers",
    "to_az_form",
    "from_az_form",
    # substitutions
    "SpecMap",
    "apply_spec_map",
    "h1_to_h",
    "h2_to_h",
    # verification
    "CheckReport",
    "check_names",
    "run_check",
    "run_all",
    # expressions
    "parse_expression",
    "eval_expression",
    "parse_poly",
]
