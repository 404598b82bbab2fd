"""Exception types shared across the package."""


class QPKnotError(Exception):
    """Base class for all qpknot errors."""


class DivisionByZeroError(QPKnotError):
    """Division by the zero polynomial."""


class NotDivisibleError(QPKnotError):
    """Exact division left a nonzero remainder or a non-monomial quotient."""


class NotAPerfectSquareError(QPKnotError):
    """The polynomial has no Laurent-polynomial square root."""


class MissingImageError(QPKnotError):
    """A substitution map lacks an image for a variable."""

    def __init__(self, var: str):
        super().__init__(f"no image for variable {var!r}")
        self.var = var


class NegativeIndexError(QPKnotError):
    """Deformed numbers are defined for nonnegative indices only."""


class SpecMismatchError(QPKnotError):
    """A spec-level substitution was applied to the wrong source spec."""


class BadRangeError(QPKnotError):
    """An index range is outside the defined domain."""


class UnknownCheckError(QPKnotError):
    """Requested verification check does not exist."""


class NotExpressibleError(QPKnotError):
    """The polynomial cannot be rewritten in the requested variable."""


class ExprSyntaxError(QPKnotError):
    """Expression parse failure; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NonMonomialFractionalPowerError(ExprSyntaxError):
    """Fractional exponents are only legal on variables and monomials."""
