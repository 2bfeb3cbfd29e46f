"""Exception hierarchy shared across the package."""


class PhforgeError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PhforgeError):
    """Invalid config or bundle input; carries a field path for diagnostics."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class DegreeError(PhforgeError):
    """Degree bookkeeping made the requested construction impossible."""


class RationalityError(PhforgeError):
    """Integration would produce non-rational (log/arctan) terms.

    ``remainders`` holds ``(factor, numerator)`` pairs: the squarefree
    denominator factors whose residual fraction did not vanish.  From
    ``synthesize_curve`` the factors are the quadratics of alpha, one pair
    per pole factor and hodograph component that leaves a remainder.
    """

    def __init__(self, message: str, remainders=()):
        self.remainders = tuple(remainders)
        super().__init__(message)


class NonPythagoreanError(PhforgeError):
    """The squared speed of a curve is not the square of a rational function."""


class EmptyKernelError(PhforgeError):
    """No nontrivial numerator satisfies the zero-residue conditions."""
