"""Exception hierarchy shared across the package."""


class PhforgeError(Exception):
    """Base class for all package-specific errors; ``exit_code`` is the CLI's exit status."""

    exit_code = 2


class ParseError(PhforgeError):
    """Invalid config or bundle input; carries a field path for diagnostics."""

    exit_code = 4

    def __init__(self, message: str, field: str | None = None):
        self.message, self.field = message, field
        super().__init__(f"{field}: {message}" if field else message)


class DegreeError(PhforgeError):
    """Degree bookkeeping made the requested construction impossible."""


class RationalityError(PhforgeError):
    """Integration would produce non-rational (log/arctan) terms.

    ``remainders`` holds one ``(core, B)`` pair per integrand that has a
    log/arctan part B / core, with core the squarefree part of its
    denominator.  From ``synthesize_curve`` the core is the product of
    alpha's quadratics, one pair per hodograph component that fails.
    """

    exit_code = 3

    def __init__(self, message: str, remainders=()):
        self.remainders = tuple(remainders)
        super().__init__(message)


class NonPythagoreanError(PhforgeError):
    """The squared speed of a curve is not the square of a rational function."""


class EmptyKernelError(PhforgeError):
    """No nontrivial numerator satisfies the zero-residue conditions."""


class NoCertificateError(PhforgeError):
    """The hull gate, the positivity search or the exact regularity check failed."""

    exit_code = 3
