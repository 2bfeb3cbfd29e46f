"""Closed, bounded, regular rational PH curves and rational framing motions.

The pipeline: a quaternion generator polynomial A(t) fixes the tangent
direction field A i A* / (A A*); a prescribed pole structure fixes the
denominator of the speed factor; zero-residue linear conditions make the
integrated curve rational; a semidefinite feasibility search with an exact
real-root count as its gate makes it regular (cusp free).
"""

from .errors import (
    DegreeError,
    EmptyKernelError,
    NoCertificateError,
    NonPythagoreanError,
    ParseError,
    PhforgeError,
    RationalityError,
)
from .geometry import (
    HullCertificate,
    TangentIndicatrix,
    convex_hull_contains_origin,
    sample_motion,
    speed_function,
    tangent_indicatrix,
)
from .polynomial import Polynomial, poly_gcd, poly_sqrt
from .positivity import (
    FeasibilityResult,
    GramSlice,
    RegularityCertificate,
    average_solutions,
    build_gram_slice,
    certify_regular,
    sdp_feasible_point,
)
from .quaternion import (
    Quaternion,
    QuaternionPolynomial,
    i_reduce,
    rotate_vector,
)
from .rationals import format_rational, parse_rational
from .ratfunc import (
    ExtensionElement,
    PoleStructure,
    QuadraticFactor,
    RationalFunction,
    hermite_antiderivative,
    residue_at,
    sturm_real_root_count,
)
from .synthesis import (
    RationalCurve,
    SolutionSpace,
    SynthesisProblem,
    build_residue_system,
    closure_point,
    synthesize_curve,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeError",
    "EmptyKernelError",
    "ExtensionElement",
    "FeasibilityResult",
    "GramSlice",
    "HullCertificate",
    "NoCertificateError",
    "NonPythagoreanError",
    "ParseError",
    "PhforgeError",
    "PoleStructure",
    "Polynomial",
    "Quaternion",
    "QuaternionPolynomial",
    "QuadraticFactor",
    "RationalCurve",
    "RationalFunction",
    "RationalityError",
    "RegularityCertificate",
    "SolutionSpace",
    "SynthesisProblem",
    "TangentIndicatrix",
    "average_solutions",
    "build_gram_slice",
    "build_residue_system",
    "certify_regular",
    "closure_point",
    "convex_hull_contains_origin",
    "format_rational",
    "hermite_antiderivative",
    "i_reduce",
    "parse_rational",
    "poly_gcd",
    "poly_sqrt",
    "residue_at",
    "rotate_vector",
    "sample_motion",
    "sdp_feasible_point",
    "speed_function",
    "sturm_real_root_count",
    "synthesize_curve",
    "tangent_indicatrix",
]
