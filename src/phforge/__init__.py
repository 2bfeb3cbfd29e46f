"""Closed, bounded, regular rational PH curves and rational framing motions.

The pipeline: a quaternion generator polynomial A(t) fixes the tangent
direction field A i A* / (A A*); a prescribed pole structure fixes the
denominator of the speed factor; zero-residue linear conditions make the
integrated curve rational; a semidefinite feasibility search with an exact
Sturm gate makes it regular (cusp free).
"""

from .errors import (
    DegreeError,
    EmptyKernelError,
    NonPythagoreanError,
    ParseError,
    PhforgeError,
    RationalityError,
)
from .geometry import (
    FramePose,
    HomogeneousPoint,
    HullCertificate,
    TangentIndicatrix,
    closure_integral,
    convex_hull_contains_origin,
    euler_rodriguez_pose,
    sample_motion,
    speed_function,
    tangent_indicatrix,
)
from .polynomial import Polynomial, poly_gcd, poly_sqrt, squarefree_decomposition
from .positivity import (
    FeasibilityResult,
    GramSlice,
    RegularityCertificate,
    average_solutions,
    build_gram_slice,
    certify_regular,
    sdp_feasible_point,
    sos_decomposition,
)
from .quaternion import (
    Quaternion,
    QuaternionPolynomial,
    i_reduce,
    is_i_reduced,
    rotate_vector,
)
from .rationals import format_rational, parse_rational
from .ratfunc import (
    ExtensionElement,
    PoleStructure,
    QuadraticFactor,
    RationalFunction,
    hermite_antiderivative,
    mobius_jacobian,
    partial_fractions,
    reparameterize,
    residue_at,
    sturm_real_root_count,
)
from .synthesis import (
    RationalCurve,
    SolutionSpace,
    SynthesisProblem,
    build_residue_system,
    closure_point,
    elementary_decomposition,
    synthesize_curve,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeError",
    "EmptyKernelError",
    "ExtensionElement",
    "FeasibilityResult",
    "FramePose",
    "GramSlice",
    "HomogeneousPoint",
    "HullCertificate",
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
    "closure_integral",
    "closure_point",
    "convex_hull_contains_origin",
    "elementary_decomposition",
    "euler_rodriguez_pose",
    "format_rational",
    "hermite_antiderivative",
    "i_reduce",
    "is_i_reduced",
    "mobius_jacobian",
    "parse_rational",
    "partial_fractions",
    "poly_gcd",
    "poly_sqrt",
    "reparameterize",
    "residue_at",
    "rotate_vector",
    "sample_motion",
    "sdp_feasible_point",
    "sos_decomposition",
    "speed_function",
    "squarefree_decomposition",
    "sturm_real_root_count",
    "synthesize_curve",
    "tangent_indicatrix",
]
