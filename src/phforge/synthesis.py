"""Zero-residue linear systems and integration of hodographs into curves.

Given a rotational generator A(t) and a prescribed pole structure alpha(t),
the hodograph mu(t)/alpha(t) * A(t) i A*(t) integrates to a rational curve
exactly when all residues at the (complex) zeros of alpha vanish.  Those
conditions are linear in the coefficients of mu; this module assembles them
exactly, computes the kernel, and integrates kernel members into bounded
closed curves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from . import linalg
from .errors import DegreeError
from .polynomial import (
    Polynomial,
    _canonical,
    _int_add,
    _int_divmod,
    _int_mul,
    _pair,
    poly_gcd,  # noqa: F401  kept: perfbench's traced run patches this name here
    two_chart_quotients,
)
from .quaternion import QI, QuaternionPolynomial, rotate_vector
from .ratfunc import (
    PoleStructure,
    hermite_antiderivative,  # noqa: F401  kept: perfbench's traced run patches this name here
    residue_at,  # noqa: F401  kept: perfbench's traced run patches this name here
)
from .ratfunc import _complement, _horowitz


class SynthesisProblem:
    """A generator polynomial plus pole structure, with degree bookkeeping.

    The numerator degree m = 2(sum(m_i) - deg A - 1) is forced by the
    boundedness requirement: the curve components must have numerator degree
    at most the denominator degree.  Problems with m < 0 are rejected.
    The caller passes an i-reduced generator (``i_reduce``): an unreduced
    one gives the same curves at a higher degree.  ``hodograph_dir`` holds
    the components of A i A*; ``from_indicatrix`` takes them from A's
    tangent indicatrix instead of computing them again.
    """

    def __init__(self, a_poly: QuaternionPolynomial, poles: PoleStructure):
        self._bind(a_poly, poles)
        self.hodograph_dir = rotate_vector(a_poly, QI).vector_polys()

    @classmethod
    def from_indicatrix(cls, a_poly: QuaternionPolynomial, poles: PoleStructure, indicatrix):
        """The problem of a_poly, with A i A* read off its ``geometry.tangent_indicatrix``."""
        problem = cls.__new__(cls)
        problem._bind(a_poly, poles)
        problem.hodograph_dir = indicatrix.nums
        return problem

    def _bind(self, a_poly: QuaternionPolynomial, poles: PoleStructure):
        if a_poly.is_zero:
            raise ValueError("zero generator polynomial")
        m = 2 * (poles.total_multiplicity - a_poly.degree - 1)
        if m < 0:
            raise DegreeError(
                f"numerator degree 2*({poles.total_multiplicity} - {a_poly.degree} - 1) "
                "is negative; raise the pole multiplicities"
            )
        self.a_poly = a_poly
        self.poles = poles
        self.m = m
        self.alpha = poles.alpha()

    def __repr__(self):
        return f"SynthesisProblem(deg A={self.a_poly.degree}, alpha deg={self.alpha.degree}, m={self.m})"


class SolutionSpace:
    """Exact kernel of the zero-residue conditions for one problem.

    ``constraint_matrix`` holds linear forms in the numerator coefficients
    mu_0..mu_m, integer rows whose common zeros are the mu for which every
    residue of (mu / alpha) A i A* vanishes: one row per hodograph component
    w_c and vector z of the complement of the exact-derivative numerators
    over alpha, z . (mu w_c) (``build_residue_system``).  There are 6F - 3
    of them for F pole factors, as many as there are residue coordinates:
    two at each of the F root pairs for each of the three components, less
    three that the residue theorem implies, since deg(mu w_c) <=
    deg alpha - 2 makes each component's residues sum to zero.
    ``basis`` holds primitive integer vectors, one per free column of the
    system.
    """

    def __init__(self, problem: SynthesisProblem, constraint_matrix, basis):
        self.problem = problem
        self.constraint_matrix = tuple(tuple(row) for row in constraint_matrix)
        self.basis = tuple(basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, mu: Polynomial) -> bool:
        """Whether every residue of mu vanishes; the basis spans exactly this kernel."""
        if mu.degree > self.problem.m:
            return False
        return all(sum(a * v for a, v in zip(row, mu.ints)) == 0 for row in self.constraint_matrix)

    def combination(self, coefficients) -> Polynomial:
        """sum c_i basis_i, as one integer vector over the c_i's common denominator.

        Every basis vector is a primitive integer vector (den 1), so the sum
        needs one reduction to the canonical pair at the end.
        """
        if len(coefficients) != len(self.basis):
            raise ValueError("one coefficient per basis element required")
        cs = [Fraction(c) for c in coefficients]
        den = math.lcm(*[c.denominator for c in cs])
        out = []
        for c, b in zip(cs, self.basis):
            f = c.numerator * (den // c.denominator)
            out = _int_add(out, [f * x for x in b.ints])
        return _canonical(out, den)


def _core_and_lift(poles: PoleStructure) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(core, lift, E) over the factors Q^M of alpha = lift core.

    core = prod Q and lift = prod Q^(M-1).  E = lift' core / lift, the
    polynomial of Horowitz's system (``ratfunc._complement``), is the
    closed-form sum sum_i (M_i - 1) Q_i' prod_(j != i) Q_j, since
    lift' / lift = sum_i (M_i - 1) Q_i' / Q_i: no division by lift.  Each
    Q_i is the canonical pair (T_i, d_i) of a primitive integer triple
    with leading coefficient d_i.  By Gauss's lemma a product of the T_i is
    primitive, so core is the pair (prod T_i, prod d_i) and lift the pair
    (prod T_i^(M_i-1), prod d_i^(M_i-1)), with no gcd, and E is the integer
    vector sum_i (M_i - 1) T_i' prod_(j != i) T_j over prod d_i.
    """
    quads = [(q.poly(), q.multiplicity - 1) for q in poles.factors]
    core, lift, e = [1], [1], []
    for i, (t, k) in enumerate(quads):
        core = _int_mul(core, t.ints)
        if k:
            lift = _int_mul(lift, (t**k).ints)
            term = [k * t.ints[1], 2 * k * t.ints[2]]
            for j, (other, _) in enumerate(quads):
                if j != i:
                    term = _int_mul(term, other.ints)
            e = _int_add(e, term)
    return _pair(tuple(core), core[-1]), _pair(tuple(lift), lift[-1]), _canonical(e, core[-1])


def build_residue_system(p: SynthesisProblem) -> SolutionSpace:
    """Assemble the residue-vanishing conditions and their exact kernel.

    A numerator P of degree below n = deg alpha has P / alpha =
    (N / lift)' + B / core, with alpha = lift core (``_core_and_lift``), and
    every residue of P / alpha vanishes exactly when B = 0, that is, when P
    lies in the span of the numerators of the exact derivatives
    (t^k / lift)': the N columns of the system that integrates the curve.
    Those columns are in echelon form, so ``ratfunc._complement`` solves
    them by substitution over their band, with no elimination, for 2F
    primitive integer vectors z spanning the complement, and P = mu w_c lies
    in the span exactly when z . P = 0 for every z.  That is the correlation
    sum_j w_c[j] z_(k+j) = 0 in mu_k, k = 0..m: one integer row per z and
    hodograph component.  No column reaches t^(n-1) (in the last one,
    k = deg lift, the leading terms cancel), so the last z is e_(n-1), the
    residue sum, and deg(mu w_c) <= n - 2 leaves its rows zero, so it is
    dropped: 6F - 3 rows for F pole factors.  They have the same kernel as the
    residues themselves, so its free columns and primitive basis are those
    of the residue rows; ``linalg.nullspace``, the system's one
    elimination, computes it, one fraction-free forward pass and one
    back-substitution per free coefficient.  Its vectors are primitive
    integer vectors, so each is taken as the canonical pair over 1 as it is.
    The trivial all-zero numerator is never part of the basis.
    """
    core, lift, e = _core_and_lift(p.poles)
    # the last vector is e_(n-1), the residue sum: zero on every mu w_c
    *complement, _ = _complement(core, lift, e)
    rows = []
    for wc in p.hodograph_dir:
        w, n = wc.ints, len(wc.ints)
        for z in complement:
            rows.append([sum(map(mul, w, z[k : k + n])) for k in range(p.m + 1)])
    basis = [_canonical(v, 1) for v in linalg.nullspace(rows, p.m + 1)]
    return SolutionSpace(p, rows, basis)


class RationalCurve:
    """Bounded rational space curve x, y, z over one common denominator, with its mu.

    The constructor binds ``nums``, ``den`` and ``mu`` as given and checks
    nothing.  A curve comes from ``synthesize_curve``, which integrates
    r' = (mu/alpha) A i A* and reduces it over the known pole factors, or
    from ``cli.load_bundle``, which checks that identity on a bundle's data
    first.  Either way den is real-root free and no numerator has a higher
    degree than den, so both limits t -> +/-infinity exist and agree.
    """

    __slots__ = ("nums", "den", "mu")

    def __init__(self, nums, den: Polynomial, mu=None):
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "mu", mu)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalCurve is immutable")

    def eval_floats(self, ts) -> np.ndarray:
        """Two-chart float positions at the parameters ts (inf allowed), one row each."""
        return two_chart_quotients(self.nums, self.den, self.den.degree, ts).T

    def eval_float(self, t: float):
        # kept: perfbench's traced run wraps this method by name
        return tuple(self.eval_floats([t])[0].tolist())

    def __eq__(self, other):
        if not isinstance(other, RationalCurve):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __repr__(self):
        return f"RationalCurve(deg den={self.den.degree})"


def synthesize_curve(p: SynthesisProblem, mu: Polynomial) -> RationalCurve:
    """Integrate the hodograph (mu/alpha) A i A* into a curve with r(0) = 0.

    With alpha = lift core and E = lift' core / lift in closed form
    (``_core_and_lift``), one ``ratfunc._horowitz`` call integrates all
    three components over lift, each by substitution and checked exactly
    against its hodograph component.  Raises RationalityError when mu
    violates the zero-residue conditions.  The curve is then reduced over
    the known factors: lift = prod Q_i^(M_i-1) is monic and real-root free,
    and the Q_i are distinct monic irreducibles, so the gcd of lift and the
    numerators is a product of Q_i powers.  Each Q_i is divided out while
    it divides all three numerators, at most M_i - 1 times, keeping the
    quotients of the trial divisions (``_quotients``), which leaves
    the curve in lowest terms with no gcd and no root count; each
    numerator has degree at most deg lift, so the curve is bounded.
    Negative values of mu are permitted here; regularity is certified
    separately.
    """
    if mu.degree > p.m:
        raise DegreeError(f"deg mu = {mu.degree} exceeds m = {p.m}")
    core, lift, e = _core_and_lift(p.poles)
    nums, den = _horowitz([mu * wc for wc in p.hodograph_dir], core, lift, e), lift
    for factor in p.poles.factors:
        if factor.multiplicity > 1:
            q = factor.poly()
            for _ in range(factor.multiplicity - 1):
                quotients = _quotients([*nums, den], q)
                if quotients is None:
                    break
                *nums, den = quotients
    return RationalCurve(nums, den, mu)


def _quotients(polys, q: Polynomial):
    """The p / q of every p in polys, or None once q does not divide one of them.

    Each trial division is ``_int_divmod``'s s p_ints = quot q_ints + r, so
    when r = 0 the quotient p / q is quot q.den / (s p.den), taken as it is,
    with no second division.
    """
    out = []
    for p in polys:
        s, quot, r = _int_divmod(p.ints, q.ints)
        if r:
            return None
        out.append(_canonical([x * q.den for x in quot], s * p.den))
    return out


def closure_point(c: RationalCurve):
    """The common limit of the curve for t -> +infinity and t -> -infinity.

    Every component is bounded: ``synthesize_curve`` builds no numerator of
    higher degree than the denominator, ``cli.load_bundle`` rejects one,
    and a curve is immutable.  So the limit is the ratio of leading
    coefficients, or zero when the numerator degree is smaller; a common
    monic factor of numerator and denominator changes neither, so no gcd is
    taken.  Both directional limits agree by
    rationality.
    """
    return tuple(
        n.leading() / c.den.leading() if n.degree == c.den.degree else Fraction(0)
        for n in c.nums
    )
