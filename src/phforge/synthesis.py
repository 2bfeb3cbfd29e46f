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
from .polynomial import Polynomial, _canonical, _int_add, poly_gcd, two_chart_quotients
from .quaternion import QI, QuaternionPolynomial, rotate_vector
from .ratfunc import (
    PoleStructure,
    hermite_antiderivative,  # noqa: F401  kept: perfbench's traced run patches this name here
    residue_at,  # noqa: F401  kept: perfbench's traced run patches this name here
    sturm_real_root_count,
)
from .ratfunc import _horowitz, _LocalSeries


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

    ``constraint_matrix`` stacks, for every pole factor and every hodograph
    component, the two extension-field coordinates of the residue as linear
    forms in the numerator coefficients mu_0..mu_m: integer rows, each pair
    the residues times one positive integer.  ``basis`` holds primitive
    integer vectors, one per free column of the system.
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


def build_residue_system(p: SynthesisProblem) -> SolutionSpace:
    """Assemble the residue-vanishing conditions and their exact kernel.

    For each factor Q^M of alpha, one local series g at the root theta of Q
    (``ratfunc._LocalSeries.pole``) gives the residues ell_i of t^i / alpha,
    i = 0..top with top = m + max deg w_c, as one integer sequence over one
    positive scale (``_LocalSeries.monomial_residues``).  The residue of
    t^k w_c / alpha is then the correlation sum_j w_c[j] ell_(k+j), so each
    hodograph component gives two integer rows per factor (the two
    extension-field coordinates, times one positive integer) from the
    integer coefficients of w_c; all rows are kept and the kernel is
    computed by ``linalg.nullspace``, one fraction-free forward pass and one
    back-substitution per free coefficient.  Its vectors are primitive
    integer vectors, so each is taken as the canonical pair over 1 as it
    is.  The trivial all-zero numerator is never part of the basis.
    """
    rows = []
    powers = [q.poly() ** q.multiplicity for q in p.poles.factors]
    top = p.m + max(wc.degree for wc in p.hodograph_dir)
    for i, q in enumerate(p.poles.factors):
        series = _LocalSeries(q, q.multiplicity)
        # alpha / Q^M as the product of the other factors' powers
        g = series.pole(math.prod(powers[:i] + powers[i + 1 :], start=Polynomial.one()))
        ells = series.monomial_residues(g, top)
        for wc in p.hodograph_dir:
            w, n = wc.ints, len(wc.ints)
            for ell in ells:
                rows.append([sum(map(mul, w, ell[k : k + n])) for k in range(p.m + 1)])
    basis = [_canonical(v, 1) for v in linalg.nullspace(rows, p.m + 1)]
    return SolutionSpace(p, rows, basis)


class RationalCurve:
    """Bounded rational space curve x, y, z over one common denominator.

    Numerators and the monic denominator are exact; the denominator has no
    real roots and every component satisfies deg num <= deg den, so both
    limits t -> +/-infinity exist and agree.
    """

    __slots__ = ("nums", "den", "mu")

    def __init__(self, nums, den: Polynomial, *, mu=None):
        nums = tuple(nums)
        if len(nums) != 3:
            raise ValueError("three components required")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        lead = den.leading()
        if lead != 1:
            nums = tuple(n * (1 / lead) for n in nums)
            den = den.monic()
        common = den
        for n in nums:
            common = poly_gcd(common, n) if not n.is_zero else common
            if common.degree == 0:
                break
        if common.degree > 0:
            nums = tuple(n.exact_div(common) for n in nums)
            den = den.exact_div(common)
        if den.degree > 0 and sturm_real_root_count(den) != 0:
            raise ValueError("denominator has real roots")
        for n in nums:
            if n.degree > den.degree:
                raise ValueError("unbounded component: numerator degree exceeds denominator")
        object.__setattr__(self, "nums", nums)
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

    With core = prod Q and D = prod Q^(M-1) over the factors Q^M of alpha,
    alpha = D core, and one ``ratfunc._horowitz`` solve integrates all three
    components over D, each checked exactly against its hodograph component,
    before RationalCurve reduces the result.
    Raises RationalityError when mu violates the zero-residue conditions.
    Negative values of mu are permitted here; regularity is certified
    separately.
    """
    if mu.degree > p.m:
        raise DegreeError(f"deg mu = {mu.degree} exceeds m = {p.m}")
    flows = [mu * wc for wc in p.hodograph_dir]
    factors = p.poles.factors
    core = math.prod((q.poly() for q in factors), start=Polynomial.one())
    den = math.prod((q.poly() ** (q.multiplicity - 1) for q in factors), start=Polynomial.one())
    return RationalCurve(_horowitz(flows, core, den), den, mu=mu)


def closure_point(c: RationalCurve):
    """The common limit of the curve for t -> +infinity and t -> -infinity.

    For a bounded component this is the ratio of leading coefficients (zero
    when the numerator degree is smaller); a common monic factor of numerator
    and denominator changes neither, so no gcd is taken.  Both directional
    limits agree by rationality.
    """
    out = []
    for n in c.nums:
        gap = c.den.degree - n.degree
        if gap < 0:
            raise ValueError("component is unbounded at infinity")
        out.append(n.leading() / c.den.leading() if gap == 0 else Fraction(0))
    return tuple(out)
