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

import numpy as np

from . import linalg
from .errors import DegreeError
from .polynomial import Polynomial, poly_gcd, two_chart_quotients
from .quaternion import QI, QuaternionPolynomial, rotate_vector
from .ratfunc import (
    PoleStructure,
    RationalFunction,
    hermite_antiderivative,  # noqa: F401  kept: perfbench's traced run patches this name here
    residue_at,  # noqa: F401  kept: perfbench's traced run patches this name here
    sturm_real_root_count,
)
from .ratfunc import _hermite_reduce, _LocalSeries


class SynthesisProblem:
    """A generator polynomial plus pole structure, with degree bookkeeping.

    The numerator degree m = 2(sum(m_i) - deg A - 1) is forced by the
    boundedness requirement: the curve components must have numerator degree
    at most the denominator degree.  Problems with m < 0 are rejected.
    The caller passes an i-reduced generator (``i_reduce``): an unreduced
    one gives the same curves at a higher degree.
    """

    def __init__(self, a_poly: QuaternionPolynomial, poles: PoleStructure):
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
        self.hodograph_dir = rotate_vector(a_poly, QI).vector_polys()

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
        if len(coefficients) != len(self.basis):
            raise ValueError("one coefficient per basis element required")
        out = Polynomial.zero()
        for c, b in zip(coefficients, self.basis):
            out = out + b * Fraction(c)
        return out


def build_residue_system(p: SynthesisProblem) -> SolutionSpace:
    """Assemble the residue-vanishing conditions and their exact kernel.

    For each factor Q^M of alpha, one local series g at the root theta of Q
    (``ratfunc._LocalSeries.pole``) gives every residue: that of t^k w_c / alpha
    is coefficient M - 1 of (theta + x)^k w_c(theta + x) g.  Each hodograph
    component gives two integer rows per factor (the two extension-field
    coordinates, times one positive integer); all rows are kept and the
    kernel is computed by fraction-free elimination.  The trivial all-zero
    numerator is never part of the basis.
    """
    rows = []
    powers = [q.poly() ** q.multiplicity for q in p.poles.factors]
    for i, q in enumerate(p.poles.factors):
        series = _LocalSeries(q, q.multiplicity)
        # alpha / Q^M as the product of the other factors' powers
        g = series.pole(math.prod(powers[:i] + powers[i + 1 :], start=Polynomial.one()))
        for wc in p.hodograph_dir:
            rows.extend(series.residue_rows(series.product(series.taylor(wc), g), p.m))
    basis = [Polynomial(v) for v in linalg.nullspace(rows, p.m + 1)]
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

    def components(self):
        return tuple(RationalFunction(n, self.den) for n in self.nums)

    @property
    def x(self) -> RationalFunction:
        return RationalFunction(self.nums[0], self.den)

    @property
    def y(self) -> RationalFunction:
        return RationalFunction(self.nums[1], self.den)

    @property
    def z(self) -> RationalFunction:
        return RationalFunction(self.nums[2], self.den)

    def hodograph(self):
        return tuple(c.derivative() for c in self.components())

    def evaluate(self, t: Fraction):
        tv = Fraction(t)
        dv = self.den(tv)
        return tuple(n(tv) / dv for n in self.nums)

    def eval_floats(self, ts) -> np.ndarray:
        """Two-chart float positions at the parameters ts (inf allowed), one row each."""
        return two_chart_quotients(self.nums, self.den, self.den.degree, ts).T

    def eval_float(self, t: float):
        return tuple(self.eval_floats([t])[0].tolist())

    def __mul__(self, scalar) -> "RationalCurve":
        f = Fraction(scalar)
        return RationalCurve(
            tuple(n * f for n in self.nums),
            self.den,
            mu=self.mu * f if self.mu is not None else None,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RationalCurve):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __repr__(self):
        return f"RationalCurve(deg den={self.den.degree})"


def synthesize_curve(p: SynthesisProblem, mu: Polynomial) -> RationalCurve:
    """Integrate the hodograph (mu/alpha) A i A* into a curve with r(0) = 0.

    One Hermite reduction over the factors Q^M of alpha integrates all three
    components over the common denominator D = prod Q^(M-1); the result is
    checked exactly against the hodograph, divided through by D, before
    RationalCurve reduces it.
    Raises RationalityError when mu violates the zero-residue conditions.
    Negative values of mu are permitted here; regularity is certified
    separately.
    """
    if mu.degree > p.m:
        raise DegreeError(f"deg mu = {mu.degree} exceeds m = {p.m}")
    flows = [mu * wc for wc in p.hodograph_dir]
    den, nums = _hermite_reduce(flows, [(q.poly(), q.multiplicity) for q in p.poles.factors])
    nums = [n - den * (n(Fraction(0)) / den(Fraction(0))) for n in nums]
    dd = den.derivative()
    core, rest = divmod(p.alpha, den)  # prod Q and 0, as D = prod Q^(M-1)
    for n, flow in zip(nums, flows):
        # (N/D)' = mu w_c / alpha, cleared of denominators: with alpha = D core,
        # (N' D - N D') alpha = mu w_c D^2 holds exactly when this does
        if rest or (n.derivative() * den - n * dd) * core != flow * den:
            raise AssertionError("hodograph verification failed")
    return RationalCurve(nums, den, mu=mu)


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
