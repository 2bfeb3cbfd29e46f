"""Zero-residue linear systems and integration of hodographs into curves.

Given a rotational generator A(t) and a prescribed pole structure alpha(t),
the hodograph mu(t)/alpha(t) * A(t) i A*(t) integrates to a rational curve
exactly when all residues at the (complex) zeros of alpha vanish.  Those
conditions are linear in the coefficients of mu; this module assembles them
exactly, computes the kernel, and integrates kernel members into bounded
closed curves.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DegreeError
from .polynomial import Polynomial, poly_gcd, two_chart_quotients
from .quaternion import QI, QuaternionPolynomial, is_i_reduced, rotate_vector
from .ratfunc import (
    ExtensionElement,
    PoleStructure,
    QuadraticFactor,
    RationalFunction,
    hermite_antiderivative,  # noqa: F401  kept: perfbench's traced run patches this name here
    residue_at,  # noqa: F401  kept: perfbench's traced run patches this name here
    sturm_real_root_count,
)
from .ratfunc import _hermite_reduce, _pole_series, _series_mul, _shifted_taylor
from .ratfunc import _split_coprime, _strip_factor, _times_shift


class SynthesisProblem:
    """A generator polynomial plus pole structure, with degree bookkeeping.

    The numerator degree m = 2(sum(m_i) - deg A - 1) is forced by the
    boundedness requirement: the curve components must have numerator degree
    at most the denominator degree.  Problems with m < 0 are rejected.
    """

    def __init__(self, a_poly: QuaternionPolynomial, poles: PoleStructure):
        if a_poly.is_zero:
            raise ValueError("zero generator polynomial")
        if not is_i_reduced(a_poly):
            warnings.warn(
                "generator is not i-reduced; the same curves arise from its "
                "reduced form at lower degree",
                stacklevel=2,
            )
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

    def kappa(self, mu: Polynomial) -> RationalFunction:
        return RationalFunction(mu, self.alpha)

    def __repr__(self):
        return f"SynthesisProblem(deg A={self.a_poly.degree}, alpha deg={self.alpha.degree}, m={self.m})"


class SolutionSpace:
    """Exact kernel of the zero-residue conditions for one problem.

    ``constraint_matrix`` stacks, for every pole factor and every hodograph
    component, the two extension-field coordinates of the residue as linear
    forms in the numerator coefficients mu_0..mu_m.
    """

    def __init__(self, problem: SynthesisProblem, constraint_matrix, basis):
        self.problem = problem
        self.constraint_matrix = tuple(tuple(row) for row in constraint_matrix)
        self.basis = tuple(basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, mu: Polynomial) -> bool:
        vec = [mu.coefficient(k) for k in range(self.problem.m + 1)]
        if mu.degree > self.problem.m:
            return False
        basis_vecs = [
            [b.coefficient(k) for k in range(self.problem.m + 1)] for b in self.basis
        ]
        return linalg.span_contains(basis_vecs, vec)

    def combination(self, coefficients) -> Polynomial:
        if len(coefficients) != len(self.basis):
            raise ValueError("one coefficient per basis element required")
        out = Polynomial.zero()
        for c, b in zip(coefficients, self.basis):
            out = out + b * Fraction(c)
        return out

    def solve_coefficients(self, fixed: dict[int, Fraction]):
        """Kernel member with prescribed values of selected mu-coefficients.

        Solves for a combination of basis elements whose coefficient at each
        index in ``fixed`` equals the given value; returns None when no such
        member exists.  Free combination directions are set to zero.
        """
        rows = [[b.coefficient(k) for b in self.basis] for k in fixed]
        rhs = [Fraction(v) for v in fixed.values()]
        y = linalg.solve(rows, rhs)
        if y is None:
            return None
        return self.combination(y)


def build_residue_system(p: SynthesisProblem) -> SolutionSpace:
    """Assemble the residue-vanishing conditions and their exact kernel.

    For each factor Q^M of alpha, one local series g at the root theta of Q
    (``ratfunc._pole_series``) gives every residue: that of t^k w_c / alpha
    is coefficient M - 1 of (theta + x)^k w_c(theta + x) g.  Each hodograph
    component gives two real rows per factor (the two extension-field
    coordinates); all rows are kept and the kernel is computed by exact
    elimination.  The trivial all-zero numerator is never part of the basis.
    """
    ncols = p.m + 1
    rows = []
    for q in p.poles.factors:
        g = _pole_series(p.alpha.exact_div(q.poly() ** q.multiplicity), q, q.multiplicity)
        theta = ExtensionElement(Fraction(0), Fraction(1), q.b, q.c)
        for wc in p.hodograph_dir:
            h = _series_mul(_shifted_taylor(wc, q, q.multiplicity), g)
            entries = []
            for _ in range(ncols):
                entries.append(h[-1])
                h = _times_shift(h, theta)
            rows.append([e.r0 for e in entries])
            rows.append([e.r1 for e in entries])
    kernel = linalg.nullspace(rows, ncols)
    basis = [
        Polynomial(linalg.primitive_integer_vector(vec)) for vec in kernel
    ]
    return SolutionSpace(p, rows, basis)


class RationalCurve:
    """Bounded rational space curve x, y, z over one common denominator.

    Numerators and the monic denominator are exact; the denominator has no
    real roots and every component satisfies deg num <= deg den, so both
    limits t -> +/-infinity exist and agree.
    """

    __slots__ = ("nums", "den", "generator", "poles", "mu")

    def __init__(self, nums, den: Polynomial, *, generator=None, poles=None, mu=None):
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
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "mu", mu)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalCurve is immutable")

    @classmethod
    def from_components(cls, x: RationalFunction, y: RationalFunction, z: RationalFunction, **meta):
        den = Polynomial.one()
        for c in (x, y, z):
            den = den * c.denominator.exact_div(poly_gcd(den, c.denominator))
        nums = tuple(c.numerator * den.exact_div(c.denominator) for c in (x, y, z))
        return cls(nums, den, **meta)

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

    @property
    def is_constant(self) -> bool:
        return all(n.degree <= 0 for n in self.nums) and self.den.degree == 0

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

    def __add__(self, other: "RationalCurve") -> "RationalCurve":
        if not isinstance(other, RationalCurve):
            return NotImplemented
        comps = [a + b for a, b in zip(self.components(), other.components())]
        same_gen = self.generator == other.generator and self.generator is not None
        same_poles = same_gen and self.poles == other.poles and self.poles is not None
        mu = (
            self.mu + other.mu
            if same_poles and self.mu is not None and other.mu is not None
            else None
        )
        return RationalCurve.from_components(
            *comps,
            generator=self.generator if same_gen else None,
            poles=self.poles if same_poles else None,
            mu=mu,
        )

    def __mul__(self, scalar) -> "RationalCurve":
        f = Fraction(scalar)
        return RationalCurve(
            tuple(n * f for n in self.nums),
            self.den,
            generator=self.generator,
            poles=self.poles,
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
    checked exactly against the hodograph before RationalCurve reduces it.
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
    for n, flow in zip(nums, flows):
        # (N/D)' = mu w_c / alpha, cleared of denominators
        if (n.derivative() * den - n * dd) * p.alpha != flow * den * den:
            raise AssertionError("hodograph verification failed")
    return RationalCurve(nums, den, generator=p.a_poly, poles=p.poles, mu=mu)


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


def elementary_decomposition(c: RationalCurve, poles: PoleStructure | None = None):
    """Split a curve into summands with a single quadratic pole each.

    Returns a list of curves: one per quadratic factor actually present in
    the denominator, plus a polynomial (constant) part when nonzero.  The
    summands add up to the input exactly.
    """
    if poles is None:
        poles = c.poles
    if poles is None:
        raise ValueError("pole structure unknown; pass it explicitly")
    moduli = []
    used = []
    rest = c.den
    for f in poles.factors:
        rest, k = _strip_factor(rest, f.poly())
        if k:
            moduli.append(f.poly() ** k)
            used.append(QuadraticFactor(f.b, f.c, k))
    if rest.degree != 0:
        raise ValueError("denominator has factors outside the pole structure")

    splits = _split_coprime(c.nums, moduli)
    poly_parts = [poly_part for poly_part, _ in splits]
    per_factor = [[parts[i] for _, parts in splits] for i in range(len(moduli))]
    out = []
    for i, m in enumerate(moduli):
        out.append(
            RationalCurve(
                tuple(per_factor[i]),
                m,
                generator=c.generator,
                poles=PoleStructure((used[i],)),
            )
        )
    if any(not p.is_zero for p in poly_parts):
        out.append(
            RationalCurve(tuple(poly_parts), Polynomial.one(), generator=c.generator)
        )
    return out
