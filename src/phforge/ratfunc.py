"""Exact univariate rational functions, pole structures, residues, integration.

Rational antiderivatives come from Horowitz's method, with no root finding
and no partial fractions: the denominator of the antiderivative is known
in advance, so its numerator and the log/arctan part are the solution of
one square integer linear system.  When the squarefree core does not
vanish at 0, its low rows are triangular and banded, so each numerator is
found by substitution upward from t^0 and checked on every row; a
numerator that fails the check, or a core with core(0) = 0, goes to the
dense solve of all numerators at once by ``linalg.nullspace``.  That
solve also gives residues: the log/arctan part B / core has the residues
of the function, each read off in Q[t]/(Q(t)) as its two coordinates over
Q (``ExtensionElement``), with no irrational or floating complex numbers
anywhere.  Real-root counting is Sturm's method, with the chain computed
as a signed primitive polynomial remainder sequence over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import linalg
from .errors import RationalityError
from .polynomial import (
    Polynomial,
    _canonical,
    _int_add,
    _int_divmod,
    _int_mul,
    _primitive,
    poly_gcd,
    two_chart_quotients,
)


class RationalFunction:
    """Quotient of polynomials over Q in reduced form.

    The denominator is normalized monic; equality of reduced forms is
    equality of rational functions.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial = Polynomial((1,))):
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not numerator.is_zero:
            g = poly_gcd(numerator, denominator)
            if g.degree > 0:
                numerator = numerator.exact_div(g)
                denominator = denominator.exact_div(g)
        else:
            denominator = Polynomial.one()
        lead = denominator.leading()
        if lead != 1:
            numerator = numerator * (1 / lead)
            denominator = denominator.monic()
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero())

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(Polynomial.constant(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction(other if isinstance(other, Polynomial) else Polynomial.constant(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.numerator * other, self.denominator)
        if isinstance(other, Polynomial):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.numerator.derivative() * self.denominator
            - self.numerator * self.denominator.derivative(),
            self.denominator * self.denominator,
        )

    def eval_floats(self, ts) -> np.ndarray:
        """Two-chart float values at the parameters ts (inf allowed)."""
        d = max(self.numerator.degree, self.denominator.degree)
        return two_chart_quotients((self.numerator,), self.denominator, d, ts)[0]

    def __repr__(self):
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"


@dataclass(frozen=True)
class QuadraticFactor:
    """Monic irreducible real quadratic t^2 + b t + c with a pole multiplicity."""

    b: Fraction
    c: Fraction
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.discriminant >= 0:
            raise ValueError(
                f"t^2 + {self.b}t + {self.c} has real roots (discriminant {self.discriminant})"
            )
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")

    @property
    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.c

    def poly(self) -> Polynomial:
        return Polynomial((self.c, self.b, 1))


@dataclass(frozen=True)
class PoleStructure:
    """Prescribed denominator: product of distinct irreducible quadratics."""

    factors: tuple[QuadraticFactor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        seen = set()
        for f in self.factors:
            key = (f.b, f.c)
            if key in seen:
                raise ValueError(f"repeated quadratic factor t^2 + {f.b}t + {f.c}")
            seen.add(key)

    def alpha(self) -> Polynomial:
        out = Polynomial.one()
        for f in self.factors:
            out = out * f.poly() ** f.multiplicity
        return out

    @property
    def total_multiplicity(self) -> int:
        return sum(f.multiplicity for f in self.factors)


@dataclass(frozen=True)
class ExtensionElement:
    """r0 + r1*theta in Q[t]/(t^2 + b t + c), theta the class of t: coordinates only."""

    r0: Fraction
    r1: Fraction
    b: Fraction
    c: Fraction

    @property
    def is_zero(self) -> bool:
        return self.r0 == 0 and self.r1 == 0


def _int_derivative(v: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(v)][1:]


def sturm_real_root_count(p: Polynomial) -> int:
    """Distinct real roots of p on the whole real line.

    The Sturm chain is a signed primitive PRS on p's integer vector: every
    pseudo-remainder and primitive part differs from the Euclidean
    remainder by a positive factor only, so its sign variations are those
    of the classical chain.  p need not be squarefree: every member of the
    chain is then a multiple of g = gcd(p, p'), whose one nonzero sign at
    each end of the line changes no variation count there, so the count
    is that of the chain of p / g, which counts each distinct root once
    (Basu, Pollack & Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
    The signs at -/+infinity come from each member's leading coefficient
    and degree; no member is evaluated at a finite point.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    chain = [_primitive(p.ints), _primitive(_int_derivative(p.ints))]
    while len(chain[-1]) > 1:
        r = _int_divmod(chain[-2], chain[-1])[2]
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    at_plus = [v[-1] > 0 for v in chain]
    # p(-t) flips the sign of an odd-degree member: len(v) = degree + 1
    at_minus = [positive == (len(v) % 2 == 1) for v, positive in zip(chain, at_plus)]
    return _variations(at_minus) - _variations(at_plus)


def _variations(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _horowitz_columns(core: Polynomial, lift: Polynomial, e: Polynomial):
    """(s, k0, columns): the integer columns of Horowitz's linear system.

    Horowitz's method (Horowitz 1971; Bronstein, *Symbolic Integration I*,
    sec. 2.2): core is squarefree and every root of lift is one of core's, so
    E = lift' core / lift is a polynomial, and num / (lift core) =
    (N / lift)' + B / core with deg B < deg core holds exactly when
    N' core - N E + B lift = num.  The caller passes E: a pole structure
    has it in closed form (``synthesis._core_and_lift``), and a caller with
    no factorization divides once.  N = lift and B = 0 solve it for
    num = 0 (N / lift is a constant), so the coefficient k0 of N is fixed to
    0, k0 the lowest index of a nonzero coefficient of lift (0 when
    lift(0) != 0), which makes the system square and nonsingular.  The
    columns, each deg lift + deg core integers times the least common scale
    s, are first the deg lift N columns k t^(k-1) core - t^k E, the
    numerators of (t^k / lift)' over lift core, for k = 0..deg lift but k0,
    then the deg core B columns t^k lift.
    """
    scale = math.lcm(core.den, e.den, lift.den)
    c, ei, li = ([x * (scale // p.den) for x in p.ints] for p in (core, e, lift))
    n, k0 = len(li) - 1 + core.degree, next(k for k, x in enumerate(li) if x)
    cols = []
    for k in (k for k in range(len(li)) if k != k0):
        col = [0] * n
        if k:
            for i, x in enumerate(c, k - 1):
                col[i] = k * x
        for i, x in enumerate(ei, k):
            col[i] -= x
        cols.append(col)
    for k in range(core.degree):
        cols.append([0] * k + li + [0] * (n - k - len(li)))
    return scale, k0, cols


def _horowitz_parts(nums, core: Polynomial, lift: Polynomial, e: Polynomial):
    """[(N_i, B_i)] with N_i' core - N_i E + B_i lift = nums[i] (``_horowitz_columns``).

    The dense route, for any core: every numerator, which must be proper
    over lift core, is one right-hand-side column of a single
    ``linalg.nullspace`` call, whose forward pass triangularises the
    columns once for every numerator; each numerator's solution is one
    back-substitution.  ``_horowitz`` needs it only when core(0) = 0 or an
    antiderivative fails its check; ``residue_at`` reads B from it.
    """
    scale, k0, cols = _horowitz_columns(core, lift, e)
    delta, n = lift.degree, len(cols)
    cols.extend(list(num.ints) + [0] * (n - len(num.ints)) for num in nums)
    # the kernel vector of free column n + j solves the system for nums[j]
    kernel = linalg.nullspace(list(zip(*cols)), n + len(nums))
    parts = []
    for j, (num, v) in enumerate(zip(nums, kernel)):
        den = v[n + j] * num.den
        anti = [-x * scale for x in v[:delta]]
        anti.insert(k0, 0)
        parts.append((_canonical(anti, den), _canonical([-x * scale for x in v[delta:n]], den)))
    return parts


def _scaled(core: Polynomial, e: Polynomial):
    """(s, core_s, E_s): core and E as integer vectors over their least common scale s."""
    scale = math.lcm(core.den, e.den)
    return scale, *([x * (scale // p.den) for x in p.ints] for p in (core, e))


def _substitute(nums, core: Polynomial, delta: int, e: Polynomial) -> list[Polynomial]:
    """The N_i of degree <= delta with N_i(0) = 0 that solve the low delta rows with B = 0.

    Row r of N' core - N E = num, r < delta, holds N_(r+1) with the pivot
    (r + 1) core(0), and otherwise only the N_k with r - deg core < k <= r,
    whose coefficients k core_(r-k+1) - E_(r-k) are the band of the
    Horowitz columns; core(0) != 0.  So each N_(r+1) follows from the ones
    below it by one short integer update.  Over integers core_s and E_s
    (``_scaled``), X = N num.den / s solves the rows with right-hand side
    num_ints; X is kept as v / d with v integral, and each new entry scales
    v and d by pivot / gcd(pivot, entry numerator), as the back-substitution
    of ``linalg.nullspace`` does.  When B = 0, as for every numerator of an
    exact derivative, the N found is the one of the full system; the rows
    left over are what ``_horowitz``'s check verifies.
    """
    scale, c, ei = _scaled(core, e)
    width = core.degree
    ei += [0] * (width - len(ei))
    # band[r]: the coefficients of N_lo .. N_r in row r, lo = max(1, r - width + 1)
    band = [
        [k * c[r - k + 1] - ei[r - k] for k in range(max(1, r - width + 1), r + 1)]
        for r in range(delta)
    ]
    out = []
    for num in nums:
        b, v, d = num.ints, [0], 1
        for r, row in enumerate(band):
            s = (d * b[r] if r < len(b) else 0) - sum(map(mul, v[r + 1 - len(row) :], row))
            pivot = (r + 1) * c[0]
            g = math.gcd(s, pivot)
            if pivot < 0:
                g = -g
            m = pivot // g
            if m != 1:
                v = [x * m for x in v]
                d *= m
            v.append(s // g)
        out.append(_canonical([x * scale for x in v], d * num.den))
    return out


def _integrates(antis, nums, core: Polynomial, e: Polynomial) -> bool:
    """Whether N_i' core - N_i E = nums[i] for every i, on every coefficient.

    On integer vectors: core and E over their least common scale s
    (``_scaled``), so the identity is num.den (N_ints' core_s - N_ints E_s)
    = N.den s num_ints, with no intermediate reduction.
    """
    scale, c, ei = _scaled(core, e)
    for num, anti in zip(nums, antis):
        a, d = anti.ints, num.den
        diff = [-x * anti.den * scale for x in num.ints]
        if len(a) > 1:
            diff = _int_add(diff, _int_mul(_int_derivative(a), [d * x for x in c]))
        if a and ei:
            diff = _int_add(diff, _int_mul(a, [-d * x for x in ei]))
        if any(diff):
            return False
    return True


def _horowitz(nums, core: Polynomial, lift: Polynomial, e: Polynomial) -> list[Polynomial]:
    """The N_i with (N_i / lift)' = nums[i] / (lift core) and coefficient k0 zero.

    When core(0) != 0, as for every real-root-free core, k0 = 0, so
    N_i(0) = 0, and ``_substitute`` finds each N_i from the low deg lift
    rows of the system.  Every N is checked by ``_integrates`` on all
    deg lift + deg core coefficients, and that check is the whole guard:
    the high deg core rows hold exactly when B = 0.  Only when it fails
    does the dense ``_horowitz_parts`` run, once: a nonzero B is a
    log/arctan part and raises RationalityError, with one (core, B) pair
    per such numerator, and if every B is zero the substitution was wrong
    and AssertionError is raised.  When core(0) = 0 the dense solve gives
    the N_i, with the same B test and the same check.
    """
    if core.ints[0]:
        antis = _substitute(nums, core, lift.degree, e)
        if _integrates(antis, nums, core, e):
            return antis
    parts = _horowitz_parts(nums, core, lift, e)
    remainders = [(core, b) for _, b in parts if not b.is_zero]
    if remainders:
        raise RationalityError("nonzero residues: antiderivative is not rational", remainders)
    antis = [anti for anti, _ in parts]
    if core.ints[0] or not _integrates(antis, nums, core, e):
        raise AssertionError("antiderivative verification failed")
    return antis


def residue_at(f: RationalFunction, q: QuadraticFactor) -> ExtensionElement:
    """Residue of f at the root theta of Q inside Q[t]/(Q(t)).

    The proper part of f over its reduced denominator den = lift core, with
    lift = gcd(den, den') and core squarefree, is (N / lift)' + B / core by
    the one Horowitz solve of ``_horowitz_parts``, with E = lift' core / lift
    by one exact division, as den comes with no factorization.  The
    derivative has no residue, so the residue at theta is
    B(theta) / core'(theta), a quotient of two elements r0 + r1 theta of
    Q(theta): (B mod Q) times the conjugate of (core' mod Q), over its norm.
    The residue at the other root is the conjugate.
    """
    den, s = f.denominator, q.poly()
    lift = poly_gcd(den, den.derivative())
    core = den.exact_div(lift)
    if not (core % s).is_zero:
        raise ValueError("quadratic is not a factor of the denominator")
    e = (lift.derivative() * core).exact_div(lift)
    ((_, b),) = _horowitz_parts([f.numerator % den], core, lift, e)
    d = core.derivative() % s
    d0, d1 = d.coefficient(0), d.coefficient(1)
    r = b * Polynomial((d0 - q.b * d1, -d1)) % s
    norm = d0 * d0 - q.b * d0 * d1 + q.c * d1 * d1
    return ExtensionElement(r.coefficient(0) / norm, r.coefficient(1) / norm, q.b, q.c)


def hermite_antiderivative(f: RationalFunction) -> RationalFunction:
    """Rational antiderivative g with g' = f and g(0) = 0.

    Works over Q with no root finding: the proper part rem / den integrates
    over lift = gcd(den, den') by ``_horowitz``, with core = den / lift and
    E = lift' core / lift, each one exact division.  If a log/arctan part
    B / core is left, the residues do not all vanish and RationalityError
    is raised.
    """
    den = f.denominator
    if den.degree > 0 and sturm_real_root_count(den) != 0:
        raise ValueError("denominator has real roots")
    poly_quot, rem = divmod(f.numerator, den)
    num, lift = poly_quot.antiderivative(), Polynomial.one()
    if not rem.is_zero:
        lift = poly_gcd(den, den.derivative())
        core = den.exact_div(lift)
        e = (lift.derivative() * core).exact_div(lift)
        (rest,) = _horowitz([rem], core, lift, e)
        num = num * lift + rest
    result = RationalFunction(num, lift)
    if not (result.derivative() == f):
        raise AssertionError("antiderivative verification failed")
    return result
