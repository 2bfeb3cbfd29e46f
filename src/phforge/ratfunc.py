"""Exact univariate rational functions, pole structures, residues, integration.

Residues at irreducible quadratic poles come from a truncated Laurent
series over the extension field Q[t]/(Q(t)), kept as integer pairs over
Z[phi] with one denominator per series, so no irrational or floating
complex numbers appear anywhere; a residue is reported as its two
coordinates over Q (``ExtensionElement``), with no field arithmetic.
Rational antiderivatives come from Horowitz's method, with no root finding
and no partial fractions: the denominator of the antiderivative is known
in advance, so its numerator and the log/arctan part are the solution of
one square integer linear system, solved for all numerators at once by
``linalg.nullspace``; real-root counting is Sturm's method, with the chain
computed as a signed primitive polynomial remainder sequence over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import RationalityError
from .polynomial import (
    Polynomial,
    _canonical,
    _int_divmod,
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


def _strip_factor(p: Polynomial, q: Polynomial) -> tuple[Polynomial, int]:
    """(s, m) with p = q^m s and q not dividing s; p must be nonzero."""
    m = 0
    while True:
        quo, rem = divmod(p, q)
        if not rem.is_zero:
            return p, m
        p, m = quo, m + 1


class _LocalSeries:
    """Series mod x^n at t = theta + x, theta a root of t^2 + b t + c, over Z[phi].

    phi = e theta, with e the common denominator of b and c, satisfies
    phi^2 + B phi + C = 0 with the integers B = e b and C = e^2 c, so a series
    is a pair (terms, den): terms[k] = (u, v) stands for (u + v phi) x^k / den,
    with one positive integer denominator per series.  No Fraction arithmetic
    happens until ``last`` reads a coefficient out; ``monomial_residues``
    hands the residue system the residues of t^i / alpha, i = 0..top, as
    integers and makes none.
    """

    def __init__(self, q: QuadraticFactor, n: int):
        self.n = n
        self.e = e = math.lcm(q.b.denominator, q.c.denominator)
        self.B = q.b.numerator * (e // q.b.denominator)
        self.C = q.c.numerator * (e // q.c.denominator) * e

    def _mul(self, x, y):
        (u, v), (s, w) = x, y
        vw = v * w
        return u * s - self.C * vw, u * w + v * s - self.B * vw

    def _dot(self, xs, ys):
        """sum xs[i] ys[i] over Z[phi]."""
        acc_u = acc_v = 0
        for x, y in zip(xs, ys):
            u, v = self._mul(x, y)
            acc_u += u
            acc_v += v
        return acc_u, acc_v

    def _times_linear(self, h: list, a) -> list:
        """The terms h times (a + e x), truncated to len(h) terms."""
        e, out = self.e, [self._mul(h[0], a)]
        for prev, cur in zip(h, h[1:]):
            u, v = self._mul(cur, a)
            out.append((u + e * prev[0], v + e * prev[1]))
        return out

    def taylor(self, p: Polynomial):
        """p(theta + x) by Horner's rule in phi + e x = e (theta + x)."""
        ints, den = p.ints, p.den
        terms = [(0, 0)] * self.n
        for k, c in enumerate(reversed(ints)):
            terms = self._times_linear(terms, (0, 1))
            terms[0] = (terms[0][0] + c * self.e**k, terms[0][1])
        return terms, den * self.e ** max(len(ints) - 1, 0)

    def pole(self, s: Polynomial):
        """1/((t - theta')^n s(t)); s must be coprime to Q.

        theta' = -b - theta is the other root of Q, so t - theta' =
        (2 phi + B + e x) / e at t = theta + x.  For f = N / (Q^n s) the
        residue at theta is ``last(product(taylor(N), pole(s)))``.  The
        inverse of a series U whose leading term has norm N has n-th term
        W_n / N^(n+1) with W_0 = conj(U_0) and
        W_n = -conj(U_0) sum_{i=1..n} U_i W_(n-i) N^(i-1).
        """
        u, den = self.taylor(s)
        for _ in range(self.n):
            u = self._times_linear(u, (self.B, 2))
        den *= self.e**self.n
        u0, v0 = u[0]
        conj = (u0 - self.B * v0, -v0)
        norm = u0 * u0 - self.B * u0 * v0 + self.C * v0 * v0  # > 0: Q has no real root
        powers = [norm**i for i in range(self.n + 1)]
        w = [conj]
        for k in range(1, self.n):
            scaled = [(x * p, y * p) for (x, y), p in zip(reversed(w), powers)]
            x, y = self._mul(conj, self._dot(u[1 : k + 1], scaled))
            w.append((-x, -y))
        scales = [den * powers[self.n - 1 - k] for k in range(self.n)]
        return [(x * f, y * f) for (x, y), f in zip(w, scales)], powers[self.n]

    def product(self, f, g):
        """The product of two series."""
        (fa, fd), (ga, gd) = f, g
        return [self._dot(fa[: k + 1], ga[k::-1]) for k in range(self.n)], fd * gd

    def monomial_residues(self, g, top: int) -> tuple[list[int], list[int]]:
        """``last`` on (theta + x)^i g for i = 0..top, as two integer sequences times den e^top.

        With g = ``pole(s)`` these are the residues ell_i of t^i / (Q^n s) at
        theta, and the residue of N / (Q^n s) is sum_i N_i ell_i.  The terms
        of (theta + x)^i g are those of g times (phi + e x)^i over den e^i,
        so for its top term (u, v) the pair times den e^top is
        (u e^(top-i), v e^(top-i+1)): one positive integer scales them all.
        """
        terms, ell0, ell1 = g[0], [], []
        for i in range(top + 1):
            u, v = terms[-1]
            s = self.e ** (top - i)
            ell0.append(u * s)
            ell1.append(v * s * self.e)
            terms = self._times_linear(terms, (0, 1))
        return ell0, ell1

    def last(self, h) -> tuple[Fraction, Fraction]:
        """(r0, r1) with coefficient n - 1 of h equal to r0 + r1 theta."""
        (u, v), den = h[0][-1], h[1]
        return Fraction(u, den), Fraction(v * self.e, den)


def residue_at(f: RationalFunction, q: QuadraticFactor) -> ExtensionElement:
    """Residue of f at the root theta of Q inside Q[t]/(Q(t)).

    Read off the local series at theta (``_LocalSeries``) for the reduced
    denominator Q^m s.  The residue at the other root is the conjugate.
    """
    s, m = _strip_factor(f.denominator, q.poly())
    if m == 0:
        raise ValueError("quadratic is not a factor of the denominator")
    series = _LocalSeries(q, m)
    r0, r1 = series.last(series.product(series.taylor(f.numerator), series.pole(s)))
    return ExtensionElement(r0, r1, q.b, q.c)


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


def _horowitz(nums, core: Polynomial, lift: Polynomial) -> list[Polynomial]:
    """The N_i with (N_i / lift)' = nums[i] / (lift core) and N_i(0) = 0.

    Horowitz's method (Horowitz 1971; Bronstein, *Symbolic Integration I*,
    sec. 2.2): core is squarefree and every root of lift is one of core's, so
    E = lift' core / lift is a polynomial, and num / (lift core) =
    (N / lift)' + B / core with deg B < deg core holds exactly when
    N' core - N E + B lift = num.  The unknowns are N_1..N_deg(lift) and
    B_0..B_(deg core - 1): N_0 is dropped, as N(0) = 0, which makes the
    system square and nonsingular because lift(0) != 0 (with N_0 kept, its
    kernel is N = lift, the constant N / lift).  Every numerator, which must
    be proper over lift core, is one right-hand-side column of a single
    ``linalg.nullspace`` call, on rows scaled to integers: its forward pass
    triangularises the banded columns once for every numerator, and each
    numerator's solution is one back-substitution.  A nonzero B is a
    log/arctan part and raises RationalityError, with one (core, B) pair per
    such numerator; every N is checked against N' core - N E = num exactly.
    """
    delta, n = lift.degree, lift.degree + core.degree
    e = (lift.derivative() * core).exact_div(lift)
    scale = math.lcm(core.den, e.den, lift.den)
    c, ei, li = ([x * (scale // p.den) for x in p.ints] for p in (core, e, lift))
    cols = []
    for k in range(1, delta + 1):  # N_k t^k: k t^(k-1) core - t^k E
        col = [0] * n
        for i, x in enumerate(c, k - 1):
            col[i] = k * x
        for i, x in enumerate(ei, k):
            col[i] -= x
        cols.append(col)
    for k in range(core.degree):  # B_k t^k: t^k lift
        cols.append([0] * k + li + [0] * (n - k - len(li)))
    cols.extend(list(num.ints) + [0] * (n - len(num.ints)) for num in nums)
    # the kernel vector of free column n + j solves the system for nums[j]
    kernel = linalg.nullspace(list(zip(*cols)), n + len(nums))
    out, remainders = [], []
    for j, (num, v) in enumerate(zip(nums, kernel)):
        den = v[n + j] * num.den
        if any(v[delta:n]):
            remainders.append((core, _canonical([-x * scale for x in v[delta:n]], den)))
        out.append(_canonical([0] + [-x * scale for x in v[:delta]], den))
    if remainders:
        raise RationalityError("nonzero residues: antiderivative is not rational", remainders)
    for num, anti in zip(nums, out):
        if anti.derivative() * core - anti * e != num:
            raise AssertionError("antiderivative verification failed")
    return out


def hermite_antiderivative(f: RationalFunction) -> RationalFunction:
    """Rational antiderivative g with g' = f and g(0) = 0.

    Works over Q with no root finding: the proper part rem / den integrates
    over lift = gcd(den, den') by ``_horowitz``, with core = den / lift.  If a log/arctan part B / core is left, the residues
    do not all vanish and RationalityError is raised.
    """
    den = f.denominator
    if den.degree > 0 and sturm_real_root_count(den) != 0:
        raise ValueError("denominator has real roots")
    poly_quot, rem = divmod(f.numerator, den)
    num, lift = poly_quot.antiderivative(), Polynomial.one()
    if not rem.is_zero:
        lift = poly_gcd(den, den.derivative())
        (rest,) = _horowitz([rem], den.exact_div(lift), lift)
        num = num * lift + rest
    result = RationalFunction(num, lift)
    if not (result.derivative() == f):
        raise AssertionError("antiderivative verification failed")
    return result
