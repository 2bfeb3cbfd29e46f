"""Exact univariate rational-function calculus.

Residues at irreducible quadratic poles come from a truncated Laurent
series over the extension field Q[t]/(Q(t)), so no irrational or floating
complex numbers appear anywhere.  Rational antiderivatives come from
Hermite reduction, which only needs gcd arithmetic and therefore works
without root finding; real-root counting is Sturm's method over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RationalityError
from .polynomial import (
    Polynomial,
    modular_inverse,
    poly_gcd,
    squarefree_decomposition,
    two_chart_quotients,
)

_INF = float("inf")


class RationalFunction:
    """Quotient of Fraction-coefficient polynomials in reduced form.

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

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial.constant(c))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p)

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.denominator.degree == 0

    @property
    def degree(self):
        """deg(num) - deg(den); None for the zero function."""
        if self.is_zero:
            return None
        return self.numerator.degree - self.denominator.degree

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        return hash((self.numerator, self.denominator))

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

    def __rsub__(self, other):
        return (-self) + other

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return RationalFunction(self.numerator * (Fraction(1) / other), self.denominator)
        if isinstance(other, Polynomial):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.numerator * other.denominator, self.denominator * other.numerator)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.numerator.derivative() * self.denominator
            - self.numerator * self.denominator.derivative(),
            self.denominator * self.denominator,
        )

    def evaluate(self, t: Fraction) -> Fraction:
        den = self.denominator(Fraction(t))
        if den == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.numerator(Fraction(t)) / den

    def eval_floats(self, ts) -> np.ndarray:
        """Two-chart float values at the parameters ts (inf allowed)."""
        d = max(self.numerator.degree, self.denominator.degree)
        return two_chart_quotients((self.numerator,), self.denominator, d, ts)[0]

    def eval_float(self, t: float) -> float:
        return float(self.eval_floats([t])[0])

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

    def with_multiplicity(self, m: int) -> "QuadraticFactor":
        return QuadraticFactor(self.b, self.c, m)


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

    @property
    def degree(self) -> int:
        return 2 * self.total_multiplicity


@dataclass(frozen=True)
class ExtensionElement:
    """r0 + r1*theta in Q[t]/(t^2 + b t + c), theta the class of t."""

    r0: Fraction
    r1: Fraction
    b: Fraction
    c: Fraction

    def _like(self, r0, r1) -> "ExtensionElement":
        return ExtensionElement(Fraction(r0), Fraction(r1), self.b, self.c)

    def _check(self, other: "ExtensionElement"):
        if (self.b, self.c) != (other.b, other.c):
            raise ValueError("elements of different extension fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like(self.r0 + other, self.r1)
        self._check(other)
        return self._like(self.r0 + other.r0, self.r1 + other.r1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(-self.r0, -self.r1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like(self.r0 * other, self.r1 * other)
        self._check(other)
        # theta^2 = -b*theta - c
        cross = self.r0 * other.r1 + self.r1 * other.r0
        sq = self.r1 * other.r1
        return self._like(self.r0 * other.r0 - self.c * sq, cross - self.b * sq)

    __rmul__ = __mul__

    def conjugate(self) -> "ExtensionElement":
        # theta -> -b - theta, the other root of the quadratic
        return self._like(self.r0 - self.b * self.r1, -self.r1)

    def norm(self) -> Fraction:
        return self.r0 * self.r0 - self.b * self.r0 * self.r1 + self.c * self.r1 * self.r1

    def inverse(self) -> "ExtensionElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of the extension field")
        conj = self.conjugate()
        return self._like(conj.r0 / n, conj.r1 / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like(self.r0 / other, self.r1 / other)
        return self * other.inverse()

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


def _times_shift(h: list, a: ExtensionElement) -> list:
    """The series h times (a + x), truncated to len(h) terms."""
    return [h[0] * a] + [h[i] * a + h[i - 1] for i in range(1, len(h))]


def _series_mul(f: list, g: list) -> list:
    """Product of two truncated series of equal length."""
    return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(len(f))]


def _shifted_taylor(p: Polynomial, q: QuadraticFactor, n: int) -> list:
    """p(theta + x) mod x^n by Horner's rule, theta the class of t in Q[t]/(Q)."""
    theta = ExtensionElement(Fraction(0), Fraction(1), q.b, q.c)
    out = [theta * 0] * n
    for c in reversed(p.coeffs):
        out = _times_shift(out, theta)
        out[0] = out[0] + c
    return out


def _pole_series(s: Polynomial, q: QuadraticFactor, m: int) -> list:
    """Taylor coefficients at theta of 1/((t - theta')^m s(t)), mod x^m.

    theta' = -b - theta is the other root of Q, so t - theta' = x + 2 theta + b
    at t = theta + x; s must be coprime to Q.  For f = N / (Q^m s) the residue
    at theta is coefficient m - 1 of N(theta + x) times this series.
    """
    den = _shifted_taylor(s, q, m)
    for _ in range(m):
        den = _times_shift(den, ExtensionElement(q.b, Fraction(2), q.b, q.c))
    out = [den[0].inverse()]
    for n in range(1, m):
        out.append(-sum(den[i] * out[n - i] for i in range(1, n + 1)) * out[0])
    return out


def residue_at(f: RationalFunction, q: QuadraticFactor) -> ExtensionElement:
    """Residue of f at the root theta of Q inside Q[t]/(Q(t)).

    Read off the local series at theta (``_pole_series``) for the reduced
    denominator Q^m s.  The residue at the other root is the conjugate.
    """
    s, m = _strip_factor(f.denominator, q.poly())
    if m == 0:
        raise ValueError("quadratic is not a factor of the denominator")
    return _series_mul(_shifted_taylor(f.numerator, q, m), _pole_series(s, q, m))[-1]


def sturm_real_root_count(p: Polynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi]; None endpoints mean -/+infinity.

    Multiple roots are counted once (the squarefree part is used).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    g = poly_gcd(p, p.derivative())
    if g.degree > 0:
        p = p.exact_div(g)
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = chain[-2] % chain[-1]
        if r.is_zero:
            break
        chain.append(-r)

    def sign_at(poly: Polynomial, x) -> int:
        if poly.is_zero:
            return 0
        lead = poly.leading()
        if x is None:  # -infinity
            sgn = 1 if poly.degree % 2 == 0 else -1
            return sgn if lead > 0 else -sgn
        if isinstance(x, float) and math.isinf(x):  # +infinity
            return 1 if lead > 0 else -1
        v = poly(Fraction(x))
        return (v > 0) - (v < 0)

    def variations(x) -> int:
        signs = [s for s in (sign_at(c, x) for c in chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    lo_key = None if lo is None or (isinstance(lo, float) and lo == -_INF) else Fraction(lo)
    hi_key = _INF if hi is None or (isinstance(hi, float) and hi == _INF) else Fraction(hi)
    return variations(lo_key) - variations(hi_key)


def _split_coprime(nums, moduli: list[Polynomial]):
    """num / prod(moduli) = poly + sum A_i / M_i with deg A_i < deg M_i, per num.

    The moduli must be pairwise coprime.  The inverse of each cofactor
    prod(M_j, j != i) modulo M_i is computed once for all numerators, since
    num = poly * prod(moduli) + sum A_i * cofactor_i gives A_i = num / cofactor_i
    mod M_i.  Returns [(poly_part, [A_i])], one pair per numerator.
    """
    prod = Polynomial.one()
    for m in moduli:
        prod = prod * m
    inverses = [modular_inverse(prod.exact_div(m), m) for m in moduli]
    return [
        (num // prod, [(num % m * inv) % m for m, inv in zip(moduli, inverses)])
        for num in nums
    ]


def partial_fractions(f: RationalFunction, moduli: list[Polynomial]):
    """Split f over pairwise coprime moduli whose product is f's denominator.

    Returns (poly_part: Polynomial, terms: list[RationalFunction]) with
    terms[i] = A_i / moduli[i] and f = poly_part + sum(terms) exactly.
    """
    prod = Polynomial.one()
    for m in moduli:
        prod = prod * m
    if prod.is_zero or prod.monic() != f.denominator:
        raise ValueError("moduli product does not match the denominator")
    [(poly_part, parts)] = _split_coprime([f.numerator * prod.leading()], moduli)
    return poly_part, [RationalFunction(a, m) for a, m in zip(parts, moduli)]


def _hermite_reduce(nums, factors):
    """(D, [N_i]) with N_i / D an antiderivative of nums[i] / prod s^k, D = prod s^(k-1).

    ``factors`` are (s, k) pairs with s monic, squarefree and pairwise
    coprime, and every nums[i] / prod s^k must be proper.  Hermite reduction
    (Bronstein, *Symbolic Integration I*, ch. 2) strips one multiplicity of s
    per step: b = -a ((j-1) s')^-1 mod s makes a/s^j - (b/s^(j-1))' a multiple
    of 1/s^(j-1).  The split and the inverses of (j-1) s' are computed once
    per factor for all numerators, and each antiderivative is summed as the
    plain polynomial sum b_j s^(k-j) over s^(k-1), with no gcd.  A nonzero
    remainder over a squarefree s is a log/arctan term and raises
    RationalityError, with one (s, remainder) pair per factor and numerator.
    """
    splits = _split_coprime(nums, [s**k for s, k in factors])
    den = Polynomial.one()
    for s, k in factors:
        den = den * s ** (k - 1)
    out = [Polynomial.zero()] * len(nums)
    remainders = []
    for i, (s, k) in enumerate(factors):
        ds = s.derivative()
        steps = [(ds * (j - 1), modular_inverse(ds * (j - 1), s)) for j in range(k, 1, -1)]
        cofactor = den.exact_div(s ** (k - 1))
        for n, (_, parts) in enumerate(splits):
            a, acc, power = parts[i], Polynomial.zero(), Polynomial.one()
            for dsj, inv in steps:
                b = (-a * inv) % s
                acc = acc + b * power
                power = power * s
                a = (a + b * dsj - b.derivative() * s).exact_div(s)
            if not a.is_zero:
                remainders.append((s, a))
            out[n] = out[n] + acc * cofactor
    if remainders:
        raise RationalityError(
            "nonzero residues: antiderivative is not rational", remainders
        )
    return den, out


def hermite_antiderivative(f: RationalFunction) -> RationalFunction:
    """Rational antiderivative g with g' = f and g(0) = 0.

    Works over Q with gcd arithmetic only (no root finding): Yun's squarefree
    decomposition splits the denominator, and ``_hermite_reduce`` strips one
    multiplicity at a time.  If after full reduction a fraction with
    squarefree denominator remains, the antiderivative has log/arctan parts;
    this is exactly the nonzero-residue case and raises RationalityError.
    """
    den = f.denominator
    if den.degree > 0 and sturm_real_root_count(den) != 0:
        raise ValueError("denominator has real roots")
    poly_quot, rem = divmod(f.numerator, den)
    num, anti_den = poly_quot.antiderivative(), Polynomial.one()
    if not rem.is_zero:
        _, squarefree = squarefree_decomposition(den)
        anti_den, (rest,) = _hermite_reduce([rem], squarefree)
        num = num * anti_den + rest
    shift = num(Fraction(0)) / anti_den(Fraction(0))
    result = RationalFunction(num - anti_den * shift, anti_den)
    if not (result.derivative() == f):
        raise AssertionError("antiderivative verification failed")
    return result


def reparameterize(f: RationalFunction, a, b, c, d) -> RationalFunction:
    """f(psi(s)) for the rational linear substitution psi(s) = (as+b)/(cs+d)."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("singular parameter transformation")
    if f.is_zero:
        return RationalFunction.zero()
    top = Polynomial((b, a))
    bottom = Polynomial((d, c))
    n = max(f.numerator.degree, f.denominator.degree)
    num = f.numerator.homogeneous_eval(top, bottom, n)
    den = f.denominator.homogeneous_eval(top, bottom, n)
    return RationalFunction(num, den)


def mobius_jacobian(a, b, c, d) -> RationalFunction:
    """Derivative of psi(s) = (as+b)/(cs+d): the factor (ad-bc)/(cs+d)^2."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular parameter transformation")
    bottom = Polynomial((d, c))
    return RationalFunction(Polynomial.constant(det), bottom * bottom)
