"""Exact univariate rational-function calculus.

Residues at irreducible quadratic poles are computed inside the extension
field Q[t]/(Q(t)), so no irrational or floating complex numbers appear
anywhere.  Rational antiderivatives come from Hermite reduction, which only
needs gcd arithmetic and therefore works without root finding; real-root
counting is Sturm's method over the rationals.
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

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self._like(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def is_zero(self) -> bool:
        return self.r0 == 0 and self.r1 == 0

    @classmethod
    def from_polynomial(cls, p: Polynomial, factor: QuadraticFactor) -> "ExtensionElement":
        r = p % factor.poly()
        return cls(r.coefficient(0), r.coefficient(1), factor.b, factor.c)


def residue_at(f: RationalFunction, q: QuadraticFactor) -> ExtensionElement:
    """Residue of f at the root z of Q inside Q[t]/(Q(t)).

    With m the multiplicity of Q in the reduced denominator, the residue is
    (1/(m-1)!) d^{m-1}/dt^{m-1}[f (t-z)^m] at z.  Writing the denominator as
    Q^m s with gcd(s, Q) = 1 and h = num/s, the Leibniz rule turns this into
    a finite sum of h^(k)(theta) against derivatives of (t - zbar)^{-m},
    where z - zbar = 2 theta + b.  The residue at zbar is the conjugate and
    is not computed separately.
    """
    Q = q.poly()
    s = f.denominator
    m = 0
    while True:
        quo, rem = divmod(s, Q)
        if rem.is_zero:
            s, m = quo, m + 1
        else:
            break
    if m == 0:
        raise ValueError("quadratic is not a factor of the denominator")

    theta = ExtensionElement(Fraction(0), Fraction(1), q.b, q.c)
    s_at = ExtensionElement.from_polynomial(s, q)
    inv_s = s_at.inverse()
    dd_inv = (theta * 2 + q.b).inverse()  # 1/(z - zbar)

    acc = ExtensionElement(Fraction(0), Fraction(0), q.b, q.c)
    num_k = f.numerator  # h^(k) = num_k / s^(k+1)
    fact = math.factorial(m - 1)
    for k in range(m):
        j = m - 1 - k
        rising = math.prod(range(m, m + j))
        coeff = Fraction(math.comb(m - 1, k) * (-1) ** j * rising, fact)
        h_at = ExtensionElement.from_polynomial(num_k, q) * inv_s ** (k + 1)
        acc = acc + h_at * coeff * dd_inv ** (2 * m - 1 - k)
        if k + 1 < m:
            num_k = num_k.derivative() * s - num_k * s.derivative() * (k + 1)
    return acc


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


def _split_coprime(num: Polynomial, moduli: list[Polynomial]):
    """num / prod(moduli) = poly + sum A_i / M_i with deg A_i < deg M_i.

    The moduli must be pairwise coprime; returns (poly_part, [A_i]).
    """
    if not moduli:
        return num, []
    if len(moduli) == 1:
        q, r = divmod(num, moduli[0])
        return q, [r]
    m0 = moduli[0]
    rest = Polynomial.one()
    for m in moduli[1:]:
        rest = rest * m
    from .polynomial import poly_ext_gcd

    g, u, v = poly_ext_gcd(m0, rest)
    if g.degree != 0:
        raise ValueError("moduli are not pairwise coprime")
    u = u * (1 / g.leading())
    v = v * (1 / g.leading())
    # num/(m0*rest) = num*v/m0 + num*u/rest
    q1, a0 = divmod(num * v, m0)
    rest_num = num * u + q1 * rest
    poly_part, parts = _split_coprime(rest_num, moduli[1:])
    return poly_part, [a0] + parts


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
    poly_part, parts = _split_coprime(f.numerator * prod.leading(), moduli)
    return poly_part, [RationalFunction(a, m) for a, m in zip(parts, moduli)]


def hermite_antiderivative(f: RationalFunction) -> RationalFunction:
    """Rational antiderivative g with g' = f and g(0) = 0.

    Works over Q with gcd arithmetic only (no root finding): Yun's squarefree
    decomposition splits the denominator, and repeated reduction steps strip
    one multiplicity at a time.  If after full reduction a fraction with
    squarefree denominator remains, the antiderivative has log/arctan parts;
    this is exactly the nonzero-residue case and raises RationalityError.
    """
    den = f.denominator
    if den.degree > 0 and sturm_real_root_count(den) != 0:
        raise ValueError("denominator has real roots")
    poly_quot, rem = divmod(f.numerator, den)
    result = RationalFunction(poly_quot.antiderivative())
    if rem.is_zero:
        return result - result.evaluate(Fraction(0))

    _, squarefree = squarefree_decomposition(den)
    moduli = [s**i for s, i in squarefree]
    extra_poly, parts = _split_coprime(rem, moduli)
    if not extra_poly.is_zero:
        raise AssertionError("proper fraction produced a polynomial part")

    remainders = []
    for (s, mult), a in zip(squarefree, parts):
        ds = s.derivative()
        for k in range(mult, 1, -1):
            inv = modular_inverse(ds * (k - 1), s)
            b = (-a * inv) % s
            result = result + RationalFunction(b, s ** (k - 1))
            a = (a + b * ds * (k - 1) - b.derivative() * s).exact_div(s)
        if not a.is_zero:
            remainders.append((s, a))

    if remainders:
        raise RationalityError(
            "nonzero residues: antiderivative is not rational", remainders
        )
    result = result - result.evaluate(Fraction(0))
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
