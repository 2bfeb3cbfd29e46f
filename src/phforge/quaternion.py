"""Exact quaternion and quaternion-polynomial arithmetic.

Quaternions carry rational components over the basis (1, i, j, k).  The
polynomial layer provides the noncommutative product, conjugation, vector
rotation A(t) v A*(t) and reduction by the maximal right factor with
coefficients in the commutative subalgebra spanned by 1 and i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomial import Polynomial, poly_gcd
from .rationals import GaussianRational


@dataclass(frozen=True)
class Quaternion:
    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def of(cls, w=0, x=0, y=0, z=0) -> "Quaternion":
        return cls(Fraction(w), Fraction(x), Fraction(y), Fraction(z))

    @classmethod
    def scalar(cls, w) -> "Quaternion":
        return cls.of(w)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Fraction:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    @property
    def is_pure(self) -> bool:
        return self.w == 0

    def __bool__(self):
        return bool(self.w or self.x or self.y or self.z)


QONE = Quaternion.of(1)
QI = Quaternion.of(0, 1)
QJ = Quaternion.of(0, 0, 1)
QK = Quaternion.of(0, 0, 0, 1)


class QuaternionPolynomial:
    """Dense quaternion-coefficient polynomial, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, Quaternion):
                cs.append(c)
            elif isinstance(c, (int, Fraction)):
                cs.append(Quaternion.scalar(c))
            else:
                raise TypeError(f"quaternion coefficient required, got {type(c).__name__}")
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("QuaternionPolynomial is immutable")

    @classmethod
    def constant(cls, q: Quaternion) -> "QuaternionPolynomial":
        return cls((q,))

    @classmethod
    def from_component_polys(cls, w: Polynomial, x: Polynomial, y: Polynomial, z: Polynomial):
        n = max(w.degree, x.degree, y.degree, z.degree) + 1
        return cls(
            [
                Quaternion(w.coefficient(k), x.coefficient(k), y.coefficient(k), z.coefficient(k))
                for k in range(n)
            ]
        )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Quaternion:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Quaternion.of()

    def __eq__(self, other):
        if isinstance(other, QuaternionPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QuaternionPolynomial") -> "QuaternionPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return QuaternionPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "QuaternionPolynomial") -> "QuaternionPolynomial":
        return self + (-other)

    def __neg__(self) -> "QuaternionPolynomial":
        return QuaternionPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        """Noncommutative coefficient-exact product; no normalization."""
        if isinstance(other, (int, Fraction, Quaternion)):
            other = QuaternionPolynomial((other if isinstance(other, Quaternion) else Quaternion.scalar(other),))
        if not isinstance(other, QuaternionPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QuaternionPolynomial(())
        out = [Quaternion.of() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return QuaternionPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Quaternion):
            return QuaternionPolynomial.constant(other) * self
        return NotImplemented

    def conjugate(self) -> "QuaternionPolynomial":
        return QuaternionPolynomial([c.conjugate() for c in self.coeffs])

    def component_polys(self) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
        return (
            Polynomial([c.w for c in self.coeffs]),
            Polynomial([c.x for c in self.coeffs]),
            Polynomial([c.y for c in self.coeffs]),
            Polynomial([c.z for c in self.coeffs]),
        )

    def vector_polys(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        return self.component_polys()[1:]

    def scalar_poly(self) -> Polynomial:
        return self.component_polys()[0]

    def norm_poly(self) -> Polynomial:
        """A(t) A*(t) as a real polynomial (the vector part cancels exactly)."""
        prod = self * self.conjugate()
        w, x, y, z = prod.component_polys()
        if not (x.is_zero and y.is_zero and z.is_zero):
            raise AssertionError("conjugate product has nonzero vector part")
        return w

    def evaluate(self, t: Fraction) -> Quaternion:
        acc = Quaternion.of()
        for c in reversed(self.coeffs):
            acc = acc * Fraction(t) + c if acc else c
        return acc

    def __repr__(self):
        return f"QuaternionPolynomial({list(self.coeffs)!r})"


def rotate_vector(a: QuaternionPolynomial, v: Quaternion) -> QuaternionPolynomial:
    """A(t) v A*(t) for a pure vector v; the scalar part vanishes identically."""
    if not v.is_pure:
        raise ValueError("rotation input must be a pure quaternion")
    out = a * QuaternionPolynomial.constant(v) * a.conjugate()
    if not out.scalar_poly().is_zero:
        raise AssertionError("rotated vector acquired a scalar part")
    return out


@dataclass(frozen=True)
class ComplexPair:
    """Split A = p + q*j with p, q polynomials over the subalgebra span{1, i}."""

    p: Polynomial
    q: Polynomial

    def assemble(self) -> QuaternionPolynomial:
        n = max(self.p.degree, self.q.degree) + 1
        coeffs = []
        for k in range(n):
            pc = self.p.coefficient(k)
            qc = self.q.coefficient(k)
            pc = pc if isinstance(pc, GaussianRational) else GaussianRational(pc)
            qc = qc if isinstance(qc, GaussianRational) else GaussianRational(qc)
            coeffs.append(Quaternion(pc.re, pc.im, qc.re, qc.im))
        return QuaternionPolynomial(coeffs)


def complex_split(a: QuaternionPolynomial) -> ComplexPair:
    p = Polynomial([GaussianRational(c.w, c.x) for c in a.coeffs])
    q = Polynomial([GaussianRational(c.y, c.z) for c in a.coeffs])
    return ComplexPair(p, q)


def _conj_poly(p: Polynomial) -> Polynomial:
    def conj(c):
        return c.conjugate() if isinstance(c, GaussianRational) else c

    return p.map_coeffs(conj)


def i_reduce(a: QuaternionPolynomial) -> tuple[QuaternionPolynomial, Polynomial]:
    """Extract the maximal right factor R(t) with coefficients in span{1, i}.

    Writing A = p + q*j, a right factor R divides A exactly when R | p and
    R | conj(q), because j commutes with R only up to conjugation.  The
    maximal factor is therefore gcd(p, conj(q)), normalized monic; the
    returned pair satisfies A = reduced * R coefficient-exactly and the
    reduced polynomial admits no further nonconstant right factor.
    """
    if a.is_zero:
        raise ValueError("zero polynomial cannot be reduced")
    pair = complex_split(a)
    r = poly_gcd(pair.p, _conj_poly(pair.q))
    if r.degree <= 0:
        return a, Polynomial.one()
    reduced = ComplexPair(pair.p.exact_div(r), pair.q.exact_div(_conj_poly(r))).assemble()
    return reduced, r


def is_i_reduced(a: QuaternionPolynomial) -> bool:
    return i_reduce(a)[1].degree <= 0
