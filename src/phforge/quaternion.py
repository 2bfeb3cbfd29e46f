"""Exact quaternion and quaternion-polynomial arithmetic.

Quaternions carry rational components over the basis (1, i, j, k).  A
quaternion polynomial is its four component polynomials over Q.  The
polynomial layer provides the noncommutative product, vector rotation
A(t) v A*(t) in closed form and reduction by the maximal right factor with
coefficients in the commutative subalgebra spanned by 1 and i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomial import (
    Polynomial,
    _int_gcd,
    poly_gcd,  # noqa: F401  kept: perfbench's traced run patches this name here
)


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

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*_hamilton(self, other))

    @property
    def is_pure(self) -> bool:
        return self.w == 0

    def __bool__(self):
        return bool(self.w or self.x or self.y or self.z)


def _hamilton(p, q) -> tuple:
    """The Hamilton product p q as (w, x, y, z), for Quaternions or QuaternionPolynomials."""
    a, b, c, d = p.w, p.x, p.y, p.z
    e, f, g, h = q.w, q.x, q.y, q.z
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


QONE = Quaternion.of(1)
QI = Quaternion.of(0, 1)
QJ = Quaternion.of(0, 0, 1)
QK = Quaternion.of(0, 0, 0, 1)


class QuaternionPolynomial:
    """Immutable quaternion polynomial w(t) + x(t) i + y(t) j + z(t) k.

    Its state is the four component ``Polynomial``s ``w, x, y, z``, so all
    arithmetic runs on their integer pairs: conjugation component by
    component, products by the Hamilton formula.  ``coeffs``,
    the ``Quaternion`` coefficients ascending by degree, is built from them
    at each read.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = Quaternion.scalar(c)
            elif not isinstance(c, Quaternion):
                raise TypeError(f"quaternion coefficient required, got {type(c).__name__}")
            cs.append(c)
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, Polynomial([getattr(c, name) for c in cs]))

    def __setattr__(self, name, value):
        raise AttributeError("QuaternionPolynomial is immutable")

    @classmethod
    def constant(cls, q: Quaternion) -> "QuaternionPolynomial":
        return cls((q,))

    @classmethod
    def from_component_polys(cls, w: Polynomial, x: Polynomial, y: Polynomial, z: Polynomial):
        a = object.__new__(cls)
        for name, p in zip(("w", "x", "y", "z"), (w, x, y, z)):
            object.__setattr__(a, name, p)
        return a

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by degree, as Quaternions of canonical Fractions."""
        comps = self.component_polys()
        return tuple(Quaternion(*(p.coefficient(k) for p in comps)) for k in range(self.degree + 1))

    @property
    def degree(self) -> int:
        return max(self.w.degree, self.x.degree, self.y.degree, self.z.degree)

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    def __eq__(self, other):
        if isinstance(other, QuaternionPolynomial):
            return self.component_polys() == other.component_polys()
        return NotImplemented

    def __hash__(self):
        return hash(self.component_polys())

    def __mul__(self, other):
        """Noncommutative exact product; no normalization."""
        if isinstance(other, (int, Fraction, Quaternion)):
            other = QuaternionPolynomial((other,))
        elif not isinstance(other, QuaternionPolynomial):
            return NotImplemented
        return _qpoly(*_hamilton(self, other))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Quaternion)):
            return QuaternionPolynomial((other,)) * self
        return NotImplemented

    def component_polys(self) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
        return self.w, self.x, self.y, self.z

    def vector_polys(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        return self.x, self.y, self.z

    def norm_poly(self) -> Polynomial:
        """A(t) A*(t) as a real polynomial: w^2 + x^2 + y^2 + z^2."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __repr__(self):
        return f"QuaternionPolynomial({list(self.coeffs)!r})"


_qpoly = QuaternionPolynomial.from_component_polys


def rotate_vector(a: QuaternionPolynomial, v: Quaternion) -> QuaternionPolynomial:
    """A(t) v A*(t) for a pure vector v, a pure quaternion polynomial.

    With A = w + u, u its vector part, the product is
    (w^2 - |u|^2) v + 2 (u . v) u + 2 w (u x v), which has no scalar part.
    """
    if not v.is_pure:
        raise ValueError("rotation input must be a pure quaternion")
    w, (x, y, z) = a.w, a.vector_polys()
    scale = w * w - x * x - y * y - z * z
    dot = (x * v.x + y * v.y + z * v.z) * 2
    w2 = w * 2
    return _qpoly(
        Polynomial.zero(),
        scale * v.x + dot * x + w2 * (y * v.z - z * v.y),
        scale * v.y + dot * y + w2 * (z * v.x - x * v.z),
        scale * v.z + dot * z + w2 * (x * v.y - y * v.x),
    )


# Polynomials over Q(i) are (re, im) pairs of Polynomials over Q.


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdivmod(a, b):
    """Quotient and remainder of pair a by nonzero pair b.

    With N = b conj(b), a real polynomial of degree 2 deg b, the quotient of
    a conj(b) by N is the quotient of a by b: a = q b + r gives
    a conj(b) = q N + r conj(b) with deg(r conj(b)) < deg N.
    """
    (c, d), (x, y) = b, a
    norm = c * c + d * d
    q = ((x * c + y * d) // norm, (y * c - x * d) // norm)
    qc, qd = _gmul(q, b)
    return q, (x - qc, y - qd)


def _gmonic(a):
    """Pair a divided by its leading coefficient, as a times its conjugate over its norm."""
    n = max(a[0].degree, a[1].degree)
    re, im = a[0].coefficient(n), a[1].coefficient(n)
    inv = 1 / (re * re + im * im)
    return (a[0] * re + a[1] * im) * inv, (a[1] * re - a[0] * im) * inv


def i_reduce(a: QuaternionPolynomial) -> tuple[QuaternionPolynomial, QuaternionPolynomial]:
    """Extract the maximal right factor R(t) with coefficients in span{1, i}.

    Writing A = p + q*j, a right factor R divides A exactly when R | p and
    R | conj(q), because j commutes with R only up to conjugation.  The
    maximal factor is therefore gcd(p, conj(q)) over Q(i), made monic, found
    by Euclid on (re, im) pairs of polynomials over Q.  R is returned as a
    quaternion polynomial with zero j and k parts, so A == reduced * R
    exactly, and the reduced polynomial admits no further nonconstant
    right factor.

    Euclid runs only when one gcd over Q cannot rule R out: R R* divides
    both |p|^2 = p conj(p) and |q|^2, so when p and q are nonzero and
    gcd(|p|^2, |q|^2) is constant, A has no right factor.  That is the
    common case, and GCDHEU's first integer gcd usually decides it.
    """
    if a.is_zero:
        raise ValueError("zero polynomial cannot be reduced")
    w, x, y, z = a.component_polys()
    if (w or x) and (y or z) and len(_int_gcd((w * w + x * x).ints, (y * y + z * z).ints)) == 1:
        return a, QuaternionPolynomial.constant(QONE)
    g, h = (w, x), (y, -z)
    while h[0] or h[1]:
        g, h = h, _gdivmod(g, h)[1]
        if h[0] or h[1]:
            h = _gmonic(h)
    if max(g[0].degree, g[1].degree) <= 0:
        return a, QuaternionPolynomial.constant(QONE)
    r = _gmonic(g)
    (pr, pi), p_rem = _gdivmod((w, x), r)
    (qr, qi), q_rem = _gdivmod((y, z), (r[0], -r[1]))
    if any(p_rem + q_rem):
        raise AssertionError("right factor does not divide exactly")
    zero = Polynomial.zero()
    return (
        QuaternionPolynomial.from_component_polys(pr, pi, qr, qi),
        QuaternionPolynomial.from_component_polys(*r, zero, zero),
    )
