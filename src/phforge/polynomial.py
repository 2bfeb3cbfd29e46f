"""Dense univariate polynomial arithmetic over an exact field.

Coefficients are stored ascending by degree and are either ``Fraction`` or
``GaussianRational``; every algorithm below uses only field operations, so
both coefficient domains share one implementation.  Degrees in this package
stay small (tens), so the dense representation and classical algorithms are
the right tool.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .rationals import GaussianRational


def _coerce_scalar(c):
    if isinstance(c, (Fraction, GaussianRational)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient required, got {type(c).__name__}")


class Polynomial:
    """Immutable dense polynomial; the zero polynomial has degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, c=1) -> "Polynomial":
        return cls((0,) * degree + (c,))

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.leading()
        dn = other.degree
        while len(rem) - 1 >= dn and rem:
            k = len(rem) - 1 - dn
            f = rem[-1] / dlead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            while rem and not rem[-1]:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Power-rule antiderivative with zero constant term."""
        out = [Fraction(0)]
        for i, c in enumerate(self.coeffs):
            out.append(c / Fraction(i + 1))
        return Polynomial(out)

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if not isinstance(x, GaussianRational) else GaussianRational(0)
        return acc

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def map_coeffs(self, fn) -> "Polynomial":
        return Polynomial([fn(c) for c in self.coeffs])

    def homogeneous_eval(self, p: "Polynomial", q: "Polynomial", degree: int) -> "Polynomial":
        """Evaluate the degree-homogenized polynomial at polynomials (p, q).

        Returns sum_i c_i * p^i * q^(degree-i); with p = a*s+b, q = c*s+d this
        is the numerator of the Moebius substitution.
        """
        if degree < self.degree:
            raise ValueError("homogenization degree below polynomial degree")
        out = Polynomial.zero()
        p_pow = Polynomial.one()
        q_pows = [Polynomial.one()]
        for _ in range(degree):
            q_pows.append(q_pows[-1] * q)
        for i in range(degree + 1):
            c = self.coefficient(i)
            if c:
                out = out + p_pow * q_pows[degree - i] * c
            if i < degree:
                p_pow = p_pow * p
        return out

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"


def two_chart_eval(polys, degree: int, ts) -> np.ndarray:
    """Float values of polynomials homogenized to ``degree`` on the projective line.

    Entry [i, j] is p_i(t_j) when |t_j| <= 1 and s^degree p_i(1/s) with
    s = 1/t_j otherwise (s = 0 at t = +-inf).  The two charts differ by the
    factor t^degree shared by every row, so quotients and normalized columns
    do not depend on the chart, and the closure point t = infinity is an
    ordinary point.  Horner's rule runs with |t| <= 1 or |s| < 1 only.
    """
    ts = np.asarray(ts, dtype=float)
    coeffs = np.zeros((degree + 1, len(polys), 1))  # [power, poly, broadcast over ts]
    for i, p in enumerate(polys):
        if p.degree > degree:
            raise ValueError("homogenization degree below polynomial degree")
        coeffs[: p.degree + 1, i, 0] = p.float_coeffs()
    near = np.abs(ts) <= 1.0
    out = np.empty((len(polys), ts.size))
    # Horner starts at the highest power: c_degree of t, or c_0 of s
    for mask, x, order in ((near, ts[near], coeffs[::-1]), (~near, 1.0 / ts[~near], coeffs)):
        if not x.size:
            continue  # keeps single-point calls cheap
        acc = np.zeros((len(polys), x.size))
        for c in order:
            acc = acc * x + c
        out[:, mask] = acc
    return out


def two_chart_quotients(nums, den: Polynomial, degree: int, ts) -> np.ndarray:
    """Float values of nums[i] / den at ts via ``two_chart_eval``.

    Raises ZeroDivisionError at a finite pole and OverflowError where the
    quotient is unbounded at t = +-inf.
    """
    ts = np.asarray(ts, dtype=float)
    *vals, den_vals = two_chart_eval((*nums, den), degree, ts)
    if not den_vals.all():
        t = float(ts[np.argmin(den_vals != 0.0)])
        if math.isinf(t):
            raise OverflowError("unbounded rational function at infinity")
        raise ZeroDivisionError(f"pole at t = {t}")
    return np.array(vals) / den_vals


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    if a.is_zero:
        return a
    return a.monic()


def poly_ext_gcd(a: Polynomial, b: Polynomial):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Polynomial.one(), Polynomial.zero()
    t0, t1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    lead = r0.leading()
    inv = 1 / lead
    return r0 * inv, s0 * inv, t0 * inv


def modular_inverse(a: Polynomial, modulus: Polynomial) -> Polynomial:
    """Inverse of a modulo a coprime modulus."""
    g, s, _ = poly_ext_gcd(a, modulus)
    if g.degree != 0:
        raise ValueError("element not invertible modulo the given polynomial")
    return (s * (1 / g.leading())) % modulus


def squarefree_decomposition(p: Polynomial):
    """Yun's algorithm: returns (lead, [(S_i, i)]) with p = lead * prod S_i^i.

    The S_i are monic, squarefree and pairwise coprime; valid in
    characteristic zero.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    lead = p.leading()
    p = p.monic()
    if p.degree == 0:
        return lead, []
    out = []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        ai = poly_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        b = b.exact_div(ai)
        c = d.exact_div(ai)
        d = c - b.derivative()
        i += 1
    return lead, out


def _sqrt_fraction(x: Fraction):
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def poly_sqrt(p: Polynomial):
    """Exact square root of a Fraction-coefficient polynomial, or None.

    The coefficients of q come top-down, each from one coefficient of p
    (O(d^2) operations); the final check q*q == p rejects non-squares.
    """
    if p.is_zero:
        return Polynomial.zero()
    n = p.degree
    if n % 2:
        return None
    s = _sqrt_fraction(p.leading())
    if s is None:
        return None
    d = n // 2
    q = [Fraction(0)] * d + [s]
    # coefficient d + i of q*q is 2 s q_i plus products of q_{i+1..d-1}
    for i in range(d - 1, -1, -1):
        cross = sum(q[j] * q[d + i - j] for j in range(i + 1, d))
        q[i] = (p.coeffs[d + i] - cross) / (2 * s)
    root = Polynomial(q)
    if root * root == p:
        return root
    return None
