"""Dense univariate polynomial arithmetic over Q, and over Q(i) for i-reduction.

Coefficients are stored ascending by degree as canonical ``Fraction`` or
``GaussianRational`` values.  Over Q the kernels run fraction-free: a
coefficient tuple becomes one integer vector over its lcm denominator
(``_integer_vector``), products are integer schoolbook convolutions, division
is integer (lazy pseudo-)division, and ``poly_gcd`` is a primitive
polynomial remainder sequence (Collins 1967; Brown & Traub 1971), so only
the output coefficients are normalised as ``Fraction``.  The field loops
remain for ``GaussianRational`` coefficients, which only
``quaternion.i_reduce`` uses.  Degrees in this package stay small (tens), so
the dense representation and classical algorithms are the right tool.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .rationals import GaussianRational


def _coerce_scalar(c):
    if isinstance(c, (Fraction, GaussianRational)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient required, got {type(c).__name__}")


def _integer_vector(coeffs):
    """(ints, den) with coeffs[k] = ints[k] / den, den > 0 the lcm of the denominators.

    None when a coefficient is a ``GaussianRational``: those take the field loops.
    """
    if GaussianRational in map(type, coeffs):
        return None
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(v: list[int]) -> list[int]:
    """v divided by its content, signs kept."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of nonempty integer vectors, one dot product per coefficient."""
    rb = b[::-1]
    n, m = len(a), len(b)
    out = []
    for k in range(n + m - 1):
        lo, hi = max(0, k - m + 1), min(k, n - 1) + 1
        out.append(sum(map(mul, a[lo:hi], rb[m - 1 - k + lo : m - 1 - k + hi])))
    return out


def _int_divmod(a: list[int], b: list[int]):
    """(s, q, r) with s a = q b + r, s > 0 and len(r) < len(b), all integer.

    Lazy pseudo-division: at a step whose leading term lead(b) does not
    divide, the partial remainder and quotient are scaled by
    |lead(b)| / gcd, so s = 1 when lead(b) = +-1 (plain integer division) and
    s stays a positive divisor of |lead(b)|^(deg a - deg b + 1).  r carries
    no trailing zeros; b must be nonzero without trailing zeros.
    """
    lead, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    s = 1
    for k in range(len(a) - 1 - db, -1, -1):
        top = r[k + db]
        if not top:
            continue
        scale = abs(lead) // math.gcd(top, lead)
        if scale != 1:
            r = [x * scale for x in r]
            q = [x * scale for x in q]
            s *= scale
            top *= scale
        f = top // lead
        q[k] = f
        r[k : k + db + 1] = [x - f * y for x, y in zip(r[k : k + db + 1], b)]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return s, q, r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer vectors by the primitive PRS; [] when both are zero."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_int_divmod(a, b)[2])
    return a


def _from_integers(ints, den: int) -> "Polynomial":
    """The polynomial sum ints[k] / den t^k, built without coercion; den != 0."""
    cs = list(ints)
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Polynomial)
    object.__setattr__(p, "coeffs", tuple([Fraction(c, den) for c in cs]))
    return p


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
        a, b = _integer_vector(self.coeffs), _integer_vector(other.coeffs)
        if a is None or b is None:
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, x in enumerate(self.coeffs):
                for j, y in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + x * y
            return Polynomial(out)
        return _from_integers(_int_mul(a[0], b[0]), a[1] * b[1])

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
        if self.degree < other.degree:
            return Polynomial.zero(), self
        a, b = _integer_vector(self.coeffs), _integer_vector(other.coeffs)
        if a is not None and b is not None:
            # other = content bp / db with bp primitive, and s ai = q bp + r, so
            # self = ai / da = (q db / (s da content)) other + r / (s da)
            (ai, da), (bi, db) = a, b
            content = math.gcd(*bi)
            s, q, r = _int_divmod(ai, [x // content for x in bi])
            return _from_integers([x * db for x in q], s * da * content), _from_integers(r, s * da)
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
    """Monic greatest common divisor: primitive PRS over Q, Euclid over Q(i)."""
    ai, bi = _integer_vector(a.coeffs), _integer_vector(b.coeffs)
    if ai is not None and bi is not None:
        g = _int_gcd(ai[0], bi[0])
        return _from_integers(g, g[-1]) if g else Polynomial.zero()
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    if a.is_zero:
        return a
    return a.monic()


def modular_inverse(a: Polynomial, modulus: Polynomial) -> Polynomial:
    """Inverse of a modulo a coprime modulus, both over Q.

    Extended primitive PRS over the integer vectors A and M of a and the
    modulus, tracking only A's cofactor: each remainder is r_i = s_i A mod M,
    and r_i and s_i are divided by their common content.  The last nonzero
    remainder is a constant c, so a^-1 = s a_den / c mod the modulus.
    """
    (r0, a_den), (m, _) = _integer_vector(a.coeffs), _integer_vector(modulus.coeffs)
    r1, s0, s1 = m, [1], []
    while r1:
        scale, q, r = _int_divmod(r0, r1)
        s = [scale * x for x in s0] + [0] * max(len(q) + len(s1) - 1 - len(s0), 0)
        if q and s1:
            for i, x in enumerate(_int_mul(q, s1)):
                s[i] -= x
        g = math.gcd(*r, *s)  # nonzero: r_i and s_i never vanish together
        r0, r1, s0, s1 = r1, [x // g for x in r], s1, [x // g for x in s]
    if len(r0) != 1:
        raise ValueError("element not invertible modulo the given polynomial")
    scale, _, rem = _int_divmod(s0, m)
    return _from_integers([x * a_den for x in rem], r0[0] * scale)


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
