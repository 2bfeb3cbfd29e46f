"""Dense univariate polynomial arithmetic over Q.

A polynomial over Q is one integer vector over one denominator: ``ints``
holds the coefficients ascending by degree, times ``den``.  The pair is
canonical: ``ints`` is a tuple without trailing zeros, ``den > 0`` and
``gcd(den, *ints) == 1``, and the zero polynomial is ``((), 1)``, so equal
polynomials have equal pairs.  Every operation over Q runs on the pair:
sums and scalar products are integer vector operations, division is integer
(lazy pseudo-)division, and products, powers and gcds go through big
integers.  A product is one integer product and a power one integer power
by Kronecker substitution: ``_pack`` puts a vector at 2^k, ``_unpack``
reads the balanced 2^k-adic digits back (Schoenhage 1982).  ``poly_gcd``
is the heuristic GCDHEU on the same pair of helpers, proved by trial
division, with the primitive polynomial remainder sequence (Collins 1967;
Brown & Traub 1971) as its fallback.  ``Fraction`` values
are built only at the edges: ``coeffs``, ``leading``, ``coefficient`` and
evaluation.  Degrees in this package stay small (tens), so the dense
representation is the right tool.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

import numpy as np

_SCALARS = (int, Fraction)
_HEU_TRIES = 4  # GCDHEU evaluation points before the PRS fallback


def _primitive(v):
    """v divided by its content, signs kept."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _int_add(a, b) -> list[int]:
    """Sum of integer vectors of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    out.extend(a[len(b) :])
    return out


def _pack(v, k: int) -> int:
    """v(2^k) for an integer vector v, by Horner's rule on shifts."""
    x = 0
    for c in reversed(v):
        x = (x << k) + c
    return x


def _unpack(x: int, k: int) -> list[int]:
    """The balanced 2^k-adic digits of x, ascending, each in [-2^(k-1), 2^(k-1)).

    The inverse of ``_pack`` on vectors whose entries lie in that range and
    whose last entry is nonzero; 0 gives [].
    """
    full = 1 << k
    half, mask = full >> 1, full - 1
    out = []
    while x:
        d = x & mask
        x >>= k
        if d >= half:
            d -= full
            x += 1
        out.append(d)
    return out


def _int_mul(a, b) -> list[int]:
    """Product of nonempty integer vectors by Kronecker substitution.

    A one-term operand is a scalar, and the other vector is scaled by it
    directly: the bound, the packing and the unpacking would cost more than
    the product itself.  Otherwise every coefficient of the product is
    bounded by max|a| max|b| min(len a, len b) < 2^(k-1), so the balanced
    2^k-adic digits of a(2^k) b(2^k) are the coefficients (Schoenhage 1982);
    the one big-integer product runs in CPython's C arithmetic.  Trailing
    zeros of the product, if a or b has them, are not returned.
    """
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        s = b[0]
        out = [x * s for x in a]
        while out and not out[-1]:
            out.pop()
        return out
    k = (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length() + 1
    return _unpack(_pack(a, k) * _pack(b, k), k)


def _int_divmod(a, b):
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


def _heu_gcd(a, b):
    """Primitive gcd of nonzero primitive integer vectors by GCDHEU, or None.

    Let xi = 2^k > 4 min(|a|_inf, |b|_inf) + 4 and G the primitive part of
    the balanced xi-adic digits of gcd(a(xi), b(xi)) (Char, Geddes & Gonnet
    1989; Geddes, Czapor & Labahn, Thm 7.7).  If G divides a and b, it is
    their gcd: the gcd is G h with h(xi) dividing the content of the digits,
    which is at most xi/2, while every root of h is a root of a and of b, so
    has modulus below 1 + min(|a|_inf, |b|_inf) < xi/4, and |h(xi)| >=
    (3 xi/4)^deg h forces deg h = 0.  Trial division proves each candidate;
    k doubles after a failed one, and None means ``_HEU_TRIES`` failed.  The
    gcd comes with a positive leading coefficient.
    """
    k = (4 * min(max(map(abs, a)), max(map(abs, b))) + 4).bit_length()
    for _ in range(_HEU_TRIES):
        # gcd() > 0, so the leading digit is positive
        g = _primitive(_unpack(math.gcd(_pack(a, k), _pack(b, k)), k))
        if not _int_divmod(a, g)[2] and not _int_divmod(b, g)[2]:
            return g
        k *= 2
    return None


def _int_gcd(a, b):
    """Primitive gcd of integer vectors; [] when both are zero.

    GCDHEU first, then the primitive PRS (Collins 1967; Brown & Traub 1971)
    when GCDHEU gives up or an input is zero.
    """
    a, b = _primitive(a), _primitive(b)
    if a and b:
        g = _heu_gcd(a, b)
        if g is not None:
            return g
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_int_divmod(a, b)[2])
    return a


def _pair(ints: tuple, den: int) -> "Polynomial":
    """The polynomial with the canonical pair (ints, den), built without checks."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "ints", ints)
    object.__setattr__(p, "den", den)
    return p


def _canonical(ints: list[int], den: int) -> "Polynomial":
    """The polynomial sum ints[k] / den t^k; den != 0.  ints is left as it is."""
    if ints and not ints[-1]:
        n = len(ints) - 1
        while n and not ints[n - 1]:
            n -= 1
        ints = ints[:n]
    if den < 0:
        ints, den = [-x for x in ints], -den
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            ints, den = [x // g for x in ints], den // g
    return _pair(tuple(ints), den)


class Polynomial:
    """Immutable dense polynomial over Q; the zero polynomial has degree -1.

    It is the canonical pair (``ints``, ``den``) described in the module
    docstring, and ``coeffs`` is the tuple of canonical ``Fraction``
    coefficients, built on first read.
    """

    __slots__ = ("ints", "den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, _SCALARS):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        while cs and not cs[-1]:
            cs.pop()
        # reduced Fractions over their lcm have content coprime to it
        den = math.lcm(*[c.denominator for c in cs])
        object.__setattr__(self, "ints", tuple([c.numerator * (den // c.denominator) for c in cs]))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _pair((), 1)

    @classmethod
    def one(cls) -> "Polynomial":
        return _pair((1,), 1)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by degree, as canonical Fractions over Q."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            cs = tuple([Fraction(x, den) for x in self.ints])
            object.__setattr__(self, "_coeffs", cs)
            return cs

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def coefficient(self, k: int):
        cs = self.coeffs
        return cs[k] if 0 <= k < len(cs) else Fraction(0)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ints == other.ints and self.den == other.den
        if isinstance(other, _SCALARS):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.ints, self.den))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial((other,))
        elif not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.ints, other.ints
        da, db = self.den, other.den
        if da == db:
            return _canonical(_int_add(a, b), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _canonical(_int_add([x * fa for x in a], [x * fb for x in b]), da * fa)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _pair(tuple([-x for x in self.ints]), self.den)

    def __mul__(self, other):
        a = self.ints
        if isinstance(other, Polynomial):
            b = other.ints
            if not a or not b:
                return Polynomial.zero()
            return _canonical(_int_mul(a, b), self.den * other.den)
        if isinstance(other, _SCALARS):
            n = other.numerator
            return _canonical([x * n for x in a], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n as one Kronecker power, a(2^k)^n, with 0^0 = 1.

        Every coefficient of a^n is bounded by (sum |a_i|)^n < 2^(k-1), so
        the balanced 2^k-adic digits are the coefficients.  The pair needs
        no gcd: gcd(den, content a) = 1 gives gcd(den^n, content a^n) = 1
        (Gauss's lemma), so (digits, den^n) is canonical.
        """
        if n < 0:
            raise ValueError("negative power")
        a = self.ints
        if not n:
            return Polynomial.one()
        if not a:
            return self
        k = (sum(map(abs, a)) ** n).bit_length() + 1
        return _pair(tuple(_unpack(_pack(a, k) ** n, k)), self.den**n)

    def __divmod__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.zero(), self
        # other = content bp / db with bp primitive, and s a = q bp + r, so
        # self = a / da = (q db / (s da content)) other + r / (s da)
        b = other.ints
        content = math.gcd(*b)
        s, q, r = _int_divmod(self.ints, [x // content for x in b] if content != 1 else b)
        da = s * self.den
        return _canonical([x * other.den for x in q], da * content), _canonical(r, da)

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
        return _canonical([i * c for i, c in enumerate(self.ints)][1:], self.den)

    def antiderivative(self) -> "Polynomial":
        """Power-rule antiderivative with zero constant term."""
        scale = math.lcm(*range(1, len(self.ints) + 1))
        return _canonical(
            [0] + [c * (scale // (i + 1)) for i, c in enumerate(self.ints)], self.den * scale
        )

    def __call__(self, x) -> Fraction:
        """p(x) for an int or Fraction x, exactly."""
        ints = self.ints
        if not ints:
            return Fraction(0)
        # d^deg p(n/d) by Horner's rule, d > 0
        n, d = x.numerator, x.denominator
        acc, dk = 0, 1
        for c in reversed(ints):
            acc = acc * n + c * dk
            dk *= d
        return Fraction(acc, self.den * (dk // d))

    def float_coeffs(self) -> list[float]:
        """Coefficients over Q as floats; int true division rounds as float(Fraction) does."""
        den = self.den
        return [x / den for x in self.ints]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return _canonical(list(self.ints), self.ints[-1])

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
    """Monic greatest common divisor, by GCDHEU or the primitive PRS (``_int_gcd``)."""
    g = _int_gcd(a.ints, b.ints)
    return _canonical(g, g[-1]) if g else Polynomial.zero()


def poly_sqrt(p: Polynomial):
    """Exact square root of a polynomial over Q with a positive leading coefficient, or None.

    A square q^2 = p has the canonical pair (Q^2, e^2) when q has (Q, e), so
    p = (ints, den) is a square only when den and ints are squares over Z.
    The coefficients of Q come top-down, each from one coefficient of ints
    by an exact integer division (O(d^2) operations); the final check
    Q*Q == ints rejects non-squares.
    """
    if p.is_zero:
        return Polynomial.zero()
    ints, n = p.ints, p.degree
    e, top = math.isqrt(p.den), ints[-1]
    if n % 2 or top < 0 or e * e != p.den:
        return None
    s = math.isqrt(top)
    if s * s != top:
        return None
    d = n // 2
    q = [0] * d + [s]
    # coefficient d + i of Q*Q is 2 s q_i plus products of q_{i+1..d-1}
    for i in range(d - 1, -1, -1):
        cross = ints[d + i] - sum(q[j] * q[d + i - j] for j in range(i + 1, d))
        if cross % (2 * s):
            return None
        q[i] = cross // (2 * s)
    if tuple(_int_mul(q, q)) != ints:
        return None
    return _pair(tuple(q), e)
