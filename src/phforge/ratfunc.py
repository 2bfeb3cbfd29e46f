"""Exact univariate rational functions, pole structures, residues, integration.

Residues at irreducible quadratic poles come from a truncated Laurent
series over the extension field Q[t]/(Q(t)), kept as integer pairs over
Z[phi] with one denominator per series, so no irrational or floating
complex numbers appear anywhere; a residue is reported as its two
coordinates over Q (``ExtensionElement``), with no field arithmetic.
Rational antiderivatives come from Hermite reduction, with no root finding:
each partial fraction A / s^k is expanded once into its s-adic digits, as
integer vectors, and each step strips one multiplicity of s by an integer
update of the lowest digit alone; real-root counting is Sturm's method,
with the chain computed as a signed primitive polynomial remainder sequence
over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import RationalityError
from .polynomial import (
    Polynomial,
    _canonical,
    _int_add,
    _int_divmod,
    _int_mul,
    _pack,
    _pair,
    _primitive,
    _unpack,
    modular_inverse,
    poly_gcd,
    squarefree_decomposition,
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
    happens until ``last`` reads a coefficient out; ``residue_rows`` hands
    the residue system its rows as integers and makes none.
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

    def residue_rows(self, h, m: int) -> tuple[list[int], list[int]]:
        """The pairs (r0, r1) of ``last`` on (theta + x)^k h, k = 0..m, times den e^m.

        They come back as two integer rows: (theta + x)^k h has the terms of
        h times (phi + e x)^k over den e^k, so for its top term (u, v) the
        pair times den e^m is (u e^(m-k), v e^(m-k+1)).  One positive integer
        scales every pair.
        """
        terms, row0, row1 = h[0], [], []
        for k in range(m + 1):
            u, v = terms[-1]
            s = self.e ** (m - k)
            row0.append(u * s)
            row1.append(v * s * self.e)
            terms = self._times_linear(terms, (0, 1))
        return row0, row1

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


class _HermiteFactor:
    """Hermite reduction over one power s^k on integer s-adic digits.

    In u = e t, with e the denominator of the monic squarefree s, the factor
    is the monic integer S(u) = e^deg(s) s(u / e), so division by S stays in
    Z.  A numerator a (deg a < k deg s) is scaled to an integer vector and
    expanded once into its S-adic digits a_0 + a_1 S + ..., each of degree
    below deg S (von zur Gathen & Gerhard, *Modern Computer Algebra*, sec. 9).
    With I / delta the inverse of S' mod S, computed once per factor, the
    step that strips S^j (Bronstein, *Symbolic Integration I*, ch. 2) reads
    only the lowest digit: b = -a_0 I / ((j-1) delta) mod S, then
    a_1 += (a_0 + (j-1) b S') / S - b', which is exact, and the digits
    shift.  Both a_0 -> a_0 I mod S and a_0 -> (delta a_0 - (a_0 I mod S) S')
    / S are fixed integer matrices, so a step is two small matrix-vector
    products on the lowest digit, kept over one growing integer denominator.
    """

    def __init__(self, s: Polynomial, k: int):
        self.k = k
        self.d = d = s.degree
        self.e = e = s.den
        self.powers = [e**i for i in range(k * d)]
        self.S = S = [c * e ** (d - 1 - i) for i, c in enumerate(s.ints[:-1])] + [1]
        dS = _int_derivative(S)
        inv = modular_inverse(_pair(tuple(dS), 1), _pair(tuple(S), 1))
        self.delta = delta = inv.den
        inv_cols, quo_cols = [], []
        for col in range(d):
            # t^col I mod S, then (delta t^col - (t^col I mod S) S') / S, exact
            p = _int_divmod([0] * col + list(inv.ints), S)[2]
            p += [0] * (d - len(p))
            q = _int_divmod(_int_add([0] * col + [delta], [-x for x in _int_mul(p, dS)]), S)[1]
            inv_cols.append(p)
            quo_cols.append(q + [0] * (d - 1 - len(q)))
        self.inv_rows = list(zip(*inv_cols))
        self.quo_rows = list(zip(*quo_cols))

    def digits(self, a: Polynomial) -> list[list[int]]:
        """The k S-adic digits of den(a) e^(k deg s - 1) a(u / e), ascending."""
        d, n, powers = self.d, self.k * self.d, self.powers
        v = [c * powers[n - 1 - i] for i, c in enumerate(a.ints)]
        v += [0] * (n - len(v))
        low = self.S[:-1]
        out = []
        for _ in range(self.k - 1):
            # synthetic division by the monic S: v[:d] is the remainder, v[d:] the quotient
            for i in range(len(v) - 1, d - 1, -1):
                c = v[i]
                if c:
                    for j, x in enumerate(low, i - d):
                        v[j] -= c * x
            out.append(v[:d])
            v = v[d:]
        out.append(v)
        return out

    def reduce(self, a: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(N, r) with a / s^k = (N / s^(k-1))' + r / s and deg N < (k-1) deg s."""
        d, k, delta, S = self.d, self.k, self.delta, self.S
        digits = self.digits(a)
        c, den, bs = digits[0], 1, []
        for j in range(k, 1, -1):
            # a_0 = c / den; p / (den delta) = a_0 I / delta mod S = -(j-1) b
            p = [sum(map(mul, row, c)) for row in self.inv_rows]
            q = [sum(map(mul, row, c)) for row in self.quo_rows]
            den *= delta * (j - 1)
            bs.append((p, den))  # b = -p / den
            nxt = digits[k - j + 1]
            c = [x * den + (j - 1) * y + (i + 1) * z for i, (x, y, z) in enumerate(zip(nxt, q, p[1:]))]
            c.append(nxt[-1] * den)
        # -den sum b_j S^(k-j) by Horner's rule in S from b_2, on the packed
        # integers at 2^K (see ``_int_mul``): every coefficient is at most
        # max|den b_j| k |S|_1^(k-1) < 2^(K-1)
        bs = [[x * (den // den_j) for x in p] for p, den_j in reversed(bs)]
        top = max((abs(x) for p in bs for x in p), default=0)
        K = (top * k * sum(map(abs, S)) ** (k - 1)).bit_length() + 1
        base, acc = _pack(S, K), 0
        for p in bs:
            acc = acc * base + _pack(p, K)
        acc = _unpack(acc, K)
        # back to t: u^i -> e^i t^i, and S^(k-1) = e^((k-1) deg s) s^(k-1)
        e, powers, scale = self.e, self.powers, a.den * den
        anti = _canonical([x * f for x, f in zip(acc, powers)], -scale * e ** ((k - 1) * d))
        rem = _canonical([x * f for x, f in zip(c, powers)], scale * e ** (d - 1))
        return anti, rem


def _hermite_reduce(nums, factors):
    """(D, [N_i]) with N_i / D an antiderivative of nums[i] / prod s^k, D = prod s^(k-1).

    ``factors`` are one or more (s, k) pairs with s monic, squarefree and
    pairwise coprime, and every nums[i] / prod s^k must be proper.  With
    more than one factor, ``_split_coprime`` gives each numerator's partial
    fractions A / s^k; with one, the numerator is A.  ``_HermiteFactor``
    reduces each A on its integer s-adic digits, one multiplicity of s per
    step, to (N / s^(k-1))' + r / s, and the antiderivative numerator is
    the plain sum of N times the cofactor D / s^(k-1), with no gcd.  A
    nonzero remainder r over a squarefree s is a log/arctan term and raises
    RationalityError, with one (s, r) pair per factor and numerator.
    """
    lifts = [s ** (k - 1) for s, k in factors]
    den = lifts[0]
    for lift in lifts[1:]:
        den = den * lift
    if len(factors) == 1:
        parts = [[n] for n in nums]
    else:
        parts = [a for _, a in _split_coprime(nums, [p * s for p, (s, _) in zip(lifts, factors)])]
    out = [None] * len(nums)
    remainders = []
    for i, (s, k) in enumerate(factors):
        factor = _HermiteFactor(s, k)
        cofactor = den.exact_div(lifts[i]) if len(factors) > 1 else None
        for n, a in enumerate(parts):
            anti, rem = factor.reduce(a[i])
            if not rem.is_zero:
                remainders.append((s, rem))
            if cofactor is not None:
                anti = anti * cofactor
            out[n] = anti if out[n] is None else out[n] + anti
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
