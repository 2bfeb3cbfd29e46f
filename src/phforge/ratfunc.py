"""Exact univariate rational functions, pole structures, residues, integration.

Rational antiderivatives come from Horowitz's method, with no root finding
and no partial fractions: the denominator of the antiderivative is known
in advance, so its numerator and the log/arctan part B / core solve one
square integer linear system.  The antiderivative's columns of that system
are banded and already in echelon form (``_band``).  For a real-root-free
denominator its low rows are triangular, so each numerator is found by
substitution upward from t^0, and the whole identity is then checked at
one point 2^k, above every coefficient of the difference.  The
complement of those columns comes from the same band by back-substitution
(``_complement``), with no elimination.  B, read after a failed check and
for residues, needs only a deg core system over that complement; B / core
has the residues of the function, each read off in Q[t]/(Q(t)) as its two
coordinates over Q (``ExtensionElement``), with no irrational or floating
complex numbers anywhere.  Real-root counting is Sturm's method, with the
chain computed as a signed primitive polynomial remainder sequence over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul

import numpy as np

from . import linalg
from .errors import RationalityError
from .polynomial import (
    Polynomial,
    _canonical,
    _int_divmod,
    _pack,
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


def _scaled(core: Polynomial, e: Polynomial):
    """(s, core_s, E_s): core and E as integer vectors over their least common scale s."""
    scale = math.lcm(core.den, e.den)
    return scale, *([x * (scale // p.den) for x in p.ints] for p in (core, e))


def _band(c: list[int], ei: list[int], delta: int) -> list[list[int]]:
    """The N columns of Horowitz's system over core_s and E_s (``_scaled``), on their band.

    Column k, k = 0..delta, is k t^(k-1) core - t^k E, the numerator of
    (t^k / lift)' over lift core: its entry i, i = 0..deg core, is
    k core_i - E_(i-1), the coefficient of t^(k-1+i), and every other
    coefficient is zero, since deg E < deg core.
    """
    col = [-y for y in [0, *ei]] + [0] * (len(c) - 1 - len(ei))
    cols = [col]
    for _ in range(delta):
        # column k + 1 is column k plus core_s
        col = list(map(add, col, c))
        cols.append(col)
    return cols


def _complement(core: Polynomial, lift: Polynomial, e: Polynomial) -> list[list[int]]:
    """The deg core primitive integer vectors z orthogonal to the N columns of Horowitz's system.

    Horowitz's method (Horowitz 1971; Bronstein, *Symbolic Integration I*,
    sec. 2.2): core is squarefree and every root of lift is one of core's, so
    E = lift' core / lift is a polynomial (``synthesis._core_and_lift``,
    ``_split``), and num / (lift core) = (N / lift)' + B / core with
    deg B < deg core exactly when N' core - N E + B lift = num.  N = lift,
    B = 0 solve num = 0, so of the N columns (``_band``) over n = deg lift +
    deg core coefficients all but k0, the lowest k with lift_k != 0, are
    independent, and they are already in echelon form.  With j0 = ord_0(core),
    0 or 1 as core is squarefree, E(0) = k0 core_j0, and k0 = 0 when j0 = 0;
    so column k != k0 starts at t^(k-1+j0), its pivot, with the entry
    (k - k0) core_j0, and deg core - j0 entries of its band follow.  Each
    coefficient f that is no pivot gives the z with z_f = 1 and 0 at every
    other non-pivot coefficient; each pivot above f solves to 0, and those
    below f are solved upward over their bands.  z is kept times the
    product D of the pivots below f: D z is integral by Cramer's rule, as D
    is the determinant of that triangular system, so each step is one exact
    integer division and no entry is rescaled.  Then z is scaled to coprime
    integers with a positive first nonzero entry, as ``linalg.nullspace``
    scales its kernel vectors; that vector is unique, so it is the one
    ``nullspace`` of the columns gives.  num is an exact derivative's
    numerator exactly when z . num = 0 for every z.
    """
    _, c, ei = _scaled(core, e)
    delta = lift.degree
    n, j0 = delta + core.degree, 0 if c[0] else 1
    k0 = next(k for k, x in enumerate(lift.ints) if x)
    # (coefficient, entry, band after it) of each pivot, ascending; D of the lowest m is dets[m]
    pivots = [(k - 1 + j0, col[j0], col[j0 + 1 :]) for k, col in enumerate(_band(c, ei, delta)) if k != k0]
    dets = list(accumulate((pivot for _, pivot, _ in pivots), mul, initial=1))
    width = core.degree - j0
    basis, m = [], 0
    for f in range(n):
        if m < len(pivots) and pivots[m][0] == f:
            m += 1
            continue
        z = [0] * n
        z[f] = dets[m]
        for p, pivot, tail in reversed(pivots[:m]):
            z[p] = -sum(map(mul, tail, z[p + 1 : p + 1 + width])) // pivot
        g = math.gcd(*z)
        if next(x for x in z if x) < 0:
            g = -g
        basis.append([x // g for x in z])
    return basis


def _log_parts(nums, core: Polynomial, lift: Polynomial, e: Polynomial) -> list[Polynomial]:
    """The B_i of N_i' core - N_i E + B_i lift = nums[i] (``_complement``).

    Each z is orthogonal to the N columns, so z . num is the sum over j of
    B_j z . (t^j lift) = B_j sum_k l_k z_(j+k), l lift's integer vector:
    deg core equations, nonsingular as the whole system is, which
    X = B num.den / lift.den solves with right-hand side z . num_ints.
    Each numerator, proper over lift core, is one right-hand-side column
    of a single ``linalg.nullspace`` call, whose free column deg core + i
    gives (-X_i v, 0.., v, ..0).
    """
    width, li = core.degree, lift.ints
    rows = [
        [sum(map(mul, li, z[j:])) for j in range(width)] + [sum(map(mul, num.ints, z)) for num in nums]
        for z in _complement(core, lift, e)
    ]
    kernel = linalg.nullspace(rows, width + len(nums))
    return [
        _canonical([-x * lift.den for x in v[:width]], v[width + i] * num.den)
        for i, (num, v) in enumerate(zip(nums, kernel))
    ]


def _substitute(nums, core: Polynomial, delta: int, e: Polynomial) -> list[Polynomial]:
    """The N_i of degree <= delta with N_i(0) = 0 that solve the low delta rows with B = 0.

    Row r of N' core - N E = num, r < delta, holds N_(r+1) with the pivot
    (r + 1) core(0), and otherwise only the N_k with r - deg core < k <= r,
    whose coefficients are read row-wise from the band of the N columns
    (``_band``); core(0) != 0.  So each N_(r+1) follows from the ones
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
    # diags[i][k]: entry i of column k, at row k - 1 + i
    diags = list(zip(*_band(c, ei, delta)))
    # row r: the coefficients of N_lo .. N_r, lo = max(0, r - width + 1), the anti-diagonal
    # of the band (N_0 = 0 multiplies the entry of column 0)
    rows = [[diags[i][r + 1 - i] for i in range(r + 1, 0, -1)] for r in range(min(width - 1, delta))]
    rows += zip(*(diags[i][width - i : delta + 1 - i] for i in range(width, 0, -1)))
    out = []
    for num in nums:
        b, v, d = num.ints, [0], 1
        # the pivot of row r is the first entry of column r + 1
        for r, (row, pivot) in enumerate(zip(rows, diags[0][1:])):
            s = (d * b[r] if r < len(b) else 0) - sum(map(mul, v[r + 1 - len(row) :], row))
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
    """Whether N_i' core - N_i E = nums[i] for every i, on every coefficient, at one point.

    On integer vectors: core and E over their least common scale s
    (``_scaled``), so the identity is P_i = 0 for the integer polynomial
    P_i = num.den (N_ints' core_s - N_ints E_s) - N.den s num_ints.  With
    a = len(N_ints), every coefficient of P_i is at most
    B_i = num.den a max|N_ints| (a max|core_s| + max|E_s|) +
    N.den s max|num_ints| in absolute value, since a coefficient of a
    product is at most the 1-norm of one factor times the max-norm of the
    other, and the 1-norm of N_ints' is at most a^2 max|N_ints|.  Let
    B >= every B_i and k = bitlen(B) + 1, so B < 2^(k-1) <= 2^k - 1.  Then
    P_i = 0 exactly when P_i(2^k) = 0: if P_i != 0 has degree m, its top
    term is at least 2^(km) in absolute value, and the others sum to at
    most B (2^(km) - 1) / (2^k - 1) < 2^(km).  (Equivalently, the balanced
    2^k-adic digits that ``polynomial._int_mul`` reads back are unique;
    Schoenhage 1982.)  So each numerator costs two big-integer products and
    one comparison, with core_s(2^k) and E_s(2^k) packed once for all.
    """
    scale, c, ei = _scaled(core, e)
    cm, em = max(map(abs, c)), max(map(abs, ei), default=0)
    bound = 0
    for num, anti in zip(nums, antis):
        a = anti.ints
        bound = max(
            bound,
            num.den * len(a) * max(map(abs, a), default=0) * (len(a) * cm + em)
            + anti.den * scale * max(map(abs, num.ints), default=0),
        )
    k = bound.bit_length() + 1
    at_c, at_e = _pack(c, k), _pack(ei, k)
    return all(
        num.den * (_pack(_int_derivative(anti.ints), k) * at_c - _pack(anti.ints, k) * at_e)
        == anti.den * scale * _pack(num.ints, k)
        for num, anti in zip(nums, antis)
    )


def _horowitz(nums, core: Polynomial, lift: Polynomial, e: Polynomial) -> list[Polynomial]:
    """The N_i with (N_i / lift)' = nums[i] / (lift core) and N_i(0) = 0; core(0) != 0.

    Both callers pass a real-root-free core, so core(0) != 0, lift(0) != 0
    and ``_substitute`` finds each N_i from the low deg lift rows of the
    system.  Every N is checked by ``_integrates`` on all deg lift +
    deg core coefficients at once, and that check is the whole guard: the
    high deg core rows hold exactly when B = 0.  Only when it fails does
    ``_log_parts`` run, once: a nonzero B is a log/arctan part and raises
    RationalityError, with one (core, B) pair per such numerator, and if
    every B is zero the substitution was wrong and AssertionError is raised.
    """
    antis = _substitute(nums, core, lift.degree, e)
    if _integrates(antis, nums, core, e):
        return antis
    remainders = [(core, b) for b in _log_parts(nums, core, lift, e) if not b.is_zero]
    if remainders:
        raise RationalityError("nonzero residues: antiderivative is not rational", remainders)
    raise AssertionError("antiderivative verification failed")


def _split(den: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(core, lift, E) of an unfactored den: lift = gcd(den, den'), each quotient exact."""
    lift = poly_gcd(den, den.derivative())
    core = den.exact_div(lift)
    return core, lift, (lift.derivative() * core).exact_div(lift)


def residue_at(f: RationalFunction, q: QuadraticFactor) -> ExtensionElement:
    """Residue of f at the root theta of Q inside Q[t]/(Q(t)).

    The proper part of f over its reduced denominator den = lift core
    (``_split``) is (N / lift)' + B / core, and ``_log_parts`` gives B.  The
    derivative has no residue, so the residue at theta is
    B(theta) / core'(theta), a quotient of two elements r0 + r1 theta of
    Q(theta): (B mod Q) times the conjugate of (core' mod Q), over its norm.
    The residue at the other root is the conjugate.
    """
    den, s = f.denominator, q.poly()
    core, lift, e = _split(den)
    if not (core % s).is_zero:
        raise ValueError("quadratic is not a factor of the denominator")
    (b,) = _log_parts([f.numerator % den], core, lift, e)
    d = core.derivative() % s
    d0, d1 = d.coefficient(0), d.coefficient(1)
    r = b * Polynomial((d0 - q.b * d1, -d1)) % s
    norm = d0 * d0 - q.b * d0 * d1 + q.c * d1 * d1
    return ExtensionElement(r.coefficient(0) / norm, r.coefficient(1) / norm, q.b, q.c)


def hermite_antiderivative(f: RationalFunction) -> RationalFunction:
    """Rational antiderivative g with g' = f and g(0) = 0.

    Works over Q with no root finding: the proper part rem / den integrates
    over lift = gcd(den, den') by ``_horowitz``, with core and E from
    ``_split``.  If a log/arctan part B / core is left, the residues do not
    all vanish and RationalityError is raised.
    """
    den = f.denominator
    if den.degree > 0 and sturm_real_root_count(den) != 0:
        raise ValueError("denominator has real roots")
    poly_quot, rem = divmod(f.numerator, den)
    num, lift = poly_quot.antiderivative(), Polynomial.one()
    if not rem.is_zero:
        core, lift, e = _split(den)
        (rest,) = _horowitz([rem], core, lift, e)
        num = num * lift + rest
    result = RationalFunction(num, lift)
    if not (result.derivative() == f):
        raise AssertionError("antiderivative verification failed")
    return result
