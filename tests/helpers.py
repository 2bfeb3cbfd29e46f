"""Shared fixtures: the degree-3 reference generator, printed curve data,
randomized problem generation, and the bulk property-suite runner."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from phforge import (
    ExtensionElement,
    PoleStructure,
    Polynomial,
    Polynomial as P,
    QuadraticFactor,
    Quaternion,
    QuaternionPolynomial as QP,
    RationalCurve,
    RationalFunction as RF,
    RationalityError,
    SolutionSpace,
    SynthesisProblem,
    build_residue_system,
    i_reduce,
    poly_gcd,
    residue_at,
    synthesize_curve,
)
from phforge import cli, linalg
from phforge.geometry import _motion, _mu_speed, angle_parameters, speed_function
from phforge.polynomial import _canonical, _int_add, _int_mul
from phforge.ratfunc import _scaled


def generator_deg3() -> QP:
    """t^3 + (2j+k)t^2 - (1+2i)t - k, the running degree-3 example."""
    return QP(
        [
            Quaternion.of(0, 0, 0, -1),
            Quaternion.of(-1, -2, 0, 0),
            Quaternion.of(0, 0, 2, 1),
            Quaternion.of(1),
        ]
    )


def poles_single(b, c, mult) -> PoleStructure:
    return PoleStructure((QuadraticFactor(b, c, mult),))


# the ROADMAP table's pole structures, (b, c, multiplicity) per factor, on
# the reference generator
TABLE_POLES = (
    ((0, 4, 6),),
    ((0, 4, 10),),
    ((0, 4, 16),),
    ((0, 4, 18),),
    ((0, 4, 8), (1, 3, 6)),
    ((0, 4, 10), (1, 3, 10)),
    ((0, 4, 6), (1, 3, 4), (1, 2, 4)),
    ((0, 4, 8), (1, 3, 6), (1, 2, 4)),
    ((0, 4, 10), (1, 3, 8), (1, 2, 6)),
    ((0, 4, 10), (1, 3, 10), (1, 2, 10)),
)


def antidiagonal_sums(mat) -> P:
    """The numerator a Gram matrix represents: its exact antidiagonal sums."""
    n = len(mat)
    coeffs = [F(0)] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            coeffs[i + j] += F(mat[i][j])
    return P(coeffs)


# Printed reference curves over the denominator 798960 (t^2+4)^5.
PRINTED_DEN = P([798960]) * P([4, 0, 1]) ** 5
PRINTED_R0 = (
    P([0, -199740, 0, 316255, 0, -168955, 0, -1595, 0, -165]),
    P([367480, 0, 659090, 0, -269675, 0, -825, 0, -165]),
    P([549360, 0, 1086180, 0, 543090, 0, 2640, 0, 330]),
)
PRINTED_R2 = (
    P([0, 0, 0, -66580, 0, 256900, 0, -156700, 0, 11340]),
    P([209136, 0, 261420, 0, 230580, 0, -342780, 0, 11340]),
    P([3644640, 0, 4555800, 0, 2477640, 0, 617520, 0, -22680]),
)

MU0 = P([1, 0, 0, 0, F(11, 53264)])
MU2 = P([0, 0, 1, 0, F(-189, 13316)])


def ref_curve_from_components(x: RF, y: RF, z: RF) -> RationalCurve:
    """The curve with components x, y, z over the lcm of their denominators."""
    den = P.one()
    for c in (x, y, z):
        den = den * c.denominator.exact_div(poly_gcd(den, c.denominator))
    return RationalCurve(tuple(c.numerator * den.exact_div(c.denominator) for c in (x, y, z)), den)


def matches_up_to_translation(curve: RationalCurve, printed_nums, printed_den) -> bool:
    """Componentwise equality of rational functions modulo an added constant."""
    for num, pn in zip(curve.nums, printed_nums):
        diff = RF(num, curve.den) - RF(pn, printed_den)
        if not (diff.is_zero or (diff.denominator.degree == 0 and diff.numerator.degree == 0)):
            return False
    return True


def example1_curve() -> RationalCurve:
    """The printed bounded regular curve with speed 2(t^4+t^2+1)/(t^2+1)^2."""
    den = P([15]) * P([1, 0, 1]) ** 5
    return ref_curve_from_components(
        RF(P([0, 0, -60, 0, 30, 0, 110, 0, 130, 0, 14]), den),
        RF(P([0, 60, 0, 60, 0, 96, 0, 60, 0, 60]), den),
        RF(P([0, 0, -120, 0, -300, 0, -300, 0, -120]), den),
    )


def circle_curve() -> RationalCurve:
    return ref_curve_from_components(
        RF(P([1, 0, -1]), P([1, 0, 1])), RF(P([0, 2]), P([1, 0, 1])), RF(P([0]))
    )


def random_quaternion_poly(rng: random.Random, max_degree: int = 3) -> QP | None:
    deg = rng.randint(1, max_degree)
    coeffs = [
        Quaternion.of(*(rng.randint(-2, 2) for _ in range(4))) for _ in range(deg + 1)
    ]
    if not coeffs[-1]:
        return None
    a = QP(coeffs)
    a, _ = i_reduce(a)
    if a.degree < 1:
        return None
    return a


def random_pole_structure(rng: random.Random, min_total: int, max_total: int = 8):
    total = rng.randint(min_total, max_total)
    nfac = 1 if total < 4 else rng.choice((1, 1, 2))
    if nfac == 2:
        first = rng.randint(1, total - 1)
        multiplicities = (first, total - first)
    else:
        multiplicities = (total,)
    factors = []
    seen = set()
    for m in multiplicities:
        for _ in range(20):
            b = rng.randint(-2, 2)
            c = b * b // 4 + rng.randint(1, 4)
            if (b, c) not in seen:
                seen.add((b, c))
                factors.append(QuadraticFactor(b, c, m))
                break
        else:
            return None
    return PoleStructure(tuple(factors))


def random_synthesized_problems(count: int, seed: int = 20240601, max_attempts: int = 500):
    """Sample problems with deg A <= 3 and total multiplicity <= 8 until
    ``count`` of them have a nontrivial kernel; returns
    (problem, space, mu, curve) tuples with mu a random kernel member."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        a = random_quaternion_poly(rng)
        if a is None:
            continue
        poles = random_pole_structure(rng, min_total=a.degree + 2)
        if poles is None:
            continue
        try:
            problem = SynthesisProblem(a, poles)
        except Exception:
            continue
        space = build_residue_system(problem)
        if space.dimension == 0:
            continue
        coeffs = [rng.randint(-3, 3) for _ in space.basis]
        if all(v == 0 for v in coeffs):
            coeffs[0] = 1
        mu = space.combination(coeffs)
        if mu.is_zero:
            continue
        curve = synthesize_curve(problem, mu)
        out.append((problem, space, mu, curve))
    return out


def batch_problems(seed: int):
    """(problem, mu) pairs in the strata of the benchmark's exact batch.

    Three problems per (deg A, total multiplicity, factor count) stratum:
    deg A 1-3, total multiplicity 4-8 (at least deg A + 2), one or two pole
    factors t^2 + b t + c with small integer b and c.  mu is a combination
    of the kernel basis with integer weights in [-3, 3], the first nonzero;
    problems with an empty kernel are left out.
    """
    rng = random.Random(f"batch problems:{seed}")
    out = []
    for degree in (1, 2, 3):
        for total in range(max(4, degree + 2), 9):
            for nfac in (1, 1, 1, 2, 2, 2):
                a = None
                while a is None or a.degree != degree:
                    coeffs = [Quaternion.of(*[rng.randint(-2, 2) for _ in "wxyz"]) for _ in range(degree + 1)]
                    if coeffs[-1]:
                        a, _ = i_reduce(QP(coeffs))
                first = rng.randint(1, total - 1)
                multiplicities = (total,) if nfac == 1 else (first, total - first)
                chosen = []
                while len(chosen) < nfac:
                    b = rng.randint(-2, 2)
                    c = b * b // 4 + rng.randint(1, 4)  # 4c > b^2: no real roots
                    if (b, c) not in chosen:
                        chosen.append((b, c))
                factors = (QuadraticFactor(b, c, m) for (b, c), m in zip(chosen, multiplicities))
                problem = SynthesisProblem(a, PoleStructure(tuple(factors)))
                space = build_residue_system(problem)
                if space.dimension:
                    weights = [rng.randint(-3, 3) for _ in space.basis]
                    weights[0] = weights[0] or 1
                    out.append((problem, space.combination(weights)))
    return out


def mu_speed_matches(problem, curve) -> bool:
    """``synth``'s speed from mu equals ``speed_function``'s, up to the sign of mu's leading coefficient.

    ``speed_function`` takes the square root with positive leading
    coefficient, ``geometry._mu_speed`` has mu's sign; both are reduced forms.
    """
    speed = _mu_speed(problem.a_poly, problem.alpha, curve.mu)
    return (speed if curve.mu.leading() > 0 else -speed) == speed_function(curve)


def ph_identity_holds(problem, mu, curve) -> bool:
    hx, hy, hz = (RF(n, curve.den).derivative() for n in curve.nums)
    lhs = hx * hx + hy * hy + hz * hz
    sigma = RF(mu * problem.a_poly.norm_poly(), problem.alpha)
    return lhs == sigma * sigma


def residues_vanish(problem, mu) -> bool:
    for q in problem.poles.factors:
        for wc in problem.hodograph_dir:
            f = RF(mu * wc, problem.alpha)
            try:
                if not residue_at(f, q).is_zero:
                    return False
            except ValueError:
                continue  # pole cancelled entirely
    return True


def tangency_holds(problem, curve) -> bool:
    wx, wy, wz = (RF(w) for w in problem.hodograph_dir)
    hx, hy, hz = (RF(n, curve.den).derivative() for n in curve.nums)
    return (
        (hy * wz - hz * wy).is_zero
        and (hz * wx - hx * wz).is_zero
        and (hx * wy - hy * wx).is_zero
    )


def worst_frame_defect(problem, curve, n_samples: int = 1000, seed: int = 0) -> float:
    """Max orthonormality defect of the frames at Cauchy-distributed samples.

    Vectorized: the rotation matrix of a unit quaternion is orthonormal up
    to rounding in the normalization, which is what this measures.
    """
    rng = np.random.default_rng(seed)
    ts = rng.standard_cauchy(n_samples)
    comp = [np.array(p.float_coeffs() or [0.0]) for p in problem.a_poly.component_polys()]
    near = np.abs(ts) <= 1.0
    vals = np.empty((4, n_samples))
    for i, cs in enumerate(comp):
        vals[i, near] = np.polynomial.polynomial.polyval(ts[near], cs)
        vals[i, ~near] = np.polynomial.polynomial.polyval(1.0 / ts[~near], cs[::-1])
    w, x, y, z = vals / np.sqrt((vals**2).sum(axis=0))
    rot = np.empty((n_samples, 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    defect = np.abs(np.einsum("nij,nik->njk", rot, rot) - np.eye(3))
    return float(defect.max())


def unit_scale(curve: RationalCurve) -> RationalCurve:
    """Rescale exactly so the sampled positions fit a unit box.

    Random integer kernels produce curves of wildly varying size; absolute
    float tolerances presume the plotting normalization (curves scaled to
    roughly unit edge length), so the quadrature check applies it.
    """
    radius = 0.0
    for t in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.inf):
        radius = max(radius, max(abs(v) for v in curve.eval_float(t)))
    scale = F(radius).limit_denominator(10**9)
    if scale == 0:
        return curve
    return RationalCurve(tuple(n * (1 / scale) for n in curve.nums), curve.den)


def run_property_suite(problems) -> dict:
    """Criteria (a)-(f) over synthesized curves; returns failure counts."""
    fails = {k: 0 for k in "abcdef"}
    for problem, _space, mu, curve in problems:
        if not ph_identity_holds(problem, mu, curve):
            fails["a"] += 1
        if not residues_vanish(problem, mu):
            fails["b"] += 1
        try:
            from phforge import closure_point

            limits = closure_point(curve)
            fwd = curve.eval_floats([math.inf])[0]
            if any(abs(float(l) - v) > 1e-9 * (1 + abs(float(l))) for l, v in zip(limits, fwd)):
                fails["c"] += 1
        except ValueError:
            fails["c"] += 1
        quad = ref_closure_integral(unit_scale(curve), 512)
        if max(abs(v) for v in quad) >= 1e-8:
            fails["d"] += 1
        if worst_frame_defect(problem, curve, 1000) > 1e-12:
            fails["e"] += 1
        if not tangency_holds(problem, curve):
            fails["f"] += 1
    return fails


# -- Fraction reference kernels ------------------------------------------------
# The field algorithms that ran one Fraction per coefficient before the exact
# core moved to integer vectors; the kernel tests compare against them.


def ref_mul(a: P, b: P) -> P:
    """Schoolbook product over Fraction."""
    if a.is_zero or b.is_zero:
        return P.zero()
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return P(out)


def ref_pow(a: P, n: int) -> P:
    """a^n by square-and-multiply on Polynomial products."""
    if n < 0:
        raise ValueError("negative power")
    result, base = P.one(), a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def ref_divmod(a: P, b: P):
    """Field long division over Fraction."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [F(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    dlead, dn = b.leading(), b.degree
    while len(rem) - 1 >= dn and rem:
        k = len(rem) - 1 - dn
        f = rem[-1] / dlead
        q[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] = rem[k + i] - f * c
        while rem and not rem[-1]:
            rem.pop()
    return P(q), P(rem)


def ref_gcd(a: P, b: P) -> P:
    """Monic gcd by the Euclidean algorithm over Fraction."""
    while not b.is_zero:
        a, b = b, ref_divmod(a, b)[1]
        if not b.is_zero:
            b = P([c / b.leading() for c in b.coeffs])
    if a.is_zero:
        return a
    return P([c / a.leading() for c in a.coeffs])


def ref_sturm_count(p: P) -> int:
    """Distinct real roots from the Euclidean Sturm chain of p's squarefree part."""
    if p.degree == 0:
        return 0
    p = p.exact_div(poly_gcd(p, p.derivative()))
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = chain[-2] % chain[-1]  # nonzero: p is squarefree
        chain.append(r * F(-1, abs(r.leading())))  # -rem, scaled to leading +-1
    at_plus = [c.leading() > 0 for c in chain]
    at_minus = [s == (c.degree % 2 == 0) for c, s in zip(chain, at_plus)]
    return sum(a != b for a, b in zip(at_minus, at_minus[1:])) - sum(
        a != b for a, b in zip(at_plus, at_plus[1:])
    )


def _ref_times_shift(h, a):
    """The series h times (a + x), truncated to len(h) terms."""
    return [h[0] * a] + [h[i] * a + h[i - 1] for i in range(1, len(h))]


def _ref_series_mul(f, g):
    return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(len(f))]


class RefExtensionElement(ExtensionElement):
    """An ExtensionElement with the field arithmetic of Q[t]/(t^2 + b t + c).

    Dataclass equality holds only between instances of one class, so a
    ``residue_at`` value is compared with one of these through
    ``ref_extension``.
    """

    def _like(self, r0, r1) -> "RefExtensionElement":
        return RefExtensionElement(F(r0), F(r1), self.b, self.c)

    def _check(self, other: ExtensionElement):
        if (self.b, self.c) != (other.b, other.c):
            raise ValueError("elements of different extension fields")

    def __add__(self, other):
        if isinstance(other, (int, F)):
            return self._like(self.r0 + other, self.r1)
        self._check(other)
        return self._like(self.r0 + other.r0, self.r1 + other.r1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(-self.r0, -self.r1)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return self._like(self.r0 * other, self.r1 * other)
        self._check(other)
        # theta^2 = -b*theta - c
        cross = self.r0 * other.r1 + self.r1 * other.r0
        sq = self.r1 * other.r1
        return self._like(self.r0 * other.r0 - self.c * sq, cross - self.b * sq)

    __rmul__ = __mul__

    def conjugate(self) -> "RefExtensionElement":
        # theta -> -b - theta, the other root of the quadratic
        return self._like(self.r0 - self.b * self.r1, -self.r1)

    def norm(self) -> F:
        return self.r0 * self.r0 - self.b * self.r0 * self.r1 + self.c * self.r1 * self.r1

    def inverse(self) -> "RefExtensionElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of the extension field")
        conj = self.conjugate()
        return self._like(conj.r0 / n, conj.r1 / n)

    def __truediv__(self, other):
        if isinstance(other, (int, F)):
            return self._like(self.r0 / other, self.r1 / other)
        return self * other.inverse()


def ref_extension(e: ExtensionElement) -> RefExtensionElement:
    return RefExtensionElement(e.r0, e.r1, e.b, e.c)


def _ref_theta(q: QuadraticFactor) -> RefExtensionElement:
    return RefExtensionElement(F(0), F(1), q.b, q.c)


def _ref_shifted_taylor(p: P, q: QuadraticFactor, n: int):
    """p(theta + x) mod x^n over RefExtensionElement."""
    out = [_ref_theta(q) * 0] * n
    for c in reversed(p.coeffs):
        out = _ref_times_shift(out, _ref_theta(q))
        out[0] = out[0] + c
    return out


def _ref_pole_series(s: P, q: QuadraticFactor, m: int):
    """1/((t - theta')^m s(t)) at t = theta + x, mod x^m, over RefExtensionElement."""
    den = _ref_shifted_taylor(s, q, m)
    for _ in range(m):
        den = _ref_times_shift(den, RefExtensionElement(q.b, F(2), q.b, q.c))
    out = [den[0].inverse()]
    for n in range(1, m):
        out.append(-sum(den[i] * out[n - i] for i in range(1, n + 1)) * out[0])
    return out


def ref_residue_at(f: RF, q: QuadraticFactor) -> ExtensionElement:
    """Residue of f at theta from the RefExtensionElement series, as ``residue_at`` types it."""
    s, m = f.denominator, 0
    while True:
        quo, rem = ref_divmod(s, q.poly())
        if not rem.is_zero:
            break
        s, m = quo, m + 1
    if m == 0:
        raise ValueError("quadratic is not a factor of the denominator")
    num = _ref_shifted_taylor(f.numerator, q, m)
    r = _ref_series_mul(num, _ref_pole_series(s, q, m))[-1]
    return ExtensionElement(r.r0, r.r1, r.b, r.c)


def ref_residue_rows(problem: SynthesisProblem):
    """The zero-residue constraint rows from the RefExtensionElement series."""
    rows = []
    for q in problem.poles.factors:
        s = ref_divmod(problem.alpha, q.poly() ** q.multiplicity)[0]
        g = _ref_pole_series(s, q, q.multiplicity)
        for wc in problem.hodograph_dir:
            h = _ref_series_mul(_ref_shifted_taylor(wc, q, q.multiplicity), g)
            entries = []
            for _ in range(problem.m + 1):
                entries.append(h[-1])
                h = _ref_times_shift(h, _ref_theta(q))
            rows.append([e.r0 for e in entries])
            rows.append([e.r1 for e in entries])
    return rows


def ref_rref(rows):
    """Gauss-Jordan over Fraction; returns (rows, pivot_columns)."""
    m = [list(map(F, r)) for r in rows]
    if not m:
        return [], []
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_nullspace(rows, ncols=None) -> list[list[int]]:
    """The free-variable kernel vectors of ``ref_rref`` as primitive integer vectors.

    Each is scaled to coprime integers with a positive first nonzero entry.
    """
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        scale = math.lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
        basis.append([x // g for x in ints])
    return basis


def ref_modular_inverse(a: P, modulus: P) -> P:
    """Inverse of a modulo a coprime modulus by the textbook extended Euclid over Q.

    Each remainder is made monic, which keeps the cofactors' coefficients
    small on the high-degree moduli s^k of ``ref_hermite_reduce``.
    """
    r0, r1, s0, s1 = a, modulus, P.one(), P.zero()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        s = s0 - q * s1
        if not r.is_zero:
            r, s = r.monic(), s * (1 / r.leading())
        r0, r1, s0, s1 = r1, r, s1, s
    if r0.degree != 0:
        raise ValueError("element not invertible modulo the given polynomial")
    return (s0 * (1 / r0.leading())) % modulus


def _split_coprime(nums, moduli: list[P]):
    """num / prod(moduli) = poly + sum A_i / M_i with deg A_i < deg M_i, per num.

    The moduli must be pairwise coprime.  The inverse of each cofactor
    prod(M_j, j != i) modulo M_i is computed once for all numerators, since
    num = poly * prod(moduli) + sum A_i * cofactor_i gives A_i = num / cofactor_i
    mod M_i.  Returns [(poly_part, [A_i])], one pair per numerator.
    """
    prod = Polynomial.one()
    for m in moduli:
        prod = prod * m
    inverses = [ref_modular_inverse(prod.exact_div(m), m) for m in moduli]
    return [
        (num // prod, [(num % m * inv) % m for m, inv in zip(moduli, inverses)])
        for num in nums
    ]


def ref_squarefree_decomposition(p: P):
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


def ref_hermite_reduce(nums, factors):
    """(D, [N_i]) with N_i / D an antiderivative of nums[i] / prod s^k, D = prod s^(k-1).

    The oracle of ``ratfunc._horowitz``: partial fractions by
    ``_split_coprime``, one modular inverse per multiplicity and one
    Polynomial reduction per step.

    ``factors`` are (s, k) pairs with s monic, squarefree and pairwise
    coprime, and every nums[i] / prod s^k must be proper.  Hermite reduction
    (Bronstein, *Symbolic Integration I*, ch. 2) strips one multiplicity of s
    per step: b = -a ((j-1) s')^-1 mod s makes a/s^j - (b/s^(j-1))' a multiple
    of 1/s^(j-1).  The split and the inverses of (j-1) s' are computed once
    per factor for all numerators, and each antiderivative is summed as the
    plain polynomial sum b_j s^(k-j) over s^(k-1), by Horner's rule in s and
    with no gcd.  A nonzero remainder over a squarefree s is a log/arctan
    term and raises RationalityError, with one (s, remainder) pair per factor
    and numerator.
    """
    splits = _split_coprime(nums, [s**k for s, k in factors])
    den = Polynomial.one()
    for s, k in factors:
        den = den * s ** (k - 1)
    out = [Polynomial.zero()] * len(nums)
    remainders = []
    for i, (s, k) in enumerate(factors):
        ds = s.derivative()
        steps = [(ds * (j - 1), ref_modular_inverse(ds * (j - 1), s)) for j in range(k, 1, -1)]
        cofactor = den.exact_div(s ** (k - 1))
        for n, (_, parts) in enumerate(splits):
            a, bs = parts[i], []
            for dsj, inv in steps:
                b = (-a * inv) % s
                bs.append(b)
                a = (a + b * dsj - b.derivative() * s).exact_div(s)
            if not a.is_zero:
                remainders.append((s, a))
            acc = Polynomial.zero()
            for b in reversed(bs):  # Horner's rule in s
                acc = acc * s + b
            out[n] = out[n] + acc * cofactor
    if remainders:
        raise RationalityError(
            "nonzero residues: antiderivative is not rational", remainders
        )
    return den, out


def ref_horowitz_columns(core: P, lift: P, e: P):
    """(s, k0, columns): the integer columns of Horowitz's whole square system.

    N' core - N E + B lift = num (``ratfunc._complement``), with the
    coefficient k0 of N fixed to 0, k0 the lowest index of a nonzero
    coefficient of lift, makes it square and nonsingular.  The columns,
    each deg lift + deg core integers times the least common scale s of
    core, E and lift, are first the deg lift N columns
    k t^(k-1) core - t^k E for k = 0..deg lift but k0, then the deg core
    B columns t^k lift.
    """
    scale = math.lcm(core.den, e.den, lift.den)
    c, ei, li = ([x * (scale // p.den) for x in p.ints] for p in (core, e, lift))
    n, k0 = len(li) - 1 + core.degree, next(k for k, x in enumerate(li) if x)
    cols = []
    for k in (k for k in range(len(li)) if k != k0):
        col = [0] * n
        if k:
            for i, x in enumerate(c, k - 1):
                col[i] = k * x
        for i, x in enumerate(ei, k):
            col[i] -= x
        cols.append(col)
    for k in range(core.degree):
        cols.append([0] * k + li + [0] * (n - k - len(li)))
    return scale, k0, cols


def ref_horowitz_parts(nums, core: P, lift: P, e: P):
    """[(N_i, B_i)] with N_i' core - N_i E + B_i lift = nums[i], by the dense solve.

    The oracle of ``ratfunc._log_parts`` and ``ratfunc._substitute``, for
    any core: every numerator, which must be proper over lift core, is one
    right-hand-side column of a single ``linalg.nullspace`` call over all
    of ``ref_horowitz_columns``, and each solution is one
    back-substitution.
    """
    scale, k0, cols = ref_horowitz_columns(core, lift, e)
    delta, n = lift.degree, len(cols)
    cols.extend(list(num.ints) + [0] * (n - len(num.ints)) for num in nums)
    # the kernel vector of free column n + j solves the system for nums[j]
    kernel = linalg.nullspace(list(zip(*cols)), n + len(nums))
    parts = []
    for j, (num, v) in enumerate(zip(nums, kernel)):
        den = v[n + j] * num.den
        anti = [-x * scale for x in v[:delta]]
        anti.insert(k0, 0)
        parts.append((_canonical(anti, den), _canonical([-x * scale for x in v[delta:n]], den)))
    return parts


def ref_integrates(antis, nums, core: P, e: P) -> bool:
    """Whether N_i' core - N_i E = nums[i] for every i, coefficient by coefficient.

    The oracle of ``ratfunc._integrates``: over the least common scale s of
    core and E, num.den (N_ints' core_s - N_ints E_s) - N.den s num_ints is
    built as an integer vector by two products and compared with zero on
    every coefficient, with no intermediate reduction.
    """
    scale, c, ei = _scaled(core, e)
    for num, anti in zip(nums, antis):
        a, d = anti.ints, num.den
        diff = [-x * anti.den * scale for x in num.ints]
        if len(a) > 1:
            diff = _int_add(diff, _int_mul([k * x for k, x in enumerate(a)][1:], [d * x for x in c]))
        if a and ei:
            diff = _int_add(diff, _int_mul(a, [-d * x for x in ei]))
        if any(diff):
            return False
    return True


# -- Fraction reference for the Q representation -----------------------------
# Coefficient lists ascending by degree, one Fraction per coefficient and no
# trailing zeros: what ``Polynomial.coeffs`` stored before the integer-vector
# representation.  Each takes and returns such lists.


def ref_coeffs(cs) -> list:
    out = [F(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def ref_add(a, b) -> list:
    n = max(len(a), len(b))
    return ref_coeffs([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_scale(a, c) -> list:
    return ref_coeffs([x * c for x in a])


def ref_derivative(a) -> list:
    return ref_coeffs([i * x for i, x in enumerate(a)][1:])


def ref_antiderivative(a) -> list:
    return ref_coeffs([F(0)] + [x / (i + 1) for i, x in enumerate(a)])


def ref_eval(a, x) -> F:
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_monic(a) -> list:
    return [x / a[-1] for x in a] if a else []


# -- Quaternion reference product ----------------------------------------------


def ref_qmul(a: QP, b: QP) -> QP:
    """Schoolbook product over Quaternion coefficients, one Quaternion product per term."""
    if a.is_zero or b.is_zero:
        return QP(())
    out = [Quaternion.of() for _ in range(len(a.coeffs) + len(b.coeffs) - 1)]
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return QP(out)


# -- Reference helpers outside the pipeline ---------------------------------------
# Reparameterization, the closure quadrature, single poses and the linear solve
# for prescribed mu-coefficients: checks on pipeline results, not pipeline stages.

# (1 + t^2) / 2 = -dt/dtheta, the circle-chart weight of the parameter speed
_REF_HALF_CIRCLE = P([F(1, 2), 0, F(1, 2)])


def ref_parameter_of_angle(theta: float) -> float:
    """Parameter t with circle angle theta, one sample at a time; theta = 0 is t = inf."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta == 0.0:
        return math.inf
    half = (math.pi - theta) / 2.0
    c = math.cos(half)
    if c == 0.0:
        return math.inf
    return math.sin(half) / c


def ref_closure_integral(c: RationalCurve, samples: int = 2048) -> tuple[float, float, float]:
    """Quadrature of the closed-curve integral of the weighted hodograph.

    Integrates r'(t(theta)) dt/dtheta over the full circle with the
    periodic trapezoid rule; for a closed bounded curve the exact value is
    zero componentwise, so the return value is a closure diagnostic.
    """
    ts = angle_parameters(samples)
    # dt/dtheta = -(1+t^2)/2; the sign flips orientation only
    return tuple(
        -2.0 * math.pi * float(np.mean((h * _REF_HALF_CIRCLE).eval_floats(ts)))
        for h in (RF(n, c.den).derivative() for n in c.nums)
    )


def ref_reparameterize(f: RF, a, b, c, d) -> RF:
    """f(psi(s)) for the rational linear substitution psi(s) = (as+b)/(cs+d)."""
    a, b, c, d = (F(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("singular parameter transformation")
    if f.is_zero:
        return RF.zero()
    top, bottom = P((b, a)), P((d, c))
    n = max(f.numerator.degree, f.denominator.degree)

    def homogeneous(p: P) -> P:
        # sum_i p_i top^i bottom^(n-i), the numerator of the substitution
        out = P.zero()
        for i, coeff in enumerate(p.coeffs):
            out = out + top**i * bottom ** (n - i) * coeff
        return out

    return RF(homogeneous(f.numerator), homogeneous(f.denominator))


def ref_mobius_jacobian(a, b, c, d) -> RF:
    """Derivative of psi(s) = (as+b)/(cs+d): the factor (ad-bc)/(cs+d)^2."""
    a, b, c, d = (F(v) for v in (a, b, c, d))
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular parameter transformation")
    bottom = P((d, c))
    return RF(P.constant(det), bottom * bottom)


def ref_pose(a: QP, c: RationalCurve, t: float):
    """(position, rotation, frame) arrays of the framing motion at parameter t (inf allowed).

    frame[k] is the k-th frame column, as in ``SampledMotion.frames``; the
    rotation is not sign-aligned with any neighbour.
    """
    q, frame, positions = _motion(a, c, [t])
    return positions[0], q[:, 0], frame[:, :, 0]


def ref_solve_coefficients(space: SolutionSpace, fixed: dict[int, F]):
    """Kernel member with prescribed values of selected mu-coefficients.

    Solves for a combination of basis elements whose coefficient at each
    index in ``fixed`` equals the given value; returns None when no such
    member exists.  Free combination directions are set to zero.
    """
    n = space.dimension
    red, pivots = ref_rref([[b.coefficient(k) for b in space.basis] + [F(v)] for k, v in fixed.items()])
    if n in pivots:
        return None
    y = [F(0)] * n
    for r, p in enumerate(pivots):
        y[p] = red[r][n]
    return space.combination(y)


def assert_same_text(got: str, want: str) -> None:
    """Fail with the first differing line and the offset in it, not a diff of the whole texts.

    Outputs run to hundreds of kilobytes, often on one line, where a full
    diff takes minutes.
    """
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    line = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )
    g = got_lines[line] if line < len(got_lines) else ""
    w = want_lines[line] if line < len(want_lines) else ""
    col = next((k for k, (x, y) in enumerate(zip(g, w)) if x != y), min(len(g), len(w)))
    start = max(col - 40, 0)
    raise AssertionError(
        f"texts differ at line {line + 1}, offset {col} "
        f"({len(got_lines)} vs {len(want_lines)} lines):\n"
        f"  got:  {g[start:col + 40]!r}\n  want: {w[start:col + 40]!r}"
    )


# -- Per-pose export path --------------------------------------------------------
# The writers as they were when sample_motion built one object per pose and
# the CLI took those apart again; the export tests compare the array writers
# with them byte for byte.


@dataclass(frozen=True)
class RefPose:
    parameter: float
    position: tuple[float, float, float]
    rotation: tuple[float, float, float, float]
    frame: tuple[tuple[float, float, float], ...]


def ref_poses(ts, q, frame, positions) -> list[RefPose]:
    return [
        RefPose(t, tuple(p), tuple(r), tuple(map(tuple, f)))
        for t, p, r, f in zip(
            ts, positions.tolist(), q.T.tolist(), frame.transpose(2, 0, 1).tolist()
        )
    ]


def ref_sample_motion(a: QP, c: RationalCurve, n: int) -> list[RefPose]:
    ts = angle_parameters(n)
    q, frame, positions = _motion(a, c, ts)
    prod = q[:, :-1] * q[:, 1:]
    sign = 1.0
    signs = [sign]
    for dot in (prod[0] + prod[1] + prod[2] + prod[3]).tolist():
        sign = -1.0 if sign * dot < 0.0 else 1.0
        signs.append(sign)
    return ref_poses(ts, q * np.array(signs), frame, positions)


def ref_pose_dict(p: RefPose) -> dict:
    return {
        "parameter": cli._finite_or_str(p.parameter),
        "position": list(p.position),
        "rotation": list(p.rotation),
        "frame": [list(col) for col in p.frame],
    }


def ref_frames_rows(poses):
    return [
        (cli._finite_or_str(p.parameter),) + p.position + p.rotation
        + tuple(v for col in p.frame for v in col)
        for p in poses
    ]


def ref_csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_bundle_samples(a: QP, c: RationalCurve, n: int) -> dict:
    """The bundle's ``samples`` section at n poses, which store no frame."""
    poses = ref_sample_motion(a, c, n)
    speeds = speed_function(c).eval_floats([p.parameter for p in poses]).tolist()
    return {
        "positions": [list(p.position) for p in poses],
        "poses": [
            {key: v for key, v in ref_pose_dict(p).items() if key != "frame"} for p in poses
        ],
        "speed": speeds,
    }


def ref_frames(bundle, n: int, fmt: str) -> str:
    """``phforge frames`` output in format json or csv."""
    poses = ref_sample_motion(bundle.generator, bundle.curve, n)
    if fmt == "json":
        return cli._json([ref_pose_dict(p) for p in poses])
    header = "parameter,px,py,pz,qw,qx,qy,qz,tx,ty,tz,bx,by,bz,cx,cy,cz".split(",")
    return ref_csv(ref_frames_rows(poses), header)


def ref_sample_positions(bundle, n: int):
    params = angle_parameters(n)
    return params, bundle.curve.eval_floats(params).tolist()


def ref_svg(bundle, n: int) -> str:
    """``phforge sample --format svg`` output, one point at a time."""
    params, positions = ref_sample_positions(bundle, n)
    speed = speed_function(bundle.curve)
    angles = [2.0 * math.pi * j / n for j in range(n)]
    speeds = speed.eval_floats(params).tolist()

    px, py = cli._project(positions, bundle.config.view)
    w, h, pad = 640.0, 880.0, 40.0
    span = max(px.max() - px.min(), py.max() - py.min()) or 1.0
    scale = (w - 2 * pad) / span
    cx = (px.max() + px.min()) / 2
    cy = (py.max() + py.min()) / 2

    def curve_pt(i):
        return (
            w / 2 + (px[i] - cx) * scale,
            h * 0.35 - (py[i] - cy) * scale,
        )

    smax = max(abs(s) for s in speeds) or 1.0
    rad = (w - 2 * pad) / 2.0
    polar_c = (w / 2, h * 0.78)

    def polar_pt(i):
        r = abs(speeds[i]) / smax * rad * 0.9
        return (polar_c[0] + r * math.cos(angles[i]), polar_c[1] - r * math.sin(angles[i]))

    def path(points):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
        return f'<polygon fill="none" stroke="black" stroke-width="1.2" points="{coords}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        path([curve_pt(i) for i in range(n)]),
        f'<circle cx="{polar_c[0]}" cy="{polar_c[1]}" r="2" fill="black"/>',
        path([polar_pt(i) for i in range(n)]),
        f'<text x="{w/2:.0f}" y="{h*0.55:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">orthographic projection</text>',
        f'<text x="{w/2:.0f}" y="{h*0.97:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">speed polar plot</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
