"""The integer-vector kernels against the Fraction reference kernels in helpers.

Products, quotient/remainder pairs, gcds, modular inverses, Sturm counts,
residue rows and reduced row echelon forms must be equal, value for value, on seeded random inputs with integer and
Fraction coefficients and with monic, non-monic and Fraction divisors.  The
polynomial operations over Q (sums, scalar products, calculus, evaluation,
``monic``, ``leading``, ``coefficient``, ``float_coeffs``) must match one
Fraction per coefficient, every result must be the canonical (ints, den)
pair, and equal polynomials must hash alike whichever way they were built.
"""

import math
import random
from fractions import Fraction as F

import pytest

from phforge import linalg
from phforge.polynomial import _int_divmod, _int_mul, modular_inverse
from phforge import (
    PoleStructure,
    Polynomial as P,
    QuadraticFactor,
    QuaternionPolynomial as QP,
    RationalFunction as RF,
    SynthesisProblem,
    build_residue_system,
    poly_gcd,
    residue_at,
    sturm_real_root_count,
)

from helpers import (
    generator_deg3,
    random_quaternion_poly,
    ref_add,
    ref_antiderivative,
    ref_coeffs,
    ref_derivative,
    ref_divmod,
    ref_eval,
    ref_gcd,
    ref_modular_inverse,
    ref_monic,
    ref_mul,
    ref_residue_at,
    ref_residue_rows,
    ref_rref,
    ref_scale,
    ref_sturm_count,
)


def rand_coeff(rng, fractions):
    if fractions and rng.random() < 0.5:
        return F(rng.randint(-40, 40), rng.randint(1, 12))
    return F(rng.randint(-9, 9))


def rand_poly(rng, degree, fractions=True, lead=None):
    cs = [rand_coeff(rng, fractions) for _ in range(degree)]
    top = lead if lead is not None else rand_coeff(rng, fractions)
    return P(cs + [top or 1])


@pytest.mark.parametrize("seed", range(4))
def test_products_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 12), fractions=seed % 2 == 0)
        b = rand_poly(rng, rng.randint(0, 12))
        assert a * b == ref_mul(a, b)
        assert a * P.zero() == P.zero() == P.zero() * b


@pytest.mark.parametrize("kind", ["monic", "unit", "integer", "fraction"])
def test_divmod_matches_reference(kind):
    rng = random.Random(f"divmod:{kind}")
    lead = {"monic": F(1), "unit": F(-1), "integer": F(6), "fraction": F(-7, 4)}[kind]
    for _ in range(60):
        b = rand_poly(rng, rng.randint(0, 7), fractions=kind == "fraction", lead=lead)
        a = rand_poly(rng, rng.randint(0, 16))
        assert divmod(a, b) == ref_divmod(a, b)
        q = rand_poly(rng, rng.randint(0, 6))
        assert (a * b).exact_div(b) == a
        assert divmod(a * b + q, b) == ref_divmod(a * b + q, b)


def test_divmod_by_scalar_and_higher_degree():
    a = P([F(1, 2), 3, F(-5, 7)])
    assert divmod(a, F(3, 5)) == ref_divmod(a, P([F(3, 5)]))
    assert divmod(a, P([1, 0, 0, 2])) == (P.zero(), a)
    assert divmod(P.zero(), a) == (P.zero(), P.zero())


@pytest.mark.parametrize("seed", range(3))
def test_gcd_matches_reference(seed):
    rng = random.Random(f"gcd:{seed}")
    for _ in range(40):
        common = rand_poly(rng, rng.randint(0, 4))
        a = rand_poly(rng, rng.randint(0, 6)) * common
        b = rand_poly(rng, rng.randint(0, 6)) * common
        if rng.random() < 0.3:
            b = b * common  # a repeated common factor
        g = poly_gcd(a, b)
        assert g == ref_gcd(a, b)
        assert g.leading() == 1 and (common.degree == 0 or g.degree >= common.degree)
    a = rand_poly(rng, 5)
    assert poly_gcd(a, P.zero()) == ref_gcd(a, P.zero()) == poly_gcd(P.zero(), a)
    assert poly_gcd(P.zero(), P.zero()) == P.zero()


def test_pseudo_division_scale_is_positive():
    # Sturm's sign variations rely on s > 0, also for a negative lead(b)
    rng = random.Random("pseudo-division")
    for _ in range(200):
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice((-6, -4, -1, 1, 3, 10))]
        a = [rng.randint(-99, 99) for _ in range(rng.randint(0, 9))]
        s, q, r = _int_divmod(a, b)
        assert s > 0 and len(r) < len(b) and (not r or r[-1] != 0)
        lhs = [s * x for x in a] + [0] * len(b)
        rhs = (_int_mul(q, b) if q else []) + [0] * (len(a) + len(b))
        for i, x in enumerate(r):
            rhs[i] += x
        assert lhs[: len(a) + len(b)] == rhs[: len(a) + len(b)]


@pytest.mark.parametrize("seed", range(3))
def test_sturm_counts_match_reference(seed):
    rng = random.Random(f"sturm:{seed}")
    for _ in range(30):
        roots = [F(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))]
        p = P([F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))])
        for _ in range(rng.randint(0, 2)):
            lead = rng.randint(1, 5)  # a complex pair with a non-monic factor
            p = p * P([lead * rng.randint(4, 9), rng.randint(-3, 3), lead])
        for r in roots:
            p = p * P([-r.numerator, r.denominator]) ** rng.randint(1, 3)  # multiple roots
        assert sturm_real_root_count(p) == ref_sturm_count(p) == len(set(roots))
        for _ in range(4):
            lo, hi = sorted(F(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(2))
            want = len({r for r in roots if lo < r <= hi})
            assert sturm_real_root_count(p, lo, hi) == ref_sturm_count(p, lo, hi) == want
            assert sturm_real_root_count(p, None, hi) == ref_sturm_count(p, None, hi)
            assert sturm_real_root_count(p, lo, float("inf")) == ref_sturm_count(p, lo)


FACTORS = (
    QuadraticFactor(0, 4),
    QuadraticFactor(1, 3),
    QuadraticFactor(F(1, 2), F(3, 4)),  # t^2 + t/2 + 3/4
    QuadraticFactor(F(-2, 3), F(5, 6)),
)


@pytest.mark.parametrize("seed", range(3))
def test_residues_match_reference(seed):
    rng = random.Random(f"residue:{seed}")
    for _ in range(12):
        chosen = rng.sample(FACTORS, rng.randint(1, 2))
        poles = PoleStructure(tuple(f.with_multiplicity(rng.randint(1, 4)) for f in chosen))
        alpha = poles.alpha()
        num = rand_poly(rng, rng.randint(0, alpha.degree + 2))
        f = RF(num, alpha)
        for q in poles.factors:
            try:
                want = ref_residue_at(f, q)
            except ValueError:  # the pole cancelled against the numerator
                with pytest.raises(ValueError):
                    residue_at(f, q)
                continue
            assert residue_at(f, q) == want


def fraction_generator():
    """The reference generator scaled by 2/3: Fraction coefficients."""
    return QP([c * F(2, 3) for c in generator_deg3().coeffs])


@pytest.mark.parametrize(
    "poles",
    [
        ((0, 4, 6),),
        ((F(1, 2), F(3, 4), 6),),
        ((0, 4, 4), (F(1, 2), F(3, 4), 3)),
        ((1, 3, 3), (F(-2, 3), F(5, 6), 3)),
    ],
)
def test_residue_rows_match_reference(poles):
    structure = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in poles))
    rng = random.Random(str(poles))
    generators = [generator_deg3(), fraction_generator()]
    while len(generators) < 4:
        a = random_quaternion_poly(rng)
        if a is not None and a.degree <= 3:
            generators.append(a)
    for a in generators:
        problem = SynthesisProblem(a, structure)
        rows = build_residue_system(problem).constraint_matrix
        assert rows == tuple(tuple(r) for r in ref_residue_rows(problem))


@pytest.mark.parametrize("seed", range(3))
def test_rref_matches_reference(seed):
    rng = random.Random(f"rref:{seed}")
    for _ in range(30):
        nrows, ncols, rank = rng.randint(1, 7), rng.randint(1, 8), rng.randint(0, 5)
        basis = [[rand_coeff(rng, True) for _ in range(ncols)] for _ in range(rank)]
        rows = [
            [sum((rng.randint(-2, 2) * v[k] for v in basis), F(0)) for k in range(ncols)]
            for _ in range(nrows)
        ]
        assert linalg.rref(rows) == ref_rref(rows)
    assert linalg.rref([]) == ([], [])


@pytest.mark.parametrize("seed", range(3))
def test_modular_inverse_matches_reference(seed):
    rng = random.Random(f"inverse:{seed}")
    for _ in range(40):
        modulus = rand_poly(rng, rng.randint(1, 8), lead=rng.choice((F(1), F(3), F(-2, 5))))
        a = rand_poly(rng, rng.randint(0, 12))
        if poly_gcd(a, modulus).degree > 0:
            with pytest.raises(ValueError):
                modular_inverse(a, modulus)
            continue
        inv = modular_inverse(a, modulus)
        assert inv == ref_modular_inverse(a, modulus)
        assert (a * inv) % modulus == P.one()
    with pytest.raises(ValueError):
        modular_inverse(P([1, 1]) * P([2, 0, 1]), P([2, 0, 1]))
    assert modular_inverse(P([F(1, 2), 3]), P([5])) == P.zero()


# -- the integer-vector representation over Q ----------------------------------


def assert_canonical(p):
    """p is the pair (ints, den) of the module docstring, and coeffs agree with it."""
    assert type(p.ints) is tuple and all(type(x) is int for x in p.ints)
    assert type(p.den) is int and p.den > 0
    assert not p.ints or p.ints[-1] != 0
    assert math.gcd(p.den, *p.ints) == 1
    assert p.coeffs == tuple(F(x, p.den) for x in p.ints)
    assert all(type(c) is F for c in p.coeffs)


def rand_mixed(rng, degree):
    """Coefficients as ints and Fractions of both signs, zero trailing terms included."""
    cs = []
    for _ in range(degree + 1):
        kind = rng.random()
        if kind < 0.3:
            cs.append(rng.randint(-9, 9))
        elif kind < 0.9:
            cs.append(F(rng.randint(-60, 60), rng.randint(1, 36)))
        else:
            cs.append(F(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)))
    return cs + [0] * rng.randint(0, 2)


def rand_scalar(rng):
    return rng.choice((0, 1, -1, rng.randint(-12, 12), F(rng.randint(-12, 12), rng.randint(1, 9))))


@pytest.mark.parametrize("seed", range(4))
def test_operations_match_fraction_reference(seed):
    rng = random.Random(f"representation:{seed}")
    for _ in range(60):
        ca, cb = rand_mixed(rng, rng.randint(-1, 7)), rand_mixed(rng, rng.randint(-1, 7))
        a, b = P(ca), P(cb)
        ra, rb = ref_coeffs(ca), ref_coeffs(cb)
        c = rand_scalar(rng)
        results = {
            "a": (a, ra),
            "a + b": (a + b, ref_add(ra, rb)),
            "a - b": (a - b, ref_add(ra, ref_scale(rb, -1))),
            "-a": (-a, ref_scale(ra, -1)),
            "a * c": (a * c, ref_scale(ra, c)),
            "c * a": (c * a, ref_scale(ra, c)),
            "a + c": (a + c, ref_add(ra, [F(c)])),
            "c - a": (c - a, ref_add([F(c)], ref_scale(ra, -1))),
            "a'": (a.derivative(), ref_derivative(ra)),
            "int a": (a.antiderivative(), ref_antiderivative(ra)),
            "monic": (a.monic(), ref_monic(ra)),
        }
        for name, (p, want) in results.items():
            assert_canonical(p)
            assert p.coeffs == tuple(want), name
            assert p.degree == len(want) - 1, name
        for x in (0, 1, -2, rng.randint(-9, 9), F(rng.randint(-20, 20), rng.randint(1, 9))):
            value = a(x)
            assert type(value) is F and value == ref_eval(ra, F(x))
        for k in range(-1, len(ra) + 2):
            want = ra[k] if 0 <= k < len(ra) else F(0)
            assert type(a.coefficient(k)) is F and a.coefficient(k) == want
        if ra:
            assert type(a.leading()) is F and a.leading() == ra[-1]
        else:
            with pytest.raises(ValueError):
                a.leading()


def test_float_coeffs_are_bit_identical():
    rng = random.Random("float-coeffs")
    for _ in range(200):
        cs = rand_mixed(rng, rng.randint(-1, 6))
        p = P(cs) * rand_scalar(rng)
        assert p.float_coeffs() == [float(c) for c in p.coeffs]
    thirds = P([F(1, 3), F(-2, 3), F(10**40 + 1, 3 * 10**20)])
    assert thirds.float_coeffs() == [float(c) for c in thirds.coeffs]


def test_equality_and_hash_across_construction_routes():
    half = P([F(1, 2)])
    routes = [
        P([F(2, 4)]),
        P([F(1, 2), 0, 0]),
        P([1]) * F(1, 2),
        F(1, 2) * P([1]),
        P([2]) * F(1, 4),
        P([F(1, 4)]) + P([F(1, 4)]),
        P([F(3, 2)]) - 1,
        P([F(3, 2), F(1, 3)]) - P([1, F(2, 6)]),
        P([1, 1]).derivative() * F(1, 2),
        P([F(1, 2), F(1, 2)]).exact_div(P([1, 1])),
        divmod(P([F(1, 2), 0, 1]), P([0, 0, 1]))[1],
        (P([3, 3]) % P([0, 1])).monic() * F(1, 2),
        P([F(1, 2)]).antiderivative().derivative(),
        P([0, F(1, 2)]).antiderivative().derivative().derivative() * 2 * F(1, 2),
    ]
    for p in routes:
        assert_canonical(p)
        assert (p.ints, p.den) == ((1,), 2)
        assert p == half and hash(p) == hash(half)
    zeros = [P(), P([0, F(0, 3)]), half - half, half * 0, P([7]).derivative(), P([1, 2]) % P([1, 2])]
    for z in zeros:
        assert_canonical(z)
        assert (z.ints, z.den) == ((), 1) and z == P.zero() and hash(z) == hash(P.zero())
    rng = random.Random("routes")
    for _ in range(40):
        a = P(rand_mixed(rng, rng.randint(0, 6)))
        b = P(rand_mixed(rng, rng.randint(0, 5)))
        if b.is_zero:
            continue
        for same in ((a + b) - b, (a * b).exact_div(b), a.monic() * a.leading() if a else a, -(-a)):
            assert_canonical(same)
            assert same == a and hash(same) == hash(a)
        assert (a == a + 1) is False
