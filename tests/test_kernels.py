"""The integer-vector kernels against the Fraction reference kernels in helpers.

Products, quotient/remainder pairs, gcds, modular inverses, Sturm counts,
residue rows and reduced row echelon forms must be equal, value for value, on seeded random inputs with integer and
Fraction coefficients and with monic, non-monic and Fraction divisors.
"""

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
    ref_divmod,
    ref_gcd,
    ref_modular_inverse,
    ref_mul,
    ref_residue_at,
    ref_residue_rows,
    ref_rref,
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
