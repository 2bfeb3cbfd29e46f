"""The integer-vector kernels against the Fraction reference kernels in helpers.

Products, powers, quotient/remainder pairs, gcds, Sturm counts, kernel
bases and rational antiderivatives (Horowitz's linear solve against the
Hermite reduction, with log/arctan parts equal as fractions) must be equal,
value for value, residues also at denominators with real roots, and
residue rows spanning the space of the reference residue rows with the
same kernel basis, on seeded random inputs with integer and Fraction
coefficients and with monic, non-monic and Fraction divisors;
products, gcds and Sturm counts also at the degrees (up to 60) and
coefficient sizes (about 300 bits) that the fixtures reach, and gcds by the
GCDHEU route and by the PRS fallback.  The closed-form E of a pole
structure must equal lift' core / lift, the substitution must give the
dense solve's antiderivatives, the banded complement and the log parts
the elimination's vectors and B, and the one-point check of every
antiderivative must reject one wrong coefficient and agree with the
coefficient-wise check on perturbed copies.  The polynomial operations over Q (sums, scalar
products, calculus, evaluation, ``monic``, ``leading``, ``coefficient``,
``float_coeffs``) must match one Fraction per coefficient, every result
must be the canonical (ints, den) pair, and equal polynomials must hash
alike whichever way they were built.
"""

import importlib
import math
import random
from fractions import Fraction as F
from operator import mul
from pathlib import Path

import pytest

from phforge import linalg, polynomial, ratfunc, synthesis
from phforge.polynomial import _canonical, _heu_gcd, _int_divmod, _int_mul, _primitive
from phforge.ratfunc import _complement, _horowitz, _integrates, _log_parts, _split, _substitute
from phforge.synthesis import _core_and_lift
from phforge import (
    PoleStructure,
    Polynomial as P,
    QuadraticFactor,
    Quaternion,
    QuaternionPolynomial as QP,
    RationalFunction as RF,
    RationalityError,
    SynthesisProblem,
    build_residue_system,
    poly_gcd,
    residue_at,
    sturm_real_root_count,
)

from helpers import (
    TABLE_POLES,
    generator_deg3,
    poles_single,
    random_quaternion_poly,
    ref_add,
    ref_antiderivative,
    ref_coeffs,
    ref_derivative,
    ref_divmod,
    ref_eval,
    ref_gcd,
    ref_hermite_reduce,
    ref_horowitz_columns,
    ref_horowitz_parts,
    ref_integrates,
    ref_monic,
    ref_mul,
    ref_nullspace,
    ref_pow,
    ref_residue_at,
    ref_residue_rows,
    ref_rref,
    ref_scale,
    ref_sturm_count,
    residues_vanish,
)
from test_pinned_outputs import PINNED_SHA256, exact_output_digest


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
    # a one-term operand is a scalar, on either side, and never leaves trailing zeros
    scalars = [P([1]), P([-1]), P([-(2**64) - rng.randint(1, 99)]), P([F(-(2**70) - 1, 9)])]
    vectors = [P([0, 5, 0, 0, -3]), P([F(7, 2), 0, 0, 1]), P([0, 0, 0, -(2**65)])]
    vectors += [rand_poly(rng, rng.randint(0, 12)) for _ in range(3)] + scalars
    for a in scalars:
        for b in vectors:
            assert a * b == ref_mul(a, b) and b * a == ref_mul(b, a)
            assert _int_mul(a.ints, b.ints) == list(ref_mul(P(a.ints), P(b.ints)).ints)
            assert _int_mul(list(b.ints) + [0, 0], a.ints) == list(ref_mul(P(a.ints), P(b.ints)).ints)
        assert _int_mul(a.ints, [0]) == _int_mul([0, 0], a.ints) == []


POWER_BASES = [
    P([F(3, 4), F(1, 2), 1]),  # t^2 + b t + c, b = 1/2, c = 3/4
    P([F(5, 6), F(-2, 3), 1]),  # b = -2/3, c = 5/6
    P.zero(),
    P([F(-3, 2)]),
    P([7]),
    P([1, 2, -3]),
    P([F(1, 3), 0, F(-5, 7)]),
    # |coefficient of a^n| = (sum |a_i|)^n: the digit bound is reached
    P([0, 0, -(2**20)]),
    P([0, F(2**31, 3)]),
    P([1, 1, 1, 1, 1]),  # the middle coefficients approach the bound
    P([-1, 1, -1, 1]),
]


@pytest.mark.parametrize("index", range(len(POWER_BASES)))
def test_power_matches_reference(index):
    a = POWER_BASES[index]
    for n in range(13):
        got, want = a**n, ref_pow(a, n)
        assert (got.ints, got.den) == (want.ints, want.den), n
    assert P.zero() ** 0 == P.one() and P.zero() ** 3 == P.zero()
    with pytest.raises(ValueError):
        a ** -1


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


# -- Kronecker products and GCDHEU at the sizes the fixtures reach --------------
# Curve numerators and speed polynomials reach degree ~50 with coefficients of
# a few hundred bits; the reference gcd is fast when the common factor has a
# high degree (few Euclid steps), so the large cases are built that way.


def rand_ints(rng, length, bits, zeros=0.25):
    """Signed integers with interior zeros and a nonzero (often negative) last entry."""
    v = [0 if rng.random() < zeros else rng.randint(-(2**bits), 2**bits) for _ in range(length - 1)]
    return v + [rng.choice((-1, 1)) * rng.randint(1, 2**bits)]


@pytest.fixture(params=["heuristic", "prs"])
def gcd_route(request, monkeypatch):
    """poly_gcd as shipped, or with GCDHEU giving up so that the PRS fallback answers."""
    if request.param == "prs":
        monkeypatch.setattr(polynomial, "_heu_gcd", lambda a, b: None)
    return request.param


@pytest.mark.parametrize("seed", range(3))
def test_kronecker_products_at_fixture_sizes(seed):
    rng = random.Random(f"kronecker:{seed}")
    for _ in range(25):
        la, lb = rng.randint(1, 61), rng.choice((1, 2, 3, rng.randint(1, 61)))
        a = rand_ints(rng, la, rng.choice((1, 8, 64, 150, 300)))
        b = rand_ints(rng, lb, rng.choice((1, 30, 300)))
        assert _int_mul(a, b) == list(ref_mul(P(a), P(b)).ints)
        assert _int_mul(b, a) == _int_mul(a, b)
    # equal entries put the middle coefficient at max|a| max|b| min(len a, len b) itself
    v = [-(2**300)] * 61
    assert _int_mul(v, v) == list(ref_mul(P(v), P(v)).ints)
    assert _int_mul([-1] * 61, [1] * 61) == [-min(i + 1, 121 - i) for i in range(121)]
    assert _int_mul([-1], v) == [2**300] * 61


def test_gcd_at_fixture_sizes(gcd_route):
    rng = random.Random("gcd-large")
    for _ in range(8):
        common = P(rand_ints(rng, rng.randint(35, 57), rng.choice((100, 280))))
        a = P(rand_ints(rng, rng.randint(1, 5), 8)) * common
        b = P(rand_ints(rng, rng.randint(1, 5), 1)) * common * F(3, 7)
        g = poly_gcd(a, b)
        assert g == ref_gcd(a, b)
        assert g.degree >= common.degree and g % common.monic() == P.zero()


def test_gcd_of_coprime_equal_and_constant_inputs(gcd_route):
    rng = random.Random("gcd-special")
    for _ in range(10):
        a = P(rand_ints(rng, rng.randint(2, 14), 100))
        b = P(rand_ints(rng, rng.randint(2, 14), 100))
        assert poly_gcd(a, b) == ref_gcd(a, b)  # almost surely coprime
        assert poly_gcd(a, a) == poly_gcd(a, -a * F(5, 3)) == a.monic()
        assert poly_gcd(a, P([-6])) == poly_gcd(P([F(2, 9)]), a) == P.one()
    assert poly_gcd(P([0, 0, 1]), P([0, 1])) == P([0, 1])
    assert poly_gcd(P([-4]), P([6])) == P.one()
    assert poly_gcd(P([1, 1]), P([-1, 1])) == P.one()


def test_heuristic_gcd_divides_both_inputs():
    rng = random.Random("gcdheu")
    proved = 0
    for _ in range(300):
        common = rand_ints(rng, rng.randint(1, 6), rng.choice((1, 2, 20)))
        a = _primitive(_int_mul(rand_ints(rng, rng.randint(1, 8), rng.choice((1, 3, 60))), common))
        b = _primitive(_int_mul(rand_ints(rng, rng.randint(1, 8), 1), common))
        g = _heu_gcd(a, b)
        if g is None:
            continue
        proved += 1
        assert g[-1] > 0 and math.gcd(*g) == 1
        assert _int_divmod(a, g)[2] == [] and _int_divmod(b, g)[2] == []
        assert len(g) >= len(_primitive(common))
    assert proved > 250


def _complex_pair(rng, bits):
    """a t^2 + b t + c with 4ac > b^2: a pair of complex roots."""
    a, b = rng.randint(1, 2**bits), rng.randint(-(2**bits), 2**bits)
    return P([b * b // (4 * a) + rng.randint(1, 2**bits), b, a])


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
    # the fixtures' sizes: degrees up to 60, coefficients of about 300 bits
    a, b = (P(rand_ints(rng, 9, 150)) for _ in range(2))
    p = a * a + b * b + 1  # positive, with no factor structure
    assert max(map(abs, p.ints)).bit_length() > 290
    assert sturm_real_root_count(p) == ref_sturm_count(p) == 0
    for _ in range(3):
        # simple and double real roots up to |t| = 2^40, complex pairs up to the fourth power
        roots = [F(rng.randint(-(2**40), 2**40), rng.randint(1, 2**20)) for _ in range(rng.randint(0, 4))]
        p = P([rng.choice((-1, 1)) * rng.randint(1, 2**20)])
        for r in roots:
            p = p * P([-r.numerator, r.denominator]) ** rng.choice((1, 2))
        while p.degree < 48:
            p = p * _complex_pair(rng, 10) ** rng.randint(2, 4)
        assert p.degree <= 60 and max(map(abs, p.ints)).bit_length() > 200
        assert sturm_real_root_count(p) == ref_sturm_count(p) == len(set(roots))


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
        poles = PoleStructure(tuple(QuadraticFactor(f.b, f.c, rng.randint(1, 4)) for f in chosen))
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


def test_residues_with_real_roots_match_reference():
    """Denominators with real roots, some with lift = gcd(den, den') vanishing at 0."""
    rng = random.Random("residue real roots")
    t, s = P([0, 1]), P([4, 0, 1])
    dens = [t**3 * s, t**2 * s**2]
    for q in FACTORS:
        dens.append((t - 3) ** 2 * q.poly() ** rng.randint(1, 3))
        dens.append((t - 3) ** 2 * (t + F(1, 2)) * q.poly() ** 2 * s)
    for den in dens:
        for _ in range(3):
            f = RF(rand_poly(rng, rng.randint(0, den.degree + 1)), den)
            for q in FACTORS:
                try:
                    want = ref_residue_at(f, q)
                except ValueError:  # no pole at q's roots
                    with pytest.raises(ValueError):
                        residue_at(f, q)
                    continue
                assert residue_at(f, q) == want


@pytest.mark.parametrize("a, b", [(3, 1), (2, 2)])
def test_horowitz_parts_when_lift_vanishes_at_zero(a, b):
    """N' core - N E + B lift = num over t^a (t^2 + 4)^b, with N normalised at k0 > 0.

    lift = gcd(den, den') vanishes at 0, so the coefficient fixed to 0 is
    lift's lowest nonzero one, k0, not N(0).  ``_complement`` leaves out
    column k0, and ``_log_parts`` gives the dense solve's B.
    """
    t, s = P([0, 1]), P([4, 0, 1])
    core, lift = t * s, t ** (a - 1) * s ** (b - 1)
    k0 = next(k for k, x in enumerate(lift.ints) if x)
    assert k0 > 0
    rng = random.Random(f"horowitz {a} {b}")
    g = rand_poly(rng, lift.degree - 1)
    inside = ((g.derivative() * lift - g * lift.derivative()) * core).exact_div(lift)
    nums = [rand_poly(rng, lift.degree + core.degree - 1) for _ in range(4)] + [inside, P.zero()]
    e = (lift.derivative() * core).exact_div(lift)
    parts = ref_horowitz_parts(nums, core, lift, e)
    for num, (anti, rest) in zip(nums, parts):
        assert anti.derivative() * core - anti * e + rest * lift == num
        assert anti.coefficient(k0) == 0 and rest.degree < core.degree
    assert parts[-2][1].is_zero and parts[-1] == (P.zero(), P.zero())
    # N / lift is g / lift plus the constant that zeroes N's coefficient k0
    assert parts[-2][0] == g - lift * (g.coefficient(k0) / lift.coefficient(k0))
    _, _, cols = ref_horowitz_columns(core, lift, e)
    assert _complement(core, lift, e) == linalg.nullspace(cols[: lift.degree], core.degree + lift.degree)
    assert _log_parts(nums, core, lift, e) == [b for _, b in parts]


def test_banded_complement_matches_elimination():
    """``_complement`` is ``linalg.nullspace`` of the dense N columns, vector for vector.

    On the ten ``TABLE_POLES`` rows (core(0) != 0: the pivots are
    t^0 .. t^(deg lift - 1)) and on t (t^2 + 4)^b, where core(0) = 0 and
    lift(0) != 0, so column 0 is left out, column k pivots at t^k and t^0
    is no pivot.
    """
    t, s = P([0, 1]), P([4, 0, 1])
    cases = [_core_and_lift(PoleStructure(tuple(QuadraticFactor(*f) for f in poles))) for poles in TABLE_POLES]
    cases += [_split(t * s**b) for b in range(1, 7)]
    for core, lift, e in cases:
        _, _, cols = ref_horowitz_columns(core, lift, e)
        n = core.degree + lift.degree
        want = linalg.nullspace(cols[: lift.degree], n)
        assert _complement(core, lift, e) == want == ref_nullspace(cols[: lift.degree], n)
        assert len(want) == core.degree


def random_factor(rng, chosen):
    """t^2 + b t + c with rational b and c, no real root, not in chosen."""
    while True:
        b = F(rng.randint(-9, 9), rng.randint(1, 6))
        q = QuadraticFactor(b, b * b / 4 + F(rng.randint(1, 40), rng.randint(1, 9)), rng.randint(1, 6))
        if all((q.b, q.c) != (f.b, f.c) for f in chosen):
            return q


@pytest.mark.parametrize("seed", range(3))
def test_closed_form_e_matches_division(seed):
    """``_core_and_lift``: prod Q, prod Q^(M-1) and E = lift' core / lift as canonical pairs.

    E is the closed-form sum over the factors; the reference divides by
    lift.  All-simple poles have lift = 1 and E = 0, and a simple factor
    next to multiple ones adds no term to E.
    """
    rng = random.Random(f"closed-form E:{seed}")
    structures = [FACTORS[:3], FACTORS[1:], [QuadraticFactor(1, 3, 4), FACTORS[2], FACTORS[3]]]
    for _ in range(20):
        chosen = []
        for _ in range(rng.randint(1, 3)):
            chosen.append(random_factor(rng, chosen))
        structures.append(chosen)
    simple = 0
    for chosen in structures:
        poles = PoleStructure(tuple(chosen))
        core, lift, e = _core_and_lift(poles)
        for p in (core, lift, e):
            assert_canonical(p)
        assert core == math.prod((q.poly() for q in chosen), start=P.one())
        assert lift == math.prod((q.poly() ** (q.multiplicity - 1) for q in chosen), start=P.one())
        assert core * lift == poles.alpha()
        assert e == (lift.derivative() * core).exact_div(lift)
        if all(q.multiplicity == 1 for q in chosen):
            simple += 1
            assert lift == P.one() and e.is_zero
    assert simple >= 2


def hodograph_numerators():
    """The numerators mu w_c of a kernel combination over (0,4)^6 (1,3)^4, and (core, lift, E)."""
    poles = PoleStructure((QuadraticFactor(0, 4, 6), QuadraticFactor(1, 3, 4)))
    problem = SynthesisProblem(generator_deg3(), poles)
    space = build_residue_system(problem)
    mu = space.combination([k + 1 for k in range(space.dimension)])
    return [mu * wc for wc in problem.hodograph_dir], _core_and_lift(poles)


@pytest.mark.parametrize("coefficient", ["top", "t^1"])
def test_horowitz_rejects_an_antiderivative_off_by_one(monkeypatch, coefficient):
    """The integer check of ``_horowitz`` sees one wrong coefficient of the last N.

    ``_substitute`` returns the last N off by one in its top or its t^1
    coefficient; ``_log_parts`` then finds every B zero, so the error is
    the check's.  The zero numerator integrates to 0, over a lift and over
    all-simple poles (lift = 1, E = 0), where no N column exists.
    """
    nums, (core, lift, e) = hodograph_numerators()
    nums.append(P.zero())
    outs = _horowitz(nums, core, lift, e)
    assert outs[-1] == P.zero() and all(out.degree >= 1 for out in outs[:-1])
    assert _horowitz([P.zero()], *_core_and_lift(PoleStructure(FACTORS[:2]))) == [P.zero()]
    solve = ratfunc._substitute

    def off_by_one(*args):
        *antis, anti = solve(*args)
        k = anti.degree if coefficient == "top" else 1
        return [*antis, P([c + (i == k) for i, c in enumerate(anti.coeffs)])]

    monkeypatch.setattr(ratfunc, "_substitute", off_by_one)
    with pytest.raises(AssertionError, match="antiderivative verification failed"):
        _horowitz(nums[:-1], core, lift, e)


def dense_solve_cases(seed):
    """(core, lift, E, inside, outside) on pole structures of one to three factors.

    Rational b and c and multiplicities 1-10, all-simple structures
    (lift = 1, E = 0) among them, with ``hermite_case``'s numerators: zero,
    and Fraction-coefficient exact derivatives and non-derivatives.
    """
    rng = random.Random(f"substitution:{seed}")
    structures = [FACTORS[:2], [FACTORS[3]], [QuadraticFactor(1, 3, 10), FACTORS[2]]]
    while len(structures) < 12:
        chosen = []
        for _ in range(rng.randint(1, 3)):
            q = random_factor(rng, chosen)
            chosen.append(QuadraticFactor(q.b, q.c, rng.randint(1, 10)))
        structures.append(chosen)
    for chosen in structures:
        _, inside, outside = hermite_case(rng, chosen, [q.multiplicity for q in chosen])
        yield *_core_and_lift(PoleStructure(tuple(chosen))), inside, outside


@pytest.mark.parametrize("seed", range(3))
def test_substitution_matches_dense_solve(seed):
    """``_substitute`` gives the N of ``ref_horowitz_parts`` for every exact derivative.

    On ``dense_solve_cases``, ``_horowitz`` returns the same N for the
    derivatives, and for the others raises RationalityError whose
    remainders are the dense solve's nonzero B.
    """
    for core, lift, e, inside, outside in dense_solve_cases(seed):
        antis = _substitute(inside, core, lift.degree, e)
        parts = ref_horowitz_parts(inside, core, lift, e)
        assert all(b.is_zero for _, b in parts) and antis[0] == P.zero()
        assert antis == [anti for anti, _ in parts] == _horowitz(inside, core, lift, e)
        want = [(core, b) for _, b in ref_horowitz_parts(outside, core, lift, e) if not b.is_zero]
        assert want
        with pytest.raises(RationalityError) as err:
            _horowitz(outside, core, lift, e)
        assert list(err.value.remainders) == want


@pytest.mark.parametrize("seed", range(3))
def test_complement_and_log_parts_match_dense_solve(seed):
    """``_complement`` and ``_log_parts`` against the whole square system.

    On ``dense_solve_cases``, the complement is ``linalg.nullspace`` of the
    dense system's N columns, vector for vector, so the residue rows built
    from it are those of the N columns, and not only their kernel; the log
    parts are the dense solve's B, zero for every exact derivative.
    """
    for core, lift, e, inside, outside in dense_solve_cases(seed):
        _, _, cols = ref_horowitz_columns(core, lift, e)
        want = linalg.nullspace(cols[: lift.degree], core.degree + lift.degree)
        assert _complement(core, lift, e) == want and len(want) == core.degree
        nums = inside + outside
        bs = _log_parts(nums, core, lift, e)
        assert bs == [b for _, b in ref_horowitz_parts(nums, core, lift, e)]
        assert all(b.is_zero for b in bs[: len(inside)]) and not all(b.is_zero for b in bs[len(inside) :])


def perturbed(rng, p):
    """p with one integer coefficient, up to one past the top, moved by +-1 or +-2^j, j <= 300."""
    ints = list(p.ints) + [0]
    step = 1 if rng.random() < 0.5 else 2 ** rng.randint(1, 300)
    ints[rng.randrange(len(ints))] += rng.choice((1, -1)) * step
    return _canonical(ints, p.den)


def assert_check_matches_oracle(rng, antis, nums, core, e, want):
    """``_integrates`` and ``ref_integrates`` agree on (antis, nums) and on perturbed copies.

    want is the oracle's verdict on the pair itself.  Each copy moves one
    coefficient of one N or one numerator; the last ones add t - 2^j, which
    vanishes at 2^j, to a numerator, for random j up to 300.
    """
    assert _integrates(antis, nums, core, e) == ref_integrates(antis, nums, core, e) == want
    for _ in range(6):
        i = rng.randrange(len(nums))
        moved = [list(antis), list(nums)]
        side = rng.randrange(2)
        moved[side][i] = perturbed(rng, moved[side][i])
        assert _integrates(*moved, core, e) == ref_integrates(*moved, core, e)
    i = rng.randrange(len(nums))
    for j in rng.sample(range(1, 301), 6):
        shifted = list(nums)
        ints = list(nums[i].ints) + [0, 0]
        ints[0] -= 2**j
        ints[1] += 1
        shifted[i] = _canonical(ints, nums[i].den)
        assert _integrates(antis, shifted, core, e) is ref_integrates(antis, shifted, core, e) is False


@pytest.mark.parametrize("seed", range(3))
def test_integrates_matches_coefficient_check_on_dense_solve_cases(seed):
    """The one-point check of ``_integrates`` against ``ref_integrates``, the coefficient-wise one.

    On ``dense_solve_cases``: True on the antiderivatives of the exact
    derivatives, False on the substitution's answers for the others, and
    equal to the oracle on perturbed copies of both.
    """
    rng = random.Random(f"one-point check:{seed}")
    for core, lift, e, inside, outside in dense_solve_cases(seed):
        assert_check_matches_oracle(rng, _substitute(inside, core, lift.degree, e), inside, core, e, True)
        assert_check_matches_oracle(rng, _substitute(outside, core, lift.degree, e), outside, core, e, False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integrates_matches_coefficient_check_on_exact_batch(monkeypatch, tmp_path, seed):
    """The same on every integration of one ``exact-batch`` pass (perfbench's workload) at seeds 1-3."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    calls, horowitz = [], synthesis._horowitz

    def recorded(nums, core, lift, e):
        antis = horowitz(nums, core, lift, e)
        calls.append((antis, nums, core, e))
        return antis

    monkeypatch.setattr(synthesis, "_horowitz", recorded)
    batch = workloads.ExactBatch(tmp_path)
    batch.setup(seed)
    for key in batch.keys:
        batch.run(key)
    assert len(calls) > 40
    rng = random.Random(f"exact-batch check:{seed}")
    for antis, nums, core, e in calls:
        assert_check_matches_oracle(rng, antis, nums, core, e, True)


def fraction_generator():
    """The reference generator scaled by 2/3: Fraction coefficients."""
    return QP([c * F(2, 3) for c in generator_deg3().coeffs])


# t + 2i is not i-reduced: A i A* = (t^2 + 4) i has zero j and k components
SPAN_1_I = QP([Quaternion.of(0, 2), Quaternion.of(1)])
RESIDUE_POLES = [
    ((0, 4, 6),),
    ((F(1, 2), F(3, 4), 6),),
    ((0, 4, 4), (F(1, 2), F(3, 4), 3)),
    ((1, 3, 3), (F(-2, 3), F(5, 6), 3)),
    ((F(1, 2), F(3, 4), 3), (F(-2, 3), F(5, 6), 2), (0, 4, 2)),
    ((1, 3, 1), (F(-2, 3), F(5, 6), 4)),
]


@pytest.mark.parametrize("poles", RESIDUE_POLES)
def test_residue_rows_match_reference(poles):
    structure = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in poles))
    rng = random.Random(str(poles))
    generators = [generator_deg3(), fraction_generator(), SPAN_1_I]
    while len(generators) < 5:
        a = random_quaternion_poly(rng)
        if a is not None and a.degree <= 3:
            generators.append(a)
    for a in generators:
        problem = SynthesisProblem(a, structure)
        space = build_residue_system(problem)
        rows, want = space.constraint_matrix, ref_residue_rows(problem)
        assert len(rows) == len(want) - 3 == 6 * len(poles) - 3
        assert all(space.contains(b) for b in space.basis)
        # the rows are not per-factor residues, but they span the residue rows' space
        rank = len(ref_rref(want)[1])
        assert len(ref_rref(rows)[1]) == len(ref_rref(list(rows) + want)[1]) == rank
        assert [b.ints for b in space.basis] == [P(v).ints for v in ref_nullspace(want)]


@pytest.mark.parametrize("poles", RESIDUE_POLES)
def test_contains_matches_residue_oracle(poles):
    """``contains`` against ``residue_at`` at every factor, for every component.

    The numerators are kernel combinations, random ones of degree <= m,
    and, for each reference row, a kernel vector of all the other reference
    rows that this row rejects.  None exists for an r0 row: the residue
    theorem makes the real parts sum to zero over the factors, and the
    real part is r0 - (b/2) r1, so the other rows imply it.
    """
    structure = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in poles))
    rng = random.Random(f"contains {poles}")
    answers = set()
    for a in (generator_deg3(), fraction_generator(), SPAN_1_I):
        problem = SynthesisProblem(a, structure)
        space, want, n = build_residue_system(problem), ref_residue_rows(problem), problem.m + 1
        mus = [rand_poly(rng, rng.randint(0, problem.m)) for _ in range(3)]
        if space.basis:
            mus += [space.combination([rand_coeff(rng, True) for _ in space.basis]) for _ in range(2)]
        for i, row in enumerate(want):
            others = want[:i] + want[i + 1 :]
            rejected = [v for v in ref_nullspace(others, n) if sum(map(mul, row, v))]
            assert not (rejected and i % 2 == 0)
            mus += [P(v) for v in rejected[:1]]
        for mu in mus:
            vanish = residues_vanish(problem, mu)
            assert space.contains(mu) == vanish
            answers.add(vanish)
    assert answers == {True, False}


@pytest.mark.parametrize("poles", TABLE_POLES)
def test_kept_residue_rows_have_full_rank(poles):
    structure = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in poles))
    space = build_residue_system(SynthesisProblem(generator_deg3(), structure))
    assert len(space.constraint_matrix) == 6 * len(poles) - 3 == space.problem.m + 1 - space.dimension


def hermite_case(rng, chosen, multiplicities):
    """Factors (s, k) and numerators over prod s^k: zero, three inside the kernel, three outside.

    An inside numerator is (g / D)' prod s^k for a random g with
    deg g < deg D, D = prod s^(k-1), so it has a rational antiderivative;
    an outside one adds a random numerator of degree below deg prod s, a
    log/arctan term over every factor.
    """
    factors = [(q.poly(), k) for q, k in zip(chosen, multiplicities)]
    den = core = P.one()
    for s, k in factors:
        den, core = den * s ** (k - 1), core * s
    inside = [P.zero()]
    for _ in range(3):
        g = rand_poly(rng, den.degree - 1) if den.degree else P.zero()
        inside.append(((g.derivative() * den - g * den.derivative()) * core).exact_div(den))
    outside = [n + rand_poly(rng, rng.randint(0, core.degree - 1)) for n in inside[1:]]
    return factors, inside, outside


@pytest.mark.parametrize("seed", range(3))
def test_hermite_matches_reference(seed):
    rng = random.Random(f"hermite:{seed}")
    cases = [([q], [k]) for q in FACTORS for k in (1, 10)] if seed == 0 else []
    for _ in range(8):
        chosen = rng.sample(FACTORS, rng.randint(1, 3))
        cases.append((chosen, [rng.randint(1, 10) for _ in chosen]))
    for chosen, multiplicities in cases:
        factors, inside, outside = hermite_case(rng, chosen, multiplicities)
        core = math.prod((s for s, _ in factors), start=P.one())
        den, want = ref_hermite_reduce(inside, factors)
        e = (den.derivative() * core).exact_div(den)
        assert _horowitz(inside, core, den, e) == [n - den * (n(0) / den(0)) for n in want]
        with pytest.raises(RationalityError) as ours:
            _horowitz(outside, core, den, e)
        with pytest.raises(RationalityError) as ref:
            ref_hermite_reduce(outside, factors)
        # the oracle reports one (s, r) pair per factor and numerator, factor by
        # factor; the log part is unique, so B / core is the sum of r / s
        assert len(ref.value.remainders) == len(factors) * len(outside)
        assert len(ours.value.remainders) == len(outside)
        for n, (s, b) in enumerate(ours.value.remainders):
            parts = ref.value.remainders[n :: len(outside)]
            assert s == core
            assert RF(b, core) == sum((RF(r, q) for q, r in parts), RF.zero())


def rows_of_rank(rng, rank, ncols):
    """Shuffled integer rows spanning a space of dimension exactly ``rank``.

    An echelon block with leading entries of either sign, integer
    combinations of it, and a zero row.
    """
    echelon = []
    for c in sorted(rng.sample(range(ncols), rank)):
        lead = rng.choice((-1, 1)) * rng.randint(1, 9)
        echelon.append([0] * c + [lead] + [rng.randint(-9, 9) for _ in range(ncols - c - 1)])
    combos = []
    for _ in range(rng.randint(0, 3)):
        weights = [rng.randint(-2, 2) for _ in echelon]
        combos.append([sum(w * v[k] for w, v in zip(weights, echelon)) for k in range(ncols)])
    rows = echelon + combos + [[0] * ncols]
    rng.shuffle(rows)
    return rows


def banded_rows(rng):
    """A square nonsingular system [A | b_1 .. b_r] shaped like ``_horowitz``'s.

    A's first columns are k t^(k-1) core - t^k E, k = 1..delta, and its
    last ones the shifted copies t^k lift, k < deg core; the 1-3 trailing
    columns are the right-hand sides.
    """
    while True:
        delta, dcore = rng.randint(1, 6), rng.randint(1, 4)
        n = delta + dcore
        core = [rng.randint(-2**20, 2**20) for _ in range(dcore)] + [rng.randint(1, 2**20)]
        e = [rng.randint(-2**20, 2**20) for _ in range(dcore)]
        lift = [rng.randint(1, 2**20)] + [rng.randint(-2**20, 2**20) for _ in range(delta)]
        cols = []
        for k in range(1, delta + 1):
            col = [0] * n
            for i, x in enumerate(core, k - 1):
                col[i] = k * x
            for i, x in enumerate(e, k):
                col[i] -= x
            cols.append(col)
        cols.extend([0] * k + lift + [0] * (dcore - 1 - k) for k in range(dcore))
        rhs = rng.randint(1, 3)
        cols.extend([rng.randint(-2**30, 2**30) for _ in range(n)] for _ in range(rhs))
        rows = [list(r) for r in zip(*cols)]
        if len(ref_nullspace(rows)) == rhs:
            return rows, n + rhs


def residue_like_rows(rng):
    """6-12 rows of up to 256-bit entries, of rank below the row count.

    Each row is an integer combination of the same few independent wide
    rows, so the system is tall and rank-deficient, as a residue system is.
    """
    nrows, ncols = 2 * rng.randint(3, 6), rng.randint(3, 13)
    rank = rng.randint(1, min(nrows - 1, ncols))
    base = [[rng.randint(-2**256, 2**256) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        weights = [rng.randint(-3, 3) for _ in base]
        rows.append([sum(w * v[k] for w, v in zip(weights, base)) for k in range(ncols)])
    return rows, ncols


def swap_rows(rng):
    """A zero first column, and a first row that is 0 in the first pivot column."""
    ncols = rng.randint(3, 8)
    rows = [[0] + row for row in rows_of_rank(rng, rng.randint(1, ncols - 1), ncols - 1)]
    lead = min(next(c for c, x in enumerate(row) if x) for row in rows if any(row))
    rows.sort(key=lambda row: row[lead] != 0)
    return rows, ncols


@pytest.mark.parametrize("seed", range(3))
def test_nullspace_matches_reference(seed):
    rng = random.Random(f"nullspace:{seed}")
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rank = rng.randint(0, min(ncols, 6))
        rows = rows_of_rank(rng, rank, ncols)
        kernel = linalg.nullspace(rows, ncols)
        assert kernel == ref_nullspace(rows, ncols)
        assert len(kernel) == ncols - rank
    for make in (banded_rows, residue_like_rows, swap_rows):
        for _ in range(10):
            rows, ncols = make(rng)
            assert linalg.nullspace(rows, ncols) == ref_nullspace(rows, ncols)
    assert linalg.nullspace([], 3) == ref_nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace([[0, 0, 2, 1], [0, 3, 1, 0]], 4) == [[1, 0, 0, 0], [0, 1, -3, 6]]


def test_nullspace_matches_reference_on_pinned_problems(monkeypatch):
    """Every elimination and every complement behind the pinned exact digest, against the oracle.

    The digest builds 15 residue systems: the fixture's and those of the
    first 14 random problems, 4 of which have an empty kernel.  Each makes
    one elimination, its kernel, and one banded complement, which must be
    the elimination of the dense N columns; integration makes none.
    """
    calls, nullspace = [], linalg.nullspace
    complements, complement = [], synthesis._complement

    def recorded(rows, ncols):
        calls.append(([list(row) for row in rows], ncols))
        return nullspace(rows, ncols)

    def recorded_complement(core, lift, e):
        complements.append((core, lift, e))
        return complement(core, lift, e)

    monkeypatch.setattr(linalg, "nullspace", recorded)
    monkeypatch.setattr(synthesis, "_complement", recorded_complement)
    assert exact_output_digest() == PINNED_SHA256
    assert len(calls) == len(complements) == 15
    for rows, ncols in calls:
        assert nullspace(rows, ncols) == ref_nullspace(rows, ncols)
    for core, lift, e in complements:
        _, _, cols = ref_horowitz_columns(core, lift, e)
        n = core.degree + lift.degree
        want = nullspace(cols[: lift.degree], n)
        assert complement(core, lift, e) == want == ref_nullspace(cols[: lift.degree], n)


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


def test_canonical_leaves_its_input_unchanged(monkeypatch):
    cases = [([0, 3, 0, 0], 6), ([-4, 2, 0], -2), ([0, 0], 5), ([], 1), ([1, 2], 1), ([6, -9, 0], 3)]
    for ints, den in cases:
        kept = list(ints)
        p = polynomial._canonical(ints, den)
        assert ints == kept
        assert_canonical(p)
        assert p == P([F(x, den) for x in kept])
    # the reference problem's kernel vectors end in zeros; a caller that keeps
    # what linalg.nullspace returned still holds it whole
    returned = []
    nullspace = linalg.nullspace

    def recording(rows, ncols):
        vectors = nullspace(rows, ncols)
        returned.append((vectors, [list(v) for v in vectors]))
        return vectors

    monkeypatch.setattr(linalg, "nullspace", recording)
    build_residue_system(SynthesisProblem(generator_deg3(), poles_single(0, 4, 8)))
    # the one call is the kernel of the residue rows
    ((vectors, copies),) = returned
    assert any(v[-1] == 0 for v in copies)
    assert vectors == copies


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
