import random
from fractions import Fraction as F

import pytest

from phforge import (
    Polynomial as P,
    Quaternion,
    QuaternionPolynomial as QP,
    i_reduce,
    rotate_vector,
)
from phforge.quaternion import QI, QJ, QK, QONE

from helpers import generator_deg3, ref_conjugate, ref_i_reduce, ref_qmul


def norm_sq(q):
    return q.w**2 + q.x**2 + q.y**2 + q.z**2


def rand_quat(rng, span=5):
    return Quaternion.of(*(F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(4)))


def rand_qpoly(rng, max_len=4):
    """Random quaternion polynomial with 0..max_len coefficients: zero and constants included."""
    return QP([rand_quat(rng) for _ in range(rng.randint(0, max_len))])


def test_unit_relations():
    minus_one = Quaternion.of(-1)
    assert QI * QI == minus_one
    assert QJ * QJ == minus_one
    assert QK * QK == minus_one
    assert QI * QJ * QK == minus_one
    assert QI * QJ == QK and QJ * QI == -QK


def test_multiplication_associative_on_random_triples():
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (rand_quat(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_norm_is_multiplicative_exactly():
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_quat(rng), rand_quat(rng)
        assert norm_sq(a * b) == norm_sq(a) * norm_sq(b)


def test_qpoly_product_complex_subalgebra_identity():
    t_plus_i = QP([QI, QONE])
    t_minus_i = QP([-QI, QONE])
    assert t_plus_i * t_minus_i == QP([QONE, Quaternion.of(0), QONE])


def test_qpoly_product_noncommutativity_witness():
    t_plus_j = QP([QJ, QONE])
    t_plus_i = QP([QI, QONE])
    left = t_plus_j * t_plus_i
    assert left == QP([-QK, QI + QJ, QONE])
    assert left != t_plus_i * t_plus_j


def test_conjugate_product_is_real():
    a = generator_deg3()
    prod = a * ref_conjugate(a)
    w, x, y, z = prod.component_polys()
    assert x.is_zero and y.is_zero and z.is_zero
    assert w == P([1, 0, 1]) ** 3
    assert a.norm_poly() == prod.w


def test_product_matches_term_by_term_reference():
    rng = random.Random(9)
    for _ in range(60):
        p, q = rand_qpoly(rng), rand_qpoly(rng)
        assert p * q == ref_qmul(p, q)
        assert q * p == ref_qmul(q, p)
        assert p.norm_poly() == (p * ref_conjugate(p)).w


def test_scalar_products_on_either_side_match_reference():
    rng = random.Random(10)
    for _ in range(30):
        p = rand_qpoly(rng)
        for s in (0, rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 7))):
            c = QP.constant(Quaternion.of(s))
            assert p * s == ref_qmul(p, c)
            assert s * p == ref_qmul(c, p)
        q = rand_quat(rng)
        assert p * q == ref_qmul(p, QP.constant(q))
        assert q * p == ref_qmul(QP.constant(q), p)


def test_constructor_strips_trailing_zero_coefficients():
    zero = Quaternion.of()
    assert QP([QI, QONE, zero, zero]) == QP([QI, QONE])
    assert QP([QI, QONE, zero]).degree == 1
    assert QP([zero, zero]).is_zero and QP([zero]).degree == -1
    assert QP([zero, 0, F(0)]) == QP(())


def test_coeffs_are_fraction_quaternions_equal_to_the_input():
    rng = random.Random(11)
    for _ in range(20):
        cs = [rand_quat(rng) for _ in range(rng.randint(1, 4))] + [QJ]
        a = QP(cs)
        assert a.coeffs == tuple(cs)
        assert all(isinstance(v, F) for c in a.coeffs for v in (c.w, c.x, c.y, c.z))
    # int fields and int scalars come back as Fractions
    b = QP([Quaternion(1, 0, 2, 0), 3])
    assert b.coeffs == (Quaternion.of(1, 0, 2), Quaternion.of(3))
    assert all(isinstance(v, F) for c in b.coeffs for v in (c.w, c.x, c.y, c.z))


def test_component_round_trip_and_hash():
    rng = random.Random(12)
    for _ in range(20):
        a = rand_qpoly(rng)
        b = QP.from_component_polys(*a.component_polys())
        assert b == a and hash(b) == hash(a)
        assert b.coeffs == a.coeffs
    built = QP.from_component_polys(P([0, 1]), P([1]), P([]), P([F(1, 2)]))
    listed = QP([Quaternion.of(0, 1, 0, F(1, 2)), QONE])
    assert built == listed and hash(built) == hash(listed)


def test_float_field_is_rejected():
    with pytest.raises(TypeError):
        QP([Quaternion(1.0, F(0), F(0), F(0))])
    with pytest.raises(TypeError):
        QP([QONE, 2.5])


def test_conjugate_reversal_and_degree_additivity():
    rng = random.Random(3)
    for _ in range(25):
        p = QP([rand_quat(rng) for _ in range(rng.randint(1, 4))])
        q = QP([rand_quat(rng) for _ in range(rng.randint(1, 4))])
        if p.is_zero or q.is_zero:
            continue
        assert ref_conjugate(p * q) == ref_conjugate(q) * ref_conjugate(p)
        # quaternions have no zero divisors, so degrees always add
        assert (p * q).degree == p.degree + q.degree


def test_rotate_vector_identity_rotation():
    assert rotate_vector(QP([QONE]), QI) == QP([QI])


def test_rotate_vector_reference_generator():
    w = rotate_vector(generator_deg3(), QI)
    wx, wy, wz = w.vector_polys()
    assert wx == P([-1, 0, 7, 0, -7, 0, 1])
    assert wy == P([0, 2, 0, -12, 0, 2])
    assert wz == P([0, 4, 0, 0, 0, -4])


def test_rotate_vector_scalar_part_vanishes_and_norm_identity():
    rng = random.Random(4)
    for _ in range(20):
        a = QP([rand_quat(rng) for _ in range(rng.randint(1, 4))])
        if a.is_zero:
            continue
        v = Quaternion.of(0, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        if not v:
            continue
        out = rotate_vector(a, v)
        assert out.w.is_zero
        x, y, z = out.vector_polys()
        norm = a.norm_poly()
        assert x * x + y * y + z * z == norm * norm * norm_sq(v)


def test_rotate_vector_matches_product_form():
    # the closed form against A v A* as two quaternion-polynomial products
    rng = random.Random(11)
    for _ in range(40):
        a = rand_qpoly(rng, 5)
        v = Quaternion.of(0, *(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)))
        assert rotate_vector(a, v) == ref_qmul(ref_qmul(a, QP.constant(v)), ref_conjugate(a))


def test_rotate_vector_rejects_non_pure():
    with pytest.raises(ValueError):
        rotate_vector(QP([QONE]), Quaternion.of(1, 1, 0, 0))


def test_i_reduce_reference_generator_is_reduced():
    reduced, right = i_reduce(generator_deg3())
    assert right.degree == 0
    assert reduced == generator_deg3()
    assert i_reduce(generator_deg3())[1].degree <= 0


def test_i_reduce_constructed_right_factor():
    t_plus_j = QP([QJ, QONE])
    t_plus_i = QP([QI, QONE])
    reduced, right = i_reduce(t_plus_j * t_plus_i)
    assert reduced == t_plus_j
    assert right == t_plus_i


def test_i_reduce_degree_one_case():
    rng = random.Random(5)
    c = rand_quat(rng)
    a = QP([c]) * QP([QI, QONE])
    reduced, right = i_reduce(a)
    assert reduced.degree == 0
    assert right == QP([QI, QONE])


def test_i_reduce_idempotent():
    rng = random.Random(6)
    for _ in range(10):
        a = QP([rand_quat(rng) for _ in range(rng.randint(2, 4))])
        if a.is_zero:
            continue
        reduced, _ = i_reduce(a)
        _, right_again = i_reduce(reduced)
        assert right_again.degree == 0


def test_euler_rodriguez_invariance_under_right_factors():
    # (A R) i (A R)* = (R R*) (A i A*) because R commutes with i
    rng = random.Random(7)
    a = generator_deg3()
    for _ in range(10):
        r_quat = QP([Quaternion.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)])
        if r_quat.is_zero:
            continue
        lhs = rotate_vector(a * r_quat, QI)
        rr = (r_quat * ref_conjugate(r_quat)).w
        base = rotate_vector(a, QI)
        scaled = QP.from_component_polys(
            P([0]), *(w * rr for w in base.vector_polys())
        )
        assert lhs == scaled


def test_i_reduce_recovers_constructed_right_factors():
    rng = random.Random(8)
    for _ in range(40):
        a = QP([rand_quat(rng) for _ in range(rng.randint(1, 4))])
        if a.is_zero:
            continue
        r = QP(
            [Quaternion.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
            + [QONE]
        )
        reduced, right = i_reduce(a * r)
        assert reduced * right == a * r
        assert all(c.y == 0 and c.z == 0 for c in right.coeffs)
        assert right.coeffs[-1] == QONE
        assert right.degree >= r.degree
        assert i_reduce(reduced)[1].degree == 0


# right factors in span{1, i}: t + i, t^2 + 1, (t + i)^2, t + 2i and the constant 2 + i
RIGHT_FACTORS = (
    QP([QI, QONE]),
    QP([QONE, 0, QONE]),
    QP([-QONE, QI * 2, QONE]),
    QP([QI * 2, QONE]),
    QP([Quaternion.of(2, 1)]),
)


def small_generators(rng, count):
    """``count`` integer generators of degree 1 to 4, components in -2..2, leading coefficient nonzero."""
    out = []
    while len(out) < count:
        cs = [Quaternion.of(*(rng.randint(-2, 2) for _ in range(4))) for _ in range(rng.randint(2, 5))]
        if cs[-1]:
            out.append(QP(cs))
    return out


def test_i_reduce_matches_euclid_oracle():
    rng = random.Random(42)
    for a in small_generators(rng, 200):
        for b in (a, *(a * r for r in RIGHT_FACTORS)):
            reduced, right = i_reduce(b)
            assert (reduced, right) == ref_i_reduce(b)
            assert reduced * right == b


@pytest.mark.parametrize(
    "a",
    [
        QP([QJ, QK, QJ * 2]),  # p = 0
        QP([QONE, QI, QONE]) * QP([QI, QONE]),  # q = 0
        QP([QK, QJ]) * QP([QI, QONE]),  # p = 0 with a right factor
        QP([QI * 3]),  # q = 0, constant
    ],
)
def test_i_reduce_with_a_zero_half(a):
    reduced, right = i_reduce(a)
    assert (reduced, right) == ref_i_reduce(a)
    assert reduced * right == a


@pytest.mark.parametrize("left", [QONE, QK])  # QK: the rotation perfbench draws for seed 1
def test_i_reduce_skips_euclid_without_a_right_factor(left, monkeypatch):
    def no_euclid(*args):
        raise AssertionError("_gdivmod called")

    monkeypatch.setattr("phforge.quaternion._gdivmod", no_euclid)
    a = QP([left * c for c in generator_deg3().coeffs])
    assert i_reduce(a) == (a, QP.constant(QONE))
