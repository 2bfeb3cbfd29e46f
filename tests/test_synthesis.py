from fractions import Fraction as F

import pytest

from phforge import (
    DegreeError,
    PoleStructure,
    Polynomial as P,
    QuadraticFactor,
    Quaternion,
    QuaternionPolynomial as QP,
    RationalCurve,
    RationalFunction as RF,
    RationalityError,
    SynthesisProblem,
    build_residue_system,
    closure_point,
    speed_function,
    sturm_real_root_count,
    synthesize_curve,
    tangent_indicatrix,
)
from phforge.geometry import _HALF_CIRCLE
from helpers import (
    MU0,
    MU2,
    PRINTED_DEN,
    PRINTED_R0,
    PRINTED_R2,
    circle_curve,
    generator_deg3,
    matches_up_to_translation,
    poles_single,
    ref_hermite_reduce,
    ref_rref,
    ref_solve_coefficients,
)


def problem(mult):
    return SynthesisProblem(generator_deg3(), poles_single(0, 4, mult))


def two_factor_problem(a_poly, mult_a, mult_b):
    poles = PoleStructure((QuadraticFactor(0, 4, mult_a), QuadraticFactor(1, 3, mult_b)))
    return SynthesisProblem(a_poly, poles)


# Primitive kernel bases (ascending coefficients), recorded from a
# per-monomial Leibniz-rule residue computation.
KERNEL_DEG3_64_34 = (
    (5975755558416, 9049087612848, 15089408508252, 12001869219960, 10023007226000,
     4696234691879, 2332305660272, 574279986583, 160100129900, 6551319390),
    (6283788617988, 6215557754064, 6557110888431, 3365291673540, 971213725610,
     5696068442, -314237458339, -117024956486, -36111228070, 0, 3275659695),
    (26161715979504, 11402584352112, 2042175004068, -10568266581000, -17448195991040,
     -9518983180229, -6392915813312, -1356796905073, -491718330140, 0, 0, -6551319390),
    (1104468650898984, 1442968077183552, 2153805234315498, 1581611610436680,
     1190808868281115, 521742174524266, 232259103006868, 51745694109062,
     12623987696905, 0, 0, 0, 3275659695),
)
KERNEL_PLANAR_44_33 = (
    (19524568, -25294316, -12302810, -23934473, -9980213, -4522613, -1072668),
    (53555336, -278025220, -140835310, -173294491, -51600295, -10372699, 0, 3218004),
    (353751176, -1713995260, -316159510, -1011029365, -84864157, -121530805, 0, 0,
     -3218004),
)


class TestResidueSystem:
    def test_multiplicity_four_only_trivial(self):
        space = build_residue_system(problem(4))
        assert space.degree == 0
        assert space.dimension == 0

    def test_multiplicity_five_exact_system(self):
        space = build_residue_system(problem(5))
        assert space.degree == 2
        reduced, pivots = ref_rref([list(r) for r in space.constraint_matrix])
        assert pivots == [0, 1]
        # {c0 + (7036/89) c2 = 0, c1 = 0}, i.e. 89 c0 + 7036 c2 = 0 up to scaling
        assert reduced[0][:3] == [F(1), F(0), F(7036, 89)]
        assert reduced[1][:3] == [F(0), F(1), F(0)]
        assert space.dimension == 1
        mu = space.basis[0]
        scaled = mu * (F(-89) / mu.coefficient(2))
        assert scaled == P([7036, 0, -89])

    def test_multiplicity_six_relations(self):
        space = build_residue_system(problem(6))
        assert space.degree == 4
        # the relations c1 = c3 = 0 and c4 = (11/53264) c0 - (189/13316) c2
        # leave exactly the two stated free directions
        assert space.dimension == 2
        assert ref_solve_coefficients(space, {0: F(1), 2: F(0)}) == MU0
        assert ref_solve_coefficients(space, {0: F(0), 2: F(1)}) == MU2
        for mu in space.basis:
            assert mu.coefficient(1) == 0 and mu.coefficient(3) == 0
            assert mu.coefficient(4) == F(11, 53264) * mu.coefficient(0) - F(
                189, 13316
            ) * mu.coefficient(2)

    def test_kernel_growth_with_multiplicity(self):
        dims = [build_residue_system(problem(n)).dimension for n in (4, 5, 6)]
        assert dims == [0, 1, 2]
        assert dims == sorted(dims)

    def test_lower_multiplicity_kernel_embeds_into_higher(self):
        # Q * mu solves the next multiplicity up
        space5 = build_residue_system(problem(5))
        space6 = build_residue_system(problem(6))
        lifted = space5.basis[0] * P([4, 0, 1])
        assert space6.contains(lifted)

    def test_two_factor_kernel_pinned(self):
        prob = two_factor_problem(generator_deg3(), 6, 4)
        space = build_residue_system(prob)
        assert tuple(mu.coeffs for mu in space.basis) == KERNEL_DEG3_64_34
        for mu in space.basis:
            synthesize_curve(prob, mu)  # Hermite reduction: no log terms left

    def test_planar_generator_kernel_pinned(self):
        # A = t^2 + k t + (1 + 2k): A i A* has z component 0, so every entry
        # of those rows is the residue of a function with no pole at all
        a_poly = QP([Quaternion.of(1, 0, 0, 2), Quaternion.of(0, 0, 0, 1), Quaternion.of(1)])
        prob = two_factor_problem(a_poly, 4, 3)
        assert prob.hodograph_dir[2].is_zero
        space = build_residue_system(prob)
        assert space.dimension == 3
        assert tuple(mu.coeffs for mu in space.basis) == KERNEL_PLANAR_44_33
        for mu in space.basis:
            synthesize_curve(prob, mu)

    def test_degree_bookkeeping_rejected(self):
        a_poly, poles = generator_deg3(), poles_single(0, 4, 3)
        with pytest.raises(DegreeError):
            SynthesisProblem(a_poly, poles)
        with pytest.raises(DegreeError):
            SynthesisProblem.from_indicatrix(a_poly, poles, tangent_indicatrix(a_poly))

    def test_indicatrix_gives_the_same_problem(self):
        a_poly, poles = generator_deg3(), poles_single(0, 4, 6)
        problems = [
            SynthesisProblem(a_poly, poles),
            SynthesisProblem.from_indicatrix(a_poly, poles, tangent_indicatrix(a_poly)),
        ]
        built, given = ((p.a_poly, p.poles, p.m, p.alpha, p.hodograph_dir) for p in problems)
        assert built == given


class TestSynthesizeCurve:
    def test_printed_curve_r0(self):
        r0 = synthesize_curve(problem(6), MU0)
        assert matches_up_to_translation(r0, PRINTED_R0, PRINTED_DEN)
        assert r0.den == P([4, 0, 1]) ** 5
        assert RF(r0.nums[0], r0.den).numerator * 798960 == PRINTED_R0[0]

    def test_printed_curve_r2(self):
        r2 = synthesize_curve(problem(6), MU2)
        assert matches_up_to_translation(r2, PRINTED_R2, PRINTED_DEN)
        assert (RF(r2.nums[0], r2.den).numerator * 798960).coefficient(9) == 11340

    def test_zero_numerator_gives_origin(self):
        curve = synthesize_curve(problem(6), P([0]))
        assert all(n.degree <= 0 for n in curve.nums) and curve.den.degree == 0
        assert [n(7) for n in curve.nums] == [0, 0, 0]

    @pytest.mark.parametrize("multiplicities", [(1, 1, 6), (2, 1, 5), (1, 4, 5)])
    def test_three_factors_match_the_hermite_oracle(self, multiplicities):
        # simple and multiple poles over non-integer b, c: every row of the
        # integration system is scaled to integers, and mu = 0 is the origin
        bcs = ((F(1, 2), F(3, 4)), (F(-2, 3), F(5, 6)), (0, 4))
        poles = PoleStructure(tuple(QuadraticFactor(b, c, k) for (b, c), k in zip(bcs, multiplicities)))
        prob = SynthesisProblem(generator_deg3(), poles)
        basis = build_residue_system(prob).basis
        assert basis
        factors = [(q.poly(), q.multiplicity) for q in poles.factors]
        for mu in (*basis, sum(basis[1:], basis[0] * F(-3, 7))):
            curve = synthesize_curve(prob, mu)
            den, nums = ref_hermite_reduce([mu * wc for wc in prob.hodograph_dir], factors)
            for n, want in zip(curve.nums, nums):
                assert RF(n, curve.den) == RF(want - den * (want(0) / den(0)), den)
        zero = synthesize_curve(prob, P([0]))
        assert zero.nums == (P.zero(),) * 3 and zero.den == P.one()

    def test_nonkernel_numerator_raises(self):
        two_factor = two_factor_problem(generator_deg3(), 6, 4)
        for prob, mu in ((problem(6), P([1])), (two_factor, P([1, 0, 1]))):
            assert not build_residue_system(prob).contains(mu)
            with pytest.raises(RationalityError) as err:
                synthesize_curve(prob, mu)
            assert err.value.remainders

    def test_speed_closed_form(self):
        # |r'| (1+t^2)/2 = mu |A|^2 / alpha (1+t^2)/2 for mu > 0: one pole factor,
        # and two factors with mu off the single-factor subspace MU0 (t^2+t+3)^4
        prob2 = two_factor_problem(generator_deg3(), 6, 4)
        mu2 = MU0 * P([3, 1, 1]) ** 4 + build_residue_system(prob2).basis[0] * F(1, 10**10)
        for prob, mu in ((problem(6), MU0), (prob2, mu2)):
            assert sturm_real_root_count(mu) == 0 and mu.leading() > 0
            curve = synthesize_curve(prob, mu)
            expected = RF(mu * prob.a_poly.norm_poly(), prob.alpha) * RF(_HALF_CIRCLE)
            assert speed_function(curve) == expected
        assert curve.den.degree == 16  # both factors survive in the curve

    def test_linear_in_numerator(self):
        # the weighted average in `synth` integrates one summed numerator
        a, b = F(3, 2), F(-2, 7)
        prob2 = two_factor_problem(generator_deg3(), 6, 4)
        for prob, (mu1, mu2) in (
            (problem(6), (MU0, MU2)),
            (prob2, build_residue_system(prob2).basis[:2]),
        ):
            r1, r2 = synthesize_curve(prob, mu1), synthesize_curve(prob, mu2)
            mixed = synthesize_curve(prob, mu1 * a + mu2 * b)
            for n, n1, n2 in zip(mixed.nums, r1.nums, r2.nums):
                assert RF(n, mixed.den) == RF(n1, r1.den) * a + RF(n2, r2.den) * b

    def test_starts_at_origin(self):
        curve = synthesize_curve(problem(6), MU0)
        assert [n(0) for n in curve.nums] == [0, 0, 0]

    def test_ph_identity_exact(self):
        prob = problem(6)
        curve = synthesize_curve(prob, MU0)
        hx, hy, hz = (RF(n, curve.den).derivative() for n in curve.nums)
        sigma = RF(MU0 * prob.a_poly.norm_poly(), prob.alpha)
        assert hx * hx + hy * hy + hz * hz == sigma * sigma

    def test_tangent_parallel_to_rotated_axis(self):
        prob = problem(6)
        curve = synthesize_curve(prob, MU0)
        wx, wy, wz = (RF(w) for w in prob.hodograph_dir)
        hx, hy, hz = (RF(n, curve.den).derivative() for n in curve.nums)
        assert (hy * wz - hz * wy).is_zero
        assert (hz * wx - hx * wz).is_zero
        assert (hx * wy - hy * wx).is_zero


class TestClosurePoint:
    def test_circle_limit(self):
        assert closure_point(circle_curve()) == (-1, 0, 0)

    def test_synthesized_curve_limits_finite_and_equal(self):
        curve = synthesize_curve(problem(6), MU0)
        limits = closure_point(curve)
        for n, lim in zip(curve.nums, limits):
            comp = RF(n, curve.den)
            gap = comp.denominator.degree - comp.numerator.degree
            assert gap >= 0
            assert abs(comp.eval_floats([float("inf")])[0] - float(lim)) < 1e-15

    def test_constant_curve(self):
        curve = RationalCurve((P([1]), P([2]), P([3])), P([1]))
        assert closure_point(curve) == (1, 2, 3)


def test_polynomial_curve_flagged_constant():
    # with the zero numerator the only polynomial solution is a point
    curve = synthesize_curve(problem(6), P([0]))
    assert all(n.degree <= 0 for n in curve.nums) and curve.den.degree == 0
