import random
from fractions import Fraction as F

import numpy as np
import pytest

from phforge import (
    ExtensionElement,
    PoleStructure,
    Polynomial as P,
    QuadraticFactor,
    RationalFunction as RF,
    RationalityError,
    hermite_antiderivative,
    residue_at,
    rotate_vector,
    sturm_real_root_count,
)
from phforge.polynomial import poly_sqrt, squarefree_decomposition
from phforge.quaternion import QI
from phforge.ratfunc import _hermite_reduce, _split_coprime

from helpers import (
    RefExtensionElement,
    generator_deg3,
    ref_extension,
    ref_mobius_jacobian,
    ref_reparameterize,
)


Q_UNIT = QuadraticFactor(0, 1)


class TestResidues:
    def test_simple_pole_inverse_derivative(self):
        # residue of 1/Q at z is 1/Q'(z) = 1/(2z): check 2*theta*res == 1
        res = residue_at(RF(P([1]), P([1, 0, 1])), Q_UNIT)
        theta = RefExtensionElement(F(0), F(1), F(0), F(1))
        assert theta * 2 * res == RefExtensionElement(F(1), F(0), F(0), F(1))

    def test_even_odd_symmetry(self):
        res = residue_at(RF(P([0, 1]), P([1, 0, 1])), Q_UNIT)
        assert res.r0 == F(1, 2) and res.r1 == 0

    def test_two_factor_denominator(self):
        # f = N / ((t^2+1)^2 (t^2+4)): the residue at i is d/dt[N / ((t+i)^2 (t^2+4))]
        # at t = i, which gives -i/36 for N = 1 and -1/18 for N = t
        den = P([1, 0, 1]) ** 2 * P([4, 0, 1])
        q = QuadraticFactor(0, 1, 2)
        assert residue_at(RF(P([1]), den), q) == ExtensionElement(F(0), F(-1, 36), F(0), F(1))
        assert residue_at(RF(P([0, 1]), den), q) == ExtensionElement(F(-1, 18), F(0), F(0), F(1))
        # deg f <= -2, so the residues at all four roots sum to zero; the pair
        # at the roots of t^2 + b t + c sums to 2 r0 - b r1
        factors = (QuadraticFactor(1, 3, 3), QuadraticFactor(0, 5, 2))
        den = PoleStructure(factors).alpha()
        rng = random.Random(5)
        for _ in range(5):
            f = RF(P([rng.randint(-9, 9) for _ in range(den.degree - 1)]), den)
            pairs = [residue_at(f, q) for q in factors]
            assert sum(2 * r.r0 - q.b * r.r1 for r, q in zip(pairs, factors)) == 0

    def test_reference_numerator_annihilates_residues(self):
        # mu = -89 t^2 + 7036 makes all hodograph residues vanish at (t^2+4)^5
        w = rotate_vector(generator_deg3(), QI).vector_polys()
        q = QuadraticFactor(0, 4, 5)
        alpha = q.poly() ** 5
        mu = P([7036, 0, -89])
        for wc in w:
            assert residue_at(RF(mu * wc, alpha), q).is_zero

    def test_linearity(self):
        rng = random.Random(11)
        q = QuadraticFactor(1, 3, 2)
        den = q.poly() ** 2 * P([5, 0, 1])
        for _ in range(10):
            f = RF(P([rng.randint(-9, 9) for _ in range(5)]), den)
            g = RF(P([rng.randint(-9, 9) for _ in range(5)]), den)
            a, b = F(rng.randint(1, 5)), F(-rng.randint(1, 5))
            lhs = ref_extension(residue_at(f * a + g * b, q))
            rhs = ref_extension(residue_at(f, q)) * a + ref_extension(residue_at(g, q)) * b
            assert lhs == rhs

    def test_not_a_factor_is_an_error(self):
        with pytest.raises(ValueError):
            residue_at(RF(P([1]), P([2, 0, 1])), Q_UNIT)


class TestHermite:
    def test_direct_differentiation_check(self):
        f = RF(P([0, 2]), P([1, 0, 1]) ** 2)
        g = hermite_antiderivative(f)
        assert g.derivative() == f
        assert g.numerator(0) == 0
        # up to the value-at-zero normalization this is -1/(t^2+1)
        assert g - 1 == RF(P([-1]), P([1, 0, 1]))

    def test_log_term_raises(self):
        with pytest.raises(RationalityError):
            hermite_antiderivative(RF(P([1]), P([1, 0, 1])))

    def test_real_roots_rejected(self):
        with pytest.raises(ValueError):
            hermite_antiderivative(RF(P([1]), P([0, 0, 1])))

    def test_denominator_multiplicity_drops(self):
        rng = random.Random(12)
        q = P([2, 2, 1])
        for _ in range(10):
            # f = g' has a rational antiderivative by construction
            g = RF(P([rng.randint(-5, 5) for _ in range(4)]), q ** 3)
            f = g.derivative()
            back = hermite_antiderivative(f)
            assert back.derivative() == f
            assert back == g - g.numerator(0) / g.denominator(0)
            quot, rem = divmod(back.denominator, q)
            assert rem.is_zero or back.denominator.degree == 0

    def test_polynomial_part_integrates(self):
        f = RF(P([3, 0, 3]), P([1]))
        g = hermite_antiderivative(f)
        assert g == RF(P([0, 3, 0, 1]), P([1]))

    def test_quartic_squarefree_part(self):
        # g = N / ((t^2+1)(t^2+4))^3: Yun's decomposition of the denominator of
        # g' is the one quartic (t^2+1)(t^2+4) of multiplicity 4, so the
        # reduction runs on a squarefree factor that is not quadratic
        quartic = P([1, 0, 1]) * P([4, 0, 1])
        rng = random.Random(18)
        for _ in range(4):
            g = RF(P([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)]), quartic**3)
            f = g.derivative()
            assert squarefree_decomposition(f.denominator)[1] == [(quartic, 4)]
            assert hermite_antiderivative(f) == g - g.numerator(0) / g.denominator(0)

    def test_log_term_over_quartic_raises(self):
        # adding h / quartic (deg h < 4) leaves exactly that log/arctan term
        quartic = P([1, 0, 1]) * P([4, 0, 1])
        g = RF(P([3, -1, 0, F(1, 2), 2]), quartic**3)
        h = P([1, 0, F(-2, 3)])
        with pytest.raises(RationalityError) as err:
            hermite_antiderivative(g.derivative() + RF(h, quartic))
        assert err.value.remainders == ((quartic, h),)

    def test_shared_core_matches_per_fraction(self):
        # numerators over (t^2+t+3)^3 (t^2+5)^2: a derivative with both poles,
        # one sharing (t^2+5)^2 with the denominator, and zero
        s1, s2 = P([3, 1, 1]), P([5, 0, 1])
        den = s1**3 * s2**2
        g = P([1, -2, 0, 3, 1])
        d = s1**2 * s2
        h = P([2, 0, -1])
        nums = [
            (g.derivative() * d - g * d.derivative()).exact_div(s1),
            (h.derivative() * s1 - h * s1.derivative() * 2) * s2**2,
            P([]),
        ]
        anti_den, outs = _hermite_reduce(nums, [(s1, 3), (s2, 2)])
        assert anti_den == d
        for n, out in zip(nums, outs):
            anti = RF(out, anti_den)
            assert anti - out(0) / anti_den(0) == hermite_antiderivative(RF(n, den))

    def test_shared_core_reports_remainder_per_factor(self):
        # adding 1/(t^2+t+3) leaves a log/arctan term over that factor only
        s1, s2 = P([3, 1, 1]), P([5, 0, 1])
        with pytest.raises(RationalityError) as err:
            _hermite_reduce([P([]), s1**2 * s2**2], [(s1, 3), (s2, 2)])
        assert [s for s, _ in err.value.remainders] == [s1]


class TestPolySqrt:
    def test_squares_recovered(self):
        for q in (
            P([3, -2, 0, 5]),
            P([F(1, 3), 0, 0, F(-2, 7), F(5, 2)]),
            P([F(-1, 4), 0, F(9, 8)]),
            P([7]),
        ):
            assert poly_sqrt(q * q) == q
        assert poly_sqrt(P([1, 2, -3]) ** 2) == P([-1, -2, 3])
        assert poly_sqrt(P([])) == P([])

    def test_non_squares_rejected(self):
        q = P([3, -2, 0, 5])
        # the top half matches q^2, so only the final check rejects these
        assert poly_sqrt(q * q + 1) is None
        assert poly_sqrt(q * q + P([0, 1])) is None
        assert poly_sqrt(P([0, 0, 0, 1])) is None  # odd degree
        assert poly_sqrt(P([1, 0, 2])) is None  # leading 2 is not a square
        assert poly_sqrt(P([1, 0, -1])) is None


class TestSturm:
    def test_reference_numerator_has_two_roots(self):
        assert sturm_real_root_count(P([7036, 0, -89])) == 2

    def test_irreducible(self):
        assert sturm_real_root_count(P([1, 0, 1])) == 0

    def test_feasible_numerator_is_root_free(self):
        # mu rebuilt from the feasible coordinates (-1/100, 1/50, 11/53264)
        mu = P([1, 0, 0, 0, F(11, 53264)])
        assert sturm_real_root_count(mu) == 0

    def test_multiple_roots_counted_once(self):
        assert sturm_real_root_count(P([1, -2, 1]) * P([1, 0, 1])) == 1

    def test_against_numpy_roots(self):
        rng = random.Random(13)
        for _ in range(100):
            coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 9))]
            if not any(coeffs[1:]) or coeffs[-1] == 0:
                continue
            p = P(coeffs)
            roots = np.roots(list(reversed(p.float_coeffs())))
            reals = {round(r.real, 6) for r in roots if abs(r.imag) < 1e-9}
            assert sturm_real_root_count(p) == len(reals)


class TestReparameterize:
    def test_inversion(self):
        assert ref_reparameterize(RF(P([0, 1])), 0, 1, 1, 0) == RF(P([1]), P([0, 1]))

    def test_circle_chart_swap(self):
        x1 = RF(P([1, 0, -1]), P([1, 0, 1]))
        y1 = RF(P([0, 2]), P([1, 0, 1]))
        x2 = ref_reparameterize(x1, 0, 1, 1, 0)
        y2 = ref_reparameterize(y1, 0, 1, 1, 0)
        assert [f.numerator(0) / f.denominator(0) for f in (x2, y2)] == [-1, 0]

    def test_chain_rule_with_jacobian(self):
        rng = random.Random(14)
        f = RF(P([1, 2, 0, 1]), P([2, 0, 1]) ** 2)
        for _ in range(10):
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            lhs = ref_reparameterize(f, a, b, c, d).derivative()
            rhs = ref_reparameterize(f.derivative(), a, b, c, d) * ref_mobius_jacobian(a, b, c, d)
            assert lhs == rhs

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            ref_reparameterize(RF(P([0, 1])), 1, 2, 2, 4)
        with pytest.raises(ValueError):
            ref_mobius_jacobian(1, 2, 2, 4)

    def test_jacobian_of_inversion(self):
        assert ref_mobius_jacobian(0, 1, 1, 0) == RF(P([-1]), P([0, 0, 1]))


def test_eval_float_unbounded_only_at_infinity():
    f = RF(P([0, 1]))
    assert f.eval_floats([0.5, 2.0, -3.0]).tolist() == [0.5, 2.0, -3.0]
    with pytest.raises(OverflowError):
        f.eval_floats([float("inf")])


class TestPartialFractions:
    def test_two_factor_split_and_resum(self):
        m1 = P([1, 0, 1]) ** 2
        m2 = P([2, 0, 1])
        f = RF(P([1, 2, 3, 4, 5]), m1 * m2)
        [(poly, parts)] = _split_coprime([f.numerator], [m1, m2])
        assert len(parts) == 2
        assert all(a.degree < m.degree for a, m in zip(parts, (m1, m2)))
        total = RF(poly)
        for a, m in zip(parts, (m1, m2)):
            total = total + RF(a, m)
        assert total == f

    def test_single_factor_identity(self):
        m = P([1, 0, 1]) ** 2
        f = RF(P([0, 1]), m)
        [(poly, parts)] = _split_coprime([f.numerator], [m])
        assert poly.is_zero and [RF(a, m) for a in parts] == [f]


class TestQuadraticFactorValidation:
    def test_real_roots_rejected(self):
        with pytest.raises(ValueError):
            QuadraticFactor(0, -1)

    def test_repeated_factor_rejected(self):
        with pytest.raises(ValueError):
            PoleStructure((QuadraticFactor(0, 1, 2), QuadraticFactor(0, 1, 3)))

    def test_alpha_expands(self):
        poles = PoleStructure((QuadraticFactor(0, 1, 2), QuadraticFactor(0, 2, 1)))
        assert poles.alpha() == P([1, 0, 1]) ** 2 * P([2, 0, 1])
        assert poles.alpha().degree == 6
        assert sturm_real_root_count(poles.alpha()) == 0
