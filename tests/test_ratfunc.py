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
    mobius_jacobian,
    partial_fractions,
    reparameterize,
    residue_at,
    rotate_vector,
    sturm_real_root_count,
)
from phforge.quaternion import QI

from helpers import generator_deg3


Q_UNIT = QuadraticFactor(0, 1)


class TestResidues:
    def test_simple_pole_inverse_derivative(self):
        # residue of 1/Q at z is 1/Q'(z) = 1/(2z): check 2*theta*res == 1
        res = residue_at(RF(P([1]), P([1, 0, 1])), Q_UNIT)
        theta = ExtensionElement(F(0), F(1), F(0), F(1))
        assert theta * 2 * res == ExtensionElement(F(1), F(0), F(0), F(1))

    def test_even_odd_symmetry(self):
        res = residue_at(RF(P([0, 1]), P([1, 0, 1])), Q_UNIT)
        assert res.r0 == F(1, 2) and res.r1 == 0

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
            lhs = residue_at(f * a + g * b, q)
            rhs = residue_at(f, q) * a + residue_at(g, q) * b
            assert lhs == rhs

    def test_not_a_factor_is_an_error(self):
        with pytest.raises(ValueError):
            residue_at(RF(P([1]), P([2, 0, 1])), Q_UNIT)


class TestHermite:
    def test_direct_differentiation_check(self):
        f = RF(P([0, 2]), P([1, 0, 1]) ** 2)
        g = hermite_antiderivative(f)
        assert g.derivative() == f
        assert g.evaluate(F(0)) == 0
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
            assert back == g - g.evaluate(F(0))
            quot, rem = divmod(back.denominator, q)
            assert rem.is_zero or back.denominator.degree == 0

    def test_polynomial_part_integrates(self):
        f = RF(P([3, 0, 3]), P([1]))
        g = hermite_antiderivative(f)
        assert g == RF(P([0, 3, 0, 1]), P([1]))


class TestSturm:
    def test_reference_numerator_has_two_roots(self):
        assert sturm_real_root_count(P([7036, 0, -89])) == 2

    def test_irreducible(self):
        assert sturm_real_root_count(P([1, 0, 1])) == 0

    def test_feasible_numerator_is_root_free(self):
        # mu rebuilt from the feasible coordinates (-1/100, 1/50, 11/53264)
        mu = P([1, 0, 0, 0, F(11, 53264)])
        assert sturm_real_root_count(mu) == 0

    def test_interval_counts(self):
        p = P([-6, 11, -6, 1])  # roots 1, 2, 3
        assert sturm_real_root_count(p) == 3
        assert sturm_real_root_count(p, 0, F(5, 2)) == 2
        assert sturm_real_root_count(p, 1, 3) == 2  # interval is (lo, hi]
        assert sturm_real_root_count(p, None, F(3, 2)) == 1

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
        assert reparameterize(RF(P([0, 1])), 0, 1, 1, 0) == RF(P([1]), P([0, 1]))

    def test_circle_chart_swap(self):
        x1 = RF(P([1, 0, -1]), P([1, 0, 1]))
        y1 = RF(P([0, 2]), P([1, 0, 1]))
        x2 = reparameterize(x1, 0, 1, 1, 0)
        y2 = reparameterize(y1, 0, 1, 1, 0)
        assert (x2.evaluate(F(0)), y2.evaluate(F(0))) == (-1, 0)

    def test_chain_rule_with_jacobian(self):
        rng = random.Random(14)
        f = RF(P([1, 2, 0, 1]), P([2, 0, 1]) ** 2)
        for _ in range(10):
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            lhs = reparameterize(f, a, b, c, d).derivative()
            rhs = reparameterize(f.derivative(), a, b, c, d) * mobius_jacobian(a, b, c, d)
            assert lhs == rhs

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            reparameterize(RF(P([0, 1])), 1, 2, 2, 4)
        with pytest.raises(ValueError):
            mobius_jacobian(1, 2, 2, 4)

    def test_jacobian_of_inversion(self):
        assert mobius_jacobian(0, 1, 1, 0) == RF(P([-1]), P([0, 0, 1]))


def test_eval_float_unbounded_only_at_infinity():
    f = RF(P([0, 1]))
    assert [f.eval_float(t) for t in (0.5, 2.0, -3.0)] == [0.5, 2.0, -3.0]
    with pytest.raises(OverflowError):
        f.eval_float(float("inf"))


class TestPartialFractions:
    def test_two_factor_split_and_resum(self):
        m1 = P([1, 0, 1]) ** 2
        m2 = P([2, 0, 1])
        f = RF(P([1, 2, 3, 4, 5]), m1 * m2)
        poly, terms = partial_fractions(f, [m1, m2])
        assert len(terms) == 2
        total = RF(poly)
        for term in terms:
            total = total + term
        assert total == f

    def test_single_factor_identity(self):
        m = P([1, 0, 1]) ** 2
        f = RF(P([0, 1]), m)
        poly, terms = partial_fractions(f, [m])
        assert poly.is_zero and terms == [f]

    def test_mismatched_moduli_rejected(self):
        with pytest.raises(ValueError):
            partial_fractions(RF(P([1]), P([1, 0, 1])), [P([2, 0, 1])])


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
        assert poles.degree == 6
        assert sturm_real_root_count(poles.alpha()) == 0
