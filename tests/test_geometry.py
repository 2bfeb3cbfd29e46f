import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from phforge import (
    NonPythagoreanError,
    Polynomial as P,
    Quaternion,
    QuaternionPolynomial as QP,
    RationalCurve,
    RationalFunction as RF,
    SynthesisProblem,
    build_residue_system,
    closure_point,
    convex_hull_contains_origin,
    sample_motion,
    speed_function,
    synthesize_curve,
    tangent_indicatrix,
)
from phforge.geometry import angle_parameters, parameter_of_angle
from phforge.polynomial import two_chart_quotients
from phforge.quaternion import QJ, QONE

from helpers import (
    MU0,
    circle_curve,
    example1_curve,
    generator_deg3,
    poles_single,
    ref_closure_integral,
    ref_curve_from_components,
    ref_pose,
    ref_reparameterize,
)


def reference_curve():
    prob = SynthesisProblem(generator_deg3(), poles_single(0, 4, 6))
    return prob, synthesize_curve(prob, MU0)


class TestTangentIndicatrix:
    def test_reference_generator_components(self):
        T = tangent_indicatrix(generator_deg3())
        assert T.nums[0] == P([-1, 0, 7, 0, -7, 0, 1])
        assert T.nums[1] == P([0, 2, 0, -12, 0, 2])
        assert T.nums[2] == P([0, 4, 0, 0, 0, -4])
        assert T.den == P([1, 0, 1]) ** 3
        assert T.homogeneous_degree == 6

    def test_constant_generator(self):
        T = tangent_indicatrix(QP([QONE]))
        assert T.nums[0] == P([1]) and T.nums[1].is_zero and T.nums[2].is_zero

    def test_unit_norm_identity_random(self):
        rng = random.Random(21)
        for _ in range(15):
            coeffs = [
                Quaternion.of(*(rng.randint(-2, 2) for _ in range(4)))
                for _ in range(rng.randint(1, 4))
            ]
            a = QP(coeffs)
            if a.is_zero:
                continue
            T = tangent_indicatrix(a)
            total = P([0])
            for n in T.nums:
                total = total + n * n
            assert total == T.den * T.den

    def test_unit_length_at_samples_including_infinity(self):
        T = tangent_indicatrix(generator_deg3())
        ts = (0.0, 0.5, -3.0, 1e8, math.inf)
        vals = two_chart_quotients(T.nums, T.den, T.homogeneous_degree, ts)
        assert np.abs(np.linalg.norm(vals, axis=0) - 1.0).max() < 1e-12


class TestSpeedFunction:
    def test_printed_reference_speed(self):
        L = speed_function(example1_curve())
        assert L == RF(P([2, 0, 2, 0, 2]), P([1, 0, 1]) ** 2)

    def test_unit_circle_constant_speed(self):
        assert speed_function(circle_curve()) == RF(P([1]))

    def test_constant_curve_zero_speed(self):
        curve = RationalCurve((P([1]), P([2]), P([3])), P([1]))
        assert speed_function(curve).is_zero

    def test_non_ph_rejected(self):
        curve = ref_curve_from_components(
            RF(P([1]), P([1, 0, 1])), RF(P([0, 0, 1]), P([1, 0, 1])), RF(P([0]))
        )
        with pytest.raises(NonPythagoreanError):
            speed_function(curve)

    def test_reparameterized_curve_stays_ph(self):
        _, curve = reference_curve()
        rng = random.Random(22)
        for _ in range(3):
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            comps = [ref_reparameterize(RF(n, curve.den), a, b, c, d) for n in curve.nums]
            moved = ref_curve_from_components(*comps)
            speed_function(moved)  # must not raise


class TestConvexHull:
    def test_reference_indicatrix_contains_origin(self):
        cert = convex_hull_contains_origin(tangent_indicatrix(generator_deg3()), 256)
        assert cert.status is True
        assert cert.residual < 1e-6
        assert all(w >= 0 for w in cert.weights)
        assert abs(sum(cert.weights) - 1) < 1e-9

    def test_constant_indicatrix_separated(self):
        cert = convex_hull_contains_origin(tangent_indicatrix(QP([QONE])), 64)
        assert cert.status is False
        assert cert.gap > 0.5
        d = np.array(cert.direction)
        assert np.allclose(d, [1.0, 0.0, 0.0], atol=1e-9)

    def test_great_circle_generator(self):
        # A = t + j sweeps a great circle through +/- i; the hull is a disk
        # through the origin, certified by near-antipodal weights
        cert = convex_hull_contains_origin(tangent_indicatrix(QP([QJ, QONE])), 64)
        assert cert.status is True
        assert cert.residual < 1e-9
        heavy = sorted(
            (w, p) for p, w in zip(cert.parameters, cert.weights) if w > 1e-6
        )
        assert len(heavy) >= 2

    def test_monotone_in_samples(self):
        T = tangent_indicatrix(generator_deg3())
        for n in (256, 512):
            assert convex_hull_contains_origin(T, n).status is True

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            convex_hull_contains_origin(tangent_indicatrix(generator_deg3()), 8)


class TestPoses:
    def test_identity_generator_gives_identity_frame(self):
        curve = circle_curve()
        _, _, frame = ref_pose(QP([QONE]), curve, 0.3)
        assert np.allclose(frame.T, np.eye(3), atol=1e-15)

    def test_tangent_axis_parallel_to_derivative(self):
        prob, curve = reference_curve()
        frame = ref_pose(prob.a_poly, curve, 0.0)[2].T
        assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-12
        # the hodograph (n' den - n den') / den^2 is parallel to its numerator
        den, dden = curve.den, curve.den.derivative()
        hodo = np.array([float((n.derivative() * den - n * dden)(0)) for n in curve.nums])
        hodo /= np.linalg.norm(hodo)
        assert np.linalg.norm(np.cross(frame[:, 0], hodo)) < 1e-12

    def test_limits_agree_at_infinity(self):
        prob, curve = reference_curve()
        plus_position, plus_rotation, _ = ref_pose(prob.a_poly, curve, 1e7)
        minus_position, minus_rotation, _ = ref_pose(prob.a_poly, curve, -1e7)
        assert np.abs(plus_position - minus_position).max() < 1e-6
        qdiff = min(
            np.linalg.norm(plus_rotation - minus_rotation),
            np.linalg.norm(plus_rotation + minus_rotation),
        )
        assert qdiff < 1e-6

    def test_orthonormal_and_special_at_random_samples(self):
        prob, curve = reference_curve()
        rng = np.random.default_rng(5)
        worst = 0.0
        for t in rng.standard_cauchy(1000):
            frame = ref_pose(prob.a_poly, curve, float(t))[2].T
            worst = max(worst, float(np.abs(frame.T @ frame - np.eye(3)).max()))
            assert abs(np.linalg.det(frame) - 1.0) < 1e-12
        assert worst <= 1e-12


class TestSampleMotion:
    def test_quarter_turns_on_circle(self):
        # generator t + j produces the circle family; mu spans the constants
        prob = SynthesisProblem(QP([QJ, QONE]), poles_single(0, 1, 2))
        space = build_residue_system(prob)
        curve = synthesize_curve(prob, space.basis[0])
        motion = sample_motion(prob.a_poly, curve, 4)
        assert math.isinf(motion.parameters[0])
        pos = motion.positions
        center = pos.mean(axis=0)
        radii = np.linalg.norm(pos - center, axis=1)
        assert np.allclose(radii, radii[0], atol=1e-12)
        steps = np.linalg.norm(np.diff(np.vstack([pos, pos[:1]]), axis=0), axis=1)
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_gap_bound_on_reference_curve(self):
        prob, curve = reference_curve()
        pos = sample_motion(prob.a_poly, curve, 256).positions
        gaps = np.linalg.norm(np.diff(np.vstack([pos, pos[:1]]), axis=0), axis=1)
        diag = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
        assert gaps.max() < 0.1 * diag

    def test_quaternion_continuity(self):
        prob, curve = reference_curve()
        rotations = sample_motion(prob.a_poly, curve, 128).rotations
        assert np.all((rotations[:-1] * rotations[1:]).sum(axis=1) > 0)

    def test_minimum_pose_count(self):
        prob, curve = reference_curve()
        with pytest.raises(ValueError):
            sample_motion(prob.a_poly, curve, 1)

    def test_positions_exact_across_chart_boundary(self):
        # angle 0 is t = inf; angles pi/2 and 3pi/2 round to |t| just below 1,
        # so the exact chart edges t = +-1 and their neighbours are added
        prob, curve = reference_curve()
        motion = sample_motion(prob.a_poly, curve, 2048)
        edges = [1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)]
        ts = motion.parameters + edges
        assert math.isinf(ts[0]) and abs(ts[512]) == abs(ts[1536]) == math.nextafter(1.0, 0.0)
        limit = closure_point(curve)
        exact = np.array(
            [
                [float(v) for v in limit] if math.isinf(t)
                else [float(n(F(t)) / curve.den(F(t))) for n in curve.nums]
                for t in ts
            ]
        )
        sampled = np.vstack([motion.positions, curve.eval_floats(edges)])
        err = np.linalg.norm(sampled - exact, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(exact, axis=1))
        rows = zip(motion.parameters, motion.positions, motion.rotations, motion.frames)
        for t, position, rotation, frame in rows:
            single_position, single_rotation, single_frame = ref_pose(prob.a_poly, curve, t)
            assert np.array_equal(single_position, position)
            assert np.array_equal(single_frame, frame)
            assert np.array_equal(single_rotation, rotation) or np.array_equal(
                single_rotation, -rotation
            )

    def test_vanishing_generator_rejected(self):
        # A = t vanishes at t = 0, the parameter of angle pi for even n
        with pytest.raises(ZeroDivisionError):
            sample_motion(QP([Quaternion.of(0), QONE]), circle_curve(), 4)


class TestClosureIntegral:
    def test_reference_curve_closes(self):
        _, curve = reference_curve()
        assert max(abs(v) for v in ref_closure_integral(curve, 1024)) < 1e-8

    def test_circle_closes(self):
        assert max(abs(v) for v in ref_closure_integral(circle_curve(), 256)) < 1e-12


def test_angle_parameters_cover_closure_point_monotonically():
    params = angle_parameters(8)
    assert math.isinf(params[0])
    finite = params[1:]
    assert all(b < a for a, b in zip(finite, finite[1:]))
    assert parameter_of_angle(math.pi) == pytest.approx(0.0)
