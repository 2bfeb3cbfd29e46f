"""Randomized structural invariants beyond the bulk acceptance suite."""

import random

import pytest

from phforge import (
    PoleStructure,
    Polynomial as P,
    QuadraticFactor,
    RationalFunction as RF,
    SynthesisProblem,
    build_residue_system,
    certify_regular,
    convex_hull_contains_origin,
    speed_function,
    synthesize_curve,
    tangent_indicatrix,
)
from phforge.ratfunc import _horowitz
from phforge.synthesis import _core_and_lift

from helpers import (
    batch_problems,
    generator_deg3,
    mu_speed_matches,
    random_quaternion_poly,
    ref_curve,
    ref_curve_from_components,
    ref_reparameterize,
)


def test_component_degree_bound(synthesized_problems):
    # bounded curves: numerator degree never exceeds the denominator's, and
    # a full-degree numerator realizes speed-factor degree -2 deg A - 2
    for problem, _space, mu, curve in synthesized_problems:
        for n in curve.nums:
            comp = RF(n, curve.den)
            assert comp.is_zero or comp.numerator.degree <= comp.denominator.degree
        kappa = RF(mu, problem.alpha)
        if mu.degree == problem.m:
            assert kappa.numerator.degree - kappa.denominator.degree == -2 * problem.a_poly.degree - 2


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_factor_reduction_matches_the_validating_constructor(seed):
    """``synthesize_curve``'s curve is ``ref_curve``'s over the same N and lift.

    The oracle reduces by a general gcd and counts real roots exactly; ``synthesize_curve`` divides out known pole factors only.  Each
    problem runs with its kernel mu, where a factor sometimes divides all
    three numerators, and with mu = 0, whose curve is 0 over 1.
    """
    cancelled = 0
    for problem, mu in batch_problems(seed):
        core, lift, e = _core_and_lift(problem.poles)
        for m in (P.zero(), mu):
            nums = _horowitz([m * wc for wc in problem.hodograph_dir], core, lift, e)
            curve, want = synthesize_curve(problem, m), ref_curve(nums, lift, mu=m)
            assert curve == want and curve.mu is m
            if m.is_zero:
                assert curve.den == P.one() and not any(curve.nums)
        cancelled += curve.den.degree < lift.degree
    assert cancelled


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_speed_from_mu_matches_speed_function_on_batch_problems(seed):
    """mu |A|^2 (1 + t^2) / (2 alpha) is ``speed_function``'s reduced form, up to mu's sign."""
    problems = batch_problems(seed)
    assert problems
    for problem, mu in problems:
        assert mu_speed_matches(problem, synthesize_curve(problem, mu)), problem


def test_kernel_members_closed_under_combination(synthesized_problems):
    rng = random.Random(31)
    for problem, space, _mu, _curve in synthesized_problems[:10]:
        a = space.combination([rng.randint(-2, 2) for _ in space.basis])
        b = space.combination([rng.randint(-2, 2) for _ in space.basis])
        assert space.contains(a + b)


def test_mobius_reparameterization_preserves_ph(synthesized_problems):
    rng = random.Random(32)
    for _problem, _space, _mu, curve in synthesized_problems[:6]:
        a, b, c, d = 0, 0, 0, 0
        while a * d - b * c == 0:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        comps = [ref_reparameterize(RF(n, curve.den), a, b, c, d) for n in curve.nums]
        moved = ref_curve_from_components(*comps)
        speed_function(moved)  # raises if the PH property were lost


def test_regular_solutions_imply_hull_not_separated(synthesized_problems):
    # a certified positive numerator gives a bounded regular curve, so the
    # indicatrix hull cannot exclude the origin; random integer kernel
    # combinations are rarely positive, so the reference problem anchors the
    # check
    from helpers import MU0, poles_single

    candidates = [(SynthesisProblem(generator_deg3(), poles_single(0, 4, 6)), MU0)]
    for problem, _space, mu, _curve in synthesized_problems:
        if certify_regular(mu) or certify_regular(mu * -1):
            candidates.append((problem, mu))
    assert candidates
    for problem, _mu in candidates:
        cert = convex_hull_contains_origin(
            tangent_indicatrix(problem.a_poly), samples=128
        )
        assert cert.status is not False


def test_kernel_dimension_nondecreasing_random_generators():
    rng = random.Random(33)
    tried = 0
    for _ in range(20):
        a = random_quaternion_poly(rng, max_degree=2)
        if a is None:
            continue
        base = a.degree + 1
        dims = []
        for extra in range(3):
            poles = PoleStructure((QuadraticFactor(0, 3, base + extra),))
            space = build_residue_system(SynthesisProblem(a, poles))
            dims.append(space.dimension)
        assert dims == sorted(dims)
        tried += 1
        if tried >= 5:
            break
    assert tried >= 5


def test_hull_certificate_monotone_in_samples():
    T = tangent_indicatrix(generator_deg3())
    assert convex_hull_contains_origin(T, 64).status is True
    assert convex_hull_contains_origin(T, 128).status is True
    assert convex_hull_contains_origin(T, 256).status is True
