"""Randomized structural invariants beyond the bulk acceptance suite."""

import random

from phforge import (
    PoleStructure,
    QuadraticFactor,
    RationalFunction as RF,
    SynthesisProblem,
    build_residue_system,
    certify_regular,
    convex_hull_contains_origin,
    speed_function,
    tangent_indicatrix,
)

from helpers import (
    generator_deg3,
    random_quaternion_poly,
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
