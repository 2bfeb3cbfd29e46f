"""Exact outputs pinned by a digest.

The kernel basis, a fixed integer combination mu, the curve's numerators and
denominator and the closure point of ten seeded random problems and of the
(0,4)^6 (1,3)^4 fixture are written out with ``format_rational`` and hashed.
None of these steps uses floats or the SDP, so the digest is the same on
every platform; a change to the exact core that moves any of these values
changes it.
"""

import hashlib

from phforge import (
    PoleStructure,
    QuadraticFactor,
    SynthesisProblem,
    build_residue_system,
    closure_point,
    format_rational,
    synthesize_curve,
)

from helpers import generator_deg3, random_synthesized_problems

PINNED_SHA256 = "454768cf37c237f00de3b4a21edad9cd8319918edb193227cbb1131fb11286dd"


def _lines(space, mu, curve):
    yield "basis"
    for b in space.basis:
        yield " ".join(format_rational(c) for c in b.coeffs)
    yield "mu " + " ".join(format_rational(c) for c in mu.coeffs)
    for n in curve.nums:
        yield "num " + " ".join(format_rational(c) for c in n.coeffs)
    yield "den " + " ".join(format_rational(c) for c in curve.den.coeffs)
    yield "closure " + " ".join(format_rational(c) for c in closure_point(curve))


def _fixture():
    poles = PoleStructure((QuadraticFactor(0, 4, 6), QuadraticFactor(1, 3, 4)))
    problem = SynthesisProblem(generator_deg3(), poles)
    space = build_residue_system(problem)
    mu = space.combination([(-1) ** k * (k + 1) for k in range(space.dimension)])
    return space, mu, synthesize_curve(problem, mu)


def exact_output_digest() -> str:
    cases = [(space, mu, curve) for _, space, mu, curve in random_synthesized_problems(10)]
    cases.append(_fixture())
    text = "\n".join(line for case in cases for line in _lines(*case))
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_outputs_match_pinned_digest():
    assert exact_output_digest() == PINNED_SHA256
