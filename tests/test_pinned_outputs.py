"""Exact outputs pinned by a digest.

The kernel basis, a fixed integer combination mu, the curve's numerators and
denominator and the closure point of ten seeded random problems and of the
(0,4)^6 (1,3)^4 fixture are written out with ``format_rational`` and hashed.
The same values of the three-factor (0,4)^6 (1,3)^4 (1,2)^4 fixture, whose
E (``synthesis._core_and_lift``) is a sum of three terms, have a digest of
their own.  None of these steps uses floats or the SDP, so each digest is the
same on every platform; a change to the exact core that moves any of these
values changes it.

A second digest pins what ``synth`` certifies on the six benchmark pole
structures of the reference generator: ``mu`` and the curve's numerators and
denominator.  These pass through the float SDP search, so a change to the
dual path that moves the gated point changes this digest even when the
exact core is untouched.

A third digest pins the residue kernel bases of the ten ROADMAP table rows
on the reference generator: one, two and three pole factors at
multiplicities up to 18, which the random problems do not reach.

On the same problems, the speed that ``synth`` takes from mu equals
``speed_function``'s exactly, up to the sign of mu's leading coefficient.
"""

import hashlib
import json

import pytest

from phforge import (
    PoleStructure,
    QuadraticFactor,
    SynthesisProblem,
    build_residue_system,
    closure_point,
    format_rational,
    synthesize_curve,
)
from phforge.cli import load_bundle, main
from phforge.geometry import _mu_speed, speed_function

from helpers import TABLE_POLES, generator_deg3, mu_speed_matches, random_synthesized_problems

PINNED_SHA256 = "454768cf37c237f00de3b4a21edad9cd8319918edb193227cbb1131fb11286dd"
SYNTH_PINNED_SHA256 = "c9b8c89dc54572802d5a2c0097906dce12f755316c1619d11692c2d21c2227b6"
KERNEL_PINNED_SHA256 = "fbe86567f277df3c82019fcfb9686bb9277b48db75dfb3b26a6b4f9dcbf057ee"
THREE_FACTOR_PINNED_SHA256 = "9ccafb45a0c09554bddd1e390223bf8f7574d87519c77a8a57731fb16356bb4b"
# the synth-fixtures pole structures, (b, c, multiplicity) per factor, and weights
SYNTH_FIXTURES = (
    (((0, 4, 6),), None),
    (((0, 4, 8),), None),
    (((0, 4, 10),), None),
    (((0, 4, 6), (1, 3, 4)), None),
    (((0, 4, 8), (1, 3, 6)), None),
    (((0, 4, 6),), ["1", "2", "1"]),
)


def _lines(space, mu, curve):
    yield "basis"
    for b in space.basis:
        yield " ".join(format_rational(c) for c in b.coeffs)
    yield "mu " + " ".join(format_rational(c) for c in mu.coeffs)
    for n in curve.nums:
        yield "num " + " ".join(format_rational(c) for c in n.coeffs)
    yield "den " + " ".join(format_rational(c) for c in curve.den.coeffs)
    yield "closure " + " ".join(format_rational(c) for c in closure_point(curve))


def _fixture(*factors):
    poles = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in factors))
    problem = SynthesisProblem(generator_deg3(), poles)
    space = build_residue_system(problem)
    mu = space.combination([(-1) ** k * (k + 1) for k in range(space.dimension)])
    return space, mu, synthesize_curve(problem, mu)


def exact_output_digest() -> str:
    cases = [(space, mu, curve) for _, space, mu, curve in random_synthesized_problems(10)]
    cases.append(_fixture((0, 4, 6), (1, 3, 4)))
    text = "\n".join(line for case in cases for line in _lines(*case))
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_outputs_match_pinned_digest():
    assert exact_output_digest() == PINNED_SHA256


def three_factor_digest() -> str:
    text = "\n".join(_lines(*_fixture((0, 4, 6), (1, 3, 4), (1, 2, 4))))
    return hashlib.sha256(text.encode()).hexdigest()


def test_three_factor_outputs_match_pinned_digest():
    assert three_factor_digest() == THREE_FACTOR_PINNED_SHA256


@pytest.fixture(scope="module")
def synth_bundles(tmp_path_factory) -> list:
    """The bundles ``synth`` writes for SYNTH_FIXTURES, in order, as paths."""
    tmp = tmp_path_factory.mktemp("synth")
    paths = []
    for k, (poles, weights) in enumerate(SYNTH_FIXTURES):
        options = {"samples": 64, "seed": 0}
        if weights:
            options["weights"] = weights
        config = {
            "quaternion": [
                [format_rational(v) for v in (q.w, q.x, q.y, q.z)] for q in generator_deg3().coeffs
            ],
            "poles": [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in poles],
            "options": options,
        }
        cfg, out = tmp / f"config{k}.json", tmp / f"bundle{k}.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0, poles
        paths.append(out)
    return paths


def synth_output_digest(paths) -> str:
    lines = []
    for path in paths:
        bundle = json.loads(path.read_text())
        lines.append("mu " + " ".join(bundle["mu"]))
        for n in bundle["curve"]["numerators"]:
            lines.append("num " + " ".join(n))
        lines.append("den " + " ".join(bundle["curve"]["denominator"]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_synth_exact_outputs_match_pinned_digest(synth_bundles):
    assert synth_output_digest(synth_bundles) == SYNTH_PINNED_SHA256


def test_speed_from_mu_matches_speed_function(synth_bundles):
    """``synth``'s speed mu |A|^2 (1 + t^2) / (2 alpha) is ``speed_function``'s reduced form.

    Exactly on the six synth fixtures, whose mu the gate certified
    positive; on the pinned exact problems, whose mu may be negative, up to
    the sign of mu's leading coefficient.
    """
    for path in synth_bundles:
        bundle = load_bundle(str(path))
        speed = _mu_speed(bundle.generator, bundle.config.poles.alpha(), bundle.curve.mu)
        assert speed == speed_function(bundle.curve), path.name
    cases = [(problem, curve) for problem, _, _, curve in random_synthesized_problems(10)]
    for factors in (((0, 4, 6), (1, 3, 4)), ((0, 4, 6), (1, 3, 4), (1, 2, 4))):
        space, _, curve = _fixture(*factors)
        cases.append((space.problem, curve))
    for problem, curve in cases:
        assert mu_speed_matches(problem, curve), problem


def table_kernel_digest() -> str:
    lines = []
    for poles in TABLE_POLES:
        structure = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in poles))
        space = build_residue_system(SynthesisProblem(generator_deg3(), structure))
        lines.append(f"poles {poles}")
        lines.extend(" ".join(format_rational(c) for c in b.coeffs) for b in space.basis)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_table_kernels_match_pinned_digest():
    assert table_kernel_digest() == KERNEL_PINNED_SHA256
