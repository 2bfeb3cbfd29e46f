"""Exact checks of phforge outputs, run outside the timed region.

Every check returns a list of error strings; an empty list means the output
passed.  Bundles are read back from their rational strings and checked in
exact arithmetic; exported floats are compared against exact values at a
few parameters.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import phforge
from phforge import Polynomial, QuaternionPolynomial, Quaternion, RationalFunction

EXPORT_SAMPLES = 2048
PROBE_INDICES = (0, 1, 300, 511, 1024, 1400, 1536, 2047)
FLOAT_TOL = 1e-9
FRAME_TOL = 1e-12


def parse_poly(values) -> Polynomial:
    return Polynomial([Fraction(v) for v in values])


def _generator(rows) -> QuaternionPolynomial:
    return QuaternionPolynomial([Quaternion(*(Fraction(v) for v in row)) for row in rows])


def hodograph_directions(a: QuaternionPolynomial):
    """Components of A i A*, the direction field every hodograph must follow."""
    return phforge.rotate_vector(a, Quaternion.of(0, 1)).vector_polys()


def residues_vanish(factors, directions, alpha: Polynomial, mu: Polynomial) -> bool:
    for q in factors:
        for w in directions:
            try:
                if not phforge.residue_at(RationalFunction(mu * w, alpha), q).is_zero:
                    return False
            except ValueError:
                continue  # the pole cancelled entirely
    return True


def coefficient_bits(polys) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for p in polys
        for c in p.coeffs
    )


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_bundle(data: dict) -> list[str]:
    """mu certified positive and in the residue kernel; r' = mu/alpha A i A*."""
    errors = []
    mu = parse_poly(data["mu"])
    alpha = parse_poly(data["alpha"])
    a = _generator(data["generator"]["coefficients"])
    factors = [
        phforge.QuadraticFactor(Fraction(p["b"]), Fraction(p["c"]), p["multiplicity"])
        for p in data["config"]["poles"]
    ]
    if mu.is_zero or mu.leading() <= 0:
        errors.append("mu has no positive leading coefficient")
    elif phforge.sturm_real_root_count(mu) != 0:
        errors.append("mu has a real root")
    directions = hodograph_directions(a)
    if not residues_vanish(factors, directions, alpha, mu):
        errors.append("mu is not in the residue kernel")
    den = parse_poly(data["curve"]["denominator"])
    for k, (num, w) in enumerate(zip(data["curve"]["numerators"], directions)):
        if RationalFunction(parse_poly(num), den).derivative() != RationalFunction(mu * w, alpha):
            errors.append(f"curve component {k}: derivative is not mu/alpha A i A*")
    samples = data["samples"]
    if not _all_finite(v for p in samples["positions"] for v in p):
        errors.append("sampled positions are not finite")
    if not _all_finite(v for pose in samples["poses"] for v in pose["position"]):
        errors.append("sampled poses are not finite")
    return errors


def check_exact_problem(problem, mu, curve) -> list[str]:
    """The PH identity, zero residues and tangency, in exact arithmetic.

    With r = n/d the hodograph is h/d^2, h = n'd - nd', so both identities
    are checked on polynomial numerators, without any gcd.
    """
    errors = []
    d = curve.den
    h = [n.derivative() * d - n * d.derivative() for n in curve.nums]
    sigma = mu * problem.a_poly.norm_poly()
    d4 = (d * d) * (d * d)
    if (h[0] * h[0] + h[1] * h[1] + h[2] * h[2]) * (problem.alpha * problem.alpha) != sigma * sigma * d4:
        errors.append("PH identity fails")
    w = hodograph_directions(problem.a_poly)
    if not residues_vanish(problem.poles.factors, w, problem.alpha, mu):
        errors.append("residues do not vanish")
    if any(not (h[i] * w[j] - h[j] * w[i]).is_zero for i, j in ((1, 2), (2, 0), (0, 1))):
        errors.append("hodograph is not tangent to A i A*")
    return errors


def angle_parameter(j: int, n: int) -> float:
    """Parameter at circle angle 2 pi j / n; j = 0 is the closure point."""
    if j == 0:
        return math.inf
    half = (math.pi - 2.0 * math.pi * j / n) / 2.0
    return math.sin(half) / math.cos(half)


class ExactReference:
    """Exact curve and tangent values of one bundle at probe parameters."""

    def __init__(self, data: dict):
        self.nums = [parse_poly(n) for n in data["curve"]["numerators"]]
        self.den = parse_poly(data["curve"]["denominator"])
        self.directions = hodograph_directions(_generator(data["generator"]["coefficients"]))
        # curve size, so the tolerance is relative to it
        self.scale = max(
            abs(v) for j in PROBE_INDICES
            for v in self.position(angle_parameter(j, EXPORT_SAMPLES))
        ) or 1.0

    def position(self, t: float):
        if math.isinf(t):
            d = self.den.degree
            return [float(n.coefficient(d) / self.den.leading()) for n in self.nums]
        x = Fraction(t)
        dv = self.den(x)
        return [float(n(x) / dv) for n in self.nums]

    def tangent(self, t: float):
        if math.isinf(t):
            d = max(w.degree for w in self.directions)
            vec = [float(w.coefficient(d)) for w in self.directions]
        else:
            x = Fraction(t)
            vec = [float(w(x)) for w in self.directions]
        norm = math.sqrt(sum(v * v for v in vec))
        return [v / norm for v in vec]

    def position_errors(self, params, positions) -> list[str]:
        if len(positions) != EXPORT_SAMPLES:
            return [f"{len(positions)} positions, expected {EXPORT_SAMPLES}"]
        if not _all_finite(v for p in positions for v in p):
            return ["positions are not finite"]
        errors = []
        for j in PROBE_INDICES:
            want = self.position(params[j])
            if max(abs(g - w) for g, w in zip(positions[j], want)) > FLOAT_TOL * self.scale:
                errors.append(f"position {j} is {positions[j]}, exact value {want}")
        return errors


def _pose_errors(ref: ExactReference, params, rotations, frames) -> list[str]:
    errors = []
    for j, (q, frame) in enumerate(zip(rotations, frames)):
        if abs(sum(v * v for v in q) - 1.0) > FRAME_TOL:
            errors.append(f"rotation {j} is not a unit quaternion")
        for a in range(3):
            for b in range(3):
                dot = sum(u * v for u, v in zip(frame[a], frame[b]))
                if abs(dot - (a == b)) > FRAME_TOL:
                    errors.append(f"frame {j} is not orthonormal")
        if errors:
            return errors
    for j in PROBE_INDICES:
        want = ref.tangent(params[j])
        if max(abs(g - w) for g, w in zip(frames[j][0], want)) > FLOAT_TOL:
            errors.append(f"frame {j} tangent {frames[j][0]} is not along r' {want}")
    return errors


def _csv_rows(text: str, width: int):
    lines = text.strip().split("\n")[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    if any(len(r) != width for r in rows):
        raise ValueError(f"csv rows must have {width} fields")
    return rows


def check_export(ref: ExactReference, command: str, fmt: str, text: str) -> list[str]:
    """Exported points match the exact curve; poses are orthonormal and tangent."""
    n = EXPORT_SAMPLES
    grid = [angle_parameter(j, n) for j in range(n)]
    try:
        if command == "sample" and fmt == "json":
            data = json.loads(text)
            params = [math.inf if p == "inf" else p for p in data["parameters"]]
            return ref.position_errors(params, data["positions"])
        if command == "sample" and fmt == "csv":
            return ref.position_errors(grid, _csv_rows(text, 3))
        if command == "sample" and fmt == "obj":
            lines = text.strip().split("\n")
            positions = [[float(v) for v in line.split()[1:]] for line in lines if line.startswith("v ")]
            closing = lines[-1].split()
            if closing != ["l", *map(str, range(1, len(positions) + 1)), "1"]:
                return ["obj polyline does not close over every vertex"]
            return ref.position_errors(grid, positions)
        if command == "sample" and fmt == "svg":
            polygons = re.findall(r'points="([^"]*)"', text)
            if len(polygons) != 2:
                return [f"{len(polygons)} polygons, expected curve and speed plot"]
            for points in polygons:
                coords = [float(v) for pair in points.split() for v in pair.split(",")]
                if len(coords) != 2 * n or not _all_finite(coords):
                    return ["svg polygon has the wrong point count or non-finite points"]
            return []
        if command == "frames" and fmt == "json":
            poses = json.loads(text)
            params = [math.inf if p["parameter"] == "inf" else p["parameter"] for p in poses]
            errors = ref.position_errors(params, [p["position"] for p in poses])
            return errors or _pose_errors(
                ref, params, [p["rotation"] for p in poses], [p["frame"] for p in poses]
            )
        if command == "frames" and fmt == "csv":
            rows = _csv_rows(text, 17)
            params = [r[0] for r in rows]
            errors = ref.position_errors(params, [r[1:4] for r in rows])
            return errors or _pose_errors(
                ref, params, [r[4:8] for r in rows], [[r[8:11], r[11:14], r[14:17]] for r in rows]
            )
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable {command} {fmt} output: {exc!r}"]
    return [f"no check for {command} {fmt}"]
