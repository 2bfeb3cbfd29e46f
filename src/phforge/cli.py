"""Command-line front end: problem ingestion, pipeline, exact/sampled export.

Each ``cmd_*`` function returns the text it outputs; ``main`` alone reads the
input, writes the output (to ``--out`` or stdout) and turns a failure into
one ``error: `` line on stderr and the ``exit_code`` of its error class:
2 empty residue kernel or impossible degree bookkeeping (a negative
numerator degree), 3 no certificate (a failed hull gate, an indeterminate
positivity search, a failed regularity check), 4 parse/usage errors, an
unreadable input, coefficients beyond the float range or underflowing it, a
NaN or infinite sample in a JSON output and an unwritable ``--out`` included.
``check`` and ``synth`` take their options only from the config, so outputs
are deterministic for a fixed config: exact data as rational strings,
sampled data as floats, JSON as one compact line with sorted keys.  ``synth``
writes a ``phforge-bundle-v3`` bundle, whose poses store their rotation
quaternion but not its frame; ``sample`` and ``frames`` read v1, v2 and v3
bundles alike, each of which must hold ``generator`` and ``mu``, and check
each once, at load, against r' = (mu/alpha) A i A* (``load_bundle``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoCertificateError, ParseError, PhforgeError
from .geometry import (
    _mu_speed,
    angle_parameters,
    convex_hull_contains_origin,
    sample_motion,
    speed_function,  # noqa: F401  kept: perfbench's traced run patches this name here
    tangent_indicatrix,
)
from .polynomial import Polynomial
from .positivity import (
    average_solutions,
    build_gram_slice,
    certify_regular,
    sdp_feasible_point,
)
from .quaternion import QI, Quaternion, QuaternionPolynomial, i_reduce, rotate_vector
from .rationals import format_rational, parse_rational
from .ratfunc import PoleStructure, QuadraticFactor, _integrates, sturm_real_root_count
from .synthesis import (
    RationalCurve,
    SynthesisProblem,
    _core_and_lift,
    build_residue_system,
    closure_point,
    synthesize_curve,
)

MARGIN_FLOOR = 1e-8
BUNDLE_SCHEMA = "phforge-bundle-v3"
# v1 also stored samples.count, .angles and .parameters, and v1 and v2 each
# pose's frame, none of which load_bundle reads
READABLE_SCHEMAS = ("phforge-bundle-v1", "phforge-bundle-v2", BUNDLE_SCHEMA)


# -- config ----------------------------------------------------------------


@dataclass(frozen=True)
class ProblemConfig:
    a_poly: QuaternionPolynomial
    poles: PoleStructure
    margin: float = 1e-3
    samples: int = 256
    seed: int = 0
    weights: tuple = (Fraction(1),)
    view: tuple = (1.0, 2.0, 3.0)


def _rational(value, where: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def _quaternion(entry, where: str) -> Quaternion:
    if not isinstance(entry, list) or len(entry) != 4:
        raise ParseError("expected [w,x,y,z]", where)
    return Quaternion(*(_rational(v, f"{where}[{j}]") for j, v in enumerate(entry)))


def _generator(entries, where: str) -> QuaternionPolynomial:
    """A nonzero quaternion polynomial from an array of [w,x,y,z] entries, ascending."""
    if not isinstance(entries, list) or not entries:
        raise ParseError("expected a nonempty array of [w,x,y,z] entries", where)
    a = QuaternionPolynomial([_quaternion(e, f"{where}[{i}]") for i, e in enumerate(entries)])
    if a.is_zero:
        raise ParseError("zero polynomial", where)
    return a


def _is_integer(value) -> bool:
    """An int that is not a bool: JSON true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _float(value) -> float:
    """float(value), refusing JSON true and false, which float() reads as 1 and 0."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _samples(value: int, where: str, minimum: int = 16) -> int:
    if not _is_integer(value) or value < minimum:
        raise ParseError(f"samples must be an integer >= {minimum}", where)
    return value


def parse_config(data) -> ProblemConfig:
    """Validate a config mapping; error messages carry the offending field."""
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    a_poly = _generator(data.get("quaternion"), "quaternion")

    poles_raw = data.get("poles")
    if not isinstance(poles_raw, list) or not poles_raw:
        raise ParseError("expected a nonempty array of {b, c, multiplicity}", "poles")
    factors = []
    for i, entry in enumerate(poles_raw):
        if not isinstance(entry, dict):
            raise ParseError("expected {b, c, multiplicity}", f"poles[{i}]")
        b = _rational(entry.get("b", 0), f"poles[{i}].b")
        c = _rational(entry.get("c"), f"poles[{i}].c") if "c" in entry else None
        if c is None:
            raise ParseError("missing field c", f"poles[{i}].c")
        mult = entry.get("multiplicity", 1)
        if not _is_integer(mult) or mult < 1:
            raise ParseError("multiplicity must be a positive integer", f"poles[{i}].multiplicity")
        try:
            factors.append(QuadraticFactor(b, c, mult))
        except ValueError as exc:
            raise ParseError(str(exc), f"poles[{i}]") from None
    try:
        poles = PoleStructure(tuple(factors))
    except ValueError as exc:
        raise ParseError(str(exc), "poles") from None

    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError("options must be an object", "options")
    options = {}
    if "margin" in opts:
        try:
            margin = _float(opts["margin"])
        except (TypeError, ValueError):
            raise ParseError("margin must be a number", "options.margin") from None
        # an infinite margin would make the relaxation ladder endless
        if not (math.isfinite(margin) and margin > 0):
            raise ParseError("margin must be positive and finite", "options.margin")
        options["margin"] = margin
    if "samples" in opts:
        options["samples"] = _samples(opts["samples"], "options.samples")
    if "seed" in opts:
        if not _is_integer(opts["seed"]):
            raise ParseError("seed must be an integer", "options.seed")
        options["seed"] = opts["seed"]
    if "weights" in opts:
        if not isinstance(opts["weights"], list) or not opts["weights"]:
            raise ParseError("weights must be a nonempty array", "options.weights")
        ws = tuple(_rational(w, f"options.weights[{i}]") for i, w in enumerate(opts["weights"]))
        if any(w <= 0 for w in ws):
            raise ParseError("weights must be positive", "options.weights")
        options["weights"] = ws
    if "view" in opts:
        v = opts["view"]
        if not isinstance(v, list) or len(v) != 3:
            raise ParseError("view must be [x, y, z]", "options.view")
        try:
            options["view"] = view = tuple(_float(c) for c in v)
        except (TypeError, ValueError):
            raise ParseError("view entries must be numbers", "options.view") from None
        if not all(math.isfinite(c) for c in view):
            raise ParseError("view entries must be finite", "options.view")
        if all(c == 0.0 for c in view):
            raise ParseError("view direction must be nonzero", "options.view")
        # the SVG projection divides by the length, whose square must stay a positive float
        if not 0.0 < sum(c * c for c in view) < math.inf:
            raise ParseError("view length overflows or underflows when squared", "options.view")
    return ProblemConfig(a_poly, poles, **options)


def canonical_config(cfg: ProblemConfig) -> dict:
    """Round-trip form: parse(canonical_config(parse(x))) == parse(x)."""
    return {
        "quaternion": _generator_rats(cfg.a_poly),
        "poles": [
            {"b": format_rational(f.b), "c": format_rational(f.c), "multiplicity": f.multiplicity}
            for f in cfg.poles.factors
        ],
        "options": {
            "margin": cfg.margin,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "weights": [format_rational(w) for w in cfg.weights],
            "view": list(cfg.view),
        },
    }


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write --out: {exc}") from None


# -- exact serialization helpers -------------------------------------------


def _poly_to_rats(p: Polynomial) -> list[str]:
    return [format_rational(c) for c in p.coeffs]


def _generator_rats(a: QuaternionPolynomial) -> list[list[str]]:
    return [[format_rational(v) for v in (q.w, q.x, q.y, q.z)] for q in a.coeffs]


def _poly_from_rats(values, where: str) -> Polynomial:
    if not isinstance(values, list):
        raise ParseError("expected an array of rationals", where)
    return Polynomial([_rational(v, f"{where}[{i}]") for i, v in enumerate(values)])


def _finite_or_str(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _json(obj) -> str:
    """obj as one line of compact JSON with sorted keys; NaN and inf raise ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _json_with(obj: dict, key: str, text: str) -> str:
    """``_json(obj)`` with one more member, key: text, where text is JSON already."""
    members = {k: _json(v)[:-1] for k, v in obj.items()}
    members[key] = text
    return "{%s}\n" % ",".join(f"{json.dumps(k)}:{members[k]}" for k in sorted(members))


# -- sampled-float writers ---------------------------------------------------
# Each float is written once, as its repr (as json.dumps writes it), by
# filling a row template; no writer builds a dict or list per sample.


def _rows(template: str, columns) -> list[str]:
    """template % row for each row of columns, one list per column.

    A float array's columns come from one ``.T.tolist()``, which makes each
    value a Python float: under %r numpy 2 writes ``np.float64(...)``.
    """
    return list(map(template.__mod__, zip(*columns)))


def _finite(*arrays) -> None:
    """Raise ParseError at curve unless every value in arrays is finite, as JSON requires."""
    for values in arrays:
        if not np.isfinite(values).all():
            raise ParseError("a sampled value is NaN or infinite", "curve")


def _json_parameters(params) -> list[str]:
    """Each parameter as JSON text: its repr, or "inf" / "-inf" as a string; NaN raises ParseError."""
    return [repr(t) if math.isfinite(t) else f'"{t}"' if math.isinf(t) else _finite(t) for t in params]


# -- check -----------------------------------------------------------------


def _hull_report(cert) -> dict:
    status = {True: True, False: False, None: "indeterminate"}[cert.status]
    report = {"status": status, "residual": cert.residual, "gap": cert.gap}
    if cert.support is not None:
        report["weights"] = [{"parameter": _finite_or_str(t), "weight": w} for t, w in cert.support]
    if cert.direction is not None:
        report["separating_direction"] = list(cert.direction)
    return report


def _hull_test(cfg: ProblemConfig):
    """(reduced, right, T, certificate): the generator's i-reduction, indicatrix and hull test."""
    reduced, right = i_reduce(cfg.a_poly)
    T = tangent_indicatrix(reduced)
    # the indicatrix's coefficients are quadratic in the generator's, and the
    # hull test reads them as floats
    _float_range((*T.nums, T.den), "quaternion")
    try:
        return reduced, right, T, convex_hull_contains_origin(T, samples=cfg.samples)
    except OverflowError:  # the denominator's leading coefficient is 0 as a float
        raise ParseError("coefficients underflow the float range", "quaternion") from None


def cmd_check(cfg: ProblemConfig) -> str:
    _, right, T, cert = _hull_test(cfg)
    report = {
        "i_reduced": right.degree <= 0,
        "right_factor_degree": max(right.degree, 0),
        "hull": _hull_report(cert),
        "indicatrix": {
            "numerators": [_poly_to_rats(n) for n in T.nums],
            "denominator": _poly_to_rats(T.den),
            "homogeneous_degree": T.homogeneous_degree,
        },
    }
    return _json(report)


# -- synth -----------------------------------------------------------------


def _relaxation_margins(margin: float):
    out = [margin]
    while out[-1] / 10.0 >= MARGIN_FLOOR:
        out.append(out[-1] / 10.0)
    return out


def cmd_synth(cfg: ProblemConfig, force: bool) -> str:
    reduced, _, T, hull = _hull_test(cfg)
    if hull.status is not True and not force:
        status = "false" if hull.status is False else "indeterminate"
        raise NoCertificateError(
            f"hull test {status}: no bounded regular solution can exist "
            "(use --force to attempt anyway)"
        )
    problem = SynthesisProblem.from_indicatrix(reduced, cfg.poles, T)
    space = build_residue_system(problem)
    slice_ = build_gram_slice(space)

    rng = random.Random(cfg.seed)
    base = sdp_feasible_point(slice_, _relaxation_margins(cfg.margin))
    if not base.is_feasible:
        bound = "" if base.optimum_bound is None else f", optimum at most {base.optimum_bound:.3e}"
        raise NoCertificateError(
            "no strictly positive numerator found "
            f"(best trace-normalized eigenvalue {base.min_eigenvalue:.3e}{bound})"
        )
    results = [base]
    # additional solutions for weighted averaging: bias the objective, one
    # Gaussian per kernel coordinate, so the dual path lands on different
    # interior points, sized against the base witness's kernel coordinates
    # so the perturbation is a fraction of the margin scale
    x_base = [abs(v) for v in base.witness_x]
    x_ref = sum(x_base) / len(x_base) or 1.0
    for _ in range(len(cfg.weights) - 1):
        for frac in (0.5, 0.05):
            bias = [
                rng.gauss(0.0, 1.0) * frac * base.margin / (xb + x_ref)
                for xb in x_base
            ]
            res = sdp_feasible_point(slice_, base.margin, objective_bias=bias)
            if res.is_feasible:
                break
        results.append(res if res.is_feasible else base)

    mu = average_solutions([r.witness_mu for r in results], cfg.weights)
    # the gate has already certified the base witness by its exact root count
    cert = base.certificate if mu == base.witness_mu else certify_regular(mu)
    if not cert:
        raise NoCertificateError("combined numerator failed the exact regularity certificate")
    curve = synthesize_curve(problem, mu)
    members, samples = _build_bundle(cfg, problem, space, slice_, base, curve, cert, hull)
    return _json_with(members, "samples", samples)


def _build_bundle(cfg, problem, space, slice_, base, curve, cert, hull):
    """The bundle's members but ``samples``, and the ``samples`` member as JSON text."""
    samples, speeds = _bundle_samples(problem.a_poly, problem.alpha, curve, cfg.samples)
    closure = closure_point(curve)
    members = {
        "schema": BUNDLE_SCHEMA,
        "config": canonical_config(cfg),
        "generator": {
            "coefficients": _generator_rats(problem.a_poly),
            "i_reduced": True,
        },
        "alpha": _poly_to_rats(problem.alpha),
        "mu": _poly_to_rats(curve.mu),
        "curve": {
            "numerators": [_poly_to_rats(n) for n in curve.nums],
            "denominator": _poly_to_rats(curve.den),
        },
        "diagnostics": {
            "kernel_dimension": space.dimension,
            "slice_dimension": slice_.slice_dimension,
            "margin_requested": cfg.margin,
            "margin_achieved": base.margin,
            "min_eigenvalue": base.min_eigenvalue,
            "relaxation_log": [
                {"margin": m, "status": s, "min_eigenvalue": lam}
                for m, s, lam in base.relaxation_log
            ],
            "regularity": {
                "regular": cert.regular,
                "real_root_count": cert.real_root_count,
                "leading_coefficient": format_rational(cert.leading_coefficient),
            },
            "closure_point": [format_rational(v) for v in closure],
            "hull": _hull_report(hull),
            "speed_polar_minimum": min(speeds),
            "speed_polar_maximum": max(speeds),
        },
    }
    return members, samples


def _bundle_samples(a: QuaternionPolynomial, alpha: Polynomial, curve: RationalCurve, n: int):
    """The bundle's ``samples`` as JSON text, and its circle-chart speeds as floats.

    n poses of the framing motion: each stores its parameter, position and
    unit rotation quaternion q; its frame is not stored, since column k is
    q e_k q*.  ``positions`` repeats the poses' positions: each row is
    written once and its text used in both places.  The speed is
    ``_mu_speed`` of ``curve.mu``: ``synthesize_curve`` has checked
    r' = (mu/alpha) A i A* exactly and the gate has certified mu > 0.  A NaN
    or inf position, rotation or speed raises ParseError.
    """
    motion = sample_motion(a, curve, n)
    speed = _mu_speed(a, alpha, curve.mu).eval_floats(motion.parameters)
    _finite(motion.positions, motion.rotations, speed)
    positions = _rows("[%r,%r,%r]", motion.positions.T.tolist())
    poses = _rows(
        '{"parameter":%s,"position":%s,"rotation":[%r,%r,%r,%r]}',
        [_json_parameters(motion.parameters), positions, *motion.rotations.T.tolist()],
    )
    speeds = speed.tolist()
    text = '{"poses":[%s],"positions":[%s],"speed":[%s]}' % (
        ",".join(poses),
        ",".join(positions),
        ",".join(map(repr, speeds)),
    )
    return text, speeds


# -- sample / frames --------------------------------------------------------


@dataclass
class Bundle:
    config: ProblemConfig
    curve: RationalCurve
    generator: QuaternionPolynomial


def load_bundle(path: str) -> Bundle:
    """The bundle at path, checked once; ``sample`` and ``frames`` trust it after.

    Each field is parsed and range-checked where it is read.  Then the curve
    must satisfy r' = (mu/alpha) A i A* for the bundle's generator A: mu is
    required and certified positive, alpha is the product of config.poles,
    den divides lift (``synthesis._core_and_lift``), so it has no real root,
    no numerator outgrows den, and each numerator times lift / den passes
    ``ratfunc._integrates``, integration's own exact check.  Each failure
    names its field: ``mu``, ``alpha`` or ``curve``.
    """
    data = _read_json(path, "bundle")
    if not isinstance(data, dict) or data.get("schema") not in READABLE_SCHEMAS:
        *older, newest = READABLE_SCHEMAS
        raise ParseError(f"not a {', '.join(older)} or {newest} file", "schema")
    if not isinstance(data.get("config"), dict):
        raise ParseError("expected an object", "config")
    try:
        cfg = parse_config(data["config"])
    except ParseError as exc:  # name the field inside the bundle, not inside a config file
        raise ParseError(exc.message, f"config.{exc.field}") from None
    curve_raw = data.get("curve")
    if not isinstance(curve_raw, dict):
        raise ParseError("missing curve", "curve")
    nums = curve_raw.get("numerators")
    if not isinstance(nums, list) or len(nums) != 3:
        raise ParseError("expected three numerators", "curve.numerators")
    nums = tuple(_poly_from_rats(n, f"curve.numerators[{i}]") for i, n in enumerate(nums))
    den = _poly_from_rats(curve_raw.get("denominator"), "curve.denominator")
    _float_range((*nums, den), "curve")
    gen_raw = data.get("generator")
    if not isinstance(gen_raw, dict):
        raise ParseError("expected an object", "generator")
    gen = _generator(gen_raw.get("coefficients"), "generator.coefficients")
    _float_range(gen.component_polys(), "generator.coefficients")
    if sturm_real_root_count(gen.norm_poly()):
        raise ParseError("generator vanishes at a real parameter", "generator.coefficients")
    mu = _poly_from_rats(data.get("mu"), "mu")
    if _poly_from_rats(data.get("alpha"), "alpha") != cfg.poles.alpha():
        raise ParseError("not the product of config.poles", "alpha")
    if not certify_regular(mu):
        raise ParseError("not positive at every real parameter", "mu")
    core, lift, e = _core_and_lift(cfg.poles)
    try:
        cofactor = lift.exact_div(den)
    except (ValueError, ZeroDivisionError):
        raise ParseError("the denominator does not divide the poles' lift", "curve") from None
    if any(n.degree > den.degree for n in nums):
        raise ParseError("unbounded component: numerator degree exceeds denominator", "curve")
    hodograph = [mu * w for w in rotate_vector(gen, QI).vector_polys()]
    if not _integrates([n * cofactor for n in nums], hodograph, core, e):
        raise ParseError("r' is not (mu/alpha) A i A* of the generator", "curve")
    return Bundle(cfg, RationalCurve(nums, den, mu), gen)


def _float_range(polys, where: str) -> None:
    """Raise ParseError at where unless every coefficient of polys is within float range."""
    try:
        for p in polys:
            p.float_coeffs()
    except OverflowError:
        raise ParseError("coefficients exceed the float range", where) from None


def _sample_positions(bundle: Bundle, n: int):
    params = angle_parameters(n)
    return params, bundle.curve.eval_floats(params)


def _csv(values: np.ndarray, header: str) -> str:
    """header, then one line per row of a float array, each float written as its repr (inf as inf)."""
    template = ",".join(["%r"] * values.shape[1])
    return "\n".join([header, *_rows(template, values.T.tolist())]) + "\n"


def _obj(positions) -> str:
    """n x 3 positions as OBJ vertices and one closed polyline through them."""
    lines = _rows("v %r %r %r", np.asarray(positions, dtype=float).T.tolist())
    closed = " ".join(map(str, range(1, len(lines) + 1)))
    lines.append(f"l {closed} 1")
    return "\n".join(lines) + "\n"


def _project(positions, view):
    d = np.array(view, dtype=float)
    d = d / np.linalg.norm(d)
    probe = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(probe, d)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    # row-major: the products round differently on a transposed view
    pts = np.ascontiguousarray(positions, dtype=float)
    return pts @ e1, pts @ e2


def _svg(bundle: Bundle, n: int) -> str:
    params, positions = _sample_positions(bundle, n)
    speed = _mu_speed(bundle.generator, bundle.config.poles.alpha(), bundle.curve.mu)
    try:
        speeds = np.abs(speed.eval_floats(params))
    except OverflowError:
        raise ParseError("speed coefficients exceed the float range", "curve") from None

    px, py = _project(positions, bundle.config.view)
    w, h, pad = 640.0, 880.0, 40.0
    span = max(px.max() - px.min(), py.max() - py.min()) or 1.0
    scale = (w - 2 * pad) / span
    cx = (px.max() + px.min()) / 2
    cy = (py.max() + py.min()) / 2
    curve_xy = (w / 2 + (px - cx) * scale, h * 0.35 - (py - cy) * scale)

    smax = speeds.max() or 1.0
    rad = (w - 2 * pad) / 2.0
    polar_c = (w / 2, h * 0.78)
    r = speeds / smax * rad * 0.9
    angles = [2.0 * math.pi * j / n for j in range(n)]
    # math.cos and math.sin: numpy's may round the last bit differently
    polar_xy = (
        polar_c[0] + r * np.array([math.cos(a) for a in angles]),
        polar_c[1] - r * np.array([math.sin(a) for a in angles]),
    )

    def path(xs, ys):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs.tolist(), ys.tolist()))
        return f'<polygon fill="none" stroke="black" stroke-width="1.2" points="{coords}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        path(*curve_xy),
        f'<circle cx="{polar_c[0]}" cy="{polar_c[1]}" r="2" fill="black"/>',
        path(*polar_xy),
        f'<text x="{w/2:.0f}" y="{h*0.55:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">orthographic projection</text>',
        f'<text x="{w/2:.0f}" y="{h*0.97:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">speed polar plot</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def cmd_sample(bundle: Bundle, n: int, fmt: str) -> str:
    if fmt == "svg":
        return _svg(bundle, n)
    params, positions = _sample_positions(bundle, n)
    if fmt == "csv":
        return _csv(positions, "x,y,z")
    if fmt == "obj":
        return _obj(positions)
    _finite(positions)
    return '{"parameters":[%s],"positions":[%s]}\n' % (
        ",".join(_json_parameters(params)),
        ",".join(_rows("[%r,%r,%r]", positions.T.tolist())),
    )


def cmd_frames(bundle: Bundle, n: int, fmt: str) -> str:
    try:
        motion = sample_motion(bundle.generator, bundle.curve, n)
    except ZeroDivisionError:  # load_bundle has ruled out a real root: the floats underflow
        raise ParseError("coefficients underflow the float range", "generator.coefficients") from None
    frames = motion.frames.reshape(n, 9)
    if fmt == "json":
        _finite(motion.positions, motion.rotations, frames)
        poses = _rows(
            '{"frame":[[%r,%r,%r],[%r,%r,%r],[%r,%r,%r]],"parameter":%s,'
            '"position":[%r,%r,%r],"rotation":[%r,%r,%r,%r]}',
            [
                *frames.T.tolist(),
                _json_parameters(motion.parameters),
                *motion.positions.T.tolist(),
                *motion.rotations.T.tolist(),
            ],
        )
        return "[%s]\n" % ",".join(poses)
    table = np.hstack(
        (
            np.array(motion.parameters)[:, None],
            motion.positions,
            motion.rotations,
            frames,
        )
    )
    header = "parameter,px,py,pz,qw,qx,qy,qz,tx,ty,tz,bx,by,bz,cx,cy,cz"
    return _csv(table, header)


# -- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ParseError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first ``main`` call and reused after it."""
    parser = _Parser(prog="phforge", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="i-reduction, indicatrix, hull test")
    pc.add_argument("--config", required=True)
    pc.add_argument("--out")

    ps = sub.add_parser("synth", help="full synthesis pipeline, writes a bundle")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--force", action="store_true")

    for name, what, formats in (
        ("sample", "the curve polyline", ("json", "csv", "obj", "svg")),
        ("frames", "framing-motion poses", ("json", "csv")),
    ):
        pe = sub.add_parser(name, help=f"export {what} from a bundle")
        pe.add_argument("--config", required=True, help="bundle file produced by synth")
        pe.add_argument("--out")
        pe.add_argument("--samples", type=int, default=256)
        pe.add_argument("--format", default="json", choices=formats)
    return parser


# a sample beyond the float range is inf or NaN, which each writer handles
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command in ("check", "synth"):
            cfg = parse_config(_read_json(args.config, "config"))
            text = cmd_synth(cfg, args.force) if args.command == "synth" else cmd_check(cfg)
        else:
            n = _samples(args.samples, "--samples", minimum=2)
            export = cmd_sample if args.command == "sample" else cmd_frames
            text = export(load_bundle(args.config), n, args.format)
        if args.out:
            _write_out(args.out, text)
        else:
            sys.stdout.write(text)
    except PhforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
