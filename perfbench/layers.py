"""Which public phforge names the traced run wraps, and the per-layer metrics.

Each name is wrapped in every namespace its callers resolve it from: the
CLI imports pipeline functions into ``phforge.cli``, the library modules
import helpers into their own globals, and the exact batch calls through
the ``phforge`` package.  Replacing the attribute there catches exactly the
calls made from that namespace.  Hot helpers get counters only, so tracing
does not swamp them.
"""

from __future__ import annotations

import importlib

from checks import coefficient_bits
from spans import Patches, SpanRecorder


def _residue_system(counts, space):
    counts["synthesis.residue_rows"] += len(space.constraint_matrix)
    counts["synthesis.kernel_dim"] += space.dimension


def _curve(counts, curve):
    counts["synthesis.curve_coeff_bits"] += coefficient_bits((*curve.nums, curve.den))


def _gram_slice(counts, slice_):
    counts["positivity.slice_dim"] += slice_.slice_dimension


def _gate(counts, cert):
    counts["positivity.gate_passes"] += bool(cert)


def _points(counts, params):
    counts["geometry.points_sampled"] += len(params)


# (span name, namespaces the callers resolve the name from, attribute, hook)
TIMED = (
    ("cli.main", ("phforge.cli",), "main", None),
    ("cli.load_bundle", ("phforge.cli",), "load_bundle", None),
    ("quaternion.i_reduce", ("phforge.cli",), "i_reduce", None),
    ("geometry.hull", ("phforge.cli",), "convex_hull_contains_origin", None),
    ("geometry.sample_motion", ("phforge.cli",), "sample_motion", None),
    ("geometry.speed_function", ("phforge.cli",), "speed_function", None),
    ("polynomial.poly_sqrt", ("phforge.geometry",), "poly_sqrt", None),
    ("synthesis.residue_system", ("phforge.cli", "phforge"), "build_residue_system", _residue_system),
    ("linalg.nullspace", ("phforge.linalg",), "nullspace", None),
    ("synthesis.synthesize_curve", ("phforge.cli", "phforge"), "synthesize_curve", _curve),
    ("ratfunc.hermite", ("phforge.synthesis",), "hermite_antiderivative", None),
    ("synthesis.closure_point", ("phforge.cli", "phforge"), "closure_point", None),
    ("positivity.gram_slice", ("phforge.cli",), "build_gram_slice", _gram_slice),
    ("positivity.sdp", ("phforge.cli",), "sdp_feasible_point", None),
    ("positivity.average", ("phforge.cli",), "average_solutions", None),
    ("synthesis.curve_eval_float", ("phforge.synthesis:RationalCurve",), "eval_float", None),
)

COUNTED = (
    ("ratfunc.residue_at", ("phforge.synthesis",), "residue_at", None),
    (
        "polynomial.poly_gcd",
        ("phforge.polynomial", "phforge.quaternion", "phforge.ratfunc", "phforge.synthesis"),
        "poly_gcd",
        None,
    ),
    ("positivity.gate", ("phforge.positivity",), "certify_regular", _gate),
    ("geometry.angle_parameters", ("phforge.cli", "phforge.geometry"), "angle_parameters", _points),
)

# per-layer metric -> the span whose total time it reports
SECONDS = {
    "cli.load_bundle_s": "cli.load_bundle",
    "geometry.sample_motion_s": "geometry.sample_motion",
    "geometry.speed_function_s": "geometry.speed_function",
    "geometry.hull_s": "geometry.hull",
    "synthesis.curve_eval_float_s": "synthesis.curve_eval_float",
    "synthesis.residue_system_s": "synthesis.residue_system",
    "synthesis.synthesize_curve_s": "synthesis.synthesize_curve",
    "synthesis.closure_point_s": "synthesis.closure_point",
    "ratfunc.hermite_s": "ratfunc.hermite",
    "linalg.nullspace_s": "linalg.nullspace",
    "positivity.gram_slice_s": "positivity.gram_slice",
    "positivity.sdp_s": "positivity.sdp",
    "positivity.average_s": "positivity.average",
    "polynomial.poly_sqrt_s": "polynomial.poly_sqrt",
    "quaternion.i_reduce_s": "quaternion.i_reduce",
}
SELF_SECONDS = ("cli", "geometry", "synthesis", "ratfunc", "positivity", "bench")
# per-layer metric -> the counter it reports
COUNTS = {
    "cli.output_bytes": "cli.output_bytes",
    "geometry.points_sampled": "geometry.points_sampled",
    "synthesis.curve_eval_float_calls": "synthesis.curve_eval_float.calls",
    "synthesis.residue_rows": "synthesis.residue_rows",
    "synthesis.kernel_dim": "synthesis.kernel_dim",
    "synthesis.curve_coeff_bits": "synthesis.curve_coeff_bits",
    "ratfunc.residue_at_calls": "ratfunc.residue_at.calls",
    "positivity.slice_dim": "positivity.slice_dim",
    "positivity.sdp_calls": "positivity.sdp.calls",
    "positivity.gate_attempts": "positivity.gate.calls",
    "polynomial.poly_gcd_calls": "polynomial.poly_gcd.calls",
}


def _owner(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


def instrument(recorder: SpanRecorder) -> Patches:
    """Patch every wrapped name; use the result as a context manager."""
    patches = Patches()
    for table, wrap in ((TIMED, recorder.timed), (COUNTED, recorder.counted)):
        for name, owners, attr, hook in table:
            for owner in owners:
                patches.replace(_owner(owner), attr, lambda fn, n=name, h=hook: wrap(n, fn, h))
    return patches


def layer_metrics(recorder: SpanRecorder, passes: int, overhead_s: float) -> dict:
    """Per-layer metrics averaged per traced pass, in BENCHMARK.json order."""
    totals = recorder.total_by_name()
    selfs = recorder.self_by_layer()
    counts = recorder.counts
    out = {}
    for metric, span in SECONDS.items():
        out[metric] = (totals[span] / passes, "s")
    for layer in SELF_SECONDS:
        out[f"{layer}.self_s"] = (selfs[layer] / passes, "s")
    for metric, key in COUNTS.items():
        out[metric] = (counts[key] / passes, "count")
    attempts = counts["positivity.gate.calls"]
    out["positivity.gate_pass_ratio"] = (
        counts["positivity.gate_passes"] / attempts if attempts else 0.0,
        "ratio",
    )
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (len(recorder.spans) / passes, "count")
    return out
