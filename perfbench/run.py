"""phforge benchmark: end-to-end metrics per workload, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload synth-fixtures --seed 1 --seconds 30 --trace 0

It imports phforge from ``src/`` next to this directory, builds the seeded
inputs of the workload, then runs passes over the workload's operations in
one process, one call at a time (a closed loop), for about ``--seconds``.
Every output is checked exactly outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run wraps public phforge
names (see ``layers.py``), keeps its spans in memory and writes them to
``.perfbench_run/traces/`` when it ends.  See ``RATIONALE.md`` for why each
workload and metric is there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
# layers, spans, checks and workloads import phforge, so functions import
# them only after load_phforge has put this checkout's src/ on the path


def load_phforge():
    """Import phforge from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "phforge" / "__init__.py").is_file():
        raise ImportError(f"no phforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("phforge")
    importlib.import_module("phforge.cli")
    if SRC not in Path(module.__file__).resolve().parents:
        raise ImportError(f"phforge was imported from {module.__file__}, not {SRC}")
    return module


def import_seconds() -> float:
    """Median time to import phforge's CLI in a fresh interpreter, normalised."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import speed; "
        "before = [speed.reference() for _ in range(3)][-1]; t = time.perf_counter(); "
        "import phforge.cli; t = time.perf_counter() - t; "
        "print(t * speed.NOMINAL_S * 2 / (before + speed.reference()))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Identifies the code under test, so counts are compared within one commit."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_op(workload, key, recorder=None):
    """One timed call into phforge, then its check outside the timed region.

    The call's time is also normalised to the nominal host speed.  A traced
    call samples the host speed only before and after it, so that no probe
    runs inside a span.
    """
    from layers import instrument
    from speed import INTERVAL_S, SpeedProbe
    from workloads import FAILED, Outcome

    start = time.perf_counter()
    try:
        with SpeedProbe(INTERVAL_S if recorder is None else None) as probe:
            if recorder is None:
                outcome = workload.run(key)
            else:
                with instrument(recorder):
                    index = recorder.begin("bench.op")
                    try:
                        outcome = workload.run(key)
                    finally:
                        recorder.end(index)
        outcome.norm_s = probe.normalise(outcome.start, outcome.seconds)
    except Exception as exc:  # a raising operation is a failed one
        return Outcome(key, time.perf_counter() - start, note=f"raised {exc!r}")
    try:
        workload.verify(outcome)
    except Exception as exc:
        outcome.status, outcome.note = FAILED, f"check raised {exc!r}"
    return outcome


def run_passes(workload, seconds, recorder=None):
    """Whole passes over the workload's operations for about ``seconds``.

    A further pass starts only while at least half of it is expected to
    fit, so the measured time stays near ``seconds`` and always covers at
    least one pass.  With a recorder, also returns its counters after each
    pass.
    """
    passes, snapshots, start = [], [], time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        outcomes = []
        for key in workload.keys:
            if recorder is not None:
                recorder.op = sum(map(len, passes)) + len(outcomes)
            outcome = run_op(workload, key, recorder)
            if recorder is not None and workload.via_cli:
                recorder.counts["cli.output_bytes"] += outcome.output_bytes
            outcomes.append(outcome)
        passes.append(outcomes)
        if recorder is not None:
            snapshots.append(Counter(recorder.counts))
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            return passes, snapshots


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_inf(values):
    """Median that still reads as a number when most values are infinite."""
    value = statistics.median(values)
    return sys.float_info.max if math.isinf(value) else value


def end_to_end(outcomes, setup_s, time_of=lambda o: o.norm_s):
    """The end-to-end metrics of BENCHMARK.json from all measured operations.

    Times are normalised to the nominal host speed; ``time_of`` picks
    another time, such as the raw wall time.
    """
    from workloads import FAILED, MISSED, SOLVED

    busy = sum(map(time_of, outcomes))
    solved = [o for o in outcomes if o.status == SOLVED]
    bad = sum(o.status in (FAILED, MISSED) for o in outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (
            median_or_inf([time_of(o) if o.status == SOLVED else math.inf for o in outcomes]),
            "s",
        ),
        "solved_per_s": (sum(o.units for o in solved) / busy, "1/s"),
        "solved_ratio": (len(solved) / len(outcomes), "ratio"),
        "ok_ratio": (1.0 - bad / len(outcomes), "ratio"),
        "output_kb": (
            statistics.fmean(o.output_bytes for o in solved) / 1024.0 if solved else 0.0,
            "KiB",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# the names the rationale gives these metrics on each workload
ALIASES = {
    "synth-fixtures": {"op_p50_s": "synth_p50_s", "output_kb": "bundle_kb"},
    "exact-batch": {"solved_per_s": "batch_problems_per_s"},
    "export": {"op_p50_s": "export_p50_s", "solved_per_s": "export_points_per_s"},
}


def report_lines(workload: str, n: int, metrics) -> list[str]:
    """Every end-to-end metric with its unit, sample count and workload name."""
    samples = {"setup_s": f"median of {SETUP_REPEATS} set-ups", "op_p50_s": f"n={n}",
               "solved_per_s": f"n={n}"}
    lines = []
    for name, (value, unit) in metrics.items():
        alias = f" ({ALIASES[workload][name]})" if name in ALIASES[workload] else ""
        shown = "inf" if value == sys.float_info.max else f"{value:.6g}"
        note = f" ({samples[name]})" if name in samples else ""
        lines.append(f"{name}{alias} = {shown} {unit}{note}")
    lines.append(f"fail_ratio = {1.0 - metrics['ok_ratio'][0]:.6g} (n={n})")
    if workload == "synth-fixtures" and metrics["solved_per_s"][0] > 0:
        lines.append(f"synth_s_per_solved = {1.0 / metrics['solved_per_s'][0]:.6g} s (n={n})")
    return lines


def fixture_rows(passes, recorder=None):
    """One row per synth call: the ROADMAP baseline table.

    A traced run adds the residue-system time and the sampling time
    (``sample_motion`` plus ``speed_function``) of each call.
    """
    stages = {"synthesis.residue_system": "residue", "geometry.sample_motion": "sampling",
              "geometry.speed_function": "sampling"}
    spent = Counter()
    if recorder is not None:
        for span in recorder.closed_spans():
            if span.name in stages:
                spent[stages[span.name], span.op] += span.duration

    def cell(stage, op):
        return f"{spent[stage, op]:.3f}" if recorder is not None else "-"

    rows = ["| fixture | synth_s | residue_system_s | sampling_s | exit | bundle_kb | outcome |",
            "|---|---|---|---|---|---|---|"]
    for op, o in enumerate(o for outcomes in passes for o in outcomes):
        kb = f"{o.output_bytes / 1024:.1f}" if o.output_bytes else "-"
        rows.append(f"| {o.key} | {o.seconds:.3f} | {cell('residue', op)} | {cell('sampling', op)} "
                    f"| {o.counts.get('exit', '-')} | {kb} | {o.status} |")
    return rows


def compare_counts(key: str, counts: dict) -> list[str]:
    """Counts must repeat exactly between runs of one commit, workload and seed."""
    path = STATE / "counts" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            changed = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
            return [f"counts differ from an earlier run with this seed: {changed}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def per_op_counts(passes) -> tuple[dict, list[str]]:
    counts, errors = {}, []
    for outcomes in passes:
        for o in outcomes:
            if counts.setdefault(o.key, o.counts) != o.counts:
                errors.append(f"{o.key}: counts differ between passes")
    return counts, errors


def traced_run(workload, seed: int, seconds: float):
    """Untraced passes, then traced ones; returns passes, metrics, counts, errors."""
    from layers import layer_metrics
    from spans import SpanRecorder

    plain, _ = run_passes(workload, seconds / 2)
    recorder = SpanRecorder()
    traced, snapshots = run_passes(workload, seconds / 2, recorder)
    per_pass = [after - before for before, after in zip([Counter(), *snapshots], snapshots)]
    errors = [] if all(c == per_pass[0] for c in per_pass) else [
        "counters differ between traced passes"
    ]
    overhead = statistics.fmean(sum(o.norm_s for o in p) for p in traced) - statistics.fmean(
        sum(o.norm_s for o in p) for p in plain
    )
    metrics = layer_metrics(recorder, len(traced), overhead)
    trace_dir = STATE / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(trace_dir / f"{workload.name}-seed{seed}.jsonl")
    rows = fixture_rows(traced, recorder) if workload.name == "synth-fixtures" else []
    return plain + traced, metrics, dict(sorted(per_pass[0].items())), errors, rows


def measure(args, workdir: Path) -> dict:
    from speed import SpeedProbe
    from workloads import FAILED, WORKLOADS

    errors, setups, inputs = [], [], set()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload = WORKLOADS[args.workload](workdir)
        with SpeedProbe() as probe:
            begin = time.perf_counter()
            inputs.add(workload.setup(args.seed))
            setups.append(probe.normalise(begin, time.perf_counter() - begin))
    if len(inputs) != 1:
        errors.append("set-up made different inputs from the same seed")

    if args.trace:
        passes, metrics, layer_counts, trace_errors, rows = traced_run(workload, args.seed, args.seconds)
        errors += trace_errors
    else:
        passes, _ = run_passes(workload, args.seconds)
        layer_counts = {}
        rows = fixture_rows(passes) if args.workload == "synth-fixtures" else []
    outcomes = [o for p in passes for o in p]
    op_counts, count_errors = per_op_counts(passes)
    errors += count_errors
    errors += compare_counts(
        f"{source_digest()}-{args.workload}-seed{args.seed}-trace{args.trace}",
        {"ops": op_counts, "layers": layer_counts},
    )
    failed = sum(o.status == FAILED for o in outcomes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(outcomes)} operations, {failed} failed")
    if rows:
        print("\n".join(rows))
    if not args.trace:
        metrics = end_to_end(outcomes, import_seconds() + statistics.median(setups))
        print("\n".join(report_lines(args.workload, len(outcomes), metrics)))
        wall = end_to_end(outcomes, math.nan, time_of=lambda o: o.seconds)
        print(f"wall time, not normalised: op_p50_s = {wall['op_p50_s'][0]:.6g} s, "
              f"solved_per_s = {wall['solved_per_s'][0]:.6g} 1/s")
    for o in outcomes:
        if o.status == FAILED:
            print(f"FAILED {o.key}: {o.note}")
    for name, count in sorted(op_counts.items()):
        print(f"counts {name}: {json.dumps(count, sort_keys=True)}")
    if layer_counts:
        print(f"counts per traced pass: {json.dumps(layer_counts)}")
    for e in errors:
        print(f"ERROR {e}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_phforge()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
