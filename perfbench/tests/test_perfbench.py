"""Tests of the benchmark's own machinery: span arithmetic and seeded inputs."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from spans import Patches, SpanRecorder, covered_length  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    # cli.main [0,10] > geometry.a [1,4] > synthesis.c [2,3]; geometry.b [5,6]
    rec = SpanRecorder(FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    root = rec.begin("cli.main")
    a = rec.begin("geometry.a")
    c = rec.begin("synthesis.c")
    rec.end(c)
    rec.end(a)
    b = rec.begin("geometry.b")
    rec.end(b)
    rec.end(root)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert rec.self_times() == [6, 2, 1, 1]
    assert rec.self_by_layer() == {"cli": 6, "geometry": 3, "synthesis": 1}
    assert rec.total_by_name()["geometry.a"] == 3
    # self times of all spans add up to the root's duration
    assert sum(rec.self_times()) == rec.spans[0].duration


def test_spans_must_close_in_order():
    rec = SpanRecorder(FakeClock(0, 1, 2))
    outer = rec.begin("cli.main")
    rec.begin("geometry.a")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_wrappers_record_spans_counts_and_hooks():
    rec = SpanRecorder(FakeClock(0, 2, 5, 9))
    seen = []
    square = rec.timed("ratfunc.f", lambda x: x * x, lambda counts, r: seen.append(r))
    assert square(3) == 9 and seen == [9]

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.timed("ratfunc.g", boom)()
    rec.counted("polynomial.h", lambda: None)()
    assert [(s.name, s.duration) for s in rec.spans] == [("ratfunc.f", 2), ("ratfunc.g", 4)]
    assert rec.counts["ratfunc.f.calls"] == 1
    assert rec.counts["polynomial.h.calls"] == 1
    assert "ratfunc.g.calls" not in rec.counts


def test_patches_restore_originals():
    class Owner:
        value = 1

    with Patches() as patches:
        patches.replace(Owner, "value", lambda old: old + 1)
        patches.replace(Owner, "value", lambda old: old * 10)
        assert Owner.value == 20
    assert Owner.value == 1


def test_normalise_drops_probe_pauses_and_scales_to_nominal_speed():
    probe = speed.SpeedProbe()
    # the reference ran at half the nominal speed; one probe sat inside the
    # operation [10, 14] and one partly overlapped its start
    probe.samples = [2 * speed.NOMINAL_S] * 3
    probe.pauses = [(9.5, 10.5), (12.0, 12.5)]
    assert probe.normalise(10.0, 4.0) == pytest.approx((4.0 - 1.0) / 2)


def test_probe_samples_during_the_wrapped_code():
    with speed.SpeedProbe() as probe:
        end = speed.time.perf_counter() + 3 * speed.INTERVAL_S
        while speed.time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4 and len(probe.pauses) == len(probe.samples)
    assert all(s > 0 for s in probe.samples)


@pytest.mark.parametrize("cls", [workloads.SynthFixtures, workloads.ExactBatch])
def test_same_seed_gives_byte_identical_inputs(cls, tmp_path):
    first = cls(tmp_path / "a")
    second = cls(tmp_path / "b")
    for w in (first, second):
        w.workdir.mkdir()
    assert first.setup(7) == second.setup(7)
    assert first.setup(8) != first.setup(7)


def test_different_seeds_draw_different_rotations():
    assert workloads.draw_rotation(1) != workloads.draw_rotation(2)
    assert len({workloads.draw_rotation(s) for s in range(20)}) > 5
    assert workloads.fixture_config(workloads.draw_rotation(1), workloads.FIXTURES[0]) != (
        workloads.fixture_config(workloads.draw_rotation(2), workloads.FIXTURES[0])
    )
