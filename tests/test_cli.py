import dataclasses
import json
import math
import re
import time
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from phforge import (
    SynthesisProblem,
    build_residue_system,
    certify_regular,
    sturm_real_root_count,
    synthesize_curve,
)
from phforge import cli, geometry, positivity, synthesis
from phforge.cli import load_bundle, main
from phforge.polynomial import Polynomial as P
from phforge.quaternion import QI, rotate_vector
from phforge.rationals import format_rational, parse_rational

from helpers import (
    TABLE_POLES,
    ref_bundle_samples,
    ref_pose_dict,
    ref_sample_motion,
    ref_sample_positions,
    ref_sturm_count,
)
from test_pinned_outputs import SYNTH_FIXTURES


EX2_CONFIG = {
    "quaternion": [
        ["0", "0", "0", "-1"],
        ["-1", "-2", "0", "0"],
        ["0", "0", "2", "1"],
        ["1", "0", "0", "0"],
    ],
    "poles": [{"b": "0", "c": "4", "multiplicity": 6}],
    "options": {"margin": 0.001, "samples": 64, "seed": 7},
}


# the six (command, --format) exports of a bundle
EXPORTS = [("sample", fmt) for fmt in ("json", "csv", "obj", "svg")] + [("frames", fmt) for fmt in ("json", "csv")]


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def with_multiplicity(mult):
    cfg = json.loads(json.dumps(EX2_CONFIG))
    cfg["poles"][0]["multiplicity"] = mult
    return cfg


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundle")
    cfg = write_config(tmp, EX2_CONFIG)
    out = str(tmp / "bundle.json")
    assert main(["synth", "--config", cfg, "--out", out]) == 0
    return out


class TestCheck:
    def test_reference_config_hull_true(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EX2_CONFIG)
        assert main(["check", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["i_reduced"] is True
        assert report["hull"]["status"] is True
        assert report["hull"]["residual"] < 1e-6

    def test_constant_generator_hull_false(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"quaternion": [["1", "0", "0", "0"]], "poles": [{"b": "0", "c": "1"}]},
        )
        assert main(["check", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hull"]["status"] is False
        assert "separating_direction" in report["hull"]

    def test_zero_denominator_is_parse_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"quaternion": [["1/0", "0", "0", "0"]], "poles": [{"b": "0", "c": "1"}]},
        )
        assert main(["check", "--config", cfg]) == 4
        assert "quaternion[0][0]" in capsys.readouterr().err

    def test_missing_field_diagnostics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"quaternion": [["1", "0", "0", "0"]]})
        assert main(["check", "--config", cfg]) == 4
        assert "poles" in capsys.readouterr().err

    def test_bad_view_exit_4(self, tmp_path, capsys):
        views = (
            ["a", 1, 2], [None, 1, 2], [1, 2, "inf"], [1e400, 0, 0], [1, "nan", 2],
            # the squared length overflows or underflows
            [1e308, 1e308, 1e308], [1e200, 1e200, 0], [1e-320, 0, 0],
        )
        for view in views:
            raw = json.loads(json.dumps(EX2_CONFIG))
            raw["options"]["view"] = view
            assert main(["check", "--config", write_config(tmp_path, raw)]) == 4, view
            assert "options.view" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_too_few_samples_exit_4(self, tmp_path, capsys, command):
        for value in (0, 3, -5):
            raw = json.loads(json.dumps(EX2_CONFIG))
            raw["options"]["samples"] = value
            argv = [command, "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "o.json")]
            assert main(argv) == 4, value
            assert capsys.readouterr().err == "error: options.samples: samples must be an integer >= 16\n"
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("check", "--samples", "32"), ("synth", "--samples", "32"), ("synth", "--margin", "0.1"),
         ("synth", "--seed", "1")],
    )
    def test_config_option_flags_are_refused(self, tmp_path, capsys, command, flag, value):
        # options come only from the config: no flag overrides options.samples, .margin or .seed
        out = tmp_path / "o.json"
        argv = [command, "--config", write_config(tmp_path, EX2_CONFIG), "--out", str(out), flag, value]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {flag} {value}\n"
        assert not out.exists()

    def test_boolean_for_integer_or_number_exit_4(self, tmp_path, capsys):
        # JSON true loads as a bool, which Python counts as an int
        cases = [
            ("options.seed", lambda raw: raw["options"].update(seed=True)),
            ("options.samples", lambda raw: raw["options"].update(samples=True)),
            ("options.margin", lambda raw: raw["options"].update(margin=True)),
            ("options.view", lambda raw: raw["options"].update(view=[True, 0, 0])),
            ("poles[0].multiplicity", lambda raw: raw["poles"][0].update(multiplicity=True)),
        ]
        for field, corrupt in cases:
            raw = json.loads(json.dumps(EX2_CONFIG))
            corrupt(raw)
            for command in ("check", "synth"):
                argv = [command, "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "o.json")]
                assert main(argv) == 4, (field, command)
                assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestSynth:
    def test_success_with_certificate(self, bundle_path):
        bundle = json.loads(Path(bundle_path).read_text())
        mu = P([parse_rational(v) for v in bundle["mu"]])
        assert certify_regular(mu)
        diag = bundle["diagnostics"]
        assert diag["kernel_dimension"] == 2
        assert diag["regularity"]["regular"] is True
        assert diag["hull"]["status"] is True
        assert diag["speed_polar_minimum"] > 0

    def test_sampled_positions_match_exact_curve(self, bundle_path):
        data = json.loads(Path(bundle_path).read_text())
        loaded = load_bundle(bundle_path)
        for raw_t, pos in zip(
            [pose["parameter"] for pose in data["samples"]["poses"]], data["samples"]["positions"]
        ):
            t = math.inf if raw_t == "inf" else float(raw_t)
            if math.isinf(t):
                exact = loaded.curve.eval_float(t)
            else:
                curve = loaded.curve
                exact = tuple(float(n(F(t)) / curve.den(F(t))) for n in curve.nums)
            assert max(abs(a - b) for a, b in zip(exact, pos)) < 1e-10

    def test_empty_kernel_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_multiplicity(4))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "multiplicities" in capsys.readouterr().err
        # multiplicity 3 leaves the degree-3 generator a negative numerator degree
        cfg = write_config(tmp_path, with_multiplicity(3))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "poles",
        [((0, 4, 6), (1, 3, 4)), ((0, 4, 8), (1, 3, 6)), ((0, 4, 6), (1, 3, 4), (1, 2, 4))],
        ids=["(0,4)^6.(1,3)^4", "(0,4)^8.(1,3)^6", "(0,4)^6.(1,3)^4.(1,2)^4"],
    )
    def test_multi_factor_poles_certify(self, tmp_path, poles):
        cfg_data = json.loads(json.dumps(EX2_CONFIG))
        cfg_data["poles"] = [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in poles]
        out = str(tmp_path / "o.json")
        assert main(["synth", "--config", write_config(tmp_path, cfg_data), "--out", out]) == 0
        bundle = json.loads(Path(out).read_text())
        mu = P([parse_rational(v) for v in bundle["mu"]])
        assert sturm_real_root_count(mu) == 0
        loaded = load_bundle(out)
        assert build_residue_system(SynthesisProblem(loaded.generator, loaded.config.poles)).contains(mu)

    @pytest.mark.parametrize(
        "poles",
        [((0, 4, 16),), ((0, 4, 18),), ((0, 4, 10), (1, 3, 10)), ((0, 4, 8), (1, 3, 6), (1, 2, 4))],
        ids=["(0,4)^16", "(0,4)^18", "(0,4)^10.(1,3)^10", "(0,4)^8.(1,3)^6.(1,2)^4"],
    )
    def test_large_multiplicities_certify(self, tmp_path, poles):
        # these exited 3 while the search ran on the unweighted primal slice
        cfg_data = json.loads(json.dumps(EX2_CONFIG))
        cfg_data["poles"] = [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in poles]
        out = str(tmp_path / "o.json")
        assert main(["synth", "--config", write_config(tmp_path, cfg_data), "--out", out]) == 0
        bundle = json.loads(Path(out).read_text())
        mu = P([parse_rational(v) for v in bundle["mu"]])
        assert sturm_real_root_count(mu) == 0 and mu.leading() > 0
        assert bundle["diagnostics"]["margin_achieved"] >= cli.MARGIN_FLOOR
        loaded = load_bundle(out)
        assert build_residue_system(SynthesisProblem(loaded.generator, loaded.config.poles)).contains(mu)

    def test_generator_is_rotated_once(self, tmp_path, monkeypatch):
        # the hull test's indicatrix hands A i A* on to the residue system
        calls = []

        def counted(a, v):
            calls.append(v)
            return rotate_vector(a, v)

        for module in (geometry, synthesis):
            monkeypatch.setattr(module, "rotate_vector", counted)
        out = str(tmp_path / "o.json")
        assert main(["synth", "--config", write_config(tmp_path, EX2_CONFIG), "--out", out]) == 0
        assert len(calls) == 1

    # the synth-fixtures structures, then the certified ROADMAP table rows not among them
    GATED = SYNTH_FIXTURES + tuple(
        (poles, None) for poles in TABLE_POLES[:8] if (poles, None) not in SYNTH_FIXTURES
    )

    @pytest.mark.parametrize("poles, weights", GATED, ids=[str(poles) + str(w or "") for poles, w in GATED])
    def test_gated_numerators_match_reference_count(self, tmp_path, monkeypatch, poles, weights):
        # every numerator the gate counts, and the bundle's, against the Euclidean Sturm count
        gated = []

        def counted(p):
            gated.append(p)
            return sturm_real_root_count(p)

        monkeypatch.setattr(positivity, "sturm_real_root_count", counted)
        cfg_data = json.loads(json.dumps(EX2_CONFIG))
        cfg_data["poles"] = [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in poles]
        cfg_data["options"] = {"samples": 16, "seed": 0, **({"weights": weights} if weights else {})}
        out = str(tmp_path / "o.json")
        assert main(["synth", "--config", write_config(tmp_path, cfg_data), "--out", out]) == 0
        mu = P([parse_rational(v) for v in json.loads(Path(out).read_text())["mu"]])
        assert gated and ref_sturm_count(mu) == 0
        assert [sturm_real_root_count(p) for p in gated] == [ref_sturm_count(p) for p in gated]

    def test_no_positive_numerator_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, with_multiplicity(5))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3

    def test_exit_3_reports_optimum_bound(self, tmp_path, capsys):
        # the dual path proves the whole ladder unreachable and says so
        cfg = write_config(tmp_path, with_multiplicity(5))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        found = re.search(r"best trace-normalized eigenvalue (\S+), optimum at most (\S+)\)", err)
        assert found
        lam, bound = map(float, found.groups())
        assert lam <= bound < cli.MARGIN_FLOOR

    @pytest.mark.parametrize(
        "row, reason",
        [
            (9, "best trace-normalized eigenvalue 5.053e-09, optimum at most 7.302e-09"),
            (10, "best trace-normalized eigenvalue -6.892e-10, optimum at most 1.902e-09"),
        ],
        ids=["row9", "row10"],
    )
    def test_table_rows_exit_3_lines(self, tmp_path, capsys, row, reason):
        # the ROADMAP table rows the ladder rules out: the best eigenvalue at the
        # ruling step and the bound that ruled the last margin out, verbatim
        cfg_data = json.loads(json.dumps(EX2_CONFIG))
        cfg_data["poles"] = [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in TABLE_POLES[row - 1]]
        cfg = write_config(tmp_path, cfg_data)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
        assert capsys.readouterr().err == f"error: no strictly positive numerator found ({reason})\n"

    def test_non_finite_margin_exit_4(self, tmp_path, capsys):
        # an infinite margin would relax forever: inf / 10 stays above the floor
        out = str(tmp_path / "o.json")
        cfg = tmp_path / "margin.json"
        for value in ('"inf"', "1e400", '"nan"', '"-inf"'):
            cfg.write_text(json.dumps(EX2_CONFIG).replace('"margin": 0.001', f'"margin": {value}'))
            assert main(["synth", "--config", str(cfg), "--out", out]) == 4, value
            assert "options.margin" in capsys.readouterr().err

    def test_hull_gate_exit_3_and_force(self, tmp_path, capsys):
        raw = {
            "quaternion": [["1", "0", "0", "0"]],
            "poles": [{"b": "0", "c": "1", "multiplicity": 1}],
        }
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "o.json")
        assert main(["synth", "--config", cfg, "--out", out]) == 3
        assert "hull" in capsys.readouterr().err
        # forcing proceeds to the residue stage, which has an empty kernel
        assert main(["synth", "--config", cfg, "--out", out, "--force"]) == 2

    def test_deterministic_output(self, tmp_path, bundle_path):
        cfg = write_config(tmp_path, EX2_CONFIG)
        out = str(tmp_path / "again.json")
        assert main(["synth", "--config", cfg, "--out", out]) == 0
        assert Path(out).read_bytes() == Path(bundle_path).read_bytes()

    def test_weighted_average_of_solutions(self, tmp_path):
        cfg_data = json.loads(json.dumps(EX2_CONFIG))
        cfg_data["options"]["weights"] = ["2/3", "1/3"]
        cfg = write_config(tmp_path, cfg_data)
        out = str(tmp_path / "avg.json")
        assert main(["synth", "--config", cfg, "--out", out]) == 0
        bundle = json.loads(Path(out).read_text())
        mu = P([parse_rational(v) for v in bundle["mu"]])
        assert certify_regular(mu)
        # the averaged numerator integrates to the bundle's curve
        loaded = load_bundle(out)
        problem = SynthesisProblem(loaded.generator, loaded.config.poles)
        assert synthesize_curve(problem, mu) == loaded.curve


class TestSampleExports:
    def test_csv_rows(self, bundle_path, capsys):
        assert main(["sample", "--config", bundle_path, "--samples", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split(",")) == 3

    def test_obj_round_trip(self, bundle_path, tmp_path):
        out = str(tmp_path / "curve.obj")
        assert main(["sample", "--config", bundle_path, "--samples", "16", "--format", "obj", "--out", out]) == 0
        verts, polylines = [], []
        for line in Path(out).read_text().splitlines():
            kind, *rest = line.split()
            if kind == "v":
                verts.append(tuple(float(v) for v in rest))
            elif kind == "l":
                polylines.append([int(v) for v in rest])
        assert len(verts) == 16
        assert polylines and polylines[0][0] == 1 and polylines[0][-1] == 1
        loaded = load_bundle(bundle_path)
        t0 = math.inf
        assert max(abs(a - b) for a, b in zip(verts[0], loaded.curve.eval_float(t0))) < 1e-12

    def test_svg_contains_curve_and_polar_plot(self, bundle_path, tmp_path):
        out = str(tmp_path / "curve.svg")
        assert main(["sample", "--config", bundle_path, "--samples", "64", "--format", "svg", "--out", out]) == 0
        text = Path(out).read_text()
        assert text.count("<polygon") == 2  # closed projection + closed polar
        assert "speed polar plot" in text

    def test_json_export(self, bundle_path, capsys):
        assert main(["sample", "--config", bundle_path, "--samples", "8", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["positions"]) == 8
        assert data["parameters"][0] == "inf"

    def test_unknown_format_exit_4(self, bundle_path, capsys):
        assert main(["sample", "--config", bundle_path, "--format", "gif"]) == 4

    def test_corrupt_bundle_exit_4(self, bundle_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["sample", "--config", str(bad)]) == 4
        with open(bundle_path) as fh:
            good = json.load(fh)
        corruptions = [
            ("curve", ("curve", "denominator"), ["-1", "0", "1"]),  # real roots
            ("curve", ("curve", "denominator"), ["0"]),
            ("curve", ("curve", "numerators"), [["0"] * 20 + ["1"], ["0"], ["0"]]),  # unbounded
            ("generator.coefficients[0]", ("generator", "coefficients"), [["1", "0", "0"]]),
            ("generator.coefficients[0]", ("generator", "coefficients"), [5]),
            ("generator.coefficients", ("generator", "coefficients"), 5),
        ]
        for field, (outer, inner), value in corruptions:
            data = json.loads(json.dumps(good))
            data[outer][inner] = value
            bad.write_text(json.dumps(data))
            capsys.readouterr()
            assert main(["sample", "--config", str(bad), "--samples", "16"]) == 4, (outer, inner, value)
            assert f"{field}:" in capsys.readouterr().err
        # an error in the bundle's config names its field under config, as does a missing config
        for field, corrupt in (
            ("config.poles[0]", lambda d: d["config"]["poles"][0].update(c="-1")),  # real roots
            ("config", lambda d: d.pop("config")),
        ):
            data = json.loads(json.dumps(good))
            corrupt(data)
            bad.write_text(json.dumps(data))
            capsys.readouterr()
            assert main(["sample", "--config", str(bad), "--samples", "16"]) == 4, field
            assert capsys.readouterr().err.startswith(f"error: {field}: ")
        # a curve that is not Pythagorean-hodograph fails r' = (mu/alpha) A i A* at load
        data = json.loads(json.dumps(good))
        data["curve"]["numerators"][0] = ["0", "1"]
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        argv = ["sample", "--config", str(bad), "--samples", "16", "--format", "svg", "--out", str(tmp_path / "o.svg")]
        assert main(argv) == 4
        assert "curve:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "frames"])
def test_export_too_few_samples_exit_4(bundle_path, tmp_path, capsys, command):
    out = tmp_path / "o.json"
    for value in ("0", "1", "-5"):
        argv = [command, "--config", bundle_path, "--samples", value, "--out", str(out)]
        assert main(argv) == 4, value
        assert "--samples:" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--config", bundle_path, "--samples", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["positions"] if command == "sample" else data) == 2


def test_huge_decimal_exponent_exit_4_at_once(bundle_path, tmp_path, capsys):
    """An exponent above 4300 in magnitude is refused by its size, not computed as 10**exponent."""
    assert [parse_rational(v) for v in ("0.5", "1e3", "1e4300", "-1e-4300")] == [
        F(1, 2), 1000, 10**4300, F(-1, 10**4300)
    ]
    for value in ("1e4301", "1e-4301", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent above 4300"):
            parse_rational(value)
    huge = "1e999999999"
    cases = []
    for field, corrupt in (
        ("quaternion[0][0]", lambda d: d["quaternion"][0].__setitem__(0, huge)),
        ("poles[0].c", lambda d: d["poles"][0].update(c=huge)),
    ):
        raw = json.loads(json.dumps(EX2_CONFIG))
        corrupt(raw)
        cases += [(command, field, raw) for command in ("check", "synth")]
    good = json.loads(Path(bundle_path).read_text())
    for field, corrupt in (
        ("config.quaternion[0][0]", lambda d: d["config"]["quaternion"][0].__setitem__(0, huge)),
        ("curve.numerators[0][0]", lambda d: d["curve"]["numerators"][0].__setitem__(0, huge)),
        ("mu[0]", lambda d: d["mu"].__setitem__(0, huge)),
    ):
        data = json.loads(json.dumps(good))
        corrupt(data)
        cases.append(("sample", field, data))
    out = tmp_path / "o.json"
    for command, field, data in cases:
        argv = [command, "--config", write_config(tmp_path, data), "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 4, (command, field)
        assert time.perf_counter() - start < 2, (command, field)
        assert capsys.readouterr().err.startswith(f"error: {field}: exponent above 4300"), (command, field)
    assert not out.exists()


def test_over_long_integer_exit_4_in_one_short_line(bundle_path, tmp_path, capsys):
    """A run of over 4300 digits is refused by its count, whatever Python's int limit, in one short line."""
    assert parse_rational("9" * 4300 + "/" + "7" * 4300) == F(int("9" * 4300), int("7" * 4300))
    for value in ("1" + "0" * 5000, "1_0" * 2200, "0." + "1" * 4301, "1/" + "3" * 4301):
        with pytest.raises(ValueError, match=f"more than 4300 digits in {re.escape(repr(value[:40]))}[.][.][.]$"):
            parse_rational(value)
    good = Path(bundle_path).read_text()
    data = json.loads(good)
    data["mu"][0] = "1" + "0" * 5000
    cases = [("mu[0]", json.dumps(data)), ("bundle", good.replace('"mu":[', '"mu":[' + "1" * 5000 + ",", 1))]
    out = tmp_path / "o.json"
    for field, text in cases:
        config = tmp_path / "long.json"
        config.write_text(text)
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 4, field
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {field}: more than 4300 digits"), (field, lines)
        assert len(lines[0]) < 200, field
    assert not out.exists()


@pytest.mark.parametrize(
    "coefficients",
    [[["0", "0", "0", "0"]], [["0", "0", "0", "0"], ["1", "0", "0", "0"]]],
    ids=["zero", "real-root"],
)
def test_frames_bad_generator_exit_4(bundle_path, tmp_path, capsys, coefficients):
    # A = 0 and A = t vanish at a real parameter, where the frame is undefined
    data = json.loads(Path(bundle_path).read_text())
    data["generator"]["coefficients"] = coefficients
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["frames", "--config", str(bad), "--samples", "16"]) == 4
    assert "generator.coefficients:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "frames"])
def test_bundle_without_generator_exit_4(bundle_path, tmp_path, capsys, command):
    # the motion's generator comes only from the bundle, never from its config
    data = json.loads(Path(bundle_path).read_text())
    del data["generator"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    out = tmp_path / "o.json"
    assert main([command, "--config", str(bare), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: generator: expected an object\n"
    assert not out.exists()


class TestFrames:
    def test_json_poses(self, bundle_path, capsys):
        assert main(["frames", "--config", bundle_path, "--samples", "8", "--format", "json"]) == 0
        poses = json.loads(capsys.readouterr().out)
        assert len(poses) == 8
        for pose in poses:
            q = pose["rotation"]
            assert abs(sum(v * v for v in q) - 1.0) < 1e-12

    def test_csv_header_and_rows(self, bundle_path, capsys):
        assert main(["frames", "--config", bundle_path, "--samples", "4", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("parameter,px,py,pz,qw")
        assert len(lines) == 5


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config(tmp_path):
    """The README's config, written to a file under tmp_path, as a path."""
    cfg = tmp_path / "config.json"
    cfg.write_text(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))
    return str(cfg)


@pytest.fixture(scope="module")
def readme_bundle(tmp_path_factory):
    """The bundle ``synth`` writes for the README's config, as a path."""
    tmp = tmp_path_factory.mktemp("readme")
    out = str(tmp / "bundle.json")
    assert main(["synth", "--config", _readme_config(tmp), "--out", out]) == 0
    return out


def test_readme_check_reports_the_indicatrix_degree(tmp_path, capsys):
    # |A|^2 of the degree-3 README generator has degree 6
    assert main(["check", "--config", _readme_config(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["indicatrix"]["homogeneous_degree"] == 6


def _scaled_generator_bundle(path, tmp_path, scale):
    """The bundle with every generator coefficient times scale and mu over scale^2.

    A i A* scales by scale^2, so the hodograph (mu / alpha) A i A* and the
    curve stay those of the bundle.
    """
    data = json.loads(Path(path).read_text())
    gen = data["generator"]
    gen["coefficients"] = [[format_rational(parse_rational(v) * scale) for v in q] for q in gen["coefficients"]]
    data["mu"] = [format_rational(parse_rational(v) / scale**2) for v in data["mu"]]
    out = tmp_path / "scaled.json"
    out.write_text(json.dumps(data))
    return str(out)


def _scaled_curve_bundle(path, tmp_path, scale, field):
    """The bundle with its curve numerators and its ``field`` times scale.

    field is "denominator", which leaves the curve as it is, or "mu", which
    leaves r' = (mu/alpha) A i A* holding for the scaled curve.
    """
    data = json.loads(Path(path).read_text())
    curve = data["curve"]
    scaled = [*curve["numerators"], curve["denominator"] if field == "denominator" else data["mu"]]
    for coefficients in scaled:
        coefficients[:] = [format_rational(parse_rational(v) * scale) for v in coefficients]
    out = tmp_path / f"scaled-{field}.json"
    out.write_text(json.dumps(data))
    return str(out)


@pytest.mark.parametrize("scale", [F(1, 10**400), F(10**400)], ids=["1e-400", "1e400"])
def test_exports_of_a_curve_over_a_scaled_denominator_are_byte_identical(readme_bundle, tmp_path, capsys, scale):
    # the denominator's floats underflow or overflow unless the curve is put over a monic one at load
    scaled = _scaled_curve_bundle(readme_bundle, tmp_path, scale, "denominator")
    # load returns the curve synthesize_curve integrates from the bundle's generator, poles and mu
    data = json.loads(Path(scaled).read_text())
    gen = cli._generator(data["generator"]["coefficients"], "generator")
    mu = cli._poly_from_rats(data["mu"], "mu")
    expected = synthesize_curve(SynthesisProblem(gen, cli.parse_config(data["config"]).poles), mu)
    loaded = load_bundle(scaled).curve
    assert loaded == expected and loaded.mu == mu
    for command, fmt in EXPORTS:
        outputs = []
        for config in (readme_bundle, scaled):
            assert main([command, "--config", config, "--samples", "64", "--format", fmt]) == 0, (command, fmt)
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], (command, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_frames_of_a_generator_scaled_by_a_power_of_two_are_byte_identical(readme_bundle, tmp_path, capsys, fmt):
    # |A|^2 overflows the float range at 2^700; the power-of-two scale before the norm is exact
    scaled = _scaled_generator_bundle(readme_bundle, tmp_path, F(2) ** 700)
    outputs = []
    for config in (readme_bundle, scaled):
        assert main(["frames", "--config", config, "--samples", "64", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_frames_of_a_generator_near_1e200_are_rotations(readme_bundle, tmp_path, capsys):
    scaled = _scaled_generator_bundle(readme_bundle, tmp_path, F(10) ** 200)
    assert main(["frames", "--config", scaled, "--samples", "64", "--format", "json"]) == 0
    poses = json.loads(capsys.readouterr().out)
    assert len(poses) == 64
    for pose in poses:
        assert abs(sum(v * v for v in pose["rotation"]) - 1.0) < 1e-12
        frame = np.array(pose["frame"])
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-12


def test_config_round_trip(tmp_path):
    from phforge.cli import canonical_config, parse_config

    cfg = parse_config(EX2_CONFIG)
    canon = canonical_config(cfg)
    again = parse_config(canon)
    assert canonical_config(again) == canon


@pytest.fixture
def recorded(monkeypatch):
    """The objects handed to ``cli._json`` and what ``cli._build_bundle`` returns, in call order.

    ``synth`` writes the bundle's members through ``_json`` and its samples,
    which ``_build_bundle`` returns as JSON text, as they are.
    """
    calls = {"json": [], "bundle": []}
    dump, build = cli._json, cli._build_bundle

    def recording_dump(obj):
        calls["json"].append(obj)
        return dump(obj)

    def recording_build(*args):
        calls["bundle"].append(build(*args))
        return calls["bundle"][-1]

    monkeypatch.setattr(cli, "_json", recording_dump)
    monkeypatch.setattr(cli, "_build_bundle", recording_build)
    return calls


def test_every_json_output_is_one_line(tmp_path, recorded):
    cfg = write_config(tmp_path, EX2_CONFIG)
    bundle = str(tmp_path / "bundle.json")
    argvs = [
        ["synth", "--config", cfg, "--out", bundle],
        ["check", "--config", cfg, "--out", str(tmp_path / "check.json")],
        ["sample", "--config", bundle, "--samples", "16", "--format", "json", "--out", str(tmp_path / "s.json")],
        ["frames", "--config", bundle, "--samples", "16", "--format", "json", "--out", str(tmp_path / "f.json")],
    ]
    check_dumps = []
    for argv in argvs:
        before = len(recorded["json"])
        assert main(argv) == 0, argv
        if argv[0] == "check":
            check_dumps = recorded["json"][before:]
    assert len(check_dumps) == 1
    [(members, _)] = recorded["bundle"]
    # the bundle carries numpy floats from the hull test
    assert type(members["diagnostics"]["hull"]["weights"][0]["weight"]) is np.float64
    loaded = load_bundle(bundle)
    params, positions = ref_sample_positions(loaded, 16)
    want = [
        {**members, "samples": ref_bundle_samples(loaded.generator, loaded.curve, 64)},
        check_dumps[0],
        {"parameters": [cli._finite_or_str(t) for t in params], "positions": positions},
        [ref_pose_dict(p) for p in ref_sample_motion(loaded.generator, loaded.curve, 16)],
    ]
    for argv, obj in zip(argvs, want):
        text = Path(argv[-1]).read_text()
        lines = text.splitlines()
        assert len(lines) == 1, argv[0]
        assert json.loads(lines[0]) == obj, argv[0]
        # compact with sorted keys, whichever writer wrote it
        assert text == cli._json(json.loads(text)), argv[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_float_raises_value_error(tmp_path, monkeypatch, bad):
    for obj in (bad, [1.0, np.float64(bad)], {"a": [bad]}):
        with pytest.raises(ValueError):
            cli._json(obj)
    # main encodes the whole output before it opens --out
    monkeypatch.setattr(cli, "_hull_report", lambda cert: {"residual": bad})
    out = tmp_path / "o.json"
    with pytest.raises(ValueError):
        main(["check", "--config", write_config(tmp_path, EX2_CONFIG), "--out", str(out)])
    assert not out.exists()


# the sampled values each JSON writer writes; a motion's frames only frames writes
SAMPLED_FIELDS = {
    "synth": ("parameters", "positions", "rotations", "speed"),
    "sample": ("parameters", "positions"),
    "frames": ("parameters", "positions", "rotations", "frames"),
}


def _bad_at_row_1(values, bad):
    if isinstance(values, list):
        return values[:1] + [bad] + values[2:]
    values = values.copy()
    values.reshape(len(values), -1)[1, 0] = bad
    return values


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", ["parameters", "positions", "rotations", "frames", "speed"])
def test_non_finite_sample_raises_before_out(bundle_path, tmp_path, capsys, monkeypatch, field, bad):
    """A NaN or inf sampled value makes synth, sample and frames --format json exit 4.

    One ``error: `` line names the curve and nothing is written to --out.
    Only a parameter may be infinite: t = +/-inf is written as the string
    "inf" / "-inf".  CSV writes every float as its repr, inf and nan included.
    """
    motion_of, positions_of, speed_of = cli.sample_motion, cli._sample_positions, cli._mu_speed

    def sample_motion(*args):
        motion = motion_of(*args)
        if field in ("parameters", "positions", "rotations", "frames"):
            motion = dataclasses.replace(motion, **{field: _bad_at_row_1(getattr(motion, field), bad)})
        return motion

    def sample_positions(*args):
        params, positions = positions_of(*args)
        if field == "parameters":
            params = _bad_at_row_1(params, bad)
        if field == "positions":
            positions = _bad_at_row_1(positions, bad)
        return params, positions

    def mu_speed(*args):
        speed = speed_of(*args)
        if field == "speed":
            return SimpleNamespace(eval_floats=lambda ts: _bad_at_row_1(speed.eval_floats(ts), bad))
        return speed

    monkeypatch.setattr(cli, "sample_motion", sample_motion)
    monkeypatch.setattr(cli, "_sample_positions", sample_positions)
    monkeypatch.setattr(cli, "_mu_speed", mu_speed)
    export = ["--config", bundle_path, "--samples", "8", "--format"]
    argvs = {
        "synth": ["synth", "--config", write_config(tmp_path, EX2_CONFIG)],
        "sample": ["sample", *export, "json"],
        "frames": ["frames", *export, "json"],
    }
    row_1_parameter = {
        "synth": lambda data: data["samples"]["poses"][1]["parameter"],
        "sample": lambda data: data["parameters"][1],
        "frames": lambda data: data[1]["parameter"],
    }
    for command, argv in argvs.items():
        out = tmp_path / f"{command}.json"
        if field in SAMPLED_FIELDS[command] and not (field == "parameters" and math.isinf(bad)):
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 4, command
            assert capsys.readouterr().err == "error: curve: a sampled value is NaN or infinite\n", command
            assert not out.exists(), command
            continue
        assert main(argv + ["--out", str(out)]) == 0, command
        text = out.read_text()
        assert cli._json(json.loads(text)) == text, command
        if field == "parameters":
            assert row_1_parameter[command](json.loads(text)) == cli._finite_or_str(bad), command
    # CSV writes every value as its repr; sample writes no parameter
    for command, fields in (("sample", ("positions",)), ("frames", SAMPLED_FIELDS["frames"])):
        if field in fields:
            out = tmp_path / f"{command}.csv"
            assert main([command, *export, "csv", "--out", str(out)]) == 0, command
            assert repr(bad) in out.read_text().splitlines()[2].split(","), command


def _hull_gate_config(poles=((0, 4, 6),)):
    raw = json.loads(json.dumps(EX2_CONFIG))
    raw["quaternion"] = [["1", "0", "0", "0"]]
    raw["poles"] = [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in poles]
    return raw


def _zero_denominator_config():
    raw = json.loads(json.dumps(EX2_CONFIG))
    raw["quaternion"][0][0] = "1/0"
    return raw


def _large_generator_config():
    # A A* squares this coefficient beyond the float range
    raw = json.loads(json.dumps(EX2_CONFIG))
    raw["quaternion"][3][0] = "1" + "0" * 155
    return raw


def _small_generator_config(entry=3):
    # 1e-400 is 0 as a float: a leading coefficient of 1e-400 leaves A A* without
    # its leading coefficient in the float hull test
    raw = json.loads(json.dumps(EX2_CONFIG))
    raw["quaternion"][entry][0] = "1e-400"
    return raw


def _generator_bundle(coefficients, scale=1):
    # the bundle with generator.coefficients replaced by the generator times
    # scale, and mu over scale^2, so that the curve stays the bundle's
    def write(bundle_path, tmp_path):
        data = json.loads(Path(bundle_path).read_text())
        data["generator"]["coefficients"] = coefficients
        data["mu"] = [format_rational(parse_rational(v) / F(scale) ** 2) for v in data["mu"]]
        path = tmp_path / "generator.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def _large_curve_bundle(largest):
    # the bundle with its curve numerators scaled so the largest coefficient is
    # `largest`, and mu by the same factor, so that r' = (mu/alpha) A i A* still holds
    def write(bundle_path, tmp_path):
        data = json.loads(Path(bundle_path).read_text())
        nums = [[parse_rational(c) for c in n] for n in data["curve"]["numerators"]]
        scale = F(largest) / max(abs(c) for n in nums for c in n)
        data["curve"]["numerators"] = [[format_rational(c * scale) for c in n] for n in nums]
        data["mu"] = [format_rational(parse_rational(c) * scale) for c in data["mu"]]
        path = tmp_path / "large_curve.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def _non_ph_bundle(bundle_path, tmp_path):
    data = json.loads(Path(bundle_path).read_text())
    data["curve"]["numerators"][0] = ["0", "1"]
    path = tmp_path / "non_ph.json"
    path.write_text(json.dumps(data))
    return str(path)


# (command, the --config file from (bundle_path, tmp_path), extra arguments, exit code)
FAILURES = {
    "parse-error": ("synth", lambda b, tmp: write_config(tmp, _zero_denominator_config()), [], 4),
    "negative-degree": ("synth", lambda b, tmp: write_config(tmp, with_multiplicity(3)), [], 2),
    "empty-kernel": ("synth", lambda b, tmp: write_config(tmp, with_multiplicity(4)), [], 2),
    "hull-gate": ("synth", lambda b, tmp: write_config(tmp, _hull_gate_config()), [], 3),
    "indeterminate-sdp": (
        "synth", lambda b, tmp: write_config(tmp, _hull_gate_config(((0, 4, 3),))), ["--force"], 3
    ),
    "non-ph-curve": ("sample", _non_ph_bundle, ["--format", "svg"], 4),
    "unreadable-bundle": ("frames", lambda b, tmp: str(tmp / "missing.json"), [], 4),
    "unwritable-out": ("check", lambda b, tmp: write_config(tmp, EX2_CONFIG), [], 4),
    **{
        f"generator-overflow-{command}": (command, lambda b, tmp: write_config(tmp, _large_generator_config()), [], 4)
        for command in ("check", "synth")
    },
    "generator-empty-array": ("frames", _generator_bundle([]), [], 4),
    "generator-zero": ("frames", _generator_bundle(0), [], 4),
    "generator-false": ("frames", _generator_bundle(False), [], 4),
    "generator-empty-string": ("frames", _generator_bundle(""), [], 4),
    "generator-empty-object": ("frames", _generator_bundle({}), [], 4),
    # coefficients beyond float range: 10^308 still converts, the speed's squares do not
    **{
        f"curve-overflow-{command}-{fmt}": (command, _large_curve_bundle(10**400), ["--format", fmt], 4)
        for command, fmt in EXPORTS
    },
    "speed-overflow-sample-svg": ("sample", _large_curve_bundle(10**308), ["--format", "svg"], 4),
    # every coefficient converts, but some speeds are inf, and speed / max speed NaN
    "speed-non-finite-sample-svg": (
        "sample", lambda b, tmp: _scaled_curve_bundle(b, tmp, F(2) ** 1023, "mu"), ["--format", "svg"], 4
    ),
    **{
        f"generator-overflow-frames-{fmt}": (
            "frames",
            _generator_bundle([[str(int(v) * 10**400) for v in q] for q in EX2_CONFIG["quaternion"]], 10**400),
            ["--format", fmt],
            4,
        )
        for fmt in ("json", "csv")
    },
    # 1.7e308 converts, but the curve's float values overflow to inf and NaN, which JSON cannot hold
    **{
        f"curve-non-finite-{command}-json": (command, _large_curve_bundle(F(17, 10) * 10**308), ["--format", "json"], 4)
        for command in ("sample", "frames")
    },
    **{
        f"generator-underflow-{command}": (command, lambda b, tmp: write_config(tmp, _small_generator_config()), [], 4)
        for command in ("check", "synth")
    },
    # every float value of A is 0, so its norm vanishes at every parameter
    **{
        f"generator-underflow-frames-{fmt}": (
            "frames",
            _generator_bundle([[f"{v}e-400" for v in q] for q in EX2_CONFIG["quaternion"]], F(1, 10**400)),
            ["--format", fmt],
            4,
        )
        for fmt in ("json", "csv")
    },
}
# --out under tmp_path, "out" unless named here
OUT_PATHS = {"unwritable-out": "missing-dir/out"}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_prints_one_error_line_and_writes_nothing(bundle_path, tmp_path, capsys, case):
    command, config, extra, code = FAILURES[case]
    out = tmp_path / OUT_PATHS.get(case, "out")
    argv = [command, "--config", config(bundle_path, tmp_path), "--out", str(out)] + extra
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "case, field",
    [("curve-overflow-frames-csv", "curve"), ("speed-overflow-sample-svg", "curve"),
     ("speed-non-finite-sample-svg", "curve"), ("non-ph-curve", "curve"),
     ("generator-overflow-frames-json", "generator.coefficients"),
     ("generator-overflow-check", "quaternion"),
     ("curve-non-finite-sample-json", "curve"), ("curve-non-finite-frames-json", "curve"),
     ("generator-underflow-check", "quaternion"), ("generator-underflow-synth", "quaternion"),
     ("generator-underflow-frames-json", "generator.coefficients"),
     ("generator-underflow-frames-csv", "generator.coefficients")],
)
def test_overflow_names_the_field(bundle_path, tmp_path, capsys, case, field):
    command, config, extra, _ = FAILURES[case]
    capsys.readouterr()
    main([command, "--config", config(bundle_path, tmp_path), "--out", str(tmp_path / "out")] + extra)
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.fixture(scope="module")
def two_factor_bundle(tmp_path_factory):
    """The bundle ``synth`` writes for the reference generator over (0,4)^8.(1,3)^6, as a path."""
    tmp = tmp_path_factory.mktemp("two_factor")
    cfg_data = json.loads(json.dumps(EX2_CONFIG))
    cfg_data["poles"] = [{"b": "0", "c": "4", "multiplicity": 8}, {"b": "1", "c": "3", "multiplicity": 6}]
    out = str(tmp / "bundle.json")
    assert main(["synth", "--config", write_config(tmp, cfg_data), "--out", out]) == 0
    return out


def _swap_j_and_k(data):
    data["generator"]["coefficients"] = [[w, x, z, y] for w, x, y, z in data["generator"]["coefficients"]]


def _edit_first(values, edit):
    values[0] = format_rational(edit(parse_rational(values[0])))


def _times_t2_plus_1(data):
    # a real-root-free denominator, of higher degree than every numerator
    den = [parse_rational(v) for v in data["curve"]["denominator"]]
    data["curve"]["denominator"] = [format_rational(a + b) for a, b in zip(den + [0, 0], [0, 0] + den)]


def _translate_x(data):
    # numerator 0 plus den: the curve plus (1, 0, 0), with the same r' but r(0) = (1, 0, 0)
    curve = data["curve"]
    num, den = (cli._poly_from_rats(v, "curve") for v in (curve["numerators"][0], curve["denominator"]))
    curve["numerators"][0] = cli._poly_to_rats(num + den)


def _add_alpha_to_mu(data):
    # (mu + alpha) / alpha A i A* adds the polynomial W = int_0^t A i A* to the
    # curve: mu + alpha stays positive and r' = (mu/alpha) A i A* still holds,
    # but every numerator N + W den outgrows den
    gen = cli._generator(data["generator"]["coefficients"], "generator")
    den = cli._poly_from_rats(data["curve"]["denominator"], "curve.denominator")
    mu, alpha = (cli._poly_from_rats(data[k], k) for k in ("mu", "alpha"))
    data["mu"] = cli._poly_to_rats(mu + alpha)
    data["curve"]["numerators"] = [
        cli._poly_to_rats(cli._poly_from_rats(n, "n") + w.antiderivative() * den)
        for n, w in zip(data["curve"]["numerators"], rotate_vector(gen, QI).vector_polys())
    ]


# (edit of the bundle's data, the field its error line names)
BUNDLE_EDITS = {
    "generator-j-k-swapped": (_swap_j_and_k, "curve"),
    "curve-coefficient-plus-1": (lambda d: _edit_first(d["curve"]["numerators"][1], lambda c: c + 1), "curve"),
    "mu-coefficient-doubled": (lambda d: _edit_first(d["mu"], lambda c: 2 * c), "curve"),
    "alpha-coefficient-doubled": (lambda d: _edit_first(d["alpha"], lambda c: 2 * c), "alpha"),
    "mu-missing": (lambda d: d.pop("mu"), "mu"),
    "mu-negated": (lambda d: d.update(mu=[format_rational(-parse_rational(v)) for v in d["mu"]]), "mu"),
    "denominator-not-dividing-lift": (_times_t2_plus_1, "curve"),
    "numerator-degree-above-denominator": (_add_alpha_to_mu, "curve"),
    "curve-translated": (_translate_x, "curve"),
}


@pytest.mark.parametrize("edit", BUNDLE_EDITS)
def test_bundle_failing_its_identity_exits_4(two_factor_bundle, tmp_path, capsys, edit):
    """A bundle edited in one place fails its load check: sample and frames exit 4, naming the field.

    Each edit leaves every field parseable and in float range, so only
    the load checks can catch it; the last two keep r' = (mu/alpha) A i A*
    itself, so only the curve that ``synthesize_curve`` integrates from mu,
    with its degree bound and r(0) = 0, does.
    """
    corrupt, field = BUNDLE_EDITS[edit]
    data = json.loads(Path(two_factor_bundle).read_text())
    corrupt(data)
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    for command, fmt in EXPORTS:
        capsys.readouterr()
        assert main([command, "--config", config, "--format", fmt, "--out", str(out)]) == 4, (command, fmt)
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists(), (command, fmt)
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {field}: "), (command, fmt, captured.err)
    # the unedited bundle loads
    assert main(["frames", "--config", two_factor_bundle, "--samples", "16", "--out", str(out)]) == 0


def test_large_curve_csv_and_obj_write_inf(bundle_path, tmp_path, capsys):
    # the curve of curve-non-finite-*-json: JSON refuses its inf values, CSV and OBJ write them
    config = _large_curve_bundle(F(17, 10) * 10**308)(bundle_path, tmp_path)
    for command, fmt in (("sample", "csv"), ("sample", "obj"), ("frames", "csv")):
        assert main([command, "--config", config, "--samples", "16", "--format", fmt]) == 0, fmt
        captured = capsys.readouterr()
        assert captured.err == "", fmt
        assert "inf" in captured.out, fmt


def test_tiny_coefficient_below_the_lead_still_works(tmp_path, capsys):
    # 1e-400 is 0 as a float; only a leading one leaves the float evaluation without a value
    config = write_config(tmp_path, _small_generator_config(entry=2))
    assert main(["check", "--config", config]) == 0
    assert json.loads(capsys.readouterr().out)["hull"]["status"] is True
    bundle = str(tmp_path / "bundle.json")
    assert main(["synth", "--config", config, "--out", bundle]) == 0
    assert main(["frames", "--config", bundle, "--samples", "16", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 16


def _rotation_matrices(q: np.ndarray) -> np.ndarray:
    """n x 3 x 3 rotation matrices of the unit quaternions q (n x 4, w x y z), row k = q e_k q*."""
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)], axis=1),
            np.stack([2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)], axis=1),
            np.stack([2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)], axis=1),
        ],
        axis=1,
    )


def test_old_bundles_export_like_v3(bundle_path, tmp_path, capsys):
    data = json.loads(Path(bundle_path).read_text())
    assert data["schema"] == "phforge-bundle-v3"
    poses = data["samples"]["poses"]
    assert all(pose.keys() == {"parameter", "position", "rotation"} for pose in poses)
    # the stored rotations determine the frames: nothing is lost by not storing them
    bundle = load_bundle(bundle_path)
    frames = geometry.sample_motion(bundle.generator, bundle.curve, len(poses)).frames
    stored = _rotation_matrices(np.array([pose["rotation"] for pose in poses]))
    assert np.max(np.abs(stored - frames)) <= 1e-15

    # a v2 bundle also stored each pose's frame
    for pose, frame in zip(poses, frames.tolist()):
        pose["frame"] = frame
    data["schema"] = "phforge-bundle-v2"
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps(data))
    # a v1 bundle also stored samples.count, .angles and .parameters
    data["schema"] = "phforge-bundle-v1"
    data["samples"]["count"] = len(poses)
    data["samples"]["angles"] = [2.0 * math.pi * j / len(poses) for j in range(len(poses))]
    data["samples"]["parameters"] = [pose["parameter"] for pose in poses]
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(data))
    for export in ([command, "--format", fmt] for command, fmt in EXPORTS):
        outputs = []
        for path in (bundle_path, str(v2), str(v1)):
            assert main(export + ["--samples", "32", "--config", path]) == 0, export
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], export


def test_parser_reuse_matches_a_fresh_parser(bundle_path, capsys):
    cli._build_parser.cache_clear()
    assert main(["sample", "--config", bundle_path]) == 0
    fresh = capsys.readouterr().out
    parser = cli._build_parser()
    # options of one call must not carry over into the next
    assert main(["frames", "--config", bundle_path, "--format", "csv", "--samples", "16"]) == 0
    capsys.readouterr()
    assert main(["sample", "--config", bundle_path]) == 0
    assert capsys.readouterr().out == fresh
    assert cli._build_parser() is parser
    # no --format gives JSON, no --samples 256 points
    assert len(json.loads(fresh)["positions"]) == 256
