import json
import math
from fractions import Fraction as F

import pytest

from phforge import SynthesisProblem, certify_regular, synthesize_curve
from phforge.cli import load_bundle, main
from phforge.polynomial import Polynomial as P
from phforge.rationals import parse_rational


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
        for view in (["a", 1, 2], [None, 1, 2], [1, 2, "inf"], [1e400, 0, 0], [1, "nan", 2]):
            raw = json.loads(json.dumps(EX2_CONFIG))
            raw["options"]["view"] = view
            assert main(["check", "--config", write_config(tmp_path, raw)]) == 4, view
            assert "options.view" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_too_few_samples_exit_4(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, EX2_CONFIG)
        for value in ("0", "3", "-5"):
            argv = [command, "--config", cfg, "--samples", value, "--out", str(tmp_path / "o.json")]
            assert main(argv) == 4, value
            assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

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
        bundle = json.loads(open(bundle_path).read())
        mu = P([parse_rational(v) for v in bundle["mu"]])
        assert certify_regular(mu)
        diag = bundle["diagnostics"]
        assert diag["kernel_dimension"] == 2
        assert diag["regularity"]["regular"] is True
        assert diag["hull"]["status"] is True
        assert diag["speed_polar_minimum"] > 0

    def test_sampled_positions_match_exact_curve(self, bundle_path):
        data = json.loads(open(bundle_path).read())
        loaded = load_bundle(bundle_path)
        for raw_t, pos in zip(
            data["samples"]["parameters"], data["samples"]["positions"]
        ):
            t = math.inf if raw_t == "inf" else float(raw_t)
            if math.isinf(t):
                exact = loaded.curve.eval_float(t)
            else:
                exact = tuple(
                    float(comp.evaluate(F(t))) for comp in loaded.curve.components()
                )
            assert max(abs(a - b) for a, b in zip(exact, pos)) < 1e-10

    def test_empty_kernel_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_multiplicity(4))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "multiplicities" in capsys.readouterr().err
        # multiplicity 3 leaves the degree-3 generator a negative numerator degree
        cfg = write_config(tmp_path, with_multiplicity(3))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "negative" in capsys.readouterr().err

    def test_no_positive_numerator_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, with_multiplicity(5))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3

    def test_non_finite_margin_exit_4(self, tmp_path, capsys):
        # an infinite margin would relax forever: inf / 10 stays above the floor
        out = str(tmp_path / "o.json")
        cfg = tmp_path / "margin.json"
        for value in ('"inf"', "1e400", '"nan"', '"-inf"'):
            cfg.write_text(json.dumps(EX2_CONFIG).replace('"margin": 0.001', f'"margin": {value}'))
            assert main(["synth", "--config", str(cfg), "--out", out]) == 4, value
            assert "options.margin" in capsys.readouterr().err
        cfg = write_config(tmp_path, EX2_CONFIG)
        for value in ("nan", "inf"):
            assert main(["synth", "--config", cfg, "--out", out, "--margin", value]) == 4, value
            assert "--margin" in capsys.readouterr().err

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
        assert open(out, "rb").read() == open(bundle_path, "rb").read()

    def test_weighted_average_of_solutions(self, tmp_path):
        cfg_data = json.loads(json.dumps(EX2_CONFIG))
        cfg_data["options"]["weights"] = ["2/3", "1/3"]
        cfg = write_config(tmp_path, cfg_data)
        out = str(tmp_path / "avg.json")
        assert main(["synth", "--config", cfg, "--out", out]) == 0
        bundle = json.loads(open(out).read())
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
        for line in open(out):
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
        text = open(out).read()
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
        # a curve that is not Pythagorean-hodograph loads, but has no rational speed for svg
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


def test_config_round_trip(tmp_path):
    from phforge.cli import canonical_config, parse_config

    cfg = parse_config(EX2_CONFIG)
    canon = canonical_config(cfg)
    again = parse_config(canon)
    assert canonical_config(again) == canon
