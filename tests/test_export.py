"""The array writers of ``sample``, ``frames`` and the bundle's samples.

Each output is compared byte for byte with the per-pose path in
``helpers`` (``ref_frames``, ``ref_svg``, ...), on the reference generator
and two of its rotations, at sample counts from 2 to 2048; the first row of
every output is the closure point t = inf.
"""

import json
from pathlib import Path

import pytest

from phforge import Quaternion, cli
from phforge.cli import load_bundle, main

from helpers import (
    generator_deg3,
    ref_bundle_samples,
    ref_csv,
    ref_frames,
    ref_sample_positions,
    ref_svg,
)

SAMPLE_COUNTS = (2, 3, 16, 97, 2048)
# left factors with one, two and four nonzero entries in {-1, 0, 1}: the
# reference generator itself and two rotations of it onto signed axes
ROTATIONS = ((1, 0, 0, 0), (0, 0, 1, 0), (1, -1, 1, 1))
BUNDLE_SAMPLES = 64


def _config(rotation) -> dict:
    left = Quaternion.of(*rotation)
    rows = [
        [str(v) for v in (p.w, p.x, p.y, p.z)]
        for p in (left * c for c in generator_deg3().coeffs)
    ]
    return {
        "quaternion": rows,
        "poles": [{"b": "0", "c": "4", "multiplicity": 6}],
        "options": {"samples": BUNDLE_SAMPLES},
    }


@pytest.fixture(scope="module", params=ROTATIONS, ids=str)
def bundle_path(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("export")
    config = tmp / "config.json"
    config.write_text(json.dumps(_config(request.param)))
    out = tmp / "bundle.json"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    return str(out)


@pytest.mark.parametrize("n", SAMPLE_COUNTS)
def test_frames_match_per_pose_writers(bundle_path, n):
    bundle = load_bundle(bundle_path)
    text = {fmt: cli.cmd_frames(bundle, n, fmt) for fmt in ("json", "csv")}
    for fmt in text:
        assert text[fmt] == ref_frames(bundle, n, fmt), fmt
    assert json.loads(text["json"])[0]["parameter"] == "inf"
    assert text["csv"].splitlines()[1].startswith("inf,")


@pytest.mark.parametrize("n", SAMPLE_COUNTS)
def test_sample_matches_per_pose_writers(bundle_path, n):
    bundle = load_bundle(bundle_path)
    _, positions = ref_sample_positions(bundle, n)
    assert cli.cmd_sample(bundle, n, "csv") == ref_csv(positions, ("x", "y", "z"))
    assert cli.cmd_sample(bundle, n, "obj") == cli._obj(positions)
    assert cli.cmd_sample(bundle, n, "svg") == ref_svg(bundle, n)


@pytest.mark.parametrize("n", SAMPLE_COUNTS)
def test_bundle_samples_match_per_pose_writers(bundle_path, n):
    bundle = load_bundle(bundle_path)
    samples = cli._bundle_samples(bundle.generator, bundle.curve, n)
    assert cli._json(samples) == cli._json(ref_bundle_samples(bundle.generator, bundle.curve, n))
    assert samples["poses"][0]["parameter"] == "inf"
    assert samples["positions"] == [p["position"] for p in samples["poses"]]


def test_synth_bundle_samples_match_per_pose_writers(bundle_path):
    data = json.loads(Path(bundle_path).read_text())
    bundle = load_bundle(bundle_path)
    want = ref_bundle_samples(bundle.generator, bundle.curve, BUNDLE_SAMPLES)
    assert data["samples"] == json.loads(cli._json(want))
    # the duplicate positions, until a bundle schema drops them
    assert data["samples"]["positions"] == [p["position"] for p in data["samples"]["poses"]]
