"""Command-line surface: scenario files in, reports and exit codes out."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearbot import cli, orchestrator
from clearbot.camera import DepthNoiseModel, Intrinsics, encode_depth_pgm
from clearbot.orchestrator import (
    DepthBiasInjection,
    ScenarioConfig,
    Simulation,
    scenario_to_dict,
)
from clearbot.scene import BrickDims, ObjectClass, ObjectSpec, PipeDims
from clearbot.segmentation import CutBand, Erode, Holes, Relabel

REPORT_KEYS = {"seed", "config_digest", "attempted", "succeeded", "records", "wall_notes"}
RECORD_KEYS = {
    "id", "class", "outcome", "cause", "attribution",
    "elapsed_s", "center_error_m", "yaw_error_rad", "mask_iou",
}


def one_brick_config(**overrides) -> ScenarioConfig:
    kwargs = dict(
        name="one-brick",
        objects=(
            ObjectSpec("b", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 1.2, 0.05, 0.3),
        ),
        ugv_end=(2.5, 0.0),
        speed=0.5,
        seed=11,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def write_scenario(tmp_path, cfg: ScenarioConfig, mutate=None) -> str:
    doc = scenario_to_dict(cfg)
    if mutate:
        mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


# --- simulate -----------------------------------------------------------------


def test_simulate_writes_report_and_log(tmp_path, capsys):
    scenario = write_scenario(tmp_path, one_brick_config())
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(out)])
    assert code == 0
    assert "picked 1/1" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert report["seed"] == 11
    assert report["attempted"] == 1 and report["succeeded"] == 1
    (rec,) = report["records"]
    assert set(rec) == RECORD_KEYS
    assert rec["id"] == "b" and rec["class"] == "brick"
    assert rec["outcome"] == "Success" and rec["elapsed_s"] == 20.0
    lines = (out / "messages.ndjson").read_text().splitlines()
    assert lines and all(json.loads(l)["topic"] for l in lines)


def test_simulate_exit_1_when_a_pick_fails(tmp_path, capsys):
    cfg = one_brick_config(injections=(DepthBiasInjection("b", 0.03),))
    scenario = write_scenario(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    (rec,) = report["records"]
    assert rec["outcome"] == "MissedGrasp"
    assert rec["attribution"] == ["Camera"]


def test_simulate_survives_a_clock_just_past_a_frame_slot(tmp_path, capsys):
    # this braking lag leaves the clock a hair past a frame slot when the
    # vehicle stops; the standstill capture must not step the clock back
    scenario = write_scenario(tmp_path, one_brick_config(stop_latency=1.609047619047619))
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_seed_flag_overrides_file(tmp_path, capsys):
    scenario = write_scenario(tmp_path, one_brick_config())
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(out), "--seed", "123"])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["seed"] == 123


def test_simulate_accepts_adaptive_order_flag(tmp_path, capsys):
    scenario = write_scenario(tmp_path, one_brick_config())
    out = tmp_path / "out"
    assert cli.main(
        ["simulate", "--scenario", scenario, "--out", str(out), "--adaptive-order"]
    ) == 0


def test_simulate_dump_frames_writes_images(tmp_path, capsys):
    for noise in (DepthNoiseModel(), DepthNoiseModel(sigma=0.002)):
        cfg = one_brick_config(noise=noise)
        scenario = write_scenario(tmp_path, cfg)
        out = tmp_path / ("clean" if noise.is_identity else "noisy")
        code = cli.main(
            ["simulate", "--scenario", scenario, "--out", str(out), "--dump-frames"]
        )
        assert code == 0
        labels = sorted((out / "frames").glob("*_labels.ppm"))
        depths = sorted((out / "frames").glob("*_depth.pgm"))
        assert labels and len(labels) == len(depths)
        n_frames = sum(
            json.loads(l)["topic"] == "CameraFrames"
            for l in (out / "messages.ndjson").read_text().splitlines()
        )
        assert len(labels) == n_frames
        assert labels[0].read_bytes().startswith(b"P6\n512 256\n255\n")
        assert depths[0].read_bytes().startswith(b"P5\n512 256\n65535\n")
        # frame 0's dumped depth is the depth the run perceived, noise and all
        _, perceived = Simulation(cfg)._capture(standstill=False, inject_for=None)
        dumped = depths[0].read_bytes()
        assert dumped == encode_depth_pgm(perceived.depth)
        assert (dumped == encode_depth_pgm(perceived.clean_depth)) == noise.is_identity


def test_simulate_rejects_tall_camera(tmp_path, capsys):
    def raise_camera(doc):
        doc["camera"]["height_m"] = 1.6

    scenario = write_scenario(tmp_path, one_brick_config(), mutate=raise_camera)
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "camera.height_m" in err and "exceeds 1.5 m" in err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    def add_junk(doc):
        doc["gravity"] = 9.81

    scenario = write_scenario(tmp_path, one_brick_config(), mutate=add_junk)
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "gravity" in capsys.readouterr().err


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value

    return mutate


def _both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)

    return mutate


_HOLES = {"op": "holes", "fraction": 0.1, "seed": 0}


@pytest.mark.parametrize(
    "mutate,path",
    [
        (_set("ugv", "speed", math.nan), "ugv.speed"),
        (_set("ugv", "end", [math.inf, 0.0]), "ugv.end[0]"),
        (_set("objects", 0, "pose", "yaw", math.nan), "objects[0].pose.yaw"),
        (_set("camera", "noise", "sigma", math.nan), "camera.noise.sigma"),
        (_set("arm", "d_tol", math.nan), "arm.d_tol"),
        (_set("arm", "phase_durations", "grasp", math.nan), "arm.phase_durations.grasp"),
        (
            _set("corruptions", [{"op": "relabel", "region": [0, 8.5, 0, 8], "new_class": 0}]),
            "corruptions[0].region[1]",
        ),
        (_set("frame_period", 1e-9), "frame_period"),
        (_set("ugv", "stop_latency", 10**400), "ugv.stop_latency"),
        (_both(_set("seed", -1), _set("camera", "noise", "sigma", 0.002)), "seed"),
        (_both(_set("seed", -1), _set("corruptions", [_HOLES])), "seed"),
        (_set("seed", 2**63), "seed"),
        (_set("corruptions", [{**_HOLES, "seed": -5}]), "corruptions[0]"),
        (_set("corruptions", [{**_HOLES, "seed": 2**63}]), "corruptions[0]"),
        pytest.param(
            _set("camera", "noise", "sigma", 1e308),
            "camera.noise.sigma",
            id="mutate-camera.noise.sigma-too-large",
        ),
        (_set("camera", "noise", "bias", 1e308), "camera.noise.bias"),
        (
            _set("injections", "depth_bias", [{"id": "b", "bias": 1e308}]),
            "injections.depth_bias[0].bias",
        ),
        (_set("arm", "phase_durations", "descend", 1e308), "arm.phase_durations"),
        pytest.param(
            _set("corruptions", [{"op": "erode", "radius": 11}]),
            "corruptions[0]",
            id="mutate-corruptions[0]-erode-radius-11",
        ),
        pytest.param(
            _set("corruptions", [{"op": "erode", "radius": 10**6}]),
            "corruptions[0]",
            id="mutate-corruptions[0]-erode-radius-1e6",
        ),
        (_set("camera", "width", 200000), "camera"),
        (_set("objects", 0, "dims", "length", 1e300), "objects[0].dims.length"),
        pytest.param(
            _set("corruptions", [{"op": "relabel", "region": [-40, -1, 0, 512], "new_class": 0}]),
            "corruptions[0]",
            id="mutate-corruptions[0]-relabel-negative-region",
        ),
        pytest.param(
            _set("injections", "depth_bias", [{"id": "b", "bias": 0.0}, {"id": "b", "bias": 0.05}]),
            "injections.depth_bias[1].id",
            id="mutate-injections.depth_bias-repeated-id",
        ),
        pytest.param(
            _set("camera", "fx", 1e-300),
            "camera.fx",
            id="mutate-camera.fx-1e-300",
        ),
    ],
)
def test_simulate_rejects_bad_value_with_its_path(tmp_path, capsys, mutate, path):
    scenario = write_scenario(tmp_path, one_brick_config(), mutate=mutate)
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {path}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mutate", [_set("ugv", "speed", 1e-6), _set("frame_period", 1e-9)], ids=["slow", "fast"]
)
def test_a_course_over_max_steps_is_one_frame_period_error(tmp_path, capsys, mutate):
    # the drive alone runs over: the run's length is not blamed on the stops
    # and picks as well
    scenario = write_scenario(tmp_path, one_brick_config(), mutate=mutate)
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: frame_period: the course needs")


@pytest.mark.parametrize(
    "where,key,path",
    [
        ((), "seed", "seed"),
        (("camera", "noise"), "sigma", "camera.noise.sigma"),
        (("objects", 0), "id", "objects[0].id"),
    ],
    ids=["top-level", "nested", "in-a-list-entry"],
)
def test_simulate_rejects_a_repeated_key_with_its_path(tmp_path, capsys, where, key, path):
    # the key is written a second time, after the first; a JSON decoder
    # would keep the last value without a word
    def repeat(doc):
        for part in where:
            doc = doc[part]
        doc["__repeat__"] = doc[key]

    scenario = Path(write_scenario(tmp_path, one_brick_config(), mutate=repeat))
    text = scenario.read_text()
    scenario.write_text(text.replace('"__repeat__"', json.dumps(key)))
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: repeated key" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "objects,period,length,frames",
    [
        ((), 0.0625, 2.5, 80),
        (one_brick_config().objects, 0.0625, 2.5, 80),
        # the drive resumes between frame slots, so this stop costs four
        # steps: 7 frames, the final step and 4 make 12
        (one_brick_config().objects, 0.75, 2.625, 7),
    ],
    ids=["empty", "one-brick", "one-brick-slow-camera"],
)
def test_simulate_finishes_a_course_of_exactly_max_steps_frames(
    tmp_path, capsys, monkeypatch, objects, period, length, frames
):
    # at 0.5 m/s the course needs exactly ``frames`` frames, the most allowed
    monkeypatch.setattr(orchestrator, "MAX_STEPS", frames)
    cfg = one_brick_config(objects=objects, frame_period=period, ugv_end=(length, 0.0))
    scenario = write_scenario(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scenario", scenario, "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["attempted"] == len(objects)


def test_simulate_rejects_negative_seed_flag(tmp_path, capsys):
    scenario = write_scenario(tmp_path, one_brick_config(), mutate=_set("corruptions", [_HOLES]))
    out = str(tmp_path / "out")
    code = cli.main(["simulate", "--scenario", scenario, "--out", out, "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: seed:" in err
    assert "Traceback" not in err


def test_readme_scenario_block_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = cli.parse_scenario(json.loads(re.sub(r"//[^\n]*", "", block)))

    def rounded(value):
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        if isinstance(value, list):
            return [rounded(v) for v in value]
        if isinstance(value, float):
            return float(f"{value:.4g}")
        return value

    shown = scenario_to_dict(cfg)
    defaults = scenario_to_dict(ScenarioConfig(name="scenario", objects=()))
    for key in ("seed", "frame_period", "camera", "arm", "ugv"):
        assert rounded(shown[key]) == rounded(defaults[key]), key


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    # the second text nests past the JSON decoder's recursion limit
    for text in ("{ not json", "[" * 200_000 + "]" * 200_000):
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err
        assert not out.exists()


def test_simulate_reports_missing_file(tmp_path, capsys):
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    for path in (tmp_path / "nope.json", not_utf8):
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read scenario" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "dump-frames", "benchmark"])
def test_out_that_is_a_file_is_rejected_before_the_run(tmp_path, capsys, monkeypatch, command):
    taken = tmp_path / "out" / "frames" if command == "dump-frames" else tmp_path / "out"
    taken.parent.mkdir(exist_ok=True)
    taken.write_text("not a directory")
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("ran"))
    if command == "benchmark":
        args = ["benchmark", "--paper-table1"]
    else:
        args = ["simulate", "--scenario", write_scenario(tmp_path, one_brick_config())]
        args += ["--dump-frames"] if command == "dump-frames" else []
    assert cli.main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and "Traceback" not in err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize(
    "command, taken",
    [
        ("simulate", "report.json"),
        ("simulate", "messages.ndjson"),
        ("dump-frames", "frames/frame_00000_depth.pgm"),
        ("benchmark", "messages.ndjson"),
    ],
)
def test_unwritable_output_file_exits_2(tmp_path, capsys, command, taken):
    # a directory where an output file goes is found only when the run ends
    (tmp_path / "out" / taken).mkdir(parents=True)
    if command == "benchmark":
        args = ["benchmark", "--paper-table1"]
    else:
        args = ["simulate", "--scenario", write_scenario(tmp_path, one_brick_config())]
        args += ["--dump-frames"] if command == "dump-frames" else []
    assert cli.main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and "Traceback" not in err


# --- scenario fuzzing ------------------------------------------------------------

#: a small course with both classes, all four corruption kinds, depth noise
#: and a depth-bias injection, so that every scenario section is live; a
#: frame every 0.4 s keeps a run to ~11 frames (~20 ms), one attempt on "b"
#: included, so that many edits fit in the test's time
_FUZZ_DOC = scenario_to_dict(
    ScenarioConfig(
        name="fuzz",
        objects=(
            ObjectSpec("b", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 1.2, 0.05, 0.3),
            ObjectSpec("p", ObjectClass.PIPE, PipeDims(0.03, 0.40), 1.7, -0.1, 1.2),
        ),
        intrinsics=Intrinsics(fx=64.0, fy=64.0, cx=64.0, cy=32.0, width=128, height=64),
        ugv_end=(2.0, 0.0),
        speed=0.5,
        frame_period=0.4,
        noise=DepthNoiseModel(sigma=0.002, dropout_prob=0.01),
        seg_ops=(Erode(1), Holes(0.1, seed=3), CutBand("p", 3), Relabel((0, 8, 0, 8), 2)),
        injections=(DepthBiasInjection("b", 0.02),),
        seed=7,
    )
)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


_FUZZ_LEAVES = tuple(_leaf_paths(_FUZZ_DOC))
_FUZZ_VALUES = (math.nan, 1e308, -1e308, -1, 0, 2**70, "x", [], None, True, 0.5, 1e-300)


@settings(max_examples=550, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(_FUZZ_LEAVES), st.sampled_from(_FUZZ_VALUES)),
        min_size=1,
        max_size=2,
        unique_by=lambda edit: edit[0],
    )
)
def test_simulate_survives_adversarial_scenario_leaves(edits):
    doc = copy.deepcopy(_FUZZ_DOC)
    for path, value in edits:
        _set(*path, value)(doc)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--scenario", str(scenario), "--out", tmp + "/out"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# --- calibrate -----------------------------------------------------------------


def test_calibrate_recovers_known_transform(tmp_path, capsys):
    # camera points and their images under r=diag(1,-1,-1), t=(0.65, 0, 1.25)
    cam = [(0.0, 0.0, 1.2), (0.3, -0.1, 1.0), (-0.2, 0.25, 1.4), (0.1, 0.1, 0.9)]
    rows = [
        f"{x} {y} {z} {0.65 + x} {-y} {1.25 - z}" for x, y, z in cam
    ]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("# camera xyz, arm xyz\n\n" + "\n".join(rows) + "\n")
    code = cli.main(["calibrate", "--pairs", str(pairs)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"r", "t", "rms_residual"}
    assert doc["r"] == pytest.approx([1, 0, 0, 0, -1, 0, 0, 0, -1], abs=1e-9)
    assert doc["t"] == pytest.approx([0.65, 0.0, 1.25], abs=1e-9)
    assert doc["rms_residual"] < 1e-9


def test_calibrate_identity(tmp_path, capsys):
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pairs = tmp_path / "pairs.txt"
    # 1e6 m is the largest coordinate a row may hold
    for scale in (1, 1e6):
        scaled = [(scale * x, scale * y, scale * z) for x, y, z in pts]
        pairs.write_text("\n".join(f"{x} {y} {z} {x} {y} {z}" for x, y, z in scaled))
        assert cli.main(["calibrate", "--pairs", str(pairs)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == pytest.approx([1, 0, 0, 0, 1, 0, 0, 0, 1], abs=1e-12)
        assert doc["t"] == pytest.approx([0, 0, 0], abs=1e-12 * scale)


def test_calibrate_needs_three_rows(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0 0 0 0 0\n1 0 0 1 0 0\n")
    assert cli.main(["calibrate", "--pairs", str(pairs)]) == 2
    assert "need at least 3 correspondence rows, got 2" in capsys.readouterr().err


def test_calibrate_rejects_collinear_points(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("\n".join(f"{i} 0 0 {i} 0 0" for i in range(4)))
    assert cli.main(["calibrate", "--pairs", str(pairs)]) == 2
    assert "degenerate configuration" in capsys.readouterr().err


def test_calibrate_rejects_bad_rows(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    bad = {
        "0 0 0 0 0 abc": "every field must be a number",
        "1 2 3 4 5": "expected 6 numbers, got 5",
        # NaN and infinities break the fit's SVD, and squares of 1e154 or
        # more overflow its residual
        "0 0 0 0 0 nan": "every field must be finite",
        "0 0 inf 0 0 0": "every field must be finite",
        "0 0 0 -inf 0 0": "every field must be finite",
        "1e160 0 0 1e160 0 0": "every field must be finite and at most 1e+06 m in size",
        "0 0 0 0 -1000001 0": "every field must be finite and at most 1e+06 m in size",
    }
    pairs.write_text("\n".join(bad) + "\n")
    assert cli.main(["calibrate", "--pairs", str(pairs)]) == 2
    err = capsys.readouterr().err
    for lineno, message in enumerate(bad.values(), 1):
        assert f"error: line {lineno}: {message}" in err
    assert "Traceback" not in err


def test_calibrate_reports_unreadable_pairs(tmp_path, capsys):
    not_utf8 = tmp_path / "pairs.txt"
    not_utf8.write_bytes(b"0 0 0 0 0 0\n\xff\xfe\n")
    for path in (tmp_path / "nope.txt", not_utf8):
        assert cli.main(["calibrate", "--pairs", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read pairs" in err and "Traceback" not in err


# --- benchmark -----------------------------------------------------------------


def test_benchmark_runs_the_frozen_course(cli_benchmark):
    code, stdout, out, _ = cli_benchmark
    assert code == 0
    assert "picked 7/10" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["attempted"] == 10 and report["succeeded"] == 7
    assert (out / "messages.ndjson").exists()


def test_benchmark_flag_is_required(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["benchmark", "--out", str(tmp_path)])
    assert exc_info.value.code == 2
