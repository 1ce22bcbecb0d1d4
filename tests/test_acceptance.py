"""Acceptance gate: ten checks, one printed pass/fail line each.

Every check states its tolerance inline and uses an oracle independent of
the code path it validates (analytic ground truth, frozen tables, or a
generating model), so a regression cannot hide behind its own arithmetic.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from clearbot.camera import DEFAULT_INTRINSICS, LabelImage, render
from clearbot.geometry import (
    Frame,
    MaskComponent,
    Point3,
    RigidTransform,
    camera_to_arm_transform,
    component_center_3d,
    compose,
    connected_components,
    estimate_rigid_transform,
    principal_orientation,
    registration_rms,
    rotation_about_z,
    transform_to_arm,
)
from clearbot.orchestrator import (
    PipelineState,
    Simulation,
    Topic,
    _array_digest,
    build_benchmark_config,
    messages_to_ndjson,
    replay_grasp_targets,
    report_to_json,
    run_scenario,
)
from clearbot.scene import (
    ArmMount,
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
    Scene,
)
from clearbot.schema import DepthBiasInjection, ScenarioConfig
from clearbot.segmentation import segment

from helpers import Recorder


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {label}")
        raise
    print(f"[PASS] criterion {n}: {label}")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def correspondence_pairs(rng, r, t, n, sigma=0.0):
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    mapped = pts @ r.T + t
    if sigma > 0.0:
        mapped = mapped + rng.normal(scale=sigma, size=mapped.shape)
    return [
        (Point3(*p, Frame.CAMERA), Point3(*q, Frame.ARM))
        for p, q in zip(pts, mapped)
    ]


# frozen outcome table for the ten-object course, by object id
COURSE_TABLE = {
    "b1": ("Success", []),
    "p1": ("Success", []),
    "b2": ("MissedGrasp", ["Camera"]),
    "p2": ("Success", []),
    "b3": ("MissedGrasp", ["ContextAwareness", "GeometryDescriptor"]),
    "p3": ("BoundaryCollision", ["RoboticArm"]),
    "b4": ("Success", []),
    "p4": ("Success", []),
    "b5": ("Success", []),
    "p5": ("Success", []),
}


def test_criterion_01_course_scoreboard(cli_benchmark):
    with criterion(1, "benchmark command scores 7/10 with the frozen attribution table"):
        code, stdout, out, wall = cli_benchmark
        assert code == 0
        assert "picked 7/10" in stdout
        assert wall < 10.0  # seconds of real time, full course
        report = json.loads((out / "report.json").read_text())
        assert report["attempted"] == 10 and report["succeeded"] == 7
        rows = {r["id"]: (r["outcome"], r["attribution"]) for r in report["records"]}
        assert rows == COURSE_TABLE
        classes = [r["class"] for r in report["records"]]
        assert classes.count("brick") == 5 and classes.count("pipe") == 5


def test_criterion_02_timing_budget(benchmark_run):
    with criterion(2, "successful picks take exactly 20.0 s; perception stays under 1 s"):
        report, _, recorder, _ = benchmark_run
        successes = [r for r in report.records if r.outcome == "Success"]
        assert successes and all(r.elapsed_s == 20.0 for r in successes)
        frames = {
            e.payload.frame_index: e.payload
            for e in recorder.history(Topic.CAMERA_FRAMES)
        }
        for topic in (Topic.GRASP_TARGETS, Topic.ARM_COMMANDS):
            envs = recorder.history(topic)
            assert envs
            for env in envs:
                lag = env.t - frames[env.payload.frame_index].t_capture
                assert 0.0 < lag < 1.0


def test_criterion_03_calibration_recovery():
    with criterion(3, "registration recovers sampled transforms to 1e-9; 1 mm noise stays under 5 mm RMS"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            r = random_rotation(rng)
            t = rng.uniform(-2.0, 2.0, size=3)
            est = estimate_rigid_transform(correspondence_pairs(rng, r, t, 6))
            assert np.abs(est.rotation - r).max() <= 1e-9
            assert np.abs(est.translation - t).max() <= 1e-9
        for _ in range(100):
            r = random_rotation(rng)
            t = rng.uniform(-2.0, 2.0, size=3)
            pairs = correspondence_pairs(rng, r, t, 10, sigma=0.001)
            est = estimate_rigid_transform(pairs)
            assert registration_rms(est, pairs) <= 0.005


def test_criterion_04_transform_algebra():
    with criterion(4, "round trips return points to 1e-12; rotations stay orthonormal to 1e-9"):
        rng = np.random.default_rng(2025)

        def assert_rotation_ok(m: np.ndarray) -> None:
            assert np.abs(m.T @ m - np.eye(3)).max() <= 1e-9
            assert abs(np.linalg.det(m) - 1.0) <= 1e-9

        t = RigidTransform(
            random_rotation(rng), rng.uniform(-1, 1, 3), Frame.CAMERA, Frame.ARM
        )
        pts = rng.uniform(-5.0, 5.0, size=(100_000, 3))
        back = t.inverse().apply_array(t.apply_array(pts))
        assert np.abs(back - pts).max() <= 1e-12

        for _ in range(50):
            assert_rotation_ok(rotation_about_z(rng.uniform(-10, 10)))
            mounts = camera_to_arm_transform(
                CameraMount(*rng.uniform(-1, 1, 2), rng.uniform(0.5, 1.4)),
                ArmMount(*rng.uniform(-1, 1, 2), rng.uniform(0.0, 0.4), rng.uniform(-3, 3)),
            )
            assert_rotation_ok(mounts.rotation)
            est = estimate_rigid_transform(
                correspondence_pairs(rng, random_rotation(rng), rng.uniform(-1, 1, 3), 6)
            )
            assert_rotation_ok(est.rotation)
            assert_rotation_ok(est.inverse().rotation)
            assert_rotation_ok(compose(mounts, est.inverse()).rotation)


def test_criterion_05_orientation_estimator():
    with criterion(5, "long-edge angle within 2 degrees at 50 angles; translation invariant"):
        def rect_component(theta: float, shift=(0, 0)) -> MaskComponent:
            rows, cols = np.mgrid[0:220, 0:220]
            x = cols - 110.0 - shift[1]
            y = rows - 110.0 - shift[0]
            c, s = math.cos(theta), math.sin(theta)
            u = x * c + y * s
            v = -x * s + y * c
            mask = (np.abs(u) <= 32.0) & (np.abs(v) <= 10.0)  # 64 x 20 px
            labels = LabelImage((mask * ObjectClass.BRICK.label).astype(np.uint8))
            return connected_components(labels, ObjectClass.BRICK)[0]

        def gap(a: float, b: float) -> float:
            d = abs(a - b) % math.pi
            return min(d, math.pi - d)

        for theta in np.linspace(0.0, math.pi, 50, endpoint=False):
            comp = rect_component(float(theta))
            assert gap(principal_orientation(comp), float(theta)) <= math.radians(2.0)

        base = rect_component(0.6)
        moved = MaskComponent(ObjectClass.BRICK, base.rows + 9, base.cols - 17)
        assert principal_orientation(moved) == principal_orientation(base)


def test_criterion_06_end_to_end_localization():
    with criterion(6, "render -> masks -> 3-D centers lands within 0.01 m of true top centers"):
        # lateral offsets stay near nadir, matching how the pipeline sees
        # objects from a standstill with the camera mounted ahead of the arm
        objects = (
            ObjectSpec("ba", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 0.85, 0.2, 0.3),
            ObjectSpec("bb", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 1.35, 0.15, -0.5),
            ObjectSpec("pa", ObjectClass.PIPE, PipeDims(0.03, 0.40), 1.05, -0.28, 1.0),
            ObjectSpec("pb", ObjectClass.PIPE, PipeDims(0.03, 0.40), 0.72, -0.08, 0.4),
        )
        camera = CameraMount(1.05, 0.0, 1.2)
        arm = ArmMount(0.40, 0.0, 0.15)
        scene = Scene(
            objects=objects, ugv=Pose2D(0.0, 0.0, 0.0),
            camera_mount=camera, arm_mount=arm,
        )
        labels, depth = render(scene, DEFAULT_INTRINSICS)
        masks = segment(labels, ())  # oracle segmentation: untouched masks
        cam_to_arm = camera_to_arm_transform(camera, arm)

        # analytic truth: ugv at the origin with zero heading, so the arm
        # frame is the world frame shifted by the mount
        truth = {
            o.id: np.array([o.x - arm.x, o.y - arm.y, o.top_height - arm.z])
            for o in objects
        }
        matched = set()
        for cls in (ObjectClass.BRICK, ObjectClass.PIPE):
            for comp in connected_components(masks, cls):
                center_cam = component_center_3d(comp, depth, DEFAULT_INTRINSICS)
                center = transform_to_arm(center_cam, cam_to_arm).as_array()
                oid = min(
                    (o.id for o in objects if o.cls is cls),
                    key=lambda i: np.linalg.norm(truth[i][:2] - center[:2]),
                )
                err = np.abs(center - truth[oid])
                assert err[0] <= 0.01 and err[1] <= 0.01 and err[2] <= 0.01
                matched.add(oid)
        assert matched == {o.id for o in objects}


def test_criterion_07_depth_bias_always_blames_the_camera():
    with criterion(7, "a 0.02 m depth bias always misses and blames the camera; removing it succeeds"):
        def one_brick(seed: int, biased: bool) -> ScenarioConfig:
            return ScenarioConfig(
                name="bias-check",
                objects=(
                    ObjectSpec(
                        "b", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 1.2, 0.05, 0.3
                    ),
                ),
                ugv_end=(2.5, 0.0),
                speed=0.5,
                injections=(DepthBiasInjection("b", 0.02),) if biased else (),
                seed=seed,
            )

        for seed in range(5):
            report, _ = run_scenario(one_brick(seed, biased=True))
            (rec,) = report.records
            assert rec.outcome == "MissedGrasp"
            assert rec.attribution == ("Camera",)
            report, _ = run_scenario(one_brick(seed, biased=False))
            (rec,) = report.records
            assert rec.outcome == "Success"


def test_criterion_08_adaptive_order_remedy(benchmark_run, adaptive_run):
    with criterion(8, "the boundary pipe fails by default, succeeds adaptively, and wins are a superset"):
        default_report, _, _, _ = benchmark_run
        adaptive_report, _ = adaptive_run
        default_rows = {r.object_id: r.outcome for r in default_report.records}
        adaptive_rows = {r.object_id: r.outcome for r in adaptive_report.records}
        assert default_rows["p3"] == "BoundaryCollision"
        assert adaptive_rows["p3"] == "Success"
        default_wins = {k for k, v in default_rows.items() if v == "Success"}
        adaptive_wins = {k for k, v in adaptive_rows.items() if v == "Success"}
        assert default_wins <= adaptive_wins


def test_criterion_09_determinism_and_replay(benchmark_run, benchmark_rerun):
    with criterion(9, "same seed gives byte-identical outputs; the geometry stage replays exactly"):
        report_a, sim_a, recorder, _ = benchmark_run
        report_b, sim_b = benchmark_rerun
        assert report_to_json(report_a) == report_to_json(report_b)
        assert messages_to_ndjson(sim_a.bus) == messages_to_ndjson(sim_b.bus)
        replayed = replay_grasp_targets(recorder.history(Topic.CAMERA_FRAMES), sim_a.cfg)
        targets = [e.payload for e in recorder.history(Topic.GRASP_TARGETS)]
        assert [payload for _, payload in replayed] == targets
        masks = [e.payload for e in recorder.history(Topic.SEGMENTATION_MASKS)]
        assert len(masks) == len(replayed)
        for (mask, _), logged in zip(replayed, masks):
            assert _array_digest(mask) == logged.digest


def test_criterion_10_causality_and_conservation():
    with criterion(10, "messages stay ordered and causal; objects are conserved; the vehicle holds still to pick"):
        sim = Simulation(build_benchmark_config())
        recorder = Recorder(sim.bus)
        total = len(sim.scene.objects)
        for _ in range(200_000):
            before = (sim.state, sim.distance)
            state = sim.step()
            assert len(sim.scene.objects) + len(recorder.picked()) == total
            if before[0] is PipelineState.PICKING:
                assert sim.distance == before[1]  # zero velocity during the pick
            if state is PipelineState.DONE:
                break
        assert sim.state is PipelineState.DONE

        for topic in Topic:
            envs = recorder.history(topic)
            assert [e.seq for e in envs] == list(range(len(envs)))
            times = [e.t for e in envs]
            assert times == sorted(times)

        frames = {e.payload.frame_index: e for e in recorder.history(Topic.CAMERA_FRAMES)}
        masks = {e.payload.frame_index: e for e in recorder.history(Topic.SEGMENTATION_MASKS)}
        targets = {e.payload.frame_index: e for e in recorder.history(Topic.GRASP_TARGETS)}
        log = recorder.log()
        stops = [e for e in log if e.topic is Topic.CONTROL_STOP]
        commands = [e for e in log if e.topic is Topic.ARM_COMMANDS]
        for k, cmd in enumerate(commands):
            i = cmd.payload.frame_index
            assert frames[i].t < masks[i].t < targets[i].t < cmd.t
            assert log.index(stops[k]) < log.index(cmd) and stops[k].t < cmd.t
