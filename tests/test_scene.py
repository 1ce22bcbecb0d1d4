"""Scene model: object footprints, validation, and frame changes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearbot.scene import (
    ArmMount,
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
    Scene,
    Violation,
    footprints_overlap,
    object_footprint,
    robot_to_world,
    validate_scene,
    world_to_robot,
)

BRICK = BrickDims(0.20, 0.10, 0.06)
PIPE = PipeDims(0.03, 0.40)


def brick_at(oid: str, x: float, y: float, yaw: float = 0.0, dims: BrickDims = BRICK) -> ObjectSpec:
    return ObjectSpec(oid, ObjectClass.BRICK, dims, x, y, yaw)


def pipe_at(oid: str, x: float, y: float, yaw: float = 0.0, dims: PipeDims = PIPE) -> ObjectSpec:
    return ObjectSpec(oid, ObjectClass.PIPE, dims, x, y, yaw)


# --- footprints ---------------------------------------------------------------


def test_brick_footprint_corners_axis_aligned():
    fp = object_footprint(brick_at("b", 0.0, 0.0, 0.0))
    got = {(round(x, 12), round(y, 12)) for x, y in fp.corners()}
    assert got == {(0.10, 0.05), (-0.10, 0.05), (-0.10, -0.05), (0.10, -0.05)}


def test_brick_footprint_corners_quarter_turn():
    fp = object_footprint(brick_at("b", 0.0, 0.0, math.pi / 2.0))
    got = {(round(x, 12), round(y, 12)) for x, y in fp.corners()}
    assert got == {(0.05, 0.10), (-0.05, 0.10), (-0.05, -0.10), (0.05, -0.10)}


def test_stadium_area_analytic():
    # rectangle L x 2r plus a full disk of radius r from the two end caps
    fp = object_footprint(pipe_at("p", 0.0, 0.0))
    assert fp.area == pytest.approx(0.40 * 0.06 + math.pi * 0.03**2, abs=1e-15)
    assert fp.area == pytest.approx(0.026827433388230814, abs=1e-12)


def test_stadium_area_matches_monte_carlo():
    # independent oracle: hit fraction of uniform samples over the bounding box
    fp = object_footprint(pipe_at("p", 0.37, -0.12, 0.6))
    x0, x1, y0, y1 = fp.aabb()
    rng = np.random.default_rng(0)
    n = 200_000
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    hits = fp.contains(xs, ys)
    mc_area = hits.mean() * (x1 - x0) * (y1 - y0)
    # statistical tolerance ~10 sigma for n = 2e5
    assert abs(mc_area - fp.area) < 1e-4


def test_footprint_area_is_pose_invariant():
    rng = np.random.default_rng(1)
    base_rect = object_footprint(brick_at("b", 0.0, 0.0)).area
    base_stad = object_footprint(pipe_at("p", 0.0, 0.0)).area
    for _ in range(50):
        x, y = rng.uniform(-3, 3, 2)
        yaw = rng.uniform(-math.pi, math.pi)
        assert object_footprint(brick_at("b", x, y, yaw)).area == pytest.approx(
            base_rect, rel=1e-9
        )
        assert object_footprint(pipe_at("p", x, y, yaw)).area == pytest.approx(
            base_stad, rel=1e-9
        )


def test_footprint_contains_center_and_excludes_far_point():
    for obj in (brick_at("b", 1.0, 2.0, 0.7), pipe_at("p", -1.0, 0.5, -0.3)):
        fp = object_footprint(obj)
        assert bool(fp.contains(obj.x, obj.y))
        assert not bool(fp.contains(obj.x + 5.0, obj.y))


# --- validation ---------------------------------------------------------------


def test_empty_scene_with_low_camera_is_valid():
    scene = Scene(objects=(), camera_mount=CameraMount(0.0, 0.0, 1.2))
    assert validate_scene(scene) == []


def test_camera_height_cap():
    scene = Scene(objects=(), camera_mount=CameraMount(0.0, 0.0, 1.6))
    issues = validate_scene(scene)
    assert len(issues) == 1
    assert issues[0].code == "camera_height"
    assert "exceeds 1.5 m" in issues[0].message


def test_camera_must_clear_tallest_object():
    tall = brick_at("tower", 0.0, 0.0, dims=BrickDims(0.2, 0.1, 0.9))
    scene = Scene(objects=(tall,), camera_mount=CameraMount(0.0, 0.0, 0.8))
    codes = [v.code for v in validate_scene(scene)]
    assert codes == ["camera_height"]


def test_identical_poses_overlap_names_both_ids():
    scene = Scene(objects=(brick_at("a", 1.0, 0.0), brick_at("b", 1.0, 0.0)))
    issues = [v for v in validate_scene(scene) if v.code == "overlapping_footprints"]
    assert len(issues) == 1
    assert set(issues[0].ids) == {"a", "b"}
    assert "a" in issues[0].message and "b" in issues[0].message


def test_touching_footprints_do_not_overlap():
    # bricks sharing an edge: contact is allowed, penetration is not
    scene = Scene(objects=(brick_at("a", 0.0, 0.0), brick_at("b", 0.20, 0.0)))
    assert validate_scene(scene) == []
    nudged = Scene(objects=(brick_at("a", 0.0, 0.0), brick_at("b", 0.199, 0.0)))
    assert [v.code for v in validate_scene(nudged)] == ["overlapping_footprints"]


def test_mixed_shape_overlap_detected():
    a = object_footprint(brick_at("a", 0.0, 0.0))
    b = object_footprint(pipe_at("b", 0.0, 0.0))
    assert footprints_overlap(a, b)
    assert not footprints_overlap(a, object_footprint(pipe_at("c", 0.0, 1.0)))


def test_duplicate_ids_reported():
    scene = Scene(objects=(brick_at("x", 0.0, 0.0), brick_at("x", 1.0, 0.0)))
    codes = [v.code for v in validate_scene(scene)]
    assert "duplicate_id" in codes


def test_validate_is_idempotent_and_order_independent():
    objs = (
        brick_at("a", 0.0, 0.0),
        brick_at("b", 0.05, 0.0),
        pipe_at("c", 2.0, 0.0),
    )
    scene = Scene(objects=objs, camera_mount=CameraMount(0.0, 0.0, 1.7))
    first = validate_scene(scene)
    second = validate_scene(scene)
    assert first == second
    permuted = Scene(objects=objs[::-1], camera_mount=CameraMount(0.0, 0.0, 1.7))
    key = lambda v: (v.code, tuple(sorted(v.ids)))
    assert sorted(map(key, validate_scene(permuted))) == sorted(map(key, first))


@st.composite
def crowded_scenes(draw) -> Scene:
    """Bricks and pipes packed into a few square meters, on a 5 cm grid and
    at quarter-turn yaws half of the time, so that overlaps, touching edges
    and tied bounding-box bounds all occur."""
    objects = []
    for i in range(draw(st.integers(0, 14))):
        if draw(st.booleans()):
            x, y = (0.05 * draw(st.integers(-20, 20)) for _ in range(2))
            yaw = draw(st.sampled_from([0.0, math.pi / 2, math.pi]))
        else:
            x, y = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
            yaw = draw(st.floats(-math.pi, math.pi))
        if draw(st.booleans()):
            objects.append(brick_at(f"o{i}", x, y, yaw))
        else:
            objects.append(pipe_at(f"o{i}", x, y, yaw))
    return Scene(objects=tuple(objects))


@settings(deadline=None, max_examples=200)
@given(crowded_scenes())
def test_overlap_sweep_matches_all_pairs(scene):
    feet = [(o.id, object_footprint(o)) for o in scene.objects]
    want = [
        Violation("overlapping_footprints", f"footprints of {a!r} and {b!r} overlap", (a, b))
        for i, (a, fa) in enumerate(feet)
        for b, fb in feet[i + 1 :]
        if footprints_overlap(fa, fb)
    ]
    got = [v for v in validate_scene(scene) if v.code == "overlapping_footprints"]
    assert got == want


# --- construction guards --------------------------------------------------------


def test_dims_must_be_positive():
    with pytest.raises(ValueError):
        BrickDims(0.2, 0.1, 0.0)
    with pytest.raises(ValueError):
        PipeDims(-0.03, 0.4)


def test_brick_length_width_canonical_order():
    with pytest.raises(ValueError):
        BrickDims(0.05, 0.10, 0.06)


def test_object_class_dims_must_agree():
    with pytest.raises(ValueError):
        ObjectSpec("p", ObjectClass.PIPE, BRICK, 0.0, 0.0, 0.0)


def test_pose_heading_wraps_into_half_open_interval():
    assert Pose2D(0, 0, math.pi).heading == pytest.approx(-math.pi)
    assert Pose2D(0, 0, 3 * math.pi / 2).heading == pytest.approx(-math.pi / 2)
    assert Pose2D(0, 0, -math.pi).heading == pytest.approx(-math.pi)


# --- frame changes ---------------------------------------------------------------


def test_world_to_robot_identity_pose():
    p = np.array([0.3, -0.2, 0.5])
    assert np.allclose(world_to_robot(p, Pose2D(0, 0, 0)), p, atol=1e-15)


def test_world_to_robot_translation():
    got = world_to_robot(np.array([1.0, 0.0, 0.0]), Pose2D(1.0, 0.0, 0.0))
    assert np.allclose(got, [0.0, 0.0, 0.0], atol=1e-15)


def test_world_to_robot_rotation():
    got = world_to_robot(np.array([0.0, 1.0, 0.0]), Pose2D(0.0, 0.0, math.pi / 2))
    assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-12)


def test_world_robot_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pose = Pose2D(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        p = rng.uniform(-5, 5, 3)
        back = robot_to_world(world_to_robot(p, pose), pose)
        assert np.allclose(back, p, atol=1e-12)
        fwd = world_to_robot(robot_to_world(p, pose), pose)
        assert np.allclose(fwd, p, atol=1e-12)


def test_world_to_robot_batched():
    rng = np.random.default_rng(3)
    pose = Pose2D(0.4, -1.2, 0.9)
    pts = rng.uniform(-2, 2, (40, 3))
    batched = world_to_robot(pts, pose)
    rows = np.stack([world_to_robot(p, pose) for p in pts])
    assert np.array_equal(batched, rows)


# --- removal ---------------------------------------------------------------------


def test_scene_without_unknown_id_raises():
    with pytest.raises(KeyError):
        Scene(objects=()).without("ghost")


def test_arm_mount_rotation_field_defaults_to_zero():
    assert ArmMount(0.4, 0.0, 0.15).yaw == 0.0
