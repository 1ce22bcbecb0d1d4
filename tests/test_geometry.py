"""Rigid transforms, calibration fit, mask geometry, reachability."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from clearbot import geometry

from clearbot.camera import (
    DEFAULT_INTRINSICS,
    DepthImage,
    Intrinsics,
    LabelImage,
    backproject,
    window_clusters,
)
from clearbot.geometry import (
    A_MIN_COMPONENT_PX,
    DEFAULT_ENVELOPE,
    DegenerateConfiguration,
    Frame,
    FrameMismatch,
    IllConditioned,
    InsufficientDepth,
    MaskComponent,
    Point3,
    ReachEnvelope,
    RigidTransform,
    TooFewPoints,
    camera_to_arm_transform,
    component_center_3d,
    compose,
    connected_components,
    estimate_rigid_transform,
    in_reach,
    orientation_to_arm,
    principal_orientation,
    registration_rms,
    transform_to_arm,
)
from clearbot.scene import ArmMount, CameraMount, ObjectClass

from helpers import component_from_pixels, components

IDENTITY = RigidTransform(np.eye(3), np.zeros(3), src=Frame.CAMERA, dst=Frame.ARM)


def rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_transform(rng: np.random.Generator) -> RigidTransform:
    return RigidTransform(
        random_rotation(rng), rng.uniform(-2, 2, 3), src=Frame.CAMERA, dst=Frame.ARM
    )


# --- transform algebra -----------------------------------------------------------


def test_transform_to_arm_identity():
    p = Point3(0.3, -0.1, 0.8, Frame.CAMERA)
    q = transform_to_arm(p, IDENTITY)
    assert (q.x, q.y, q.z, q.frame) == (0.3, -0.1, 0.8, Frame.ARM)


def test_transform_to_arm_quarter_turn_plus_offset():
    t = RigidTransform(rot_z(math.pi / 2), np.array([0.1, 0.0, 0.0]),
                       src=Frame.CAMERA, dst=Frame.ARM)
    q = t.apply(Point3(1.0, 0.0, 0.0, Frame.CAMERA))
    assert (q.x, q.y, q.z) == pytest.approx((0.1, 1.0, 0.0), abs=1e-15)


def test_transform_to_arm_rejects_wrong_frame():
    p = Point3(0.0, 0.0, 0.0, Frame.ARM)
    with pytest.raises(FrameMismatch):
        transform_to_arm(p, IDENTITY)


def test_roundtrip_against_hand_built_inverse():
    # oracle inverse computed from first principles: R^T, -R^T t
    rng = np.random.default_rng(20)
    for _ in range(100):
        t = random_transform(rng)
        manual = RigidTransform(
            t.rotation.T, -t.rotation.T @ t.translation, src=Frame.ARM, dst=Frame.CAMERA
        )
        p = rng.uniform(-2, 2, 3)
        assert np.max(np.abs(manual.apply_array(t.apply_array(p)) - p)) < 1e-12
        assert np.max(np.abs(t.inverse().rotation - manual.rotation)) < 1e-15
        assert np.max(np.abs(t.inverse().translation - manual.translation)) < 1e-15


def test_invert_identity_is_identity():
    inv = IDENTITY.inverse()
    assert np.array_equal(inv.rotation, np.eye(3))
    assert np.array_equal(inv.translation, np.zeros(3))
    assert (inv.src, inv.dst) == (Frame.ARM, Frame.CAMERA)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(21)
    for _ in range(50):
        t = random_transform(rng)
        eye = compose(t.inverse(), t)
        assert np.max(np.abs(eye.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(eye.translation)) < 1e-12


def test_compose_is_associative():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3),
                           src=Frame.ROBOT, dst=Frame.WORLD)
        b = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3),
                           src=Frame.ARM, dst=Frame.ROBOT)
        c = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3),
                           src=Frame.CAMERA, dst=Frame.ARM)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.rotation - right.rotation)) < 1e-12
        assert np.max(np.abs(left.translation - right.translation)) < 1e-12


def test_compose_rejects_frame_gaps():
    with pytest.raises(FrameMismatch):
        compose(IDENTITY, IDENTITY)  # arm does not chain into camera


def test_rigid_transform_rejects_non_rotations():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3), src=Frame.CAMERA, dst=Frame.ARM)
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3),
                       src=Frame.CAMERA, dst=Frame.ARM)


# --- mount extrinsics --------------------------------------------------------------


def test_camera_to_arm_transform_for_coaxial_mounts():
    t = camera_to_arm_transform(CameraMount(1.05, 0.0, 1.4), ArmMount(0.40, 0.0, 0.15))
    assert np.array_equal(t.rotation, np.diag([1.0, -1.0, -1.0]))
    assert np.array_equal(t.translation, np.array([0.65, 0.0, 1.25]))
    assert (t.src, t.dst) == (Frame.CAMERA, Frame.ARM)


def test_camera_to_arm_transform_matches_world_chain():
    # oracle: route one point through robot coordinates step by step
    rng = np.random.default_rng(23)
    flip = np.diag([1.0, -1.0, -1.0])
    for _ in range(50):
        cam = CameraMount(*rng.uniform(-1, 1, 2), rng.uniform(0.5, 1.4))
        arm = ArmMount(*rng.uniform(-1, 1, 2), rng.uniform(0.0, 0.4),
                       rng.uniform(-math.pi, math.pi))
        t = camera_to_arm_transform(cam, arm)
        p_cam = rng.uniform(-1, 1, 3)
        p_robot = flip @ p_cam + np.array([cam.x, cam.y, cam.height])
        p_arm = rot_z(-arm.yaw) @ (p_robot - np.array([arm.x, arm.y, arm.z]))
        assert np.max(np.abs(t.apply_array(p_cam) - p_arm)) < 1e-12


# --- calibration fit ----------------------------------------------------------------


def pairs_from(t: RigidTransform, pts: np.ndarray) -> list[tuple[Point3, Point3]]:
    mapped = t.apply_array(pts)
    return [
        (Point3(*p, Frame.CAMERA), Point3(*q, Frame.ARM))
        for p, q in zip(pts, mapped)
    ]


def test_estimate_identity_from_fixed_points():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    t = estimate_rigid_transform(pairs_from(IDENTITY, pts))
    assert np.max(np.abs(t.rotation - np.eye(3))) < 1e-12
    assert np.max(np.abs(t.translation)) < 1e-12


def test_estimate_recovers_known_transforms():
    rng = np.random.default_rng(24)
    for _ in range(20):
        truth = random_transform(rng)
        pts = rng.normal(size=(6, 3))
        est = estimate_rigid_transform(pairs_from(truth, pts))
        assert np.max(np.abs(est.rotation - truth.rotation)) < 1e-9
        assert np.max(np.abs(est.translation - truth.translation)) < 1e-9
        assert registration_rms(est, pairs_from(truth, pts)) < 1e-9


def test_estimate_handles_coplanar_points():
    rng = np.random.default_rng(25)
    truth = random_transform(rng)
    pts = rng.normal(size=(8, 3))
    pts[:, 2] = 0.0  # rank-2 spread is still enough to pin the rotation
    est = estimate_rigid_transform(pairs_from(truth, pts))
    assert np.max(np.abs(est.rotation - truth.rotation)) < 1e-9


def test_estimate_noise_residual_stays_small():
    rng = np.random.default_rng(26)
    truth = random_transform(rng)
    pts = rng.normal(size=(10, 3))
    noisy = [
        (ps, Point3(pd.x + e[0], pd.y + e[1], pd.z + e[2], Frame.ARM))
        for (ps, pd), e in zip(pairs_from(truth, pts), rng.normal(0, 0.001, (10, 3)))
    ]
    est = estimate_rigid_transform(noisy)
    assert registration_rms(est, noisy) <= 0.005


def test_estimate_residual_beats_random_transforms():
    # least-squares optimality, checked against 1000 random competitors
    rng = np.random.default_rng(27)
    truth = random_transform(rng)
    pts = rng.normal(size=(10, 3))
    noisy = [
        (ps, Point3(pd.x + e[0], pd.y + e[1], pd.z + e[2], Frame.ARM))
        for (ps, pd), e in zip(pairs_from(truth, pts), rng.normal(0, 0.002, (10, 3)))
    ]
    best = registration_rms(estimate_rigid_transform(noisy), noisy)
    for _ in range(1000):
        rival = random_transform(rng)
        assert registration_rms(rival, noisy) >= best - 1e-12


def test_estimate_needs_three_pairs():
    pts = np.array([[0, 0, 0], [1, 1, 1]], dtype=float)
    with pytest.raises(TooFewPoints, match="need at least 3 point pairs, got 2"):
        estimate_rigid_transform(pairs_from(IDENTITY, pts))


def test_estimate_rejects_collinear_points():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(DegenerateConfiguration):
        estimate_rigid_transform(pairs_from(IDENTITY, pts))


def test_estimate_rejects_mixed_frames():
    bad = [
        (Point3(0, 0, 0, Frame.CAMERA), Point3(0, 0, 0, Frame.ARM)),
        (Point3(1, 0, 0, Frame.ARM), Point3(1, 0, 0, Frame.ARM)),
        (Point3(0, 1, 0, Frame.CAMERA), Point3(0, 1, 0, Frame.ARM)),
    ]
    with pytest.raises(FrameMismatch):
        estimate_rigid_transform(bad)


def test_rotations_stay_orthonormal_on_every_construction_path():
    rng = np.random.default_rng(28)
    built = [IDENTITY]
    truth = random_transform(rng)
    built.append(estimate_rigid_transform(pairs_from(truth, rng.normal(size=(6, 3)))))
    built.append(truth.inverse())
    built.append(compose(truth.inverse(), truth))
    built.append(
        camera_to_arm_transform(CameraMount(0.3, -0.2, 1.1), ArmMount(0.1, 0.0, 0.2, 0.7))
    )
    for t in built:
        r = t.rotation
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


# --- connected components ------------------------------------------------------------


def flood_fill_components(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """Independent 8-connected labeling by explicit stack walk."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            stack = [(r, c)]
            seen[r, c] = True
            px = []
            while stack:
                y, x = stack.pop()
                px.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            comps.append(sorted(px))
    comps.sort(key=lambda p: p[0])
    return comps


def labels_of(mask: np.ndarray, code: int = 1) -> LabelImage:
    return LabelImage(mask.astype(np.uint8) * code)


def test_components_empty_image():
    assert connected_components(labels_of(np.zeros((16, 16), bool)), ObjectClass.BRICK) == []


def test_components_solid_rectangle():
    mask = np.zeros((64, 64), bool)
    mask[10:30, 5:45] = True  # 20 rows x 40 cols
    comps = connected_components(labels_of(mask), ObjectClass.BRICK)
    assert len(comps) == 1
    assert comps[0].area == 800
    assert comps[0].bbox == (10, 30, 5, 45)
    assert comps[0].seed_pixel == (10, 5)


def test_components_cut_rectangle_splits_in_two():
    mask = np.zeros((64, 64), bool)
    mask[10:30, 5:45] = True
    mask[:, 24:27] = False  # 3-column gap
    comps = connected_components(labels_of(mask), ObjectClass.BRICK)
    assert len(comps) == 2
    assert comps[0].area + comps[1].area == 800 - 20 * 3
    assert comps[0].seed_pixel < comps[1].seed_pixel


def test_components_compare_and_hash_by_identity():
    mask = np.zeros((64, 64), bool)
    mask[10:30, 5:45] = True
    mask[:, 24:27] = False
    comps = connected_components(labels_of(mask), ObjectClass.BRICK)
    twin = MaskComponent(comps[1].cls, comps[1].rows, comps[1].cols)
    assert comps[1] in comps and twin not in comps
    assert comps[0] == comps[0] and comps[0] != comps[1] and comps[1] != twin
    assert len({comps[0], comps[1], comps[0]}) == 2
    assert hash(comps[1]) == hash(comps[1])


def test_components_diagonal_pixels_are_eight_connected():
    mask = np.zeros((8, 8), bool)
    mask[2, 2] = mask[3, 3] = mask[4, 4] = True
    comps = components(labels_of(mask), ObjectClass.BRICK)
    assert len(comps) == 1 and comps[0].area == 3


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(30)
    for _ in range(5):
        mask = rng.random((40, 60)) < 0.35
        got = components(labels_of(mask), ObjectClass.BRICK)
        want = flood_fill_components(mask)
        assert len(got) == len(want)
        for comp, px in zip(got, want):
            assert list(zip(comp.rows.tolist(), comp.cols.tolist())) == px


def test_components_min_area_filter():
    mask = np.zeros((32, 32), bool)
    mask[2:6, 2:6] = True  # 16 px, below the default floor of 25
    mask[10:20, 10:20] = True  # 100 px
    comps = connected_components(labels_of(mask), ObjectClass.BRICK)
    assert [c.area for c in comps] == [100]


def test_components_respect_class_code():
    mask = np.zeros((32, 32), bool)
    mask[4:10, 4:10] = True
    img = labels_of(mask, code=ObjectClass.PIPE.label)
    assert connected_components(img, ObjectClass.BRICK) == []
    assert len(connected_components(img, ObjectClass.PIPE)) == 1


def test_component_touches_border():
    mask = np.zeros((16, 16), bool)
    mask[0:4, 3:8] = True
    comp = components(labels_of(mask), ObjectClass.BRICK)[0]
    assert comp.touches_border(width=16, height=16)
    inner = np.zeros((16, 16), bool)
    inner[5:9, 5:9] = True
    comp2 = components(labels_of(inner), ObjectClass.BRICK)[0]
    assert not comp2.touches_border(width=16, height=16)


# --- component center ------------------------------------------------------------------


def square_component(r0: int, c0: int, side: int, shape=(128, 160)) -> MaskComponent:
    mask = np.zeros(shape, bool)
    mask[r0 : r0 + side, c0 : c0 + side] = True
    return components(labels_of(mask), ObjectClass.BRICK)[0]


def test_center_of_uniform_depth_square():
    comp = square_component(50, 70, 21)
    depth = DepthImage(np.full((128, 160), 1.143))
    center = component_center_3d(comp, depth, DEFAULT_INTRINSICS)
    expected = backproject(80.0, 60.0, 1.143, DEFAULT_INTRINSICS)
    assert center.frame == Frame.CAMERA
    assert (center.x, center.y, center.z) == pytest.approx(tuple(expected), abs=1e-12)


def test_center_shifts_with_depth_bias():
    comp = square_component(50, 70, 21)
    clean = DepthImage(np.full((128, 160), 1.143))
    biased = DepthImage(clean.data + 0.02)
    a = component_center_3d(comp, clean, DEFAULT_INTRINSICS)
    b = component_center_3d(comp, biased, DEFAULT_INTRINSICS)
    assert b.z - a.z == pytest.approx(0.02, abs=1e-12)
    displacement = np.linalg.norm(np.subtract(
        (b.x, b.y, b.z), (a.x, a.y, a.z)
    ))
    assert displacement >= 0.02


def test_center_uses_median_depth():
    comp = square_component(50, 70, 21)
    data = np.full((128, 160), 1.143)
    data[50:55, 70:91] = 3.0  # a minority of badly wrong pixels
    center = component_center_3d(comp, DepthImage(data), DEFAULT_INTRINSICS)
    assert center.z == pytest.approx(1.143, abs=1e-12)


def test_center_requires_half_valid_depth():
    comp = square_component(50, 70, 21)  # 441 px
    data = np.full((128, 160), 1.143)
    rows, cols = comp.rows, comp.cols
    data[rows[:221], cols[:221]] = 0.0  # 220 valid < 50%
    with pytest.raises(InsufficientDepth):
        component_center_3d(comp, DepthImage(data), DEFAULT_INTRINSICS)
    data[rows[220], cols[220]] = 1.143  # back to exactly half valid
    center = component_center_3d(comp, DepthImage(data), DEFAULT_INTRINSICS)
    assert center.z == pytest.approx(1.143, abs=1e-12)


def test_center_stays_on_symmetry_axis():
    # plus-shaped mask, symmetric about column 80 and row 60
    mask = np.zeros((128, 160), bool)
    mask[58:63, 70:91] = True
    mask[50:71, 78:83] = True
    comp = components(labels_of(mask), ObjectClass.BRICK)[0]
    center = component_center_3d(comp, DepthImage(np.full((128, 160), 1.0)), DEFAULT_INTRINSICS)
    u = center.x * DEFAULT_INTRINSICS.fx / center.z + DEFAULT_INTRINSICS.cx
    v = center.y * DEFAULT_INTRINSICS.fy / center.z + DEFAULT_INTRINSICS.cy
    assert abs(u - 80.0) <= 0.5
    assert abs(v - 60.0) <= 0.5


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


@settings(deadline=None, max_examples=300)
@given(
    depths=st.lists(
        st.one_of(
            st.sampled_from([0.5, 1.0, 1.143, 2.0]),  # repeated values
            st.floats(1e-6, 10.0),
            st.sampled_from([0.0, -0.0, -1.0]),  # invalid depth
        ),
        min_size=1,
        max_size=64,
    )
)
def test_center_median_equals_np_median_bit_for_bit(depths):
    comp = component_from_pixels(
        ObjectClass.BRICK, np.array([[0, c] for c in range(len(depths))])
    )
    z = np.array(depths)
    valid = z[z > 0.0]
    if len(valid) < 0.5 * len(z):
        with pytest.raises(InsufficientDepth):
            component_center_3d(comp, DepthImage(z[None, :]), DEFAULT_INTRINSICS)
        return
    center = component_center_3d(comp, DepthImage(z[None, :]), DEFAULT_INTRINSICS)
    assert float_bits(center.z) == float_bits(np.median(valid))


@st.composite
def components_over_depth(draw) -> tuple[np.ndarray, list[float]]:
    """Up to 40 distinct pixels in a 6 x 12 window of a 256 x 512 image, in
    raster order, and a depth for each, some of them invalid."""
    r0 = draw(st.integers(0, 250))
    c0 = draw(st.integers(0, 500))
    offsets = draw(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 11)), min_size=1, max_size=40)
    )
    pixels = np.array(sorted((r0 + r, c0 + c) for r, c in offsets))
    depth = st.one_of(
        st.sampled_from([0.5, 1.143, 2.0]),  # repeated values
        st.floats(1e-3, 10.0),
        st.sampled_from([0.0, -0.0, -1.0]),  # invalid depth
    )
    depths = draw(st.lists(depth, min_size=len(pixels), max_size=len(pixels)))
    return pixels, depths


INTRINSICS = st.builds(
    Intrinsics,
    fx=st.floats(100.0, 2000.0),
    fy=st.floats(100.0, 2000.0),
    cx=st.floats(0.0, 511.5),
    cy=st.floats(0.0, 255.5),
    width=st.just(512),
    height=st.just(256),
)

FIVE_PX = np.array([[10, 20], [10, 21], [11, 19], [11, 20], [12, 20]])


@settings(deadline=None, max_examples=300)
@given(case=components_over_depth(), k=st.one_of(st.just(DEFAULT_INTRINSICS), INTRINSICS))
@example(case=(FIVE_PX, [1.0, 1.5, 2.0, 0.7, 1.143]), k=DEFAULT_INTRINSICS)  # odd count
@example(case=(FIVE_PX, [1.0, 0.0, 2.0, -1.0, 1.143]), k=DEFAULT_INTRINSICS)  # odd, invalid
@example(case=(FIVE_PX[:4], [1.0, 1.5, 2.0, 0.7]), k=DEFAULT_INTRINSICS)  # even count
@example(case=(FIVE_PX[:4], [1.0, -0.0, 2.0, 0.0]), k=DEFAULT_INTRINSICS)  # exactly half valid
@example(case=(FIVE_PX, [1.0, 0.0, 2.0, 0.0, -1.0]), k=DEFAULT_INTRINSICS)  # just under half
@example(case=(FIVE_PX[:3], [0.0, 2.0, 1.5]), k=DEFAULT_INTRINSICS)  # 2 of 3 valid
@example(case=(FIVE_PX[:3], [0.0, 2.0, -0.0]), k=DEFAULT_INTRINSICS)  # 1 of 3 valid
def test_center_equals_backproject_of_mean_pixel_and_median_depth(case, k):
    pixels, depths = case
    comp = component_from_pixels(ObjectClass.BRICK, pixels)
    data = np.zeros((256, 512))
    data[comp.rows, comp.cols] = depths
    z = np.array(depths)
    valid = z[z > 0.0]
    if len(valid) < 0.5 * comp.area:
        with pytest.raises(InsufficientDepth):
            component_center_3d(comp, DepthImage(data), k)
        return
    got = component_center_3d(comp, DepthImage(data), k)
    want = backproject(comp.cols.mean(), comp.rows.mean(), np.median(valid), k)
    assert got.frame is Frame.CAMERA
    assert [float_bits(c) for c in (got.x, got.y, got.z)] == [float_bits(c) for c in want]


# --- principal orientation ---------------------------------------------------------------


def raster_rect(theta: float, long_px: float = 60.0, short_px: float = 14.0,
                center=(100.0, 100.0), shape=(200, 200)) -> MaskComponent:
    """Pixel set of a rotated rectangle; theta in (x, y) = (col, row) coords."""
    rows, cols = np.mgrid[0 : shape[0], 0 : shape[1]]
    x = cols - center[0]
    y = rows - center[1]
    c, s = math.cos(theta), math.sin(theta)
    u = x * c + y * s
    v = -x * s + y * c
    mask = (np.abs(u) <= long_px / 2.0) & (np.abs(v) <= short_px / 2.0)
    return components(labels_of(mask), ObjectClass.BRICK)[0]


def grid_search_orientation(comp: MaskComponent, steps: int = 3600) -> float:
    """Independent oracle: dense sweep for the min-area enclosing box angle."""
    pts = np.stack([comp.cols, comp.rows], axis=1).astype(float)
    best_area, best_angle = math.inf, 0.0
    for theta in np.linspace(0.0, math.pi, steps, endpoint=False):
        c, s = math.cos(theta), math.sin(theta)
        u = pts @ np.array([c, s])
        v = pts @ np.array([-s, c])
        du = u.max() - u.min()
        dv = v.max() - v.min()
        area = du * dv
        if area < best_area:
            best_area = area
            best_angle = theta if du >= dv else (theta + math.pi / 2.0) % math.pi
    return best_angle


def angle_gap(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def test_orientation_axis_aligned_rect():
    mask = np.zeros((64, 64), bool)
    mask[20:30, 10:50] = True  # 40 wide, 10 tall
    comp = connected_components(labels_of(mask), ObjectClass.BRICK)[0]
    assert principal_orientation(comp) == 0.0


def test_orientation_vertical_rect():
    mask = np.zeros((64, 64), bool)
    mask[10:50, 20:30] = True
    comp = connected_components(labels_of(mask), ObjectClass.BRICK)[0]
    assert principal_orientation(comp) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_orientation_thirty_degrees():
    comp = raster_rect(math.radians(30.0))
    assert angle_gap(principal_orientation(comp), math.radians(30.0)) <= math.radians(2.0)


def test_orientation_matches_grid_search_oracle():
    rng = np.random.default_rng(31)
    for theta in rng.uniform(0.0, math.pi, 8):
        comp = raster_rect(theta)
        got = principal_orientation(comp)
        oracle = grid_search_orientation(comp)
        assert angle_gap(got, oracle) <= math.radians(0.2)
        assert angle_gap(got, theta) <= math.radians(2.0)


def test_orientation_translation_invariance_is_exact():
    comp = raster_rect(math.radians(73.0))
    base = principal_orientation(comp)
    shifted = MaskComponent(ObjectClass.BRICK, comp.rows + 7, comp.cols - 12)
    assert principal_orientation(shifted) == base


def test_orientation_rotation_equivariance():
    rng = np.random.default_rng(32)
    for _ in range(6):
        theta = rng.uniform(0.2, 1.2)
        phi = rng.uniform(0.0, math.pi)
        a = principal_orientation(raster_rect(theta))
        b = principal_orientation(raster_rect((theta + phi) % math.pi))
        assert angle_gap(b, a + phi) <= math.radians(2.0) * 2


def test_orientation_range_is_half_open():
    rng = np.random.default_rng(33)
    for theta in rng.uniform(0.0, math.pi, 12):
        got = principal_orientation(raster_rect(theta))
        assert 0.0 <= got < math.pi


# --- the row-extreme kernels against the all-pixel reference --------------------------


def reference_components(labels: LabelImage, cls: ObjectClass, min_area: int) -> list:
    """The full-image labelling with one ``lab == i`` scan per component."""
    lab, n = ndimage.label(labels.data == cls.label, structure=np.ones((3, 3), bool))
    comps = []
    for i in range(1, n + 1):
        rows, cols = np.nonzero(lab == i)
        if len(rows) < min_area:
            continue
        comps.append(component_from_pixels(cls, np.stack([rows, cols], axis=1)))
    comps.sort(key=lambda cmp: (cmp.seed_pixel[0], cmp.seed_pixel[1]))
    return comps


def reference_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull over every point, counterclockwise in (col, row)."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def reference_orientation(component: MaskComponent) -> float:
    """Hull and calipers over every pixel of the component."""
    pts = np.stack([component.cols, component.rows], axis=1).astype(float)
    hull = reference_hull(pts)
    if len(hull) == 1:
        return 0.0
    if len(hull) == 2:
        d = hull[1] - hull[0]
        return math.atan2(d[1], d[0]) % math.pi
    best = None
    n = len(hull)
    for i in range(n):
        edge = hull[(i + 1) % n] - hull[i]
        norm = math.hypot(edge[0], edge[1])
        if norm < 1e-12:
            continue
        ux, uy = edge[0] / norm, edge[1] / norm
        proj_u = pts @ np.array([ux, uy])
        proj_v = pts @ np.array([-uy, ux])
        du = proj_u.max() - proj_u.min()
        dv = proj_v.max() - proj_v.min()
        area = du * dv
        if du >= dv:
            angle = math.atan2(uy, ux) % math.pi
        else:
            angle = math.atan2(ux, -uy) % math.pi
        if (
            best is None
            or area < best[0] - 1e-12
            or (area <= best[0] + 1e-12 and angle < best[1])
        ):
            best = (area, angle)
    return best[1]


def assert_same_component(a: MaskComponent, b: MaskComponent) -> None:
    assert a.cls is b.cls
    assert a.rows.dtype == b.rows.dtype and a.cols.dtype == b.cols.dtype
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
    assert (a.area, a.bbox, a.seed_pixel) == (b.area, b.bbox, b.seed_pixel)


@st.composite
def blob_label_images(draw) -> np.ndarray:
    """Two-class label images of overlapping rectangles, rotated bars, discs
    and speckle; blobs may run off any border."""
    h = draw(st.integers(4, 96))
    w = draw(st.integers(4, 128))
    data = np.zeros((h, w), np.uint8)
    rows, cols = np.mgrid[0:h, 0:w]
    for _ in range(draw(st.integers(0, 6))):
        code = draw(st.sampled_from([ObjectClass.BRICK.label, ObjectClass.PIPE.label]))
        r = draw(st.floats(-4.0, h + 4.0))
        c = draw(st.floats(-4.0, w + 4.0))
        a = draw(st.floats(0.5, 40.0))
        b = draw(st.floats(0.5, 12.0))
        theta = draw(st.floats(0.0, math.pi))
        u = (cols - c) * math.cos(theta) + (rows - r) * math.sin(theta)
        v = -(cols - c) * math.sin(theta) + (rows - r) * math.cos(theta)
        kind = draw(st.sampled_from(["rect", "bar", "disc", "speckle"]))
        if kind == "rect":
            blob = (np.abs(rows - r) <= b) & (np.abs(cols - c) <= a)
        elif kind == "bar":
            blob = (np.abs(u) <= a) & (np.abs(v) <= b)
        elif kind == "disc":
            blob = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        else:
            seed = draw(st.integers(0, 2**32 - 1))
            blob = (np.abs(u) <= a) & (np.abs(v) <= a)
            blob &= np.random.default_rng(seed).random((h, w)) < 0.4
        data[blob] = code
    return data


@settings(deadline=None, max_examples=150)
@given(
    data=blob_label_images(),
    min_area=st.sampled_from([1, 5, A_MIN_COMPONENT_PX]),
    order=st.randoms(use_true_random=False),
)
def test_kernels_match_the_all_pixel_reference(data, min_area, order):
    labels = LabelImage(data)
    for cls in (ObjectClass.BRICK, ObjectClass.PIPE):
        got = components(labels, cls, min_area)
        want = reference_components(labels, cls, min_area)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_component(a, b)
            assert principal_orientation(a) == reference_orientation(b)
            shuffled = order.sample(range(a.area), a.area)
            pixels = np.stack([a.rows[shuffled], a.cols[shuffled]], axis=1)
            assert_same_component(component_from_pixels(cls, pixels), a)


@st.composite
def labels_in_window_clusters(draw) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """A blob label image cleared outside up to six windows whose edges lie
    on an 8 x 8 grid, so that windows often touch at an edge or a corner."""
    data = draw(blob_label_images())
    h, w = data.shape
    edge = st.integers(0, 8)
    windows = []
    for _ in range(draw(st.integers(0, 6))):
        r0, r1 = sorted(draw(st.lists(edge, min_size=2, max_size=2)))
        c0, c1 = sorted(draw(st.lists(edge, min_size=2, max_size=2)))
        windows.append((r0 * h // 8, r1 * h // 8, c0 * w // 8, c1 * w // 8))
    kept = np.zeros_like(data)
    for r0, r1, c0, c1 in windows:
        kept[r0:r1, c0:c1] = data[r0:r1, c0:c1]
    return kept, windows


@settings(deadline=None, max_examples=150)
@given(case=labels_in_window_clusters())
# the first two windows merge into a box that overlaps the last one
@example(case=(np.eye(4, 4, 3, dtype=np.uint8), [(0, 1, 3, 4), (0, 2, 0, 2), (2, 4, 2, 4)]))
def test_components_on_window_clusters_match_the_all_pixel_reference(case):
    data, windows = case
    labels = LabelImage(data, window_clusters(windows))
    for cls in (ObjectClass.BRICK, ObjectClass.PIPE):
        got = components(labels, cls)
        want = reference_components(labels, cls, min_area=1)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_component(a, b)


def mask_of(*rows: str) -> np.ndarray:
    """A mask drawn as text rows, ``#`` set and ``.`` unset."""
    return np.array([[ch == "#" for ch in row] for row in rows])


@st.composite
def salt_and_pepper(draw) -> np.ndarray:
    """Masks of independent pixels, each set with a drawn share; near and
    below 8-connected percolation (~0.41) they hold many tangled components."""
    shape = draw(st.tuples(st.integers(1, 32), st.integers(1, 32)))
    tenths = draw(st.integers(2, 8))
    pixel = st.integers(0, 9).map(lambda v: v < tenths)
    return draw(hnp.arrays(np.bool_, shape, elements=pixel))


@settings(deadline=None, max_examples=300)
@given(mask=salt_and_pepper())
# a U whose arms join only in its last row; the right arm starts a row earlier
@example(mask=mask_of("...#", "#..#", "#..#", "####"))
# one run touching two runs of the row above only at diagonal corners
@example(mask=mask_of("#...#", ".###."))
# one run bridging three runs of the row above, and touched by three of the row below
@example(mask=mask_of("#.#.#.", "#####.", ".#.#.#"))
# the last row's long run reads a run whose root a merge later in the row above moved
@example(mask=mask_of("###...#", "#...#.#", ".#.#.#.", ".###..#"))
def test_run_labelling_matches_ndimage_on_salt_and_pepper(mask):
    labels = labels_of(mask)
    got = components(labels, ObjectClass.BRICK)
    want = reference_components(labels, ObjectClass.BRICK, min_area=1)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_component(a, b)


@settings(deadline=None, max_examples=200)
@given(mask=salt_and_pepper(), dr=st.integers(0, 3), dc=st.integers(0, 3))
def test_components_hold_raster_ordered_pixels_and_derive_their_extents(mask, dr, dc):
    # the mask sits in a cluster ``dr`` rows and ``dc`` columns into the image
    h, w = mask.shape
    data = np.zeros((h + dr + 1, w + dc + 1), np.uint8)
    data[dr : dr + h, dc : dc + w] = mask
    labels = LabelImage(data, window_clusters([(dr, dr + h, dc, dc + w)]))
    for comp in components(labels, ObjectClass.BRICK):
        rows, cols = comp.rows, comp.cols
        raster = rows * data.shape[1] + cols
        assert (np.diff(raster) > 0).all()
        assert (data[rows, cols] == ObjectClass.BRICK.label).all()
        # the derived facts against a scan over every pixel
        first = raster.argmin()
        assert comp.area == len(rows) == len(cols)
        assert comp.seed_pixel == (rows[first], cols[first])
        assert comp.bbox == (rows.min(), rows.max() + 1, cols.min(), cols.max() + 1)
        assert all(type(v) is int for v in (comp.area, *comp.seed_pixel, *comp.bbox))


def test_orientation_hulls_only_row_extremes(monkeypatch):
    mask = np.zeros((64, 64), bool)
    mask[10:50, 12:52] = True  # a filled 40 x 40 blob
    comp = connected_components(labels_of(mask), ObjectClass.BRICK)[0]
    sizes = []
    hull = geometry._convex_hull

    def recording_hull(firsts, lasts):
        sizes.append(len(firsts) + len(lasts))
        return hull(firsts, lasts)

    monkeypatch.setattr(geometry, "_convex_hull", recording_hull)
    assert principal_orientation(comp) == reference_orientation(comp)
    assert sizes and max(sizes) <= 2 * 40


# A pipe's silhouette in the first frame of the benchmark course: (first,
# last) column of each row, from row 135 and column 392 of the frame.
COURSE_PIPE_RUNS = [
    (52, 54), (47, 56), (42, 57), (37, 57), (32, 58), (27, 58), (22, 57), (17, 56),
    (12, 52), (7, 47), (2, 42), (0, 37), (0, 32), (0, 28), (0, 23), (1, 18), (1, 13),
    (2, 8),
]


def test_orientation_projects_each_direction_like_a_gemv():
    # Two opposite hull edges of this silhouette are parallel: they span the
    # same rectangle, but its computed areas differ by ~1.7e-12 and the two
    # angles by one ulp, so the winner rests on the last bits of each
    # projection. A single (points x directions) product or the elementwise
    # c*ux + r*uy picks the other edge.
    pixels = [
        (135 + r, 392 + c) for r, (a, b) in enumerate(COURSE_PIPE_RUNS) for c in range(a, b + 1)
    ]
    comp = component_from_pixels(ObjectClass.PIPE, np.array(pixels))
    assert principal_orientation(comp) == reference_orientation(comp)


def test_orientation_chains_at_most_rows_plus_one_points(monkeypatch):
    # each half of the hull runs over one side's row extremes and the other
    # side's endpoint, not over every row extreme
    pipe = [(r, c) for r, (a, b) in enumerate(COURSE_PIPE_RUNS) for c in range(a, b + 1)]
    comps = [
        raster_rect(0.5),
        raster_rect(math.pi / 2),
        component_from_pixels(ObjectClass.PIPE, np.array(pipe)),
    ]
    sizes = []
    chain = geometry._chain

    def counting_chain(pts):
        sizes.append(len(pts))
        return chain(pts)

    monkeypatch.setattr(geometry, "_chain", counting_chain)
    for comp in comps:
        sizes.clear()
        rows = len(np.unique(comp.rows))
        assert principal_orientation(comp) == reference_orientation(comp)
        assert len(sizes) == 2
        assert max(sizes) <= rows + 1


@st.composite
def row_extremes(draw) -> np.ndarray:
    """(col, row) points of each row's first and last pixel, in raster order:
    a general blob, one row, one column, a collinear run or a diagonal line."""
    kind = draw(st.sampled_from(["blob", "row", "column", "line"]))
    r0 = draw(st.integers(0, 300))
    c0 = draw(st.integers(0, 300))
    n = draw(st.integers(1, 40))
    if kind == "blob":
        gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
        rows = r0 + np.concatenate(([0], np.cumsum(gaps, dtype=int)))
        spans = [
            sorted(draw(st.tuples(st.integers(0, 60), st.integers(0, 60))))
            for _ in range(n)
        ]
    elif kind == "row":
        rows = [r0]
        spans = [(0, n - 1)]
    elif kind == "column":
        rows = range(r0, r0 + n)
        spans = [(0, 0)] * n
    else:
        dc = draw(st.integers(-3, 3))
        rows = range(r0, r0 + n)
        spans = [(60 + i * dc, 60 + i * dc) for i in range(n)]
    pts = []
    for r, (a, b) in zip(rows, spans):
        pts.append((c0 + a, r))
        if b != a:
            pts.append((c0 + b, r))
    return np.array(pts)


@settings(deadline=None, max_examples=400)
@given(pts=row_extremes())
@example(pts=np.array([[5, 0], [3, 1], [8, 1], [2, 2], [9, 2]]))  # one-pixel first row
@example(pts=np.array([[3, 0], [8, 0], [2, 1], [9, 1], [6, 2]]))  # one-pixel last row
@example(pts=np.array([[0, 0], [1, 1], [2, 2], [3, 3]]))  # one-pixel-wide diagonal
@example(pts=np.array([[3, 0], [2, 1], [1, 2], [0, 3]]))  # and the other diagonal
@example(pts=np.array([[2, 0], [6, 0], [1, 1], [4, 1]]))  # two rows
def test_hull_of_row_extremes_equals_the_reference_hull(pts):
    # each row's first and last point, as principal_orientation splits them
    rows = pts[:, 1]
    step = rows[1:] != rows[:-1]
    firsts = list(map(tuple, pts[np.concatenate(([True], step))].tolist()))
    lasts = list(map(tuple, pts[np.concatenate((step, [True]))].tolist()))
    # same vertices in the same order
    assert geometry._convex_hull(firsts, lasts) == list(map(tuple, reference_hull(pts).tolist()))


# --- orientation into the arm frame ----------------------------------------------------


def test_orientation_to_arm_identity():
    assert orientation_to_arm(0.3, IDENTITY) == pytest.approx(0.3, abs=1e-15)


def test_orientation_to_arm_quarter_turn():
    t = RigidTransform(rot_z(math.pi / 2), np.zeros(3), src=Frame.CAMERA, dst=Frame.ARM)
    assert orientation_to_arm(0.0, t) == pytest.approx(math.pi / 2, abs=1e-12)


def test_orientation_to_arm_two_point_oracle():
    # oracle: push two points one unit apart through the transform and
    # measure the mapped segment's direction
    rng = np.random.default_rng(34)
    flip = np.diag([1.0, -1.0, -1.0])
    for _ in range(50):
        t = RigidTransform(
            rot_z(rng.uniform(-math.pi, math.pi)) @ flip,
            rng.uniform(-1, 1, 3),
            src=Frame.CAMERA,
            dst=Frame.ARM,
        )
        theta = rng.uniform(0.0, math.pi)
        p0 = np.zeros(3)
        p1 = np.array([math.cos(theta), math.sin(theta), 0.0])
        q0 = t.apply_array(p0)
        q1 = t.apply_array(p1)
        want = math.atan2(q1[1] - q0[1], q1[0] - q0[0]) % math.pi
        assert angle_gap(orientation_to_arm(theta, t), want) < 1e-9


def test_orientation_to_arm_ill_conditioned():
    # rotation about y by 90 deg maps the image x axis onto the arm z axis
    r = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    t = RigidTransform(r, np.zeros(3), src=Frame.CAMERA, dst=Frame.ARM)
    with pytest.raises(IllConditioned):
        orientation_to_arm(0.0, t)


_position = st.floats(-1e6, 1e6)


@settings(deadline=None, max_examples=500)
@given(
    theta=st.floats(0.0, math.pi, exclude_max=True),
    cam=st.builds(CameraMount, _position, _position, _position),
    arm=st.builds(
        ArmMount, _position, _position, _position,
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)
# the angle -yaw is within an ulp of 0, and -yaw % pi rounds to pi
@example(theta=0.0, cam=CameraMount(0.0, 0.0, 0.0), arm=ArmMount(0.0, 0.0, 0.0, 4e-188))
def test_orientation_through_the_mounts_is_always_defined(theta, cam, arm):
    # the nadir camera's image plane is the arm's XY plane, so compute_targets
    # need not catch IllConditioned
    yaw = orientation_to_arm(theta, camera_to_arm_transform(cam, arm))
    assert 0.0 <= yaw < math.pi


def test_orientation_to_arm_requires_camera_source():
    t = RigidTransform(np.eye(3), np.zeros(3), src=Frame.ARM, dst=Frame.ROBOT)
    with pytest.raises(FrameMismatch):
        orientation_to_arm(0.1, t)


# --- reachability ---------------------------------------------------------------------


def arm_point(x: float, y: float, z: float) -> Point3:
    return Point3(x, y, z, Frame.ARM)


def test_in_reach_interior_point():
    assert in_reach(arm_point(0.5, 0.0, 0.0))


def test_out_of_reach_beyond_r_max():
    assert not in_reach(arm_point(1.0, 0.0, 0.0))


def test_reach_boundary_is_inclusive():
    assert in_reach(arm_point(0.90, 0.0, 0.0))
    assert in_reach(arm_point(0.25, 0.0, 0.0))
    assert in_reach(arm_point(0.5, 0.0, 0.50))
    assert in_reach(arm_point(0.5, 0.0, -0.20))


def test_out_of_reach_inside_r_min_or_outside_z_band():
    assert not in_reach(arm_point(0.24, 0.0, 0.0))
    assert not in_reach(arm_point(0.5, 0.0, 0.51))
    assert not in_reach(arm_point(0.5, 0.0, -0.21))


def test_in_reach_uses_horizontal_radius():
    assert in_reach(arm_point(0.6, 0.6, 0.0), ReachEnvelope(r_min=0.1, r_max=0.9))
    assert not in_reach(arm_point(0.7, 0.7, 0.0), ReachEnvelope(r_min=0.1, r_max=0.9))


def test_in_reach_rejects_non_arm_frames():
    with pytest.raises(FrameMismatch):
        in_reach(Point3(0.5, 0.0, 0.0, Frame.CAMERA))


def test_envelope_validation():
    with pytest.raises(ValueError):
        ReachEnvelope(r_min=0.9, r_max=0.5)
    with pytest.raises(ValueError):
        ReachEnvelope(z_min=0.5, z_max=0.2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["r_min", "r_max", "z_min", "z_max"])
def test_envelope_rejects_non_finite_bounds(name, value):
    with pytest.raises(ValueError):
        ReachEnvelope(**{name: value})


def test_default_envelope_values():
    e = DEFAULT_ENVELOPE
    assert (e.r_min, e.r_max, e.z_min, e.z_max) == (0.25, 0.90, -0.20, 0.50)
