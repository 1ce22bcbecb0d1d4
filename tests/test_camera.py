"""Pinhole model, synthetic top-down rendering, depth noise, image dumps."""

from __future__ import annotations

import itertools
import math
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clearbot import camera
from clearbot.camera import (
    DEFAULT_INTRINSICS,
    DepthImage,
    DepthNoiseModel,
    Intrinsics,
    InvalidScene,
    LabelImage,
    NonPositiveDepth,
    apply_noise,
    backproject,
    draw_noise,
    encode_depth_pgm,
    encode_label_ppm,
    project,
    render,
    render_full,
)
from clearbot.log import FrameData
from clearbot.orchestrator import frame_images
from clearbot.scene import (
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
    Scene,
    _axis,
    _corners,
    robot_to_world,
)
from clearbot.schema import ScenarioConfig

from helpers import components, footprint_contains

NADIR_CAM = CameraMount(0.0, 0.0, 1.2)


def brick(oid: str, x: float, y: float, yaw: float = 0.0,
          dims: BrickDims = BrickDims(0.20, 0.095, 0.057)) -> ObjectSpec:
    return ObjectSpec(oid, ObjectClass.BRICK, dims, x, y, yaw)


def pipe(oid: str, x: float, y: float, yaw: float = 0.0,
         dims: PipeDims = PipeDims(0.03, 0.40)) -> ObjectSpec:
    return ObjectSpec(oid, ObjectClass.PIPE, dims, x, y, yaw)


# --- projection ----------------------------------------------------------------


def test_project_principal_point():
    u, v = project(np.array([0.0, 0.0, 1.2]), DEFAULT_INTRINSICS)
    assert (u, v) == (256.0, 128.0)


def test_project_offset_point():
    u, v = project(np.array([0.5, 0.0, 1.0]), DEFAULT_INTRINSICS)
    assert (u, v) == (256.0 * 0.5 + 256.0, 128.0)
    assert u == 384.0


def test_project_rejects_nonpositive_depth():
    with pytest.raises(NonPositiveDepth):
        project(np.array([0.0, 0.0, 0.0]), DEFAULT_INTRINSICS)
    with pytest.raises(NonPositiveDepth):
        project(np.array([0.1, 0.1, -1.0]), DEFAULT_INTRINSICS)


def test_backproject_inverts_projection_by_hand():
    p = backproject(384.0, 128.0, 1.0, DEFAULT_INTRINSICS)
    assert np.allclose(p, [0.5, 0.0, 1.0], atol=1e-15)


def test_backproject_rejects_nonpositive_depth():
    with pytest.raises(NonPositiveDepth):
        backproject(10.0, 10.0, 0.0, DEFAULT_INTRINSICS)


def test_projection_roundtrip_random_points():
    rng = np.random.default_rng(10)
    k = DEFAULT_INTRINSICS
    u = rng.uniform(0, k.width, 10_000)
    v = rng.uniform(0, k.height, 10_000)
    z = rng.uniform(0.3, 1.5, 10_000)
    pts = backproject(u, v, z, k)
    u2, v2 = project(pts, k)
    assert np.max(np.abs(u2 - u)) < 1e-9
    assert np.max(np.abs(v2 - v)) < 1e-9

    pts2 = backproject(u2, v2, pts[..., 2], k)
    assert np.max(np.abs(pts2 - pts)) < 1e-9


# --- rendering -----------------------------------------------------------------


def test_empty_scene_renders_floor_everywhere():
    labels, depth = render(Scene(objects=(), camera_mount=NADIR_CAM), DEFAULT_INTRINSICS)
    assert labels.shape == (256, 512)
    assert not labels.dense().any()
    assert np.all(depth.dense() == 1.2)


def test_brick_under_principal_point():
    scene = Scene(objects=(brick("b", 0.0, 0.0),), camera_mount=NADIR_CAM)
    labels, depth = render(scene, DEFAULT_INTRINSICS)
    assert labels.dense()[128, 256] == ObjectClass.BRICK.label
    assert depth.dense()[128, 256] == 1.2 - 0.057
    assert abs(depth.dense()[128, 256] - 1.143) < 1e-12


def test_brick_mask_pixel_count_matches_pinhole_area():
    # analytic oracle: top-face side lengths scaled by f / z_top
    scene = Scene(objects=(brick("b", 0.0, 0.0),), camera_mount=NADIR_CAM)
    labels, _ = render(scene, DEFAULT_INTRINSICS)
    z_top = 1.2 - 0.057
    expected = (0.20 * 256.0 / z_top) * (0.095 * 256.0 / z_top)
    count = int((labels.dense() == ObjectClass.BRICK.label).sum())
    assert expected == pytest.approx(953.1, abs=0.1)
    assert abs(count - expected) <= 0.05 * expected


def test_pipe_renders_with_pipe_label_and_top_depth():
    scene = Scene(objects=(pipe("p", 0.0, 0.0),), camera_mount=NADIR_CAM)
    labels, depth = render(scene, DEFAULT_INTRINSICS)
    assert labels.dense()[128, 256] == ObjectClass.PIPE.label
    # ray down the crown of the cylinder: depth = height - 2r
    assert depth.dense()[128, 256] == pytest.approx(1.2 - 0.06, abs=1e-12)


def test_render_rejects_invalid_scene():
    too_high = Scene(objects=(), camera_mount=CameraMount(0.0, 0.0, 1.6))
    with pytest.raises(InvalidScene):
        render(too_high, DEFAULT_INTRINSICS)


def test_render_is_deterministic():
    scene = Scene(
        objects=(brick("b", 0.1, 0.05, 0.4), pipe("p", -0.3, -0.1, 1.1)),
        camera_mount=NADIR_CAM,
    )
    la, da = render(scene, DEFAULT_INTRINSICS)
    lb, db = render(scene, DEFAULT_INTRINSICS)
    assert np.array_equal(la.dense(), lb.dense())
    assert np.array_equal(da.dense(), db.dense())


def test_depth_bounds_and_floor_exactness():
    scene = Scene(
        objects=(brick("b", 0.2, 0.1, 0.3), pipe("p", -0.25, -0.05, -0.7)),
        camera_mount=NADIR_CAM,
    )
    labels, depth = render(scene, DEFAULT_INTRINSICS)
    tallest = max(o.top_height for o in scene.objects)
    assert np.all(depth.dense() <= 1.2 + 1e-12)
    on_obj = labels.dense() != 0
    assert np.all(depth.dense()[on_obj] >= 1.2 - tallest - 1e-12)
    assert np.all(depth.dense()[~on_obj] == 1.2)


def test_labeled_pixels_backproject_into_footprints():
    # each labeled pixel's hit point must land on that object's footprint
    scene = Scene(
        objects=(brick("b", 0.15, 0.08, 0.5), pipe("p", -0.2, -0.1, -0.4)),
        ugv=Pose2D(0.3, -0.2, 0.25),
        camera_mount=NADIR_CAM,
    )
    k = DEFAULT_INTRINSICS
    labels, depth = render(scene, k)
    h = scene.ugv.heading
    rot = np.array(
        [
            [math.cos(h), math.sin(h), 0.0],
            [math.sin(h), -math.cos(h), 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    cam_pos = np.array(
        [
            scene.ugv.x + NADIR_CAM.x * math.cos(h) - NADIR_CAM.y * math.sin(h),
            scene.ugv.y + NADIR_CAM.x * math.sin(h) + NADIR_CAM.y * math.cos(h),
            NADIR_CAM.height,
        ]
    )
    by_label = {o.cls.label: o for o in scene.objects}
    rows, cols = np.nonzero(labels.dense())
    assert len(rows) > 200
    z = depth.dense()[rows, cols]
    pts_cam = backproject(cols.astype(float), rows.astype(float), z, k)
    pts_world = pts_cam @ rot.T + cam_pos
    for code, obj in by_label.items():
        sel = labels.dense()[rows, cols] == code
        inside = footprint_contains(obj, pts_world[sel, 0], pts_world[sel, 1], margin=1e-9)
        assert bool(np.all(inside))


def test_occlusion_keeps_the_nearer_surface():
    # tall brick next to a low pipe; where windows overlap the smaller depth wins
    tall = brick("b", 0.0, 0.0, dims=BrickDims(0.20, 0.095, 0.30))
    low = pipe("p", 0.0, 0.12)
    scene = Scene(objects=(tall, low), camera_mount=NADIR_CAM)
    _, depth = render(scene, DEFAULT_INTRINSICS)
    assert depth.dense().min() == pytest.approx(1.2 - 0.30, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_box_cast_ignores_overflow_on_near_parallel_rays():
    # a yaw of 2.2e-313 leaves ray directions so close to zero in the brick's
    # frame that dividing by them overflows; the parallel-ray test drops them
    k = Intrinsics(fx=60.0, fy=60.0, cx=32.0, cy=24.0, width=64, height=48)
    scene = Scene(objects=(brick("b", 0.0, 0.0, 2.2e-313),), camera_mount=NADIR_CAM)
    labels, depth = render(scene, k)
    assert (labels.dense() == 1).any()
    assert depth.dense().min() == pytest.approx(1.2 - 0.057, abs=1e-12)


# --- noise ----------------------------------------------------------------------


def _flat_depth(value: float = 1.0, shape=(100, 100)) -> DepthImage:
    return DepthImage.from_array(np.full(shape, value))


def test_identity_noise_is_bitwise_identity():
    d = _flat_depth(1.2)
    out = apply_noise(d, DepthNoiseModel(), seed=3)
    assert np.array_equal(out.dense(), d.dense())


def test_constant_bias_is_exact():
    d = _flat_depth(1.0)
    out = apply_noise(d, DepthNoiseModel(bias=0.02), seed=3)
    assert np.array_equal(out.dense(), d.dense() + 0.02)


def test_bias_skips_invalid_pixels():
    data = np.full((10, 10), 1.0)
    data[0, 0] = 0.0
    out = apply_noise(DepthImage.from_array(data), DepthNoiseModel(bias=0.02), seed=0)
    assert out.dense()[0, 0] == 0.0
    assert np.array_equal(out.dense()[1:], data[1:] + 0.02)


def test_gaussian_noise_statistics():
    d = _flat_depth(1.0)
    out = apply_noise(d, DepthNoiseModel(sigma=0.005), seed=11)
    err = out.dense() - d.dense()
    assert abs(err.mean()) < 0.0005
    assert err.std() == pytest.approx(0.005, rel=0.10)


def test_dropout_fraction_and_zeroing():
    d = _flat_depth(1.0)
    out = apply_noise(d, DepthNoiseModel(dropout_prob=0.1), seed=5)
    dropped = out.dense() == 0.0
    assert 0.05 < dropped.mean() < 0.15
    assert np.array_equal(out.dense()[~dropped], d.dense()[~dropped])


def test_noise_is_seed_deterministic():
    d = _flat_depth(1.0)
    model = DepthNoiseModel(sigma=0.004, dropout_prob=0.02)
    a = apply_noise(d, model, seed=7)
    b = apply_noise(d, model, seed=7)
    c = apply_noise(d, model, seed=8)
    assert np.array_equal(a.dense(), b.dense())
    assert not np.array_equal(a.dense(), c.dense())


def _gather_noise_reference(depth: DepthImage, model: DepthNoiseModel, seed) -> np.ndarray:
    """The noise model written with boolean-mask gathers, as it first was."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal(depth.shape)
    uniforms = rng.random(depth.shape)
    valid = depth.dense() > 0.0
    out = depth.dense().copy()
    out[valid] = out[valid] + model.bias + model.sigma * normals[valid]
    out[valid & (uniforms < model.dropout_prob)] = 0.0
    return out


@st.composite
def noise_cases(draw):
    # the large shapes end on, past and short of a chunk of uniforms
    small = st.tuples(st.integers(1, 24), st.integers(1, 24))
    shape = draw(small | st.sampled_from([(64, 128), (97, 171), (1, 8193)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    data = rng.uniform(0.05, 2.0, shape)
    # invalid pixels: zeros of both signs and negative depths
    invalid = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    data[invalid] = rng.choice([0.0, -0.0, -0.5], size=int(invalid.sum()))

    def zero_or(strategy):
        return draw(st.one_of(st.just(0.0), strategy))

    model = DepthNoiseModel(
        sigma=zero_or(st.floats(1e-6, 0.1)),
        bias=zero_or(st.floats(-0.1, 0.1).filter(bool)),
        dropout_prob=zero_or(st.floats(1e-3, 0.9)),
    )
    clusters, background = None, 0.0
    if draw(st.booleans()):
        # the image as the crops of up to three clusters, and a background,
        # valid or not, everywhere else
        windows = draw(st.lists(windows_in(shape), min_size=1, max_size=3))
        clusters = camera.window_clusters(windows)
        background = draw(st.sampled_from([0.7, 0.0, -0.0, -0.5]))
        outside = np.ones(shape, dtype=bool)
        for r0, r1, c0, c1 in clusters:
            outside[r0:r1, c0:c1] = False
        data[outside] = background
    depth = DepthImage.from_array(data, clusters, background=background)
    return depth, model, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(case=noise_cases())
def test_apply_noise_equals_the_gather_form_bit_for_bit(case):
    depth, model, seed = case
    expected = _gather_noise_reference(depth, model, seed)
    out = apply_noise(depth, model, seed)
    assert np.array_equal(out.dense().view(np.uint64), expected.view(np.uint64))
    assert out.dense() is not depth.dense()
    # the same draws when made ahead on another thread
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(draw_noise, model, seed, depth.shape)
        drawn = apply_noise(depth, model, seed, draws=ahead.result())
    assert np.array_equal(drawn.dense().view(np.uint64), expected.view(np.uint64))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        DepthNoiseModel(sigma=-0.001)
    with pytest.raises(ValueError):
        DepthNoiseModel(dropout_prob=1.0)


# --- image containers and dumps ---------------------------------------------------


def test_image_container_validation():
    with pytest.raises(ValueError):
        DepthImage.from_array(np.zeros(5))
    with pytest.raises(ValueError):
        LabelImage.from_array(np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        LabelImage.from_array(np.full((4, 4), 3, dtype=np.uint8))


@st.composite
def label_arrays(draw):
    """A uint8 image from 1x1 to 64x128: empty, or labelled rectangles and
    pixels on any of its four edges, and maybe one unknown code anywhere."""
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 128))
    data = np.zeros((h, w), dtype=np.uint8)
    code = st.sampled_from((1, 2))
    for _ in range(draw(st.integers(0, 4))):
        r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
        data[r0:r1, c0:c1] = draw(code)
    for edge in draw(st.sets(st.sampled_from(("top", "bottom", "left", "right")))):
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        r = {"top": 0, "bottom": h - 1}.get(edge, r)
        c = {"left": 0, "right": w - 1}.get(edge, c)
        data[r, c] = draw(code)
    unknown = draw(
        st.none() | st.tuples(st.integers(0, h - 1), st.integers(0, w - 1), st.integers(3, 255))
    )
    return data, unknown


@settings(max_examples=300, deadline=None)
@given(case=label_arrays())
@example(case=(np.zeros((1, 1), dtype=np.uint8), None))
@example(case=(np.ones((64, 128), dtype=np.uint8), None))
def test_label_image_class_pixels_and_code_check_match_a_full_scan(case):
    # without clusters, the whole image is the one cluster
    data, unknown = case
    if unknown is not None:
        r, c, bad = unknown
        data[r, c] = bad
        with pytest.raises(ValueError, match="unknown class code"):
            LabelImage.from_array(data)
        return
    labels = LabelImage.from_array(data)
    assert labels.clusters == ((0, data.shape[0], 0, data.shape[1]),)
    assert labels.class_pixels() == ((data == 1).sum(), (data == 2).sum())


@st.composite
def windows_in(draw, shape: tuple[int, int]):
    """A window of at least one pixel inside an image of ``shape``."""
    h, w = shape
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    return r0, draw(st.integers(r0 + 1, h)), c0, draw(st.integers(c0 + 1, w))


@settings(max_examples=300, deadline=None)
@given(case=label_arrays(), drawn=st.data())
def test_an_unknown_code_in_any_cluster_raises(case, drawn):
    # clusters of the labels' components and of up to three more windows;
    # a code above 2 in any of them is found, as it is anywhere in an image
    # built without clusters
    data, _ = case
    whole = LabelImage.from_array(data)
    windows = [comp.bbox for cls in ObjectClass for comp in components(whole, cls)]
    windows += drawn.draw(st.lists(windows_in(data.shape), min_size=0 if windows else 1, max_size=3))
    clusters = camera.window_clusters(windows)
    labels = LabelImage.from_array(data, clusters)
    assert labels.class_pixels() == ((data == 1).sum(), (data == 2).sum())
    r0, r1, c0, c1 = drawn.draw(st.sampled_from(clusters))
    r, c = drawn.draw(st.integers(r0, r1 - 1)), drawn.draw(st.integers(c0, c1 - 1))
    data[r, c] = drawn.draw(st.integers(3, 255))
    with pytest.raises(ValueError, match="unknown class code"):
        LabelImage.from_array(data, clusters)
    with pytest.raises(ValueError, match="unknown class code"):
        LabelImage.from_array(data)


@st.composite
def labels_in_windows(draw):
    """A label image and a window that holds all of its labels: the labels'
    own bounding box grown by zero or more pixels on each side, up to the image's
    edges. Empty images get any window, empty ones included."""
    data, _ = draw(label_arrays())
    h, w = data.shape
    if draw(st.booleans()):
        # one pixel, maybe on an edge or corner
        data[:] = 0
        r = draw(st.sampled_from((0, h - 1)) | st.integers(0, h - 1))
        c = draw(st.sampled_from((0, w - 1)) | st.integers(0, w - 1))
        data[r, c] = draw(st.sampled_from((1, 2)))
    rows, cols = np.nonzero(data)
    if len(rows):
        r0, r1 = int(rows.min()), int(rows.max()) + 1
        c0, c1 = int(cols.min()), int(cols.max()) + 1
        grow = st.integers(0, 3) | st.just(max(h, w))
        window = (
            max(0, r0 - draw(grow)),
            min(h, r1 + draw(grow)),
            max(0, c0 - draw(grow)),
            min(w, c1 + draw(grow)),
        )
    else:
        r0, c0 = draw(st.integers(0, h)), draw(st.integers(0, w))
        window = (r0, draw(st.integers(r0, h)), c0, draw(st.integers(c0, w)))
    return data, window


@settings(max_examples=300, deadline=None)
@given(case=labels_in_windows())
@example(case=(np.zeros((1, 1), dtype=np.uint8), (0, 0, 0, 0)))
@example(case=(np.zeros((1, 1), dtype=np.uint8), (0, 1, 0, 1)))
@example(case=(np.ones((1, 1), dtype=np.uint8), (0, 1, 0, 1)))
@example(case=(np.eye(4, 9, 8, dtype=np.uint8), (0, 1, 8, 9)))
@example(case=(np.eye(6, 3, -5, dtype=np.uint8), (5, 6, 0, 1)))
def test_windowed_class_pixels_equal_a_full_scan(case):
    # the given window is the one cluster, and the counts read it alone
    data, window = case
    labels = LabelImage.from_array(data, (window,))
    assert labels.clusters == (window,)
    assert labels.class_pixels() == ((data == 1).sum(), (data == 2).sum())


@settings(max_examples=300, deadline=None)
@given(case=label_arrays(), drawn=st.data())
def test_a_cluster_image_reads_as_its_dense_array(case, drawn):
    # the clusters of the labels' components and of more windows; the
    # image's dense form, the crop views in any window (one that reaches
    # past the image too) and the view of and a gather from any box that
    # one cluster holds all read ``data``
    data, _ = case
    h, w = data.shape
    whole = LabelImage.from_array(data)
    windows = [comp.bbox for cls in ObjectClass for comp in components(whole, cls)]
    windows += drawn.draw(st.lists(windows_in(data.shape), max_size=3))
    labels = LabelImage.from_array(data, camera.window_clusters(windows))
    assert np.array_equal(labels.dense(), data)
    r0, c0 = drawn.draw(st.integers(-3, h)), drawn.draw(st.integers(-3, w))
    size = st.integers(0, h + 3), st.integers(0, w + 3)
    window = (r0, r0 + drawn.draw(size[0]), c0, c0 + drawn.draw(size[1]))
    seen = np.zeros(data.shape, dtype=bool)
    for r, c, view in labels.views(window):
        assert np.array_equal(view, data[r : r + view.shape[0], c : c + view.shape[1]])
        seen[r : r + view.shape[0], c : c + view.shape[1]] = True
    r1, c1 = max(window[1], 0), max(window[3], 0)
    inside = data[max(r0, 0) : r1, max(c0, 0) : c1]
    assert int(data[seen].sum()) == int(inside.sum())
    if not labels.clusters:
        return
    cr0, cr1, cc0, cc1 = drawn.draw(st.sampled_from(labels.clusters))
    br0, br1, bc0, bc1 = drawn.draw(windows_in((cr1 - cr0, cc1 - cc0)))
    box = (cr0 + br0, cr0 + br1, cc0 + bc0, cc0 + bc1)
    r, c, view = labels.holding(box)
    assert (r, c) == (box[0], box[2])
    assert np.array_equal(view, data[box[0] : box[1], box[2] : box[3]])
    pixel = st.tuples(st.integers(box[0], box[1] - 1), st.integers(box[2], box[3] - 1))
    pixels = drawn.draw(st.lists(pixel, max_size=8))
    rows, cols = np.array(pixels, dtype=np.intp).reshape(len(pixels), 2).T
    assert np.array_equal(labels.at(rows, cols, box), data[rows, cols])


def test_windows_touching_only_at_a_corner_merge():
    assert camera.window_clusters([(0, 2, 0, 2), (2, 4, 2, 4)]) == ((0, 4, 0, 4),)
    assert camera.window_clusters([(2, 4, 0, 2), (0, 2, 2, 4)]) == ((0, 4, 0, 4),)


def test_windows_one_empty_row_or_column_apart_stay_apart():
    assert camera.window_clusters([(3, 5, 0, 2), (0, 2, 0, 2)]) == ((0, 2, 0, 2), (3, 5, 0, 2))
    assert camera.window_clusters([(0, 2, 3, 5), (0, 2, 0, 2)]) == ((0, 2, 0, 2), (0, 2, 3, 5))


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_merged_windows_take_in_a_window_their_box_reaches(order):
    # a and b touch at a corner; c touches neither, but lies in their box
    a, b, c = (0, 2, 0, 2), (2, 4, 2, 4), (0, 1, 3, 4)
    windows = [(a, b, c)[i] for i in order]
    assert camera.window_clusters(windows) == ((0, 4, 0, 4),)


def test_label_image_without_windows_is_one_cluster_of_the_whole_image():
    data = np.zeros((6, 9), dtype=np.uint8)
    assert LabelImage.from_array(data).clusters == ((0, 6, 0, 9),)
    data[1, 2] = 1
    data[4, 7] = 2
    assert LabelImage.from_array(data).clusters == ((0, 6, 0, 9),)
    # given clusters are kept as they are, whether they hold a labelled
    # pixel or not
    clusters = camera.window_clusters([(1, 2, 2, 3), (4, 5, 7, 8), (0, 1, 8, 9)])
    labels = LabelImage.from_array(data, clusters)
    assert labels.clusters == clusters == ((0, 1, 8, 9), (1, 2, 2, 3), (4, 5, 7, 8))
    assert labels.class_pixels() == (1, 1)
    empty = LabelImage.from_array(np.zeros((6, 9), dtype=np.uint8), ())
    assert empty.clusters == () and empty.class_pixels() == (0, 0)


def test_depth_pgm_golden_bytes():
    img = DepthImage.from_array(np.array([[0.0, 0.001], [1.5, 2.0]]))
    expected = b"P5\n2 2\n65535\n" + struct.pack(">4H", 0, 1, 1500, 2000)
    assert encode_depth_pgm(img) == expected


def test_depth_pgm_rounds_and_clips():
    img = DepthImage.from_array(np.array([[0.0004, 0.0006, 70.0]]))
    body = encode_depth_pgm(img)[len(b"P5\n3 1\n65535\n"):]
    assert struct.unpack(">3H", body) == (0, 1, 65535)  # nearest mm, clip beyond range


def test_label_ppm_golden_bytes():
    img = LabelImage.from_array(np.array([[0, 1], [2, 0]], dtype=np.uint8))
    palette = bytes((30, 30, 30, 200, 60, 40, 40, 90, 200, 30, 30, 30))
    assert encode_label_ppm(img) == b"P6\n2 2\n255\n" + palette


def test_render_dump_roundtrip_size():
    scene = Scene(objects=(brick("b", 0.0, 0.0),), camera_mount=NADIR_CAM)
    labels, depth = render(scene, DEFAULT_INTRINSICS)
    pgm = encode_depth_pgm(depth)
    ppm = encode_label_ppm(labels)
    assert len(pgm) == len(b"P5\n512 256\n65535\n") + 512 * 256 * 2
    assert len(ppm) == len(b"P6\n512 256\n255\n") + 512 * 256 * 3


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(fx=0.0, fy=256.0, cx=1.0, cy=1.0, width=4, height=4)
    with pytest.raises(ValueError):
        Intrinsics(fx=256.0, fy=256.0, cx=1.0, cy=1.0, width=0, height=4)


@pytest.mark.parametrize("name", ["fx", "fy"])
def test_intrinsics_bound_the_field_of_view(name):
    # the farthest pixel centers lie 256 px from the principal point along x
    # and 128 px along y; at the limit their rays are half the field of view out
    extent = {"fx": 256.0, "fy": 128.0}[name]
    shortest = extent / math.tan(math.radians(camera.MAX_FIELD_OF_VIEW_DEG / 2.0))
    base = dict(fx=256.0, fy=256.0, cx=256.0, cy=128.0, width=512, height=256)
    Intrinsics(**{**base, name: shortest * (1 + 1e-12)})
    for focal in (shortest * (1 - 1e-12), 1e-300, 5e-324, math.inf):
        with pytest.raises(camera.InvalidIntrinsics) as err:
            Intrinsics(**{**base, name: focal})
        assert err.value.field == name


@pytest.mark.parametrize(
    "k",
    [
        DEFAULT_INTRINSICS,
        Intrinsics(fx=200.0, fy=180.0, cx=40.3, cy=19.7, width=80, height=40),
        Intrinsics(fx=3.0, fy=1e6, cx=0.0, cy=0.5, width=1, height=1),
    ],
)
def test_ray_offsets_are_computed_once_and_read_only(k):
    a, b = k.ray_offsets
    fresh_a = (np.arange(k.width) - k.cx) / k.fx
    fresh_b = (np.arange(k.height) - k.cy) / k.fy
    assert a.tobytes() == fresh_a.tobytes() and b.tobytes() == fresh_b.tobytes()
    assert k.ray_offsets[0] is a and k.ray_offsets[1] is b
    for arr in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cylinder_cast_ignores_overflow_on_far_off_axis_rays():
    # ray directions of 1e300 overflow the quadratic's coefficients; the
    # overflowed roots are discarded, so only the rays near the axis hit
    obj = pipe("p", 0.0, 0.0)
    d = np.array([[0.0, 1e-3, 1e300]])
    zeta = camera._cast_cylinder(obj, np.array([0.0, 0.0, 1.2]), np.zeros_like(d), d)
    assert zeta[0, 0] == pytest.approx(1.2 - 0.06) and zeta[0, 1] < np.inf
    assert zeta[0, 2] == np.inf


# --- the nadir casts against the general ones -------------------------------------


def _reference_cast_box(obj: ObjectSpec, o_l: tuple[float, float, float], dlx, dly, dlz) -> np.ndarray:
    """Reference ``_cast_box``: three slabs for any ray direction."""
    dims: BrickDims = obj.dims
    half = (dims.length / 2.0, dims.width / 2.0)
    t_near = np.full(dlx.shape, -np.inf)
    t_far = np.full(dlx.shape, np.inf)
    bounds = ((-half[0], half[0]), (-half[1], half[1]), (0.0, dims.height))
    for axis, (lo, hi) in enumerate(bounds):
        d = (dlx, dly, dlz)[axis]
        o = o_l[axis]
        # a near-zero d can overflow t1 and t2; the parallel test discards them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        parallel = np.abs(d) < 1e-15
        lo_t = np.where(parallel, np.where(lo <= o, -np.inf, np.inf), np.minimum(t1, t2))
        hi_t = np.where(parallel, np.where(o <= hi, np.inf, -np.inf), np.maximum(t1, t2))
        t_near = np.maximum(t_near, lo_t)
        t_far = np.minimum(t_far, hi_t)
    hit = (t_near <= t_far) & (t_near > 0.0)
    return np.where(hit, t_near, np.inf)


def _reference_cast_cylinder(obj: ObjectSpec, o_l: tuple[float, float, float], dlx, dly, dlz) -> np.ndarray:
    """Reference ``_cast_cylinder``: the quadratic for any ray direction."""
    dims: PipeDims = obj.dims
    r, half_len = dims.radius, dims.length / 2.0
    oy, oz = o_l[1], o_l[2] - r  # shift so the axis sits at local z = 0
    # a ray far from the optical axis can overflow these; an infinite or
    # NaN discriminant or root fails the tests below, as in ``_cast_box``
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = dly * dly + dlz * dlz
        b = 2.0 * (oy * dly + oz * dlz)
        c = oy * oy + oz * oz - r * r
        disc = b * b - 4.0 * a * c
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_lo = (-b - sq) / (2.0 * a)
        t_hi = (-b + sq) / (2.0 * a)

    best = np.full(dlx.shape, np.inf)
    for t in (t_lo, t_hi):
        x_at = o_l[0] + t * dlx
        valid = ok & (t > 0.0) & (np.abs(x_at) <= half_len)
        best = np.where(valid & (t < best), t, best)

    # Flat end caps (vertical disks); grazing-only for a top-down camera but
    # kept for exactness with tilted rays near the image border. A ray
    # nearly parallel to the caps can overflow ``t_cap``; the dlx test
    # discards it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sign in (-1.0, 1.0):
            t_cap = (sign * half_len - o_l[0]) / dlx
            y_at = oy + t_cap * dly
            z_at = oz + t_cap * dlz
            valid = (np.abs(dlx) > 1e-15) & (t_cap > 0.0) & (y_at * y_at + z_at * z_at <= r * r)
            best = np.where(valid & (t_cap < best), t_cap, best)
    return best


#: ray direction components where the parallel and overflow tests decide,
#: and 1e90, whose ray from just above a pipe can round to a root behind it
_EDGE_DIRECTIONS = [
    s * v
    for s in (1.0, -1.0)
    for v in (0.0, 1e-16, np.nextafter(1e-15, 0.0), 1e-15, np.nextafter(1e-15, 1.0), 1e-14, 1e90, 1e300)
]


@st.composite
def nadir_casts(draw):
    """An object, a ray origin above its top and a grid of ray directions.

    The origin is drawn near the object, on a face's plane, or an ulp
    above its top, and each direction either aims at a floor point near the
    object or is one of ``_EDGE_DIRECTIONS``.
    """
    if draw(st.booleans()):
        length = draw(st.floats(0.01, 0.5))
        dims = BrickDims(length, draw(st.floats(0.01, length)), draw(st.floats(0.01, 0.3)))
        obj = brick("b", 0.0, 0.0, dims=dims)
        halves = (dims.length / 2.0, dims.width / 2.0)
    else:
        dims = PipeDims(draw(st.floats(0.005, 0.1)), draw(st.floats(0.02, 0.6)))
        obj = pipe("p", 0.0, 0.0, dims=dims)
        halves = (dims.length / 2.0, dims.radius)
    top = obj.top_height
    o_z = draw(st.one_of(st.just(np.nextafter(top, 3.0)), st.floats(top, 3.0, exclude_min=True)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    o_l, grids = [], []
    for half in halves:
        o = draw(st.one_of(st.sampled_from([0.0, -half, half]), st.floats(-3.0 * half, 3.0 * half)))
        aimed = st.floats(-2.0, 2.0).map(lambda f, o=o, half=half: (f * half - o) / o_z)
        edge = st.sampled_from(_EDGE_DIRECTIONS)
        grids.append(draw(hnp.arrays(np.float64, shape, elements=st.one_of(aimed, edge))))
        o_l.append(o)
    return obj, (*o_l, o_z), grids[0], grids[1]


# a ray in a brick's side plane; a pipe seen from one ray on its axis and one
# past its cap; rays whose quadratic overflows; a flat ray from an ulp above
# a pipe, whose roots round to just behind the origin; a ray that enters a
# cap; and one that runs 1e-15 from a cap's plane, and would meet it
@example((brick("b", 0.0, 0.0), (0.1, 0.0, 1.2), np.array([[0.0, -0.1]]), np.array([[0.0, 1e-16]])))
@example((pipe("p", 0.0, 0.0), (0.0, 0.0, 1.2), np.array([[0.0, 0.2]]), np.array([[0.0, 0.0]])))
@example((pipe("p", 0.0, 0.0), (0.0, 0.01, 1.2), np.array([[0.0, 1e300]]), np.array([[1e300, -1e300]])))
@example((pipe("p", 0.0, 0.0), (0.0, 0.05, np.nextafter(0.06, 1.0)), np.zeros((1, 1)), np.full((1, 1), 1e90)))
@example((pipe("p", 0.0, 0.0), (0.3, 0.0, 1.2), np.array([[-0.085]]), np.zeros((1, 1))))
@example(
    (
        pipe("p", 0.0, 0.0, dims=PipeDims(0.05, 0.2)),
        (0.1 + 2 * np.spacing(0.1), 0.0, 0.11),
        np.full((1, 1), -1e-15),
        np.zeros((1, 1)),
    )
)
@settings(deadline=None, max_examples=400)
@given(nadir_casts())
def test_nadir_casts_equal_the_general_casts(case):
    # the casts on d_z = -1 give the general casts' bits, parallel, grazing
    # and overflowing rays included, and raise no floating-point warning
    obj, o_l, dlx, dly = case
    if isinstance(obj.dims, BrickDims):
        cast, reference = camera._cast_box, _reference_cast_box
    else:
        cast, reference = camera._cast_cylinder, _reference_cast_cylinder
    with np.errstate(all="ignore"):
        want = reference(obj, o_l, dlx, dly, -1.0)
    got = cast(obj, o_l, dlx, dly)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- render culling and windowed instance scans ----------------------------------


@st.composite
def camera_views(draw):
    """A scene, intrinsics and the camera's world position.

    Each object's center is placed at floor depth near the image center or
    near an image border, offset by up to 1.6 times its footprint radius, so
    that many objects sit across or just past the border, where culling
    decides.
    """
    width = draw(st.integers(8, 96))
    height = draw(st.integers(8, 64))
    k = Intrinsics(
        fx=draw(st.floats(60.0, 600.0)),
        fy=draw(st.floats(60.0, 600.0)),
        cx=draw(st.floats(0.0, width - 0.5)),
        cy=draw(st.floats(0.0, height - 0.5)),
        width=width,
        height=height,
    )
    mount = CameraMount(
        draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)), draw(st.floats(0.3, 1.5))
    )
    ugv = Pose2D(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(-4.0, 4.0)))
    cam = robot_to_world(np.array([mount.x, mount.y, mount.height]), ugv)
    c, s = math.cos(ugv.heading), math.sin(ugv.heading)
    objects = []
    for i in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            length = draw(st.floats(0.05, 0.5))
            dims = BrickDims(length, draw(st.floats(0.02, length)), draw(st.floats(0.02, 0.2)))
            radius = math.hypot(dims.length, dims.width) / 2.0
        else:
            dims = PipeDims(draw(st.floats(0.01, 0.1)), draw(st.floats(0.05, 0.6)))
            radius = dims.length / 2.0 + dims.radius
        xc, yc = (
            (draw(st.sampled_from([0.0, 0.5, 1.0])) * extent - center) * cam[2] / f
            + draw(st.floats(-1.6, 1.6)) * radius
            for extent, center, f in ((width, k.cx, k.fx), (height, k.cy, k.fy))
        )
        x, y = cam[0] + xc * c + yc * s, cam[1] + xc * s - yc * c
        yaw = draw(st.floats(-math.pi, math.pi))
        make = brick if isinstance(dims, BrickDims) else pipe
        objects.append(make(f"o{i}", x, y, yaw, dims))
    return Scene(objects=tuple(objects), ugv=ugv, camera_mount=mount), k, cam


def _edge_view():
    """A brick turned 45 degrees in a view turned 45 degrees, its center 61
    pixels right of the principal point of a 64 x 32 image: its bounding
    box corners reach the image while its footprint radius does not."""
    k = Intrinsics(fx=256.0, fy=256.0, cx=32.0, cy=16.0, width=64, height=32)
    ugv = Pose2D(0.0, 0.0, math.pi / 4)
    xc = 61.0 * 1.2 / 256.0
    b = brick("b", xc * math.cos(ugv.heading), xc * math.sin(ugv.heading), math.pi / 4)
    cam = np.array([0.0, 0.0, 1.2])
    return Scene(objects=(b,), ugv=ugv, camera_mount=NADIR_CAM), k, cam


@settings(deadline=None, max_examples=300)
@example(_edge_view())
@given(camera_views())
def test_culled_render_equals_render_of_every_window(view):
    scene, k, cam = view
    windowed = []
    real = camera._pixel_window

    def spy(obj, *args):
        windowed.append(obj.id)
        return real(obj, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(camera, "_pixel_window", spy)
        got = render_full(scene, k)
    with pytest.MonkeyPatch.context() as mp:
        # the reference culls nothing: every object gets its pixel window (a
        # property on the class hides the radius cached on each object)
        mp.setattr(ObjectSpec, "aabb_radius", property(lambda obj: math.inf))
        ref = render_full(scene, k)

    for obj in scene.objects:
        if obj.id not in windowed:
            assert real(obj, cam, scene.ugv.heading, k) is None, obj
    # the images compose from the floor depth and the patches alone
    assert got.floor_depth == ref.floor_depth
    assert len(got.patches) == len(ref.patches)
    for a, b in zip(got.patches, ref.patches):
        assert (a.r0, a.r1, a.c0, a.c1, a.obj_index, a.label) == (
            b.r0, b.r1, b.c0, b.c1, b.obj_index, b.label
        )
        assert a.zbuf.tobytes() == b.zbuf.tobytes()


def _reference_pixel_window(obj, cam_pos, heading, k):
    """Reference ``_pixel_window``: the footprint's bounding box rebuilt on
    every call from the brick's corners or the pipe's axis ends pushed out
    by the radius, and all eight corners projected in numpy scalars."""
    if isinstance(obj.dims, BrickDims):
        pts = np.array(_corners(obj))
    else:
        a, b = np.array(_axis(obj))
        r = obj.dims.radius
        pts = np.array([a - r, a + r, b - r, b + r])
    x0, x1, y0, y1 = pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max()
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
    us, vs = [], []
    c, s = math.cos(heading), math.sin(heading)
    for z_w in (0.0, obj.top_height):
        zc = cam_pos[2] - z_w
        if zc <= 0:
            return None
        for wx, wy in corners:
            dx, dy = wx - cam_pos[0], wy - cam_pos[1]
            xc = dx * c + dy * s
            yc = -(-dx * s + dy * c)
            us.append(k.fx * xc / zc + k.cx)
            vs.append(k.fy * yc / zc + k.cy)
    c0 = max(0, int(math.floor(min(us))) - 1)
    c1 = min(k.width, int(math.ceil(max(us))) + 2)
    r0 = max(0, int(math.floor(min(vs))) - 1)
    r1 = min(k.height, int(math.ceil(max(vs))) + 2)
    if c0 >= c1 or r0 >= r1:
        return None
    return r0, r1, c0, c1


def _reference_render(scene, k):
    """Reference ``render_full``: the culling loop on numpy scalars, with the
    footprint radius and bounding box recomputed for every object and
    frame; it returns the patches and the ids of the culled objects."""
    mount = scene.camera_mount
    cam_pos = robot_to_world(np.array([mount.x, mount.y, mount.height]), scene.ugv)
    heading = scene.ugv.heading
    ch, sh = math.cos(heading), math.sin(heading)
    a = (np.arange(k.width) - k.cx) / k.fx
    b = (np.arange(k.height) - k.cy) / k.fy
    floor_depth = float(cam_pos[2])
    half_x = (max(k.cx, k.width - k.cx) + 3.0) * floor_depth / k.fx
    half_y = (max(k.cy, k.height - k.cy) + 3.0) * floor_depth / k.fy
    patches, culled = [], []
    for idx, obj in enumerate(scene.objects):
        ox, oy = obj.x - cam_pos[0], obj.y - cam_pos[1]
        if isinstance(obj.dims, BrickDims):
            r = math.hypot(obj.dims.length, obj.dims.width) / 2.0
        else:
            r = obj.dims.length / 2.0 + obj.dims.radius
        reach = math.sqrt(2.0) * r
        if abs(ox * ch + oy * sh) - reach > half_x or abs(ox * sh - oy * ch) - reach > half_y:
            culled.append(obj.id)
            continue
        window = _reference_pixel_window(obj, cam_pos, heading, k)
        if window is None:
            continue
        r0, r1, c0, c1 = window
        aw = a[c0:c1][None, :]
        bw = b[r0:r1][:, None]
        dx = aw * ch + bw * sh
        dy = aw * sh - bw * ch
        cy_, sy_ = math.cos(obj.yaw), math.sin(obj.yaw)
        dlx = dx * cy_ + dy * sy_
        dly = -dx * sy_ + dy * cy_
        o_world = cam_pos - np.array([obj.x, obj.y, 0.0])
        o_l = np.array(
            [
                o_world[0] * cy_ + o_world[1] * sy_,
                -o_world[0] * sy_ + o_world[1] * cy_,
                o_world[2],
            ]
        )
        cast = _reference_cast_box if isinstance(obj.dims, BrickDims) else _reference_cast_cylinder
        zeta = cast(obj, o_l, dlx, dly, -1.0)
        if (zeta < floor_depth).any():
            patches.append((r0, r1, c0, c1, idx, obj.cls.label, zeta.tobytes()))
    return floor_depth, patches, culled


def _culled_and_straddling_view():
    """One object far off the image (culled), and one across each edge."""
    k = Intrinsics(fx=200.0, fy=180.0, cx=40.0, cy=20.0, width=80, height=40)
    ugv = Pose2D(0.3, -0.2, 2.0)
    cam = robot_to_world(np.array([NADIR_CAM.x, NADIR_CAM.y, NADIR_CAM.height]), ugv)
    c, s = math.cos(ugv.heading), math.sin(ugv.heading)
    objects = [brick("far", cam[0] + 5.0, cam[1] - 4.0, 0.4)]
    for i, (u, v) in enumerate(((0.0, 20.0), (80.0, 20.0), (40.0, 0.0), (40.0, 40.0))):
        xc, yc = (u - k.cx) * cam[2] / k.fx, (v - k.cy) * cam[2] / k.fy
        make = brick if i % 2 else pipe
        objects.append(make(f"e{i}", cam[0] + xc * c + yc * s, cam[1] + xc * s - yc * c, i))
    return Scene(objects=tuple(objects), ugv=ugv, camera_mount=NADIR_CAM), k, cam


def _parallel_rays_view():
    """A brick square to a view with no heading, its back face under the
    principal point: the rays of the middle row and column are parallel to
    its sides, and those of the middle column lie in its back face."""
    k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=16.0, width=64, height=32)
    scene = Scene(objects=(brick("b", 0.1, 0.0),), ugv=Pose2D(0.0, 0.0, 0.0), camera_mount=NADIR_CAM)
    return scene, k, np.array([0.0, 0.0, 1.2])


@settings(deadline=None, max_examples=300)
@example(_edge_view())
@example(_culled_and_straddling_view())
@example(_parallel_rays_view())
@given(camera_views())
def test_render_equals_the_numpy_scalar_reference(view):
    # Python-float culling, corner and ray-origin arithmetic and the
    # footprint data kept on each object give the reference's patches in
    # order, windows, labels and bits
    scene, k, cam = view
    floor_depth, want, _ = _reference_render(scene, k)
    # twice: the second render reads what the first kept on the objects
    for _ in range(2):
        got = render_full(scene, k)
        assert got.floor_depth == floor_depth
        assert [
            (p.r0, p.r1, p.c0, p.c1, p.obj_index, p.label, p.zbuf.tobytes()) for p in got.patches
        ] == want
    # the window of every object, culled or not, is the reference's
    for obj in scene.objects:
        heading = scene.ugv.heading
        assert camera._pixel_window(obj, cam.tolist(), heading, k) == _reference_pixel_window(
            obj, cam, heading, k
        )


def test_the_reference_view_culls_one_object_and_cuts_every_edge():
    scene, k, _ = _culled_and_straddling_view()
    _, patches, culled = _reference_render(scene, k)
    assert culled == ["far"]
    windows = [p[:4] for p in patches]
    assert {0} <= {w[0] for w in windows} and {k.height} <= {w[1] for w in windows}
    assert {0} <= {w[2] for w in windows} and {k.width} <= {w[3] for w in windows}


@settings(deadline=None, max_examples=150)
@given(camera_views())
def test_windowed_pixels_of_equals_full_image_scan(view):
    scene, k, _ = view
    rr = render_full(scene, k)
    fd = FrameData(0, 0.0, scene.ugv, False, (k.height, k.width), rr.floor_depth, rr.patches)
    cfg = ScenarioConfig(name="view", objects=scene.objects, intrinsics=k)
    inst = frame_images(fd, cfg).instances
    for idx, obj in enumerate(scene.objects):
        rows, cols = inst.pixels_of(obj.id)
        want_rows, want_cols = np.nonzero(inst.dense() == idx)
        assert rows.dtype == want_rows.dtype and cols.dtype == want_cols.dtype
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    # an id with no patch in the frame has no pixels
    rows, cols = inst.pixels_of("not-in-view")
    assert rows.dtype == cols.dtype == np.intp
    assert rows.size == cols.size == 0
