"""Mask corruption operators and the component-windowed IoU score."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from clearbot.camera import InstanceImage, LabelImage, window_clusters
from clearbot.geometry import MaskComponent, connected_components
from clearbot.scene import ObjectClass
from clearbot.segmentation import (
    MAX_BAND_PX,
    MAX_ERODE_RADIUS,
    CutBand,
    EmptyUnion,
    Erode,
    Holes,
    Relabel,
    _apply_cut_band,
    _erode_square,
    mask_iou,
    segment,
)

from helpers import component_from_pixels, full_frame_segment


def rect_labels(r0=10, r1=30, c0=5, c1=45, code=1, shape=(64, 64)) -> LabelImage:
    data = np.zeros(shape, dtype=np.uint8)
    data[r0:r1, c0:c1] = code
    return LabelImage(data)


def rect_instances(r0=10, r1=30, c0=5, c1=45, oid="t1", shape=(64, 64)) -> InstanceImage:
    idx = np.full(shape, -1, dtype=np.int32)
    idx[r0:r1, c0:c1] = 0
    return InstanceImage(idx, {oid: (0, (r0, r1, c0, c1))})


def two_rects(a, b, shape=(64, 64), codes=(1, 1)) -> tuple[LabelImage, InstanceImage]:
    """Two solid rectangles ``a`` and ``b`` (r0, r1, c0, c1) of class
    ``codes`` (bricks by default), objects o0 and o1, labelled with the
    clusters of their windows."""
    data = np.zeros(shape, dtype=np.uint8)
    idx = np.full(shape, -1, dtype=np.int32)
    for i, (r0, r1, c0, c1) in enumerate((a, b)):
        data[r0:r1, c0:c1] = codes[i]
        idx[r0:r1, c0:c1] = i
    instances = InstanceImage(idx, {"o0": (0, a), "o1": (1, b)})
    return LabelImage(data, window_clusters([a, b])), instances


def erode_oracle(mask: np.ndarray, radius: int) -> np.ndarray:
    """Independent erosion: AND of every square-window translate."""
    h, w = mask.shape
    padded = np.pad(mask, radius, constant_values=False)
    out = np.ones_like(mask)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out &= padded[dy : dy + h, dx : dx + w]
    return out


def component_count(labels: LabelImage, code: int) -> int:
    """Test-local component counter (BFS), avoiding the library labeling."""
    mask = labels.data == code
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            count += 1
            stack = [(r, c)]
            seen[r, c] = True
            while stack:
                y, x = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
    return count


# --- the segment entry point -----------------------------------------------------


def test_no_ops_is_identity():
    # with no op to run, the mask is the ground truth itself, not a copy
    gt = rect_labels()
    assert segment(gt, []) is gt
    assert segment(gt, [CutBand("ghost", 3)], instances=rect_instances()) is gt


def test_segment_leaves_input_untouched():
    gt = rect_labels()
    before = gt.data.copy()
    res = segment(gt, [Erode(2), Holes(0.3, seed=1)])
    assert np.array_equal(gt.data, before)
    assert not np.shares_memory(res.data, gt.data)


def test_unknown_op_type_rejected():
    with pytest.raises(TypeError):
        segment(rect_labels(), [object()])


# --- erode -------------------------------------------------------------------------


def test_erode_solid_rectangle_against_oracle():
    gt = rect_labels()  # 20 x 40 solid block
    res = segment(gt, [Erode(2)])
    got = res.data == 1
    want = erode_oracle(gt.data == 1, 2)
    assert np.array_equal(got, want)
    area = int(got.sum())
    assert area == (20 - 4) * (40 - 4) == 576
    assert 576 <= area < 800


def test_erode_random_masks_against_oracle():
    rng = np.random.default_rng(40)
    for radius in (1, 2, 3):
        data = (rng.random((48, 48)) < 0.6).astype(np.uint8)
        res = segment(LabelImage(data), [Erode(radius)])
        assert np.array_equal(res.data == 1, erode_oracle(data == 1, radius))


def test_erode_never_adds_pixels():
    rng = np.random.default_rng(41)
    data = (rng.random((40, 40)) < 0.5).astype(np.uint8) * 2
    out = segment(LabelImage(data), [Erode(1)]).data
    assert not np.any(out[data == 0])


def test_erode_treats_classes_independently():
    data = np.zeros((32, 32), dtype=np.uint8)
    data[4:14, 4:14] = 1
    data[4:14, 14:24] = 2  # touching regions of different classes
    out = segment(LabelImage(data), [Erode(1)]).data
    want1 = erode_oracle(data == 1, 1)
    want2 = erode_oracle(data == 2, 1)
    assert np.array_equal(out == 1, want1)
    assert np.array_equal(out == 2, want2)


def test_erode_radius_validation():
    with pytest.raises(ValueError):
        Erode(0)


@settings(deadline=None, max_examples=200)
@given(
    mask=hnp.arrays(
        np.bool_,
        st.tuples(st.integers(1, 48), st.integers(1, 48)),
        elements=st.booleans(),
        fill=st.booleans(),
    )
)
# smaller than the square at every radius
@example(mask=np.ones((2, 3), bool))
# one row taller than the largest square and as wide: two pixels stay at radius 10
@example(mask=np.ones((22, 21), bool))
# set everywhere but in the column next to the crop's left edge
@example(mask=np.ones((30, 30), bool) & (np.arange(30) != 1))
def test_erode_square_equals_binary_erosion_at_every_radius(mask):
    for radius in range(1, MAX_ERODE_RADIUS + 1):
        square = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
        want = ndimage.binary_erosion(mask, structure=square)
        assert np.array_equal(_erode_square(mask, radius), want)


# --- holes --------------------------------------------------------------------------


def test_holes_zero_fraction_is_identity():
    gt = rect_labels()
    res = segment(gt, [Holes(0.0)])
    assert np.array_equal(res.data, gt.data)


def test_holes_is_seed_deterministic():
    gt = rect_labels()
    a = segment(gt, [Holes(0.3, seed=5)], seed=9).data
    b = segment(gt, [Holes(0.3, seed=5)], seed=9).data
    c = segment(gt, [Holes(0.3, seed=6)], seed=9).data
    d = segment(gt, [Holes(0.3, seed=5)], seed=10).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_holes_fraction_statistics():
    gt = rect_labels(0, 50, 0, 50)  # 2500 labeled pixels
    out = segment(gt, [Holes(0.3, seed=2)], seed=1).data
    removed = int((gt.data == 1).sum() - (out == 1).sum())
    assert 0.25 * 2500 < removed < 0.35 * 2500


def test_holes_never_adds_pixels():
    gt = rect_labels()
    out = segment(gt, [Holes(0.5, seed=3)]).data
    assert not np.any(out[gt.data == 0])
    assert np.all(gt.data[out == 1] == 1)


def test_holes_fraction_validation():
    with pytest.raises(ValueError):
        Holes(1.0)
    with pytest.raises(ValueError):
        Holes(-0.1)


# --- cut band ------------------------------------------------------------------------


def test_cut_band_splits_elongated_mask():
    gt = rect_labels(20, 32, 5, 55)  # 12 x 50, long axis horizontal
    inst = rect_instances(20, 32, 5, 55)
    assert component_count(gt, 1) == 1
    res = segment(gt, [CutBand("t1", 3)], instances=inst)
    assert component_count(res, 1) >= 2


def test_cut_band_only_removes_target_pixels():
    data = np.zeros((64, 64), dtype=np.uint8)
    data[20:32, 5:55] = 1  # target
    data[40:50, 10:20] = 2  # bystander
    idx = np.full((64, 64), -1, dtype=np.int32)
    idx[20:32, 5:55] = 0
    idx[40:50, 10:20] = 1
    windows = {"t1": (0, (20, 32, 5, 55)), "other": (1, (40, 50, 10, 20))}
    inst = InstanceImage(idx, windows)
    out = segment(LabelImage(data), [CutBand("t1", 3)], instances=inst).data
    removed = (data != 0) & (out == 0)
    assert removed.any()
    assert np.all(idx[removed] == 0)  # every removed pixel belonged to t1
    assert np.array_equal(out[40:50, 10:20], data[40:50, 10:20])


def test_cut_band_width_scales_removed_area():
    gt = rect_labels(20, 32, 5, 55)
    inst = rect_instances(20, 32, 5, 55)
    narrow = segment(gt, [CutBand("t1", 2)], instances=inst).data
    wide = segment(gt, [CutBand("t1", 6)], instances=inst).data
    assert (narrow == 1).sum() > (wide == 1).sum()


def test_cut_band_unknown_target():
    gt = rect_labels()
    out = segment(gt, [CutBand("ghost", 3)], instances=rect_instances())
    assert np.array_equal(out.data, gt.data)
    out = segment(gt, [CutBand("t1", 3)], instances=None)
    assert np.array_equal(out.data, gt.data)


def test_cut_band_target_without_pixels():
    idx = np.full((64, 64), -1, dtype=np.int32)
    # t1 has a patch, but every pixel of it is hidden
    inst = InstanceImage(idx, {"t1": (0, (0, 64, 0, 64))})
    out = segment(rect_labels(), [CutBand("t1", 3)], instances=inst)
    assert np.array_equal(out.data, rect_labels().data)


def test_cut_band_validation():
    with pytest.raises(ValueError):
        CutBand("t1", 0)
    with pytest.raises(ValueError):
        CutBand("t1", MAX_BAND_PX + 1)
    CutBand("t1", MAX_BAND_PX)


def test_the_widest_cut_band_removes_its_whole_target():
    # a 1-pixel-high strip as long as any image may be: a target of 1000
    # pixels at one end and one at the other has its centroid near the
    # first end, nearly the strip's length from the last pixel
    n = MAX_BAND_PX // 2
    cols = np.append(np.arange(1000), n - 1)
    rows = np.zeros_like(cols)
    for band_px, left in ((MAX_BAND_PX, 0), (MAX_BAND_PX // 2, 1)):
        data = np.zeros((1, n), dtype=np.uint8)
        data[rows, cols] = 1
        _apply_cut_band(data, CutBand("t1", band_px), rows, cols)
        assert int(data.sum()) == left


# --- relabel --------------------------------------------------------------------------


def test_relabel_flips_classes_in_window():
    gt = rect_labels(10, 30, 5, 45, code=1)
    out = segment(gt, [Relabel((10, 20, 5, 25), 2)]).data
    assert np.all(out[10:20, 5:25] == 2)
    assert np.all(out[20:30, 5:45] == 1)


def test_relabel_leaves_floor_pixels_alone():
    gt = rect_labels(10, 30, 5, 45)
    out = segment(gt, [Relabel((0, 64, 0, 64), 2)]).data
    assert np.all(out[gt.data == 0] == 0)
    assert np.all(out[gt.data == 1] == 2)


def test_relabel_validation():
    with pytest.raises(ValueError):
        Relabel((5, 5, 0, 10), 1)
    with pytest.raises(ValueError):
        Relabel((0, 10, 0, 10), 7)


# --- op chaining ------------------------------------------------------------------------


def test_ops_apply_in_order():
    # erode-then-holes differs from holes-then-erode almost surely
    gt = rect_labels()
    a = segment(gt, [Erode(2), Holes(0.3, seed=1)]).data
    b = segment(gt, [Holes(0.3, seed=1), Erode(2)]).data
    assert not np.array_equal(a, b)


def test_corruption_is_monotone_nonincreasing():
    gt = rect_labels()
    chained = segment(
        gt, [Erode(1), Holes(0.2, seed=4), Relabel((0, 64, 0, 64), 1)]
    ).data
    assert not np.any(chained[gt.data == 0])


# --- cuts out of view -------------------------------------------------------------------


def ops_in_view(ops, instances):
    """The filter the simulation ran before ``segment`` skipped out-of-view
    cuts itself: drop each cut whose target has no pixels in the frame,
    found by a scan of the whole instance image."""
    kept = []
    for op in ops:
        if isinstance(op, CutBand):
            if instances is None or op.target_id not in instances.windows:
                continue
            index, _ = instances.windows[op.target_id]
            if not (instances.index == index).any():
                continue
        kept.append(op)
    return kept


@st.composite
def frames_with_ops(draw):
    """Labels, instances and ops; the ops cut listed targets with and
    without pixels, an unlisted target, or a frame without instances."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, 3, (h, w)).astype(np.uint8)
    # objects o0..o{n-1} are listed; only o0..o{drawn-1} can have pixels
    n = draw(st.integers(0, 4))
    drawn = draw(st.integers(0, n))
    index = np.where(labels > 0, rng.integers(-1, drawn, (h, w)), -1).astype(np.int32)
    # an object without pixels may still have a patch, hidden behind others
    windows = {}
    for i in range(n):
        rows, cols = np.nonzero(index == i)
        if len(rows):
            windows[f"o{i}"] = (i, (rows.min(), rows.max() + 1, cols.min(), cols.max() + 1))
        elif draw(st.booleans()):
            windows[f"o{i}"] = (i, (0, h, 0, w))
    instances = InstanceImage(index, windows)
    if draw(st.booleans()):
        instances = None

    targets = st.sampled_from([f"o{i}" for i in range(n)] + ["ghost"])
    region = st.tuples(
        st.integers(0, h - 1), st.integers(1, h), st.integers(0, w - 1), st.integers(1, w)
    )
    op = st.one_of(
        st.builds(Erode, st.integers(1, 2)),
        st.builds(Holes, st.floats(0.0, 0.9), st.integers(0, 2**32)),
        st.builds(CutBand, targets, st.integers(1, 4)),
        st.builds(
            lambda r, cls: Relabel((r[0], r[0] + r[1], r[2], r[2] + r[3]), cls),
            region,
            st.integers(0, 2),
        ),
    )
    ops = draw(st.lists(op, max_size=6))
    return LabelImage(labels), instances, ops, draw(st.integers(0, 2**32))


@settings(deadline=None, max_examples=300)
@given(frames_with_ops())
@example((rect_labels(), rect_instances(), [CutBand("ghost", 3), Holes(0.5, seed=1)], 4))
@example((rect_labels(), None, [CutBand("t1", 3), Holes(0.5, seed=1)], 4))
@example(
    (
        rect_labels(),
        InstanceImage(np.full((64, 64), -1, dtype=np.int32), {"t1": (0, (0, 64, 0, 64))}),
        [Erode(1), CutBand("t1", 3), Holes(0.5, seed=1)],
        4,
    )
)
def test_segment_skips_cuts_out_of_view_like_the_filter_it_replaced(case):
    labels, instances, ops, seed = case
    got = segment(labels, ops, seed=seed, instances=instances)
    kept = ops_in_view(ops, instances)
    want = segment(labels, kept, seed=seed, instances=instances)
    assert got.data.tobytes() == want.data.tobytes()


# --- the clusters ---------------------------------------------------------------------


@st.composite
def boxed_frames(draw):
    """Rectangular objects, possibly cut by the image edge and speckled,
    in a larger floor image and labelled with the clusters of their
    windows; ops of all four kinds, relabel regions anywhere in (or past)
    the image, erosion up to the largest radius."""
    h, w = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros((h, w), dtype=np.uint8)
    index = np.full((h, w), -1, dtype=np.int32)
    n = draw(st.integers(0, 4))
    windows = {}
    for i in range(n):
        r0, c0 = draw(st.integers(-8, h - 1)), draw(st.integers(-8, w - 1))
        r1, c1 = r0 + draw(st.integers(1, 30)), c0 + draw(st.integers(1, 30))
        r0, r1, c0, c1 = max(r0, 0), min(r1, h), max(c0, 0), min(c1, w)
        if r0 >= r1 or c0 >= c1:
            continue
        keep = rng.random((r1 - r0, c1 - c0)) >= draw(st.sampled_from([0.0, 0.1, 0.5]))
        labels[r0:r1, c0:c1][keep] = draw(st.integers(1, 2))
        index[r0:r1, c0:c1][keep] = i
        windows[f"o{i}"] = (i, (r0, r1, c0, c1))
    instances = InstanceImage(index, windows)
    if draw(st.booleans()):
        instances = None

    targets = st.sampled_from([f"o{i}" for i in range(n)] + ["ghost"])
    region = st.tuples(
        st.integers(0, h + 4), st.integers(1, h + 8), st.integers(0, w + 4), st.integers(1, w + 8)
    )
    op = st.one_of(
        st.builds(Erode, st.integers(1, MAX_ERODE_RADIUS)),
        st.builds(Holes, st.floats(0.0, 0.9), st.integers(0, 2**32)),
        st.builds(CutBand, targets, st.integers(1, 6)),
        st.builds(
            lambda r, cls: Relabel((r[0], r[0] + r[1], r[2], r[2] + r[3]), cls),
            region,
            st.integers(0, 2),
        ),
    )
    ops = draw(st.lists(op, max_size=5))
    clusters = window_clusters([w for _, w in windows.values()])
    return LabelImage(labels, clusters), instances, ops, draw(st.integers(0, 2**32))


@st.composite
def adjacent_rects(draw):
    """Two rectangles 0, 1 or 2 floor pixels apart, side by side, one below
    the other or corner to corner, under erosion and holes: the layouts
    where one cluster's crop meets the other's pixels, or where two windows
    touch and make one cluster. ``boxed_frames`` seldom draws them."""
    gap = draw(st.integers(0, 2))
    place = draw(st.sampled_from(["right", "below", "diagonal"]))
    size = st.integers(1, 12)
    h0, w0, h1, w1 = draw(size), draw(size), draw(size), draw(size)
    # the second rectangle's corner relative to the first's; beside the
    # first, the two face each other over at least one row or column
    r = h0 + gap if place != "right" else draw(st.integers(1 - h1, h0 - 1))
    c = w0 + gap if place != "below" else draw(st.integers(1 - w1, w0 - 1))
    top, left = draw(st.integers(0, 3)) - min(r, 0), draw(st.integers(0, 3)) - min(c, 0)
    a = (top, top + h0, left, left + w0)
    b = (top + r, top + r + h1, left + c, left + c + w1)
    shape = (max(a[1], b[1]) + draw(st.integers(0, 3)), max(a[3], b[3]) + draw(st.integers(0, 3)))
    # erosion runs per class, so two rectangles of one class meet in it
    codes = draw(st.sampled_from([(1, 1), (2, 2), (1, 2)]))
    op = st.one_of(
        st.builds(Erode, st.integers(1, 3)),
        st.builds(Holes, st.floats(0.1, 0.9), st.integers(0, 2**32)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=3))
    return (*two_rects(a, b, shape, codes), ops, draw(st.integers(0, 2**32)))


@settings(deadline=None, max_examples=300)
@given(boxed_frames())
@example((rect_labels(0, 64, 0, 64), rect_instances(0, 64, 0, 64), [Erode(3), Holes(0.3)], 1))
@example(
    (
        rect_labels(20, 30, 20, 30, code=2),
        rect_instances(20, 30, 20, 30),
        [Relabel((0, 64, 25, 64), 1), CutBand("t1", 2), Erode(MAX_ERODE_RADIUS)],
        0,
    )
)
# two clusters that interleave by rows: the holes draw in the image's raster order
@example((*two_rects((10, 30, 2, 12), (15, 40, 30, 45)), [Erode(1), Holes(0.5, seed=1)], 2))
# two clusters one floor pixel apart, eroded by the largest radius, or holed
@example((*two_rects((10, 40, 0, 20), (10, 40, 21, 45)), [Erode(MAX_ERODE_RADIUS)], 0))
@example((*two_rects((10, 40, 0, 20), (10, 40, 21, 45)), [Holes(0.3, seed=1), Erode(1)], 0))
# two windows that share an edge are one cluster
@example((*two_rects((10, 30, 5, 20), (10, 30, 20, 40)), [Erode(1)], 0))
def test_segment_on_the_clusters_equals_the_full_frame(case):
    labels, instances, ops, seed = case
    got = segment(labels, ops, seed=seed, instances=instances)
    assert got.data.tobytes() == full_frame_segment(labels, ops, seed, instances).tobytes()


@settings(deadline=None, max_examples=500)
@given(adjacent_rects())
def test_segment_on_adjacent_clusters_equals_the_full_frame(case):
    labels, instances, ops, seed = case
    got = segment(labels, ops, seed=seed, instances=instances)
    assert got.data.tobytes() == full_frame_segment(labels, ops, seed, instances).tobytes()


# --- iou ------------------------------------------------------------------------------


def main_component(img: LabelImage) -> MaskComponent:
    return connected_components(img, ObjectClass.BRICK)[0]


def test_iou_identical_masks():
    gt = rect_labels()
    assert mask_iou(gt, gt, main_component(gt)) == 1.0


def test_iou_half_erased():
    gt = rect_labels(10, 30, 5, 45)
    pred = rect_labels(10, 30, 5, 25)  # right half of the block erased
    assert mask_iou(pred, gt, main_component(gt)) == 0.5


def test_iou_disjoint_masks():
    gt = rect_labels(10, 30, 5, 25)
    pred = rect_labels(10, 30, 26, 46)
    assert mask_iou(pred, gt, main_component(gt)) == 0.0


def test_iou_is_symmetric():
    rng = np.random.default_rng(42)
    gt = rect_labels()
    pred = LabelImage((rng.random((64, 64)) < 0.3).astype(np.uint8))
    comp = main_component(gt)
    assert mask_iou(pred, gt, comp) == mask_iou(gt, pred, comp)


def test_iou_window_ignores_distant_pixels():
    gt = rect_labels(10, 20, 10, 30)
    noisy = gt.data.copy()
    noisy[50:60, 50:60] = 1  # well beyond the 8 px dilation window
    assert mask_iou(LabelImage(noisy), gt, main_component(gt)) == 1.0


def test_iou_empty_union_raises():
    comp = component_from_pixels(ObjectClass.BRICK, np.array([[5, 5], [5, 6]]))
    blank = LabelImage(np.zeros((64, 64), dtype=np.uint8))
    with pytest.raises(EmptyUnion):
        mask_iou(blank, blank, comp)


def test_iou_shape_mismatch_raises():
    gt = rect_labels()
    small = LabelImage(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(ValueError):
        mask_iou(small, gt, main_component(gt))


def test_iou_equals_one_only_when_windows_coincide():
    gt = rect_labels(10, 30, 5, 45)
    shifted = rect_labels(10, 30, 6, 46)
    assert mask_iou(shifted, gt, main_component(gt)) < 1.0
