"""Simulated semantic segmentation.

Ground-truth label images come straight out of the renderer, so a perfect
segmenter is just the identity. Realistic segmenter behavior is modeled as
an ordered list of corruption operators applied on top of the ground truth:
boundary erosion, random holes, a band cut through one object, and region
relabeling. The module also provides the IoU score used to judge one mask
component against the ground truth around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .camera import MAX_IMAGE_PIXELS, InstanceImage, LabelImage, Window
from .geometry import MaskComponent

#: seeds lie in [0, SEED_LIMIT), so any seed is a valid SeedSequence entropy
SEED_LIMIT = 2**63

#: largest erosion radius; erosion runs on each cluster's crop, and its cost
#: grows with the crop and with the radius (on a 2-core Xeon VM, a solid
#: 64 x 64 cluster takes 0.06 ms at radius 10 and 0.34 ms at 50; one that
#: spans a whole 512 x 256 image takes 0.44 ms at 10 and 1.9 ms at 50)
MAX_ERODE_RADIUS = 10

#: widest cut band: no two pixels of an image of at most MAX_IMAGE_PIXELS
#: lie that far apart, so half this width on each side of the target's
#: centroid already removes every pixel of it
MAX_BAND_PX = 2 * MAX_IMAGE_PIXELS


@dataclass(frozen=True)
class Erode:
    """Peel ``radius`` pixels off every class region (square structuring

    element of side 2*radius+1, applied per class)."""

    radius: int

    def __post_init__(self) -> None:
        if not 1 <= self.radius <= MAX_ERODE_RADIUS:
            raise ValueError(f"erosion radius must be in [1, {MAX_ERODE_RADIUS}]")


@dataclass(frozen=True)
class Holes:
    """Knock out labeled pixels independently with probability ``fraction``."""

    fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction < 1.0):
            raise ValueError("fraction must be in [0, 1)")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError("seed must be in [0, 2**63)")


@dataclass(frozen=True)
class CutBand:
    """Remove a band of ``band_px`` through one object, perpendicular to

    its long axis. Splits an elongated mask in two."""

    target_id: str
    band_px: int

    def __post_init__(self) -> None:
        if not 1 <= self.band_px <= MAX_BAND_PX:
            raise ValueError(f"band width must be in [1, {MAX_BAND_PX}]")


@dataclass(frozen=True)
class Relabel:
    """Flip the class of labeled pixels inside a rectangular window.

    ``region`` is (r0, r1, c0, c1), half open. Floor pixels stay floor."""

    region: tuple[int, int, int, int]
    new_class: int

    def __post_init__(self) -> None:
        r0, r1, c0, c1 = self.region
        if r0 >= r1 or c0 >= c1:
            raise ValueError("region must be a non-empty half-open rectangle")
        if r0 < 0 or c0 < 0:
            # a negative index would wrap around to the image's far edge
            raise ValueError("region coordinates must not be negative")
        if self.new_class not in (0, 1, 2):
            raise ValueError("new_class must be a known class code")


CorruptionOp = Union[Erode, Holes, CutBand, Relabel]

#: pixels the mask-IoU window extends past the component's bounding box
IOU_DILATION = 8


# Each op edits the crops of the mask it is given in place, and only ever
# clears a labelled pixel or gives it another class.


def _erode_square(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary erosion by the square of side ``2 * radius + 1``; a pixel past
    the mask's edge counts as unset. The square is a row segment dilated by
    a column segment, so the AND of ``2 * radius + 1`` shifts along the rows,
    then as many along the columns, is the same erosion."""
    h, w = mask.shape
    side = 2 * radius + 1
    pad = np.zeros((h + side - 1, w + side - 1), dtype=bool)
    pad[radius : radius + h, radius : radius + w] = mask
    rows = pad[:, :w].copy()
    for d in range(1, side):
        rows &= pad[:, d : d + w]
    out = rows[:h].copy()
    for d in range(1, side):
        out &= rows[d : d + h]
    return out


def _apply_erode(mask: LabelImage, op: Erode) -> None:
    for crop in mask.crops:
        for code in (1, 2):
            region = crop == code
            if region.any():
                crop[region & ~_erode_square(region, op.radius)] = 0


def _apply_holes(mask: LabelImage, op: Holes, seed: int, op_index: int) -> None:
    if op.fraction == 0.0 or not mask.clusters:
        return
    pixels = [np.nonzero(crop) for crop in mask.crops]
    count = sum(len(rows) for rows, _ in pixels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, op_index, op.seed]))
    drop = rng.random(count) < op.fraction
    if len(pixels) > 1:
        # the draws follow the image's raster order, and clusters may share
        # rows, so only a sort of the pixels' image offsets gives it
        offsets = np.concatenate(
            [
                (rows + r0) * mask.width + (cols + c0)
                for (r0, _, c0, _), (rows, cols) in zip(mask.clusters, pixels)
            ]
        )
        drawn, drop = drop, np.empty_like(drop)
        drop[np.argsort(offsets)] = drawn
    start = 0
    for crop, (rows, cols) in zip(mask.crops, pixels):
        hit = drop[start : start + len(rows)]
        crop[rows[hit], cols[hit]] = 0
        start += len(rows)


def _apply_cut_band(
    mask: LabelImage, op: CutBand, window: Window, rows: np.ndarray, cols: np.ndarray
) -> None:
    # principal axis from second moments; independent of any enclosing-
    # rectangle machinery used downstream
    x = cols.astype(float)
    y = rows.astype(float)
    x -= x.mean()
    y -= y.mean()
    sxx = float(np.dot(x, x))
    syy = float(np.dot(y, y))
    sxy = float(np.dot(x, y))
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    proj = x * math.cos(theta) + y * math.sin(theta)
    band = np.abs(proj) <= op.band_px / 2.0
    # the target's window lies in one cluster
    r0, c0, view = mask.holding(window)
    view[rows[band] - r0, cols[band] - c0] = 0


def _apply_relabel(mask: LabelImage, op: Relabel) -> None:
    # pixels outside the clusters are floor, which stays floor
    for _, _, view in mask.views(op.region):
        view[view != 0] = op.new_class


def segment(
    gt: LabelImage,
    ops: Sequence[CorruptionOp],
    seed: int = 0,
    instances: InstanceImage | None = None,
) -> LabelImage:
    """Apply corruption operators in order on top of the ground truth.

    A cut whose target is out of view (not in ``instances.windows``, without
    pixels there, or no ``instances`` given) is skipped and takes no op index,
    so the ``Holes`` ops after it draw the same pixels as if it were not listed.
    Each window of ``instances`` lies in one cluster of ``gt``, as in a
    composed frame. The first op that runs copies the ground truth's crops,
    and the mask is made of those copies; when no op runs, the mask is
    ``gt`` itself.
    """
    # No op labels a floor pixel, so every labelled pixel stays in the ground
    # truth's clusters, which the mask keeps. Erosion and holes need only
    # the clusters' crops: no two clusters touch, so a ring of floor pixels
    # surrounds each, which is what erosion reads past a crop's edge; holes
    # draw over the clusters' labelled pixels in the image's raster order.
    # Cuts and relabels write into the crops that hold their pixels.
    mask = None
    op_index = 0
    for op in ops:
        if isinstance(op, CutBand):
            if instances is None or op.target_id not in instances.windows:
                continue
            rows, cols = instances.pixels_of(op.target_id)
            if len(rows) == 0:
                continue
        if mask is None:
            mask = LabelImage(gt.shape, gt.clusters, tuple(crop.copy() for crop in gt.crops))
        if isinstance(op, Erode):
            _apply_erode(mask, op)
        elif isinstance(op, Holes):
            _apply_holes(mask, op, seed, op_index)
        elif isinstance(op, CutBand):
            _apply_cut_band(mask, op, instances.windows[op.target_id][1], rows, cols)
        elif isinstance(op, Relabel):
            _apply_relabel(mask, op)
        else:
            raise TypeError(f"unknown corruption op {type(op).__name__}")
        op_index += 1
    return gt if mask is None else mask


def mask_iou(component: MaskComponent, gt: LabelImage) -> float:
    """IoU of one component against the ground truth of its class near it.

    The window is the component bounding box grown by ``IOU_DILATION`` pixels,
    clipped to the image; the ground truth counts only its pixels of the
    component's class inside that window, from every cluster that meets it.
    The union holds the component's own pixels, so it is never empty.
    """
    r0, r1, c0, c1 = component.bbox
    d = IOU_DILATION
    code = component.cls.label
    window = (r0 - d, r1 + d, c0 - d, c1 + d)
    near = sum(int(np.count_nonzero(view == code)) for _, _, view in gt.views(window))
    gathered = gt.at(component.rows, component.cols, component.bbox)
    inter = int(np.count_nonzero(gathered == code))
    return inter / (component.area + near - inter)
