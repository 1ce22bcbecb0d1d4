"""Simulated semantic segmentation.

Ground-truth label images come straight out of the renderer, so a perfect
segmenter is just the identity. Realistic segmenter behavior is modeled as
an ordered list of corruption operators applied on top of the ground truth:
boundary erosion, random holes, a band cut through one object, and region
relabeling. The module also provides the IoU score used to judge a mask
against ground truth around one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import ndimage

from .camera import InstanceImage, LabelImage
from .geometry import MaskComponent

#: seeds lie in [0, SEED_LIMIT), so any seed is a valid SeedSequence entropy
SEED_LIMIT = 2**63

#: largest erosion radius; the erosion's cost grows with the square of the
#: radius (on a full 512 x 256 mask, 0.1 s at radius 10 and 3 s at 50)
MAX_ERODE_RADIUS = 10


class EmptyUnion(ValueError):
    """Raised when an IoU is requested over a window with no class pixels."""


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
        if self.band_px < 1:
            raise ValueError("band width must be >= 1")


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


# Each op edits the mask it is given in place, and only ever clears a
# labelled pixel or gives it another class.


def _apply_erode(data: np.ndarray, op: Erode) -> None:
    se = np.ones((2 * op.radius + 1, 2 * op.radius + 1), dtype=bool)
    for code in (1, 2):
        mask = data == code
        if mask.any():
            data[mask & ~ndimage.binary_erosion(mask, structure=se)] = 0


def _apply_holes(data: np.ndarray, op: Holes, seed: int, op_index: int) -> None:
    if op.fraction == 0.0:
        return
    rng = np.random.default_rng(np.random.SeedSequence([seed, op_index, op.seed]))
    rows, cols = np.nonzero(data)
    drop = rng.random(len(rows)) < op.fraction
    data[rows[drop], cols[drop]] = 0


def _apply_cut_band(data: np.ndarray, op: CutBand, rows: np.ndarray, cols: np.ndarray) -> None:
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
    data[rows[band], cols[band]] = 0


def _apply_relabel(data: np.ndarray, op: Relabel) -> None:
    r0, r1, c0, c1 = op.region
    window = data[r0:r1, c0:c1]
    window[window != 0] = op.new_class


def segment(
    gt: LabelImage,
    ops: Sequence[CorruptionOp],
    seed: int = 0,
    instances: InstanceImage | None = None,
    out: LabelImage | None = None,
) -> LabelImage:
    """Apply corruption operators in order on top of the ground truth.

    A cut whose target is out of view (not in ``instances.windows``, without
    pixels there, or no ``instances`` given) is skipped and takes no op index,
    so the ``Holes`` ops after it draw the same pixels as if it were not listed.
    ``out``, a mask of the image's shape that an earlier call returned, has
    its array reused for the new mask: its box is cleared and the ground
    truth's box copied in, and it is no longer valid after. Without it, the
    mask is a fresh array.
    """
    if out is None:
        data = np.zeros_like(gt.data)
    else:
        data = out.data
        r0, r1, c0, c1 = out.box or (0, 0, 0, 0)
        data[r0:r1, c0:c1] = 0
    r0, r1, c0, c1 = gt.box or (0, 0, 0, 0)
    # No op labels a floor pixel, so every labelled pixel stays in this box
    # and in the ground truth's clusters, which the mask keeps, clipped to
    # its own box. Erosion and holes need only the box's crop: erosion reads
    # past the crop's edge as floor, which the image holds there, and holes
    # draw over the crop's labelled pixels in the image's row-major order.
    # Cuts and relabels only index, on the whole mask, in image coordinates.
    crop = data[r0:r1, c0:c1]
    np.copyto(crop, gt.data[r0:r1, c0:c1])
    op_index = 0
    for op in ops:
        if isinstance(op, Erode):
            _apply_erode(crop, op)
        elif isinstance(op, Holes):
            _apply_holes(crop, op, seed, op_index)
        elif isinstance(op, CutBand):
            if instances is None or op.target_id not in instances.windows:
                continue
            rows, cols = instances.pixels_of(op.target_id)
            if len(rows) == 0:
                continue
            _apply_cut_band(data, op, rows, cols)
        elif isinstance(op, Relabel):
            _apply_relabel(data, op)
        else:
            raise TypeError(f"unknown corruption op {type(op).__name__}")
        op_index += 1
    return LabelImage(data, gt.clusters)


def mask_iou(pred: LabelImage, gt: LabelImage, component: MaskComponent) -> float:
    """IoU of one class between two masks near one component.

    The window is the component bounding box grown by ``IOU_DILATION`` pixels,
    clipped to the image; both masks are restricted to the component class
    inside that window, so the score is symmetric in its two mask inputs.
    """
    if pred.data.shape != gt.data.shape:
        raise ValueError("mask shapes differ")
    r0, r1, c0, c1 = component.bbox
    r0 = max(0, r0 - IOU_DILATION)
    c0 = max(0, c0 - IOU_DILATION)
    r1 = min(pred.height, r1 + IOU_DILATION)
    c1 = min(pred.width, c1 + IOU_DILATION)
    code = component.cls.label
    a = pred.data[r0:r1, c0:c1] == code
    b = gt.data[r0:r1, c0:c1] == code
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        raise EmptyUnion("neither mask has class pixels near the component")
    inter = int(np.logical_and(a, b).sum())
    return inter / union
