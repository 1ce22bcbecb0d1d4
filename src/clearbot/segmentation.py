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

DEFAULT_LATENCY = 1.0 / 21.0

#: seeds lie in [0, SEED_LIMIT), so any seed is a valid SeedSequence entropy
SEED_LIMIT = 2**63


class UnknownObjectId(KeyError):
    """Raised when a cut targets an object with no pixels in the frame."""


class EmptyUnion(ValueError):
    """Raised when an IoU is requested over a window with no class pixels."""


@dataclass(frozen=True)
class Erode:
    """Peel ``radius`` pixels off every class region (square structuring

    element of side 2*radius+1, applied per class)."""

    radius: int

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError("erosion radius must be >= 1")


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
        if self.new_class not in (0, 1, 2):
            raise ValueError("new_class must be a known class code")


CorruptionOp = Union[Erode, Holes, CutBand, Relabel]


@dataclass(frozen=True)
class SegmentationResult:
    labels: LabelImage
    latency: float


def _apply_erode(data: np.ndarray, op: Erode) -> np.ndarray:
    out = np.zeros_like(data)
    se = np.ones((2 * op.radius + 1, 2 * op.radius + 1), dtype=bool)
    for code in (1, 2):
        mask = data == code
        if mask.any():
            out[ndimage.binary_erosion(mask, structure=se)] = code
    return out


def _apply_holes(data: np.ndarray, op: Holes, seed: int, op_index: int) -> np.ndarray:
    if op.fraction == 0.0:
        return data
    rng = np.random.default_rng(np.random.SeedSequence([seed, op_index, op.seed]))
    rows, cols = np.nonzero(data)
    drop = rng.random(len(rows)) < op.fraction
    out = data.copy()
    out[rows[drop], cols[drop]] = 0
    return out


def _apply_cut_band(
    data: np.ndarray, op: CutBand, instances: InstanceImage | None
) -> np.ndarray:
    if instances is None:
        raise UnknownObjectId(op.target_id)
    try:
        rows, cols = instances.pixels_of(op.target_id)
    except ValueError:
        raise UnknownObjectId(op.target_id) from None
    if len(rows) == 0:
        raise UnknownObjectId(op.target_id)
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
    out = data.copy()
    out[rows[band], cols[band]] = 0
    return out


def _apply_relabel(data: np.ndarray, op: Relabel) -> np.ndarray:
    r0, r1, c0, c1 = op.region
    out = data.copy()
    window = out[r0:r1, c0:c1]
    window[window != 0] = op.new_class
    return out


def segment(
    gt: LabelImage,
    ops: Sequence[CorruptionOp],
    seed: int = 0,
    instances: InstanceImage | None = None,
    latency: float = DEFAULT_LATENCY,
) -> SegmentationResult:
    """Apply corruption operators in order on top of the ground truth."""
    data = gt.data.copy()
    for op_index, op in enumerate(ops):
        if isinstance(op, Erode):
            data = _apply_erode(data, op)
        elif isinstance(op, Holes):
            data = _apply_holes(data, op, seed, op_index)
        elif isinstance(op, CutBand):
            data = _apply_cut_band(data, op, instances)
        elif isinstance(op, Relabel):
            data = _apply_relabel(data, op)
        else:
            raise TypeError(f"unknown corruption op {type(op).__name__}")
    return SegmentationResult(labels=LabelImage(data), latency=latency)


def mask_iou(
    pred: LabelImage,
    gt: LabelImage,
    component: MaskComponent,
    dilation: int = 8,
) -> float:
    """IoU of one class between two masks near one component.

    The window is the component bounding box grown by ``dilation`` pixels,
    clipped to the image; both masks are restricted to the component class
    inside that window, so the score is symmetric in its two mask inputs.
    """
    if pred.data.shape != gt.data.shape:
        raise ValueError("mask shapes differ")
    r0, r1, c0, c1 = component.bbox
    r0 = max(0, r0 - dilation)
    c0 = max(0, c0 - dilation)
    r1 = min(pred.height, r1 + dilation)
    c1 = min(pred.width, c1 + dilation)
    code = component.cls.label
    a = pred.data[r0:r1, c0:c1] == code
    b = gt.data[r0:r1, c0:c1] == code
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        raise EmptyUnion("neither mask has class pixels near the component")
    inter = int(np.logical_and(a, b).sum())
    return inter / union
