"""Builders shared by the test modules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage

from clearbot import geometry
from clearbot.camera import LabelImage
from clearbot.geometry import MaskComponent
from clearbot.orchestrator import (
    MessageBus,
    MessageEnvelope,
    RunReport,
    ScenarioConfig,
    Simulation,
    Topic,
)
from clearbot.scene import BrickDims, ObjectClass, ObjectSpec, _axis
from clearbot.segmentation import CutBand, Erode, Holes


class Recorder:
    """A bus subscriber that keeps every envelope, in publish order."""

    def __init__(self, bus: MessageBus) -> None:
        self._log: list[MessageEnvelope] = []
        bus.subscribe(self._log.append)

    def history(self, topic: Topic) -> tuple[MessageEnvelope, ...]:
        return tuple(env for env in self._log if env.topic is topic)

    def log(self) -> tuple[MessageEnvelope, ...]:
        return tuple(self._log)


def components(labels: LabelImage, cls: ObjectClass, min_area: int = 1) -> list[MaskComponent]:
    """``connected_components`` with the run's area floor lowered to
    ``min_area``, for masks that hold smaller components."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "A_MIN_COMPONENT_PX", min_area)
        return geometry.connected_components(labels, cls)


def run_recorded(cfg: ScenarioConfig) -> tuple[RunReport, Simulation, Recorder]:
    """``run_scenario`` with a recorder subscribed before the first step."""
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    return sim.run(), sim, recorder


def component_from_pixels(cls: ObjectClass, pixels) -> MaskComponent:
    """A component of the given (row, col) pixels, in any order; they are
    put in raster order, as ``connected_components`` gives them."""
    rows, cols = np.asarray(pixels, dtype=np.int64).T
    order = np.lexsort((cols, rows))
    return MaskComponent(cls, rows[order], cols[order])


def footprint_contains(obj: ObjectSpec, x, y, margin: float = 0.0):
    """Which floor points (x, y) lie on the object's footprint grown by
    ``margin``: a brick's oriented rectangle, or a pipe's axis segment
    dilated by its radius."""
    if isinstance(obj.dims, BrickDims):
        c, s = math.cos(obj.yaw), math.sin(obj.yaw)
        dx = np.asarray(x, dtype=float) - obj.x
        dy = np.asarray(y, dtype=float) - obj.y
        lx = dx * c + dy * s
        ly = -dx * s + dy * c
        return (np.abs(lx) <= obj.dims.length / 2.0 + margin) & (
            np.abs(ly) <= obj.dims.width / 2.0 + margin
        )
    a, b = _axis(obj)
    px = np.asarray(x, dtype=float) - a[0]
    py = np.asarray(y, dtype=float) - a[1]
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((px * ab[0] + py * ab[1]) / denom, 0.0, 1.0)
    dx = px - t * ab[0]
    dy = py - t * ab[1]
    return dx * dx + dy * dy <= (obj.dims.radius + margin) ** 2


def full_frame_segment(gt, ops, seed, instances):
    """``segment`` as first written: every op on a fresh copy of the whole
    image, with erosion by ``ndimage.binary_erosion`` over the full frame."""
    data = gt.data.copy()
    op_index = 0
    for op in ops:
        if isinstance(op, Erode):
            out = np.zeros_like(data)
            se = np.ones((2 * op.radius + 1, 2 * op.radius + 1), dtype=bool)
            for code in (1, 2):
                mask = data == code
                if mask.any():
                    out[ndimage.binary_erosion(mask, structure=se)] = code
            data = out
        elif isinstance(op, Holes):
            if op.fraction > 0.0:
                rng = np.random.default_rng(np.random.SeedSequence([seed, op_index, op.seed]))
                rows, cols = np.nonzero(data)
                drop = rng.random(len(rows)) < op.fraction
                data = data.copy()
                data[rows[drop], cols[drop]] = 0
        elif isinstance(op, CutBand):
            rows, cols = instances.pixels_of(op.target_id) if instances else ((), ())
            if len(rows) == 0:
                continue
            x = cols.astype(float)
            y = rows.astype(float)
            x -= x.mean()
            y -= y.mean()
            theta = 0.5 * math.atan2(
                2.0 * float(np.dot(x, y)), float(np.dot(x, x)) - float(np.dot(y, y))
            )
            band = np.abs(x * math.cos(theta) + y * math.sin(theta)) <= op.band_px / 2.0
            data = data.copy()
            data[rows[band], cols[band]] = 0
        else:
            r0, r1, c0, c1 = op.region
            data = data.copy()
            window = data[r0:r1, c0:c1]
            window[window != 0] = op.new_class
        op_index += 1
    return data
