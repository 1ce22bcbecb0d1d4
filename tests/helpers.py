"""Builders shared by the test modules."""

from __future__ import annotations

import ctypes
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from clearbot import geometry
from clearbot.arm import PickOutcome
from clearbot.camera import LabelImage
from clearbot.geometry import MaskComponent
from clearbot.orchestrator import (
    SEG_LATENCY,
    ArmCommandPayload,
    ArmStatusPayload,
    ControlStopPayload,
    FrameData,
    GraspTargetsPayload,
    MaskData,
    MessageBus,
    MessageEnvelope,
    RunReport,
    Simulation,
    Topic,
    _WALL_NOTES,
    frame_digest,
)
from clearbot.scene import BrickDims, ObjectClass, ObjectSpec, _axis
from clearbot.schema import ScenarioConfig, canonical_json
from clearbot.segmentation import CutBand, Erode, Holes


ROOT = Path(__file__).resolve().parents[1]


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment plus ``extra``, for a child interpreter
    that imports clearbot from this checkout's ``src`` and the test modules
    from ``tests``."""
    path = os.environ.get("PYTHONPATH")
    dirs = [str(ROOT / "src"), str(ROOT / "tests"), path]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, dirs)), **extra}


def openblas_core() -> str:
    """The kernel the OpenBLAS bundled with numpy picked for this CPU
    (``SkylakeX``, ``Haswell``, ...), or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("*openblas*"))))
        corename = lib.scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except (StopIteration, OSError, AttributeError, UnicodeDecodeError):
        return "unknown"


class Recorder:
    """A bus subscriber that keeps every envelope, in publish order."""

    def __init__(self, bus: MessageBus) -> None:
        self._log: list[MessageEnvelope] = []
        bus.subscribe(self._log.append)

    def history(self, topic: Topic) -> tuple[MessageEnvelope, ...]:
        return tuple(env for env in self._log if env.topic is topic)

    def log(self) -> tuple[MessageEnvelope, ...]:
        return tuple(self._log)

    def picked(self) -> list[str]:
        """Ids of the objects picked so far, in pick order, from the arm's
        status messages."""
        return [
            env.payload.object_id
            for env in self.history(Topic.ARM_STATUS)
            if env.payload.result.outcome is PickOutcome.SUCCESS
        ]


def record_to_dict(value: object) -> object:
    """JSON form of a logged record: a dataclass becomes an object of its
    fields, with ``cls`` written as ``class``, and a tuple becomes a list."""
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {
            "class" if name == "cls" else name: record_to_dict(getattr(value, name))
            for name in fields
        }
    if isinstance(value, tuple):
        return [record_to_dict(v) for v in value]
    return value


# payloads logged field for field, by the kind each is logged as
_RECORD_KINDS = {
    GraspTargetsPayload: "targets",
    ControlStopPayload: "stop",
    ArmCommandPayload: "command",
}


def payload_to_dict(payload: object) -> dict:
    """JSON form of a bus payload; image bodies reduce to digests + stats."""
    if isinstance(payload, FrameData):
        brick, pipe = payload.class_pixels
        return {
            "kind": "frame",
            "frame_index": payload.frame_index,
            "t_capture": payload.t_capture,
            "ugv": [payload.ugv.x, payload.ugv.y, payload.ugv.heading],
            "standstill": payload.standstill,
            "shape": list(payload.shape),
            "floor_depth": payload.floor_depth,
            "objects_in_view": sorted(p.object_id for p in payload.patches),
            "class_pixels": {"brick": brick, "pipe": pipe},
            "digest": frame_digest(payload),
        }
    if isinstance(payload, MaskData):
        brick, pipe = payload.class_pixels
        return {
            "kind": "mask",
            "frame_index": payload.frame_index,
            "t_capture": payload.t_capture,
            "latency": SEG_LATENCY,
            "class_pixels": {"brick": brick, "pipe": pipe},
            "digest": payload.digest,
        }
    if isinstance(payload, ArmStatusPayload):
        r = payload.result
        return {
            "kind": "status",
            "object_id": payload.object_id,
            "outcome": r.outcome.value,
            "elapsed_s": r.elapsed_s,
            "phases": [[phase.value, t0, t1] for phase, t0, t1 in r.phases],
            "xy_error": r.xy_error,
            "z_error": r.z_error,
            "yaw_error": r.yaw_error,
            "grasp_width": r.grasp_width,
            "t_start": r.start_time,
            "t_end": r.phases[-1][2] if r.phases else r.start_time,
        }
    kind = _RECORD_KINDS.get(type(payload))
    if kind is None:
        raise TypeError(f"no JSON form for payload type {type(payload).__name__}")
    return {"kind": kind, **record_to_dict(payload)}


def oracle_line(env: MessageEnvelope) -> str:
    """The envelope's log line as the bus once wrote it: the payload's dict
    in an envelope dict, through the key-sorting ``canonical_json``. It is
    the reference for the line each payload type writes itself."""
    record = {
        "topic": env.topic.value,
        "seq": env.seq,
        "t": env.t,
        "payload": payload_to_dict(env.payload),
    }
    return canonical_json(record) + "\n"


def report_to_dict(report: RunReport) -> dict:
    """JSON form of a run report: each record field for field, with its
    ``object_id`` written as ``id``. Through the key-sorting encoder with a
    two-space indent it is the reference for the text ``report_to_json``
    writes itself."""
    records = [record_to_dict(r) for r in report.records]
    for rec in records:
        rec["id"] = rec.pop("object_id")
    return {
        "seed": report.seed,
        "config_digest": report.config_digest,
        "attempted": report.attempted,
        "succeeded": report.succeeded,
        "records": records,
        "wall_notes": _WALL_NOTES,
    }


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
    (ax, ay), (bx, by) = _axis(obj)
    px = np.asarray(x, dtype=float) - ax
    py = np.asarray(y, dtype=float) - ay
    abx, aby = bx - ax, by - ay
    t = np.clip((px * abx + py * aby) / (abx * abx + aby * aby), 0.0, 1.0)
    dx = px - t * abx
    dy = py - t * aby
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
