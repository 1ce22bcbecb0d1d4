"""Builders shared by the test modules."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from clearbot import geometry, orchestrator
from clearbot.arm import PickOutcome
from clearbot.camera import ClusterImage, DepthImage, DepthNoiseModel, LabelImage, apply_noise
from clearbot.geometry import MaskComponent
from clearbot.log import (
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
    Topic,
    _WALL_NOTES,
    frame_digest,
)
from clearbot.orchestrator import Simulation
from clearbot.scene import BrickDims, ObjectClass, ObjectSpec, _axis
from clearbot.schema import ScenarioConfig, canonical_json
from clearbot.segmentation import CutBand, Erode, Holes


ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
#: what the recorded outputs of the course, the adaptive course and
#: noisy_course were, and the libm results the recorded runs took
DATA = ROOT / "tests" / "data"


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


def perfbench_module(name: str):
    """perfbench's module ``name`` (``workloads``, ``tracing``), loaded from
    its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def log_lines(log: str) -> list[str]:
    """``seq topic sha256[:16]`` of each line of a message log."""
    out = []
    for line in log.splitlines():
        env = json.loads(line)
        out.append(f"{env['seq']} {env['topic']} {hashlib.sha256(line.encode()).hexdigest()[:16]}")
    return out


def _changed_keys(want: object, got: object, path: str = "") -> list[str]:
    """The paths at which two JSON values differ, with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [
            change
            for key in sorted(want.keys() | got.keys())
            for change in _changed_keys(
                want.get(key), got.get(key), f"{path}.{key}" if path else key
            )
        ]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [
            change
            for i, (a, b) in enumerate(zip(want, got))
            for change in _changed_keys(a, b, f"{path}[{i}]")
        ]
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


def libm_differences() -> tuple[int, int]:
    """How many of the recorded ``math.sin``, ``cos`` and ``atan2`` results
    (``DATA / "libm.txt"``, glibc 2.36's) this process's libm rounds
    otherwise, and how many there are."""
    rows = [
        line.split()
        for line in (DATA / "libm.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    differ = sum(
        getattr(math, name)(*map(float.fromhex, args)).hex() != want
        for name, *args, want in rows
    )
    return differ, len(rows)


def explain_recorded_outputs(entry: str, report_text: str, log: str) -> str:
    """Why a run's outputs may differ from the recorded ``entry``'s, and
    how they do: the OpenBLAS kernel, the libm results that round otherwise,
    the report keys that changed, and the first log line that differs, by
    sequence number, topic and frame, against the files in ``DATA``."""
    differ, total = libm_differences()
    parts = [
        f"{entry}: the digests were recorded under the SkylakeX OpenBLAS kernel "
        f"and this process runs {openblas_core()}; another kernel can change "
        "the last digit of a float",
        f"{differ} of the {total} recorded sin, cos and atan2 results of glibc 2.36 "
        "round otherwise under this process's libm",
    ]
    want = json.loads((DATA / f"{entry}_report.json").read_text())
    changed = _changed_keys(want, json.loads(report_text))
    parts.append("report.json: " + ("; ".join(changed) if changed else "no key changed"))
    want_lines = (DATA / f"{entry}_log_lines.txt").read_text().splitlines()
    got_lines = log_lines(log)
    first = next(
        (i for i, (a, b) in enumerate(zip(want_lines, got_lines)) if a != b),
        None if len(want_lines) == len(got_lines) else min(len(want_lines), len(got_lines)),
    )
    if first is None:
        parts.append("messages.ndjson: no line changed")
    else:
        where = want_lines[first].split()[:2] if first < len(want_lines) else ["-", "-"]
        frame = "-"
        if first < len(got_lines):
            frame = json.loads(log.splitlines()[first])["payload"].get("frame_index", "-")
        differing = sum(a != b for a, b in zip(want_lines, got_lines))
        parts.append(
            f"messages.ndjson: line {first + 1} differs first (seq {where[0]}, topic "
            f"{where[1]}, frame_index {frame}); {differing} of {len(want_lines)} lines "
            f"differ, and the run wrote {len(got_lines)}"
        )
    return "\n".join(parts)


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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_compose(shape, floor_depth, patches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``compose_patches`` as it was before frames were cluster crops: each
    patch z-buffered, in order, into fresh dense (labels, depth, instances)
    arrays of the background (0, the floor depth, -1)."""
    labels = np.zeros(shape, dtype=np.uint8)
    depth = np.full(shape, floor_depth)
    inst = np.full(shape, -1, dtype=np.int32)
    for p in patches:
        win = depth[p.r0 : p.r1, p.c0 : p.c1]
        closer = p.zbuf < win
        win[closer] = p.zbuf[closer]
        labels[p.r0 : p.r1, p.c0 : p.c1][closer] = p.label
        inst[p.r0 : p.r1, p.c0 : p.c1][closer] = p.obj_index
    return labels, depth, inst


def dense_view(fd: FrameData, cfg: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """The frame's (labels, perceived depth, clean depth, instances) as
    dense arrays: its patches through :func:`dense_compose`, and the depth
    through the scenario's noise and the frame's bias."""
    labels, clean, inst = dense_compose(fd.shape, fd.floor_depth, fd.patches)
    depth = DepthImage.from_array(clean)
    if not cfg.noise.is_identity:
        depth = apply_noise(depth, cfg.noise, orchestrator._noise_seed(cfg, fd.frame_index))
    if fd.bias is not None:
        depth = apply_noise(depth, DepthNoiseModel(bias=fd.bias), 0)
    return labels, depth.dense(), clean, inst


def assert_image_is(image: ClusterImage, dense: np.ndarray) -> None:
    """``image`` is the array ``dense``, bit for bit: each crop is its
    cluster's window of ``dense``, every pixel outside the clusters is the
    image's background, and ``image.dense()`` gives ``dense`` back."""
    assert image.shape == dense.shape
    outside = np.ones(dense.shape, dtype=bool)
    for (r0, r1, c0, c1), crop in zip(image.clusters, image.crops, strict=True):
        assert same_bits(crop, dense[r0:r1, c0:c1])
        outside[r0:r1, c0:c1] = False
    assert same_bits(dense[outside], np.full(int(outside.sum()), image.background, dense.dtype))
    assert same_bits(image.dense(), dense)


def full_frame_segment(gt, ops, seed, instances):
    """``segment`` as first written: every op on a fresh copy of the whole
    image, with erosion by ``ndimage.binary_erosion`` over the full frame."""
    data = gt.dense().copy()
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
