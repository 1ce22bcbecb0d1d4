"""The message log: what a run keeps of itself, and its bytes.

The bus publishes each hand-off of a run in per-topic order and writes its
canonical NDJSON line at once; the report keeps one record per attempt. The
records are plain data, and the writers give the bytes of
``messages.ndjson`` and ``report.json``. The log loads no simulation code.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .arm import PickOutcome, PickResult
from .camera import LabelImage, ObjectPatch
from .scene import Pose2D

# segmentation latency, seconds: every mask line holds it
SEG_LATENCY = 1.0 / 21.0


class Topic(enum.Enum):
    CAMERA_FRAMES = "CameraFrames"
    SEGMENTATION_MASKS = "SegmentationMasks"
    GRASP_TARGETS = "GraspTargets"
    CONTROL_STOP = "ControlStop"
    ARM_COMMANDS = "ArmCommands"
    ARM_STATUS = "ArmStatus"


class SequenceRegression(RuntimeError):
    """Raised when a topic would publish out of order."""


@dataclass(frozen=True)
class MessageEnvelope:
    topic: Topic
    seq: int
    t: float
    payload: object


class MessageBus:
    """Per-topic ordered publishing, logged as it goes.

    ``publish`` writes each envelope's canonical NDJSON line at once and
    hands the envelope to the subscribers. The bus keeps only the log text,
    its running sha256 and each topic's count and last time; a caller that
    wants payloads keeps what it needs in a subscriber.
    """

    def __init__(self) -> None:
        self._count = dict.fromkeys(Topic, 0)
        self._last_t = dict.fromkeys(Topic, -math.inf)
        self._ndjson = io.StringIO()
        self._sha = hashlib.sha256()
        self._subscribers: list[Callable[[MessageEnvelope], None]] = []

    def subscribe(self, callback: Callable[[MessageEnvelope], None]) -> None:
        """Call ``callback`` with every envelope published from now on."""
        self._subscribers.append(callback)

    def publish(self, topic: Topic, t: float, payload: object) -> MessageEnvelope:
        # written so that a NaN time, which compares false, is refused too
        if not t >= self._last_t[topic]:
            raise SequenceRegression(f"{topic.value}: t={t} after t={self._last_t[topic]}")
        write = _PAYLOAD_JSON.get(type(payload))
        if write is None:
            raise TypeError(f"no JSON form for payload type {type(payload).__name__}")
        seq = self._count[topic]
        # the line is whole before the bus changes: a value that cannot be
        # written raises here and leaves the bus as it was
        body = write(payload)
        line = f'{{"payload":{body},"seq":{seq},"t":{_float(t)},"topic":"{topic.value}"}}\n'
        env = MessageEnvelope(topic=topic, seq=seq, t=t, payload=payload)
        self._ndjson.write(line)
        self._sha.update(line.encode())
        self._count[topic] = seq + 1
        self._last_t[topic] = t
        for callback in self._subscribers:
            callback(env)
        return env

    def digest(self) -> str:
        """sha256 of the log text published so far, hashed line by line."""
        return self._sha.hexdigest()


# --- message payloads ---------------------------------------------------------


@dataclass(frozen=True)
class FrameData:
    """One captured RGB-D frame, stored as its inputs.

    The images recompose exactly from the per-object patches, the
    scenario's seeded noise and ``bias``, the injected depth offset (None
    when no injection applied). ``class_pixels`` and ``depth_digest`` are
    what the log keeps of the perceived view, taken once at capture;
    ``depth_digest`` is set only when the depth was altered after the ray
    cast.
    """

    frame_index: int
    t_capture: float
    ugv: Pose2D
    standstill: bool
    shape: tuple[int, int]
    floor_depth: float
    patches: tuple[ObjectPatch, ...]
    bias: Optional[float] = None
    class_pixels: tuple[int, int] = (0, 0)  # (brick, pipe)
    depth_digest: Optional[str] = None


@dataclass(frozen=True)
class MaskData:
    """What the log keeps of the segmenter's corrupted labels of one frame:
    the mask's (brick, pipe) pixel counts and ``_array_digest`` of the dense
    mask, both taken at publish. Replay gives the masks themselves back.
    """

    frame_index: int
    t_capture: float
    class_pixels: tuple[int, int]
    digest: str


@dataclass(frozen=True)
class TargetRecord:
    """Array-free grasp candidate; equality is exact for replay checks."""

    cls: str
    center: tuple[float, float, float]  # arm frame
    yaw: float
    component_index: int
    seed_pixel: tuple[int, int]
    area: int
    in_reach: bool
    border: bool


@dataclass(frozen=True)
class GraspTargetsPayload:
    frame_index: int
    targets: tuple[TargetRecord, ...]


@dataclass(frozen=True)
class ControlStopPayload:
    frame_index: int
    target: TargetRecord
    trigger_id: str  # ground-truth annotation for the log, not used to pick


@dataclass(frozen=True)
class ArmCommandPayload:
    frame_index: int
    target: TargetRecord
    matched_id: str


@dataclass(frozen=True)
class ArmStatusPayload:
    object_id: str
    result: PickResult


# --- attempt records / report -----------------------------------------------------


@dataclass(frozen=True)
class AttemptRecord:
    object_id: str
    cls: str
    outcome: str
    cause: str
    attribution: tuple[str, ...]
    elapsed_s: float
    center_error_m: float
    yaw_error_rad: float
    mask_iou: float


@dataclass(frozen=True)
class RunReport:
    name: str
    seed: int
    config_digest: str
    log_digest: str  # sha256 of the serialized message log
    records: tuple[AttemptRecord, ...]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def succeeded(self) -> int:
        return sum(r.outcome == PickOutcome.SUCCESS.value for r in self.records)


# --- serialization -----------------------------------------------------------------


def _array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    # the buffer itself, not a ``tobytes`` copy of it
    h.update(memoryview(np.ascontiguousarray(arr)))
    return h.hexdigest()


#: zeros that all-floor rows are hashed from, a chunk at a time
_ZEROS = memoryview(bytes(2**16))


def _hash_zeros(h: Any, n: int) -> None:
    """Feed ``n`` zero bytes to the hash ``h``."""
    for start in range(0, n, len(_ZEROS)):
        h.update(_ZEROS[: n - start])


@functools.cache
def _floor_prefix(shape: tuple[int, int], rows: int) -> Any:
    """sha256 state of ``_array_digest`` of a uint8 image of ``shape``
    after its header and ``rows`` all-floor rows; callers hash a copy."""
    h = hashlib.sha256()
    h.update(b"uint8")
    h.update(repr(shape).encode())
    _hash_zeros(h, rows * shape[1])
    return h


def _mask_digest(mask: LabelImage) -> str:
    """``_array_digest`` of ``mask.dense()``, hashed from its crops. The
    rows above its first cluster are all floor, so their hash state is
    taken once per row count and copied; the other all-floor rows are
    hashed from zeros, and each band of rows that clusters span from a
    band built from their crops."""
    height, width = mask.shape
    clusters = mask.clusters
    row = clusters[0][0] if clusters else height  # the first row not hashed
    h = _floor_prefix(mask.shape, row).copy()
    i = 0
    while i < len(clusters):
        # clusters are sorted by first row: a band runs on while the next
        # cluster starts in it
        top, bottom = clusters[i][0], clusters[i][1]
        j = i + 1
        while j < len(clusters) and clusters[j][0] < bottom:
            bottom = max(bottom, clusters[j][1])
            j += 1
        _hash_zeros(h, (top - row) * width)
        band = np.zeros((bottom - top, width), dtype=np.uint8)
        for (r0, r1, c0, c1), crop in zip(clusters[i:j], mask.crops[i:j]):
            band[r0 - top : r1 - top, c0:c1] = crop
        h.update(memoryview(band))
        row, i = bottom, j
    _hash_zeros(h, (height - row) * width)
    return h.hexdigest()


def frame_digest(fd: FrameData) -> str:
    h = hashlib.sha256()
    h.update(repr((fd.shape, fd.floor_depth)).encode())
    for p in fd.patches:
        h.update(repr((p.r0, p.r1, p.c0, p.c1, p.obj_index, p.label)).encode())
        h.update(memoryview(np.ascontiguousarray(p.zbuf)))
    if fd.depth_digest is not None:
        h.update(fd.depth_digest.encode())
    return h.hexdigest()

# Each payload type writes its own canonical JSON text: the keys in sorted
# order, no spaces, and each value as ``canonical_json`` writes it. The
# report writes its text from the same value writers.
_int = int.__repr__
_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _frame_json(fd: FrameData) -> str:
    """Image bodies reduce to the frame's digest and its class pixel counts."""
    brick, pipe = fd.class_pixels
    height, width = fd.shape
    ugv = fd.ugv
    in_view = ",".join([_str(i) for i in sorted(p.object_id for p in fd.patches)])
    return (
        f'{{"class_pixels":{{"brick":{_int(brick)},"pipe":{_int(pipe)}}},'
        f'"digest":"{frame_digest(fd)}","floor_depth":{_float(fd.floor_depth)},'
        f'"frame_index":{_int(fd.frame_index)},"kind":"frame",'
        f'"objects_in_view":[{in_view}],"shape":[{_int(height)},{_int(width)}],'
        f'"standstill":{_bool(fd.standstill)},"t_capture":{_float(fd.t_capture)},'
        f'"ugv":[{_float(ugv.x)},{_float(ugv.y)},{_float(ugv.heading)}]}}'
    )


def _mask_json(md: MaskData) -> str:
    brick, pipe = md.class_pixels
    return (
        f'{{"class_pixels":{{"brick":{_int(brick)},"pipe":{_int(pipe)}}},'
        f'"digest":{_str(md.digest)},"frame_index":{_int(md.frame_index)},'
        f'"kind":"mask","latency":{_float(SEG_LATENCY)},"t_capture":{_float(md.t_capture)}}}'
    )


def _target_json(rec: TargetRecord) -> str:
    x, y, z = rec.center
    row, col = rec.seed_pixel
    return (
        f'{{"area":{_int(rec.area)},"border":{_bool(rec.border)},'
        f'"center":[{_float(x)},{_float(y)},{_float(z)}],"class":{_str(rec.cls)},'
        f'"component_index":{_int(rec.component_index)},"in_reach":{_bool(rec.in_reach)},'
        f'"seed_pixel":[{_int(row)},{_int(col)}],"yaw":{_float(rec.yaw)}}}'
    )


def _targets_json(p: GraspTargetsPayload) -> str:
    targets = ",".join([_target_json(rec) for rec in p.targets])
    return f'{{"frame_index":{_int(p.frame_index)},"kind":"targets","targets":[{targets}]}}'


def _stop_json(p: ControlStopPayload) -> str:
    return (
        f'{{"frame_index":{_int(p.frame_index)},"kind":"stop",'
        f'"target":{_target_json(p.target)},"trigger_id":{_str(p.trigger_id)}}}'
    )


def _command_json(p: ArmCommandPayload) -> str:
    return (
        f'{{"frame_index":{_int(p.frame_index)},"kind":"command",'
        f'"matched_id":{_str(p.matched_id)},"target":{_target_json(p.target)}}}'
    )


def _status_json(p: ArmStatusPayload) -> str:
    r = p.result
    phases = ",".join(
        [f"[{_str(phase.value)},{_float(t0)},{_float(t1)}]" for phase, t0, t1 in r.phases]
    )
    return (
        f'{{"elapsed_s":{_float(r.elapsed_s)},"grasp_width":{_float(r.grasp_width)},'
        f'"kind":"status","object_id":{_str(p.object_id)},"outcome":{_str(r.outcome.value)},'
        f'"phases":[{phases}],"t_end":{_float(r.end_time)},"t_start":{_float(r.start_time)},'
        f'"xy_error":{_float(r.xy_error)},"yaw_error":{_float(r.yaw_error)},'
        f'"z_error":{_float(r.z_error)}}}'
    )


# the JSON text of each payload type the bus can log
_PAYLOAD_JSON: dict[type, Callable[[Any], str]] = {
    FrameData: _frame_json,
    MaskData: _mask_json,
    GraspTargetsPayload: _targets_json,
    ControlStopPayload: _stop_json,
    ArmCommandPayload: _command_json,
    ArmStatusPayload: _status_json,
}


def messages_to_ndjson(bus: MessageBus) -> str:
    """The bus log as NDJSON, one line per envelope, as written at publish;
    a bus with no messages gives ``""``."""
    return bus._ndjson.getvalue()


# Wall-clock text must not leak into the report or byte-level determinism
# across runs would be lost.
_WALL_NOTES = "timings are simulated; wall clock intentionally excluded"


def _attempt_json(rec: AttemptRecord) -> str:
    """One entry of the report's records list, indented as it sits there."""
    if rec.attribution:
        names = ",\n        ".join([_str(name) for name in rec.attribution])
        attribution = f"[\n        {names}\n      ]"
    else:
        attribution = "[]"
    return (
        f'    {{\n      "attribution": {attribution},\n'
        f'      "cause": {_str(rec.cause)},\n'
        f'      "center_error_m": {_float(rec.center_error_m)},\n'
        f'      "class": {_str(rec.cls)},\n'
        f'      "elapsed_s": {_float(rec.elapsed_s)},\n'
        f'      "id": {_str(rec.object_id)},\n'
        f'      "mask_iou": {_float(rec.mask_iou)},\n'
        f'      "outcome": {_str(rec.outcome)},\n'
        f'      "yaw_error_rad": {_float(rec.yaw_error_rad)}\n    }}'
    )


def report_to_json(report: RunReport) -> str:
    """The report as ``report.json`` holds it: the text the key-sorting JSON
    encoder writes with a two-space indent, and a final newline."""
    records = ",\n".join([_attempt_json(r) for r in report.records])
    records = f"[\n{records}\n  ]" if records else "[]"
    return (
        f'{{\n  "attempted": {_int(report.attempted)},\n'
        f'  "config_digest": {_str(report.config_digest)},\n'
        f'  "records": {records},\n'
        f'  "seed": {_int(report.seed)},\n'
        f'  "succeeded": {_int(report.succeeded)},\n'
        f'  "wall_notes": {_str(_WALL_NOTES)}\n}}\n'
    )
