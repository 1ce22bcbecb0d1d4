"""End-to-end pipeline simulation.

A UGV drives a straight path with a nadir RGB-D camera and an arm mounted on
it. Each camera frame is segmented, mask components are turned into grasp
targets in the arm frame, and when an unattempted target is inside the reach
envelope the vehicle stops, re-perceives at standstill, and runs one pick.
Every hand-off travels over a message bus with per-topic sequence numbers,
so a run leaves a complete, replayable message log.

Failed attempts are attributed to the pipeline stage whose output broke
tolerance: depth sensing, segmentation, mask geometry, or the arm motion
itself.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import io
import json
import math
import os
import sys
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .arm import (
    DEFAULT_ARM_CONFIG,
    Arm,
    ArmConfig,
    MotionPhase,
    PickOutcome,
    PickResult,
)
from .camera import (
    DEFAULT_INTRINSICS,
    Canvas,
    DepthImage,
    DepthNoiseModel,
    InstanceImage,
    Intrinsics,
    LabelImage,
    NoiseDraws,
    ObjectPatch,
    apply_noise,
    compose_patches,
    draw_noise,
    render_full,
    window_clusters,
)
from .geometry import (
    Frame,
    InsufficientDepth,
    MaskComponent,
    Point3,
    ReachEnvelope,
    RigidTransform,
    camera_to_arm_transform,
    component_center_3d,
    connected_components,
    in_reach,
    orientation_to_arm,
    principal_orientation,
    transform_to_arm,
)
from .scene import (
    DEFAULT_ARM_MOUNT,
    DEFAULT_BRICK,
    DEFAULT_CAMERA_MOUNT,
    DEFAULT_PIPE,
    ArmMount,
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
    Scene,
    validate_scene,
    world_to_robot,
)
from .segmentation import (
    SEED_LIMIT,
    CorruptionOp,
    CutBand,
    Erode,
    Holes,
    Relabel,
    mask_iou,
    segment,
)

# pipeline latencies, seconds
SEG_LATENCY = 1.0 / 21.0
GEOMETRY_LATENCY = 0.010
DISPATCH_LATENCY = 0.001

TAU_IOU = 0.8

# frames a course may need; validate_config rejects a longer course
MAX_STEPS = 200_000

# frame periods a run may last (55 h at 21 Hz); keeps the clock's frame
# slots finite, so validate_config rejects a run that could go past them
MAX_FRAME_SLOTS = 2**22


class SimClock:
    """Forward-only simulation clock."""

    def __init__(self, t0: float = 0.0) -> None:
        self._t = float(t0)

    def now(self) -> float:
        return self._t

    def advance(self, dt: float) -> None:
        if dt < 0.0:
            raise ValueError(f"clock cannot run backwards (dt={dt})")
        self._t += dt


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
        if t < self._last_t[topic]:
            raise SequenceRegression(f"{topic.value}: t={t} after t={self._last_t[topic]}")
        env = MessageEnvelope(topic=topic, seq=self._count[topic], t=t, payload=payload)
        record = {"topic": topic.value, "seq": env.seq, "t": t, "payload": payload_to_dict(payload)}
        # a payload with no JSON form raises above and leaves the bus as it was
        line = canonical_json(record) + "\n"
        self._ndjson.write(line)
        self._sha.update(line.encode())
        self._count[topic] = env.seq + 1
        self._last_t[topic] = t
        for callback in self._subscribers:
            callback(env)
        return env

    def digest(self) -> str:
        """sha256 of the log text published so far, hashed line by line."""
        return self._sha.hexdigest()


# --- message payloads ---------------------------------------------------------


@dataclass(frozen=True)
class FrameImages:
    """The dense images of one frame.

    ``depth`` is what perception sees (noisy or biased when the frame was
    altered after the ray cast); ``clean_depth`` is the ray-cast depth.
    Images built into :class:`FrameBuffers` (the step loop's) are valid
    only until the next frame is built into the same buffers.
    """

    labels: LabelImage
    depth: DepthImage
    clean_depth: DepthImage
    instances: InstanceImage


class FrameBuffers:
    """Dense arrays that one frame's images are built into.

    A :class:`Simulation` builds every capture into one set, so a run holds
    one frame's dense images however long it is, and each capture writes
    into pages it has already touched.

    A noisy capture perceives its depth while the worker thread draws the
    next frame's noise, so those draws overlap this frame's perception.
    The worker draws into arrays of its own, which this thread sees only
    through the future's result.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = shape
        # compose_patches' labels, depth and instances
        self.canvas = Canvas(shape)
        # (frame index, future) of the newest draw submitted to the worker
        self._ahead: Optional[tuple[int, Future]] = None

    def draws(self, cfg: ScenarioConfig, frame_index: int) -> Optional[Callable[[], NoiseDraws]]:
        """What :func:`apply_noise` takes frame ``frame_index``'s draws from.

        Draws made ahead for this frame are waited for when apply_noise
        calls for them. Otherwise (None) the frame draws on the spot: a
        draw made ahead for another frame is wasted work, never waited for
        and never read. Either way, the next frame's draws are submitted
        at once.
        """
        if cfg.noise.draws_nothing:
            return None
        ahead = self._ahead
        drawn = ahead[1].result if ahead is not None and ahead[0] == frame_index else None
        seed = _noise_seed(cfg, frame_index + 1)
        future = _noise_worker().submit(draw_noise, cfg.noise, seed, self.shape)
        self._ahead = (frame_index + 1, future)
        return drawn

    def settle(self) -> None:
        """Wait until no draw is in flight; the worker runs them in order."""
        if self._ahead is not None:
            wait([self._ahead[1]])
            self._ahead = None


@functools.cache
def _noise_worker() -> ThreadPoolExecutor:
    """The one worker thread that draws noise ahead, started by the first
    noisy capture; a forked child has no such thread, so it starts its own."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="clearbot-noise")


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_noise_worker.cache_clear)

# mixed into each frame's depth-noise seed
_NOISE_TAG = 1


def _noise_seed(cfg: ScenarioConfig, frame_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([cfg.seed, _NOISE_TAG, frame_index])


@dataclass(frozen=True)
class FrameData:
    """One captured RGB-D frame, stored as its inputs.

    The dense images recompose exactly from the per-object patches, the
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

    def images(self, cfg: ScenarioConfig, buffers: Optional[FrameBuffers] = None) -> FrameImages:
        """Compose the dense images and perceive the depth through the
        scenario's noise and the frame's bias; nothing is kept on the frame.
        The step loop perceives the view this builds at capture, into its
        ``buffers``; without them, the images are fresh arrays."""
        canvas = None if buffers is None else buffers.canvas
        lab, dep, index = compose_patches(self.shape, self.floor_depth, self.patches, out=canvas)
        clean = depth = DepthImage(dep)
        if not cfg.noise.is_identity:
            drawn = None if buffers is None else buffers.draws(cfg, self.frame_index)
            depth = apply_noise(depth, cfg.noise, _noise_seed(cfg, self.frame_index), drawn)
        if self.bias is not None:
            # offsets the valid pixels; the clean depth stays as it is
            data = clean.data.copy() if depth is clean else depth.data
            np.add(data, self.bias, out=data, where=data > 0.0)
            depth = DepthImage(data)
        windows = {p.object_id: (p.obj_index, (p.r0, p.r1, p.c0, p.c1)) for p in self.patches}
        return FrameImages(
            # every labelled pixel lies in a patch window
            labels=LabelImage(lab, window_clusters([w for _, w in windows.values()])),
            depth=depth,
            clean_depth=clean,
            instances=InstanceImage(index, windows),
        )


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
    outcome: str
    elapsed_s: float
    phases: tuple[tuple[str, float, float], ...]  # (phase, start, end)
    xy_error: float
    z_error: float
    yaw_error: float
    grasp_width: float
    t_start: float
    t_end: float


# --- failure attribution --------------------------------------------------------


class FailureModule(enum.Enum):
    CAMERA = "Camera"
    CONTEXT_AWARENESS = "ContextAwareness"
    GEOMETRY_DESCRIPTOR = "GeometryDescriptor"
    ROBOTIC_ARM = "RoboticArm"


class UnattributableFailure(RuntimeError):
    """Raised when no pipeline stage explains a failed attempt."""


@dataclass(frozen=True)
class AttemptDiagnostics:
    """Ground-truth measurements around one attempt."""

    outcome: PickOutcome
    iou: float
    median_depth_error: float
    center_error: float
    yaw_error: float


def attribute_failure(
    diag: AttemptDiagnostics, arm: ArmConfig = DEFAULT_ARM_CONFIG
) -> frozenset[FailureModule]:
    """Blame the pipeline stages whose output broke tolerance.

    Bad depth under a good mask blames the camera (a bad mask would make
    the depth statistic meaningless). Mask overlap below the IoU threshold
    blames segmentation, and additionally the geometry stage when the bad
    mask pulled the center out of tolerance. A boundary collision despite
    an in-tolerance target and mask blames the arm's motion sequence.
    """
    if diag.outcome is PickOutcome.SUCCESS:
        return frozenset()
    blamed: set[FailureModule] = set()
    mask_ok = diag.iou >= TAU_IOU
    if mask_ok and diag.median_depth_error > arm.position_tolerance:
        blamed.add(FailureModule.CAMERA)
    if not mask_ok:
        blamed.add(FailureModule.CONTEXT_AWARENESS)
        if diag.center_error > arm.position_tolerance:
            blamed.add(FailureModule.GEOMETRY_DESCRIPTOR)
    if (
        diag.outcome is PickOutcome.BOUNDARY_COLLISION
        and mask_ok
        and diag.center_error <= arm.position_tolerance
        and diag.yaw_error <= arm.yaw_tolerance
    ):
        blamed.add(FailureModule.ROBOTIC_ARM)
    if not blamed:
        raise UnattributableFailure(
            f"{diag.outcome.value}: all stage outputs within tolerance"
        )
    return frozenset(blamed)


# --- scenario configuration ------------------------------------------------------


@dataclass(frozen=True)
class DepthBiasInjection:
    """A constant depth offset applied to the standstill capture taken

    for one specific object (models a transient sensor fault)."""

    object_id: str
    bias: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    objects: tuple[ObjectSpec, ...]
    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    camera_mount: CameraMount = DEFAULT_CAMERA_MOUNT
    arm_mount: ArmMount = DEFAULT_ARM_MOUNT
    ugv_start: tuple[float, float] = (0.0, 0.0)
    ugv_end: tuple[float, float] = (10.0, 0.0)
    speed: float = 0.2
    stop_latency: float = 0.2
    frame_period: float = 1.0 / 21.0
    noise: DepthNoiseModel = DepthNoiseModel()
    seg_ops: tuple[CorruptionOp, ...] = ()
    injections: tuple[DepthBiasInjection, ...] = ()
    arm: ArmConfig = DEFAULT_ARM_CONFIG
    seed: int = 0

    def initial_scene(self) -> Scene:
        sx, sy = self.ugv_start
        ex, ey = self.ugv_end
        heading = math.atan2(ey - sy, ex - sx)
        return Scene(
            objects=self.objects,
            ugv=Pose2D(sx, sy, heading),
            camera_mount=self.camera_mount,
            arm_mount=self.arm_mount,
        )

    def path_length(self) -> float:
        return math.hypot(
            self.ugv_end[0] - self.ugv_start[0], self.ugv_end[1] - self.ugv_start[1]
        )


class InvalidConfig(ValueError):
    """Scenario rejected; ``errors`` holds (field_path, message) pairs."""

    def __init__(self, errors: Sequence[tuple[str, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in errors)
        super().__init__(lines)


# scene-validation codes reported under the scenario-file field they map to
_VIOLATION_PATHS = {
    "camera_height": "camera.height_m",
    "duplicate_id": "objects",
    "overlapping_footprints": "objects",
}


def validate_config(cfg: ScenarioConfig) -> list[tuple[str, str]]:
    # an empty object list is legal: the vehicle just traverses the path
    # the chained comparisons also reject NaN, which compares false
    errors: list[tuple[str, str]] = []
    if not 0 <= cfg.seed < SEED_LIMIT:
        errors.append(("seed", "seed must be in [0, 2**63)"))
    speed_ok = 0 < cfg.speed < math.inf
    period_ok = 0 < cfg.frame_period < math.inf
    if not speed_ok:
        errors.append(("ugv.speed", "speed must be positive and finite"))
    stop_ok = 0 <= cfg.stop_latency < math.inf
    if not stop_ok:
        errors.append(("ugv.stop_latency", "stop latency must be finite and not negative"))
    if not period_ok:
        errors.append(("frame_period", "frame period must be positive and finite"))
    ends_ok = True
    for path, point in (("ugv.start", cfg.ugv_start), ("ugv.end", cfg.ugv_end)):
        if not all(math.isfinite(v) for v in point):
            errors.append((path, "coordinates must be finite"))
            ends_ok = False
    if cfg.path_length() <= 0:
        errors.append(("ugv.end", "path start and end coincide"))
    cam, mount = cfg.camera_mount, cfg.arm_mount
    for path, values in (
        ("camera.mount_xy", (cam.x, cam.y)),
        ("camera.height_m", (cam.height,)),
        ("arm.mount", (mount.x, mount.y, mount.z, mount.yaw)),
    ):
        if not all(math.isfinite(v) for v in values):
            errors.append((path, "must be finite"))
    if speed_ok and period_ok and ends_ok:
        frames = cfg.path_length() / (cfg.speed * cfg.frame_period)
        # each object can cost one stop: the braking lag and one pick
        pick_s = sum(cfg.arm.phase_durations.values())
        t_end = cfg.path_length() / cfg.speed + len(cfg.objects) * (cfg.stop_latency + pick_s)
        if frames > MAX_STEPS:
            errors.append(
                ("frame_period", f"the course needs {frames:.3g} frames, over {MAX_STEPS}")
            )
        elif stop_ok and not t_end / cfg.frame_period <= MAX_FRAME_SLOTS:
            # the drive fits far under MAX_FRAME_SLOTS, so the stops and
            # picks make the excess
            path = "arm.phase_durations" if pick_s >= cfg.stop_latency else "ugv.stop_latency"
            periods = f"over {MAX_FRAME_SLOTS} frame periods"
            errors.append((path, f"the run can last {t_end:.3g} s, {periods}"))
    height = cfg.camera_mount.height
    offsets = [("camera.noise.sigma", cfg.noise.sigma), ("camera.noise.bias", cfg.noise.bias)]
    offsets += [(f"injections.depth_bias[{i}].bias", j.bias) for i, j in enumerate(cfg.injections)]
    for path, value in offsets:
        # the depth offset must leave the floor in front of the camera
        if height > 0 and not abs(value) < height:
            errors.append((path, f"must be under the camera height ({height:g} m)"))
    if ends_ok:
        # heights and a pipe's radius are already bounded by the camera height
        lane = cfg.path_length()
        for i, o in enumerate(cfg.objects):
            for name in ("length", "width") if isinstance(o.dims, BrickDims) else ("length",):
                if not getattr(o.dims, name) <= lane:
                    msg = f"must be at most the path length ({lane:g} m)"
                    errors.append((f"objects[{i}].dims.{name}", msg))
    ids = {o.id for o in cfg.objects}
    injected: set[str] = set()
    for i, inj in enumerate(cfg.injections):
        if inj.object_id not in ids:
            errors.append(
                (f"injections.depth_bias[{i}].id", f"unknown object {inj.object_id!r}")
            )
        elif inj.object_id in injected:
            # a capture applies one bias per object, so a repeat would be ignored
            errors.append(
                (f"injections.depth_bias[{i}].id", f"repeats object {inj.object_id!r}")
            )
        injected.add(inj.object_id)
    for op_i, op in enumerate(cfg.seg_ops):
        if isinstance(op, CutBand) and op.target_id not in ids:
            errors.append(
                (
                    f"corruptions[{op_i}].target_id",
                    f"unknown object {op.target_id!r}",
                )
            )
    try:
        for v in validate_scene(cfg.initial_scene()):
            errors.append((_VIOLATION_PATHS.get(v.code, "scene"), v.message))
    except Exception as exc:  # object construction itself failed
        errors.append(("objects", str(exc)))
    return errors


# --- target computation (pure) ---------------------------------------------------


def compute_targets(
    labels: LabelImage,
    depth: DepthImage,
    k: Intrinsics,
    cam_to_arm: RigidTransform,
    envelope: ReachEnvelope,
) -> tuple[tuple[TargetRecord, ...], tuple[MaskComponent, ...]]:
    """All grasp candidates in a frame, in deterministic order.

    Components with mostly-invalid depth produce no target. The result is a
    pure function of the inputs, which is what makes log replay exact.
    """
    records: list[TargetRecord] = []
    comps: list[MaskComponent] = []
    for cls in (ObjectClass.BRICK, ObjectClass.PIPE):
        for comp in connected_components(labels, cls):
            try:
                center_cam = component_center_3d(comp, depth, k)
                theta = principal_orientation(comp)
                yaw_arm = orientation_to_arm(theta, cam_to_arm)
            except InsufficientDepth:
                continue
            center_arm = transform_to_arm(center_cam, cam_to_arm)
            records.append(
                TargetRecord(
                    cls=cls.value,
                    center=(center_arm.x, center_arm.y, center_arm.z),
                    yaw=yaw_arm,
                    component_index=len(records),
                    seed_pixel=comp.seed_pixel,
                    area=comp.area,
                    in_reach=in_reach(center_arm, envelope),
                    border=comp.touches_border(labels.width, labels.height),
                )
            )
            comps.append(comp)
    return tuple(records), tuple(comps)


def match_component(comp: MaskComponent, instances: InstanceImage) -> str:
    """Ground-truth object behind a mask component (majority pixel vote)."""
    # no op labels a floor pixel, and compose writes a pixel's label and
    # index together: every vote is the obj_index of the patch that drew it
    votes = instances.index[comp.rows, comp.cols]
    winner = int(np.bincount(votes).argmax())
    return next(oid for oid, (idx, _) in instances.windows.items() if idx == winner)


def perceive_frame(
    images: FrameImages,
    cfg: ScenarioConfig,
    cam_to_arm: RigidTransform,
) -> tuple[LabelImage, tuple[TargetRecord, ...], tuple[MaskComponent, ...]]:
    """Segment one frame and compute its grasp targets.

    The step loop and :func:`replay_grasp_targets` both perceive through
    this function, so a replay runs the very code the run did. A mask that
    no op changed is ``images.labels`` itself.
    """
    if not images.labels.clusters:
        # a frame without patches has no labelled pixel, so its mask is all
        # floor: every op maps zeros to zeros and no cut has a target in
        # view, so it has no component
        return images.labels, (), ()
    mask = segment(images.labels, cfg.seg_ops, seed=cfg.seed, instances=images.instances)
    targets, comps = compute_targets(
        mask, images.depth, cfg.intrinsics, cam_to_arm, cfg.arm.envelope
    )
    return mask, targets, comps


def replay_grasp_targets(
    frames: Sequence[MessageEnvelope], cfg: ScenarioConfig
) -> list[tuple[np.ndarray, GraspTargetsPayload]]:
    """Recompute every frame's mask and GraspTargets payload from the frame
    envelopes a bus subscriber kept."""
    cam_to_arm = camera_to_arm_transform(cfg.camera_mount, cfg.arm_mount)
    out = []
    for env in frames:
        fd: FrameData = env.payload
        mask, targets, _ = perceive_frame(fd.images(cfg), cfg, cam_to_arm)
        out.append((mask.data, GraspTargetsPayload(frame_index=fd.frame_index, targets=targets)))
    return out


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
    attempted: int
    succeeded: int
    records: tuple[AttemptRecord, ...]


# --- the simulation ----------------------------------------------------------------


class PipelineState(enum.Enum):
    DRIVING = "Driving"
    STOPPING = "Stopping"
    PICKING = "Picking"
    RESUMING = "Resuming"
    DONE = "Done"


class Simulation:
    """Deterministic scripted run of the full perceive-stop-pick loop."""

    def __init__(self, cfg: ScenarioConfig):
        errors = validate_config(cfg)
        if errors:
            raise InvalidConfig(errors)
        self.cfg = cfg
        self.clock = SimClock()
        self.bus = MessageBus()
        self.arm = Arm(cfg.arm)
        self.scene = cfg.initial_scene()
        # (object id, release time) of every picked object, in pick order
        self.removed: list[tuple[str, float]] = []
        self.cam_to_arm = camera_to_arm_transform(cfg.camera_mount, cfg.arm_mount)
        self.state = PipelineState.DRIVING
        self.frame_index = 0
        self.distance = 0.0
        self.abandoned: set[str] = set()
        # one record per attempted object, in attempt order
        self.records: dict[str, AttemptRecord] = {}
        self._heading = self.scene.ugv.heading
        self._pending_stop: Optional[ControlStopPayload] = None
        # every capture's images, valid until the next capture
        self._buffers = FrameBuffers((cfg.intrinsics.height, cfg.intrinsics.width))

    # -- kinematics --

    def _pose_at_distance(self, d: float) -> Pose2D:
        d = min(d, self.cfg.path_length())
        sx, sy = self.cfg.ugv_start
        return Pose2D(
            sx + d * math.cos(self._heading),
            sy + d * math.sin(self._heading),
            self._heading,
        )

    def _drive(self, dt: float) -> None:
        self.clock.advance(dt)
        self.distance += self.cfg.speed * dt
        self.scene = dataclasses.replace(self.scene, ugv=self._pose_at_distance(self.distance))

    # -- perception --

    def _capture(
        self, standstill: bool, inject_for: Optional[str]
    ) -> tuple[FrameData, FrameImages]:
        rr = render_full(self.scene, self.cfg.intrinsics)
        fd = FrameData(
            frame_index=self.frame_index,
            t_capture=self.clock.now(),
            ugv=self.scene.ugv,
            standstill=standstill,
            shape=(self.cfg.intrinsics.height, self.cfg.intrinsics.width),
            floor_depth=rr.floor_depth,
            patches=rr.patches,
            bias=next((j.bias for j in self.cfg.injections if j.object_id == inject_for), None),
        )
        images = fd.images(self.cfg, self._buffers)
        depth = images.depth
        # the log keeps these facts of the perceived view, so serializing
        # the frame builds no image and draws no noise
        fd = dataclasses.replace(
            fd,
            class_pixels=images.labels.class_pixels(),
            depth_digest=None if depth is images.clean_depth else _array_digest(depth.data),
        )
        self.bus.publish(Topic.CAMERA_FRAMES, fd.t_capture, fd)
        return fd, images

    def _select(
        self,
        targets: Sequence[TargetRecord],
        comps: Sequence[MaskComponent],
        images: FrameImages,
    ) -> Optional[tuple[TargetRecord, MaskComponent, str]]:
        """Nearest in-reach, non-border, unattempted candidate."""
        best = None
        for rec in targets:
            if not rec.in_reach or rec.border:
                continue
            matched = match_component(comps[rec.component_index], images.instances)
            if matched in self.records or matched in self.abandoned:
                continue
            dist = math.hypot(rec.center[0], rec.center[1])
            key = (dist, rec.seed_pixel)
            if best is None or key < best[0]:
                best = (key, rec, comps[rec.component_index], matched)
        if best is None:
            return None
        return best[1], best[2], best[3]

    def _perceive(self, standstill: bool, inject_for: Optional[str]):
        """Capture, segment, compute targets and select on one frame.

        Returns the frame, its dense images (valid until the next capture),
        the time its targets are published, and the selection (None when
        nothing is actionable).
        """
        fd, images = self._capture(standstill, inject_for)
        mask, targets, comps = perceive_frame(images, self.cfg, self.cam_to_arm)
        t_mask = fd.t_capture + SEG_LATENCY
        # hashed before the next capture reuses the canvas, which an
        # unchanged mask shares
        md = MaskData(fd.frame_index, fd.t_capture, mask.class_pixels(), _mask_digest(mask))
        self.bus.publish(Topic.SEGMENTATION_MASKS, t_mask, md)
        t_targets = t_mask + GEOMETRY_LATENCY
        payload = GraspTargetsPayload(frame_index=fd.frame_index, targets=targets)
        self.bus.publish(Topic.GRASP_TARGETS, t_targets, payload)
        return fd, images, t_targets, self._select(targets, comps, images)

    # -- state steps --

    def step(self) -> PipelineState:
        if self.state is PipelineState.DRIVING:
            self._step_driving()
        elif self.state is PipelineState.STOPPING:
            self._step_stopping()
        elif self.state is PipelineState.PICKING:
            self._step_picking()
        elif self.state is PipelineState.RESUMING:
            self._step_resuming()
        return self.state

    def _step_driving(self) -> None:
        t_frame = self.frame_index * self.cfg.frame_period
        self._drive(t_frame - self.clock.now())
        if self.distance >= self.cfg.path_length():
            self.state = PipelineState.DONE
            return
        fd, _, t_targets, chosen = self._perceive(standstill=False, inject_for=None)
        if chosen is None:
            self.frame_index += 1
            return
        rec, _, matched = chosen
        stop = ControlStopPayload(
            frame_index=fd.frame_index, target=rec, trigger_id=matched
        )
        self.bus.publish(Topic.CONTROL_STOP, t_targets, stop)
        self._pending_stop = stop
        self.state = PipelineState.STOPPING

    def _step_stopping(self) -> None:
        # the vehicle keeps rolling through the perception latencies and the
        # braking lag, then stands still
        self._drive(SEG_LATENCY + GEOMETRY_LATENCY + self.cfg.stop_latency)
        self.state = PipelineState.PICKING

    def _step_picking(self) -> None:
        stop = self._pending_stop
        self._pending_stop = None
        assert stop is not None
        # align the standstill capture to the camera's frame grid
        n = self._next_frame_slot()
        self.frame_index = n
        self.clock.advance(n * self.cfg.frame_period - self.clock.now())

        fd, images, t_targets, chosen = self._perceive(standstill=True, inject_for=stop.trigger_id)
        self.frame_index += 1
        if chosen is None:
            # nothing actionable from the standstill view; skip the trigger
            # object so the same frame cannot stop the vehicle forever
            self.abandoned.add(stop.trigger_id)
            self.state = PipelineState.RESUMING
            return
        rec, comp, matched = chosen
        t_cmd = t_targets + DISPATCH_LATENCY
        self.bus.publish(
            Topic.ARM_COMMANDS,
            t_cmd,
            ArmCommandPayload(frame_index=fd.frame_index, target=rec, matched_id=matched),
        )
        self.clock.advance(t_cmd - self.clock.now())
        self._execute_attempt(rec, comp, matched, images)
        self.state = PipelineState.RESUMING

    def _step_resuming(self) -> None:
        # re-start the vehicle on the next camera grid slot
        self.frame_index = max(self.frame_index, self._next_frame_slot())
        self.state = PipelineState.DRIVING

    def _next_frame_slot(self) -> int:
        """Index of the first camera frame at or after the clock."""
        now, period = self.clock.now(), self.cfg.frame_period
        # the slack keeps a clock that sits on a slot, up to the rounding of
        # the division, on that slot; a slot it leaves behind the clock is
        # stepped past
        n = math.ceil(now / period - 1e-9)
        return n + 1 if n * period < now else n

    # -- the pick itself --

    def _truth_in_arm_frame(self, obj: ObjectSpec) -> ObjectSpec:
        ugv = self.scene.ugv
        mount = self.cfg.arm_mount
        p_robot = world_to_robot(np.array([obj.x, obj.y, 0.0]), ugv)
        c, s = math.cos(-mount.yaw), math.sin(-mount.yaw)
        dx, dy = p_robot[0] - mount.x, p_robot[1] - mount.y
        return dataclasses.replace(
            obj,
            x=dx * c - dy * s,
            y=dx * s + dy * c,
            yaw=obj.yaw - ugv.heading - mount.yaw,
        )

    def _execute_attempt(
        self,
        rec: TargetRecord,
        comp: MaskComponent,
        matched: str,
        images: FrameImages,
    ) -> None:
        truth_world = self.scene.object_by_id(matched)
        truth_arm = self._truth_in_arm_frame(truth_world)
        floor_z = -self.cfg.arm_mount.z
        center = Point3(*rec.center, Frame.ARM)
        result = self.arm.execute_pick(center, rec.yaw, truth_arm, self.clock, floor_z)

        diag = self._diagnose(rec, comp, matched, images, truth_arm, result, floor_z)
        attribution: tuple[str, ...] = ()
        if result.outcome is not PickOutcome.SUCCESS:
            try:
                blamed = attribute_failure(diag, self.cfg.arm)
                attribution = tuple(sorted(m.value for m in blamed))
            except UnattributableFailure:
                attribution = ("Unattributable",)

        status = ArmStatusPayload(
            object_id=matched,
            outcome=result.outcome.value,
            elapsed_s=result.elapsed_s,
            phases=tuple((p.value, t0, t1) for p, t0, t1 in result.phases),
            xy_error=result.xy_error,
            z_error=result.z_error,
            yaw_error=result.yaw_error,
            grasp_width=result.grasp_width,
            t_start=result.start_time,
            t_end=self.clock.now(),
        )
        self.bus.publish(Topic.ARM_STATUS, self.clock.now(), status)

        self.records[matched] = AttemptRecord(
            object_id=matched,
            cls=truth_world.cls.value,
            outcome=result.outcome.value,
            cause=_describe_cause(result, self.cfg.arm),
            attribution=attribution,
            elapsed_s=result.elapsed_s,
            center_error_m=diag.center_error,
            yaw_error_rad=diag.yaw_error,
            mask_iou=diag.iou,
        )
        if result.outcome is PickOutcome.SUCCESS:
            # the object leaves the scene when the gripper opens, not at
            # the end of the return-home leg
            release = result.release_time
            assert release is not None
            self.scene = self.scene.without(matched)
            self.removed.append((matched, release))

    def _diagnose(
        self,
        rec: TargetRecord,
        comp: MaskComponent,
        matched: str,
        images: FrameImages,
        truth_arm: ObjectSpec,
        result: PickResult,
        floor_z: float,
    ) -> AttemptDiagnostics:
        # mask quality: the attempted component alone against the true mask
        iou = mask_iou(comp, images.labels)

        # depth quality over the object's true pixels
        rows, cols = images.instances.pixels_of(matched)
        used = images.depth.data[rows, cols]
        clean = images.clean_depth.data[rows, cols]
        valid = used > 0.0
        if valid.any():
            depth_err = float(np.median(np.abs(used[valid] - clean[valid])))
        else:
            depth_err = math.inf

        true_top = np.array(
            [truth_arm.x, truth_arm.y, floor_z + truth_arm.top_height]
        )
        center_err = float(np.linalg.norm(np.array(rec.center) - true_top))
        return AttemptDiagnostics(
            outcome=result.outcome,
            iou=iou,
            median_depth_error=depth_err,
            center_error=center_err,
            yaw_error=result.yaw_error,
        )

    # -- driver --

    def run(self) -> RunReport:
        # a valid run takes one step per frame of the course, one to end the
        # drive and one for rounding, plus at most four per object: each stop
        # attempts or abandons a new object, and costs three steps and a frame
        cfg = self.cfg
        limit = math.ceil(cfg.path_length() / (cfg.speed * cfg.frame_period))
        limit += 2 + 4 * len(cfg.objects)
        steps = 0
        try:
            while self.state is not PipelineState.DONE:
                if steps == limit:
                    raise RuntimeError("simulation did not terminate")
                self.step()
                steps += 1
        finally:
            # the last capture drew noise ahead for a frame the run never takes
            self._buffers.settle()
        succeeded = sum(
            1 for r in self.records.values() if r.outcome == PickOutcome.SUCCESS.value
        )
        return RunReport(
            name=self.cfg.name,
            seed=self.cfg.seed,
            config_digest=config_digest(self.cfg),
            log_digest=self.bus.digest(),
            attempted=len(self.records),
            succeeded=succeeded,
            records=tuple(self.records.values()),
        )


def _describe_cause(result: PickResult, cfg: ArmConfig) -> str:
    if result.outcome is PickOutcome.SUCCESS:
        return ""
    if result.outcome is PickOutcome.BOUNDARY_COLLISION:
        return (
            "approach swing clipped the reach boundary "
            f"(margin {cfg.boundary_margin:g} m)"
        )
    parts = []
    if result.xy_error > cfg.position_tolerance:
        parts.append(f"xy error {result.xy_error:.4f} m")
    if result.z_error > cfg.position_tolerance:
        parts.append(f"z error {result.z_error:.4f} m")
    if result.yaw_error > cfg.yaw_tolerance:
        parts.append(f"yaw error {math.degrees(result.yaw_error):.1f} deg")
    if result.grasp_width > cfg.gripper_max_opening:
        parts.append(f"needed opening {result.grasp_width:.3f} m")
    return "gripper closed on nothing: " + ", ".join(parts)


def run_scenario(cfg: ScenarioConfig) -> tuple[RunReport, Simulation]:
    sim = Simulation(cfg)
    report = sim.run()
    return report, sim


# --- serialization -----------------------------------------------------------------


def _record(value: Any) -> Any:
    """JSON form of a record: a dataclass becomes an object of its fields,
    with ``cls`` written as ``class``, and a tuple becomes a list."""
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {
            "class" if name == "cls" else name: _record(getattr(value, name))
            for name in fields
        }
    if isinstance(value, tuple):
        return [_record(v) for v in value]
    return value


_OPS = {"erode": Erode, "holes": Holes, "cut_band": CutBand, "relabel": Relabel}
_OP_NAMES = {op: name for name, op in _OPS.items()}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Scenario in its file-schema form; feeding it back to the parser
    reproduces the config, which is what pins the config digest."""

    def obj_to_dict(o: ObjectSpec) -> dict:
        return {
            "id": o.id,
            "class": o.cls.value,
            "dims": _record(o.dims),
            "pose": {"x": o.x, "y": o.y, "yaw": o.yaw},
        }

    k = cfg.intrinsics
    arm = cfg.arm
    return {
        "name": cfg.name,
        "seed": cfg.seed,
        "frame_period": cfg.frame_period,
        "camera": {
            "width": k.width,
            "height": k.height,
            "fx": k.fx,
            "fy": k.fy,
            "cx": k.cx,
            "cy": k.cy,
            "height_m": cfg.camera_mount.height,
            "mount_xy": [cfg.camera_mount.x, cfg.camera_mount.y],
            "noise": _record(cfg.noise),
        },
        "arm": {
            "r_min": arm.envelope.r_min,
            "r_max": arm.envelope.r_max,
            "z_min": arm.envelope.z_min,
            "z_max": arm.envelope.z_max,
            "gripper_max_opening": arm.gripper_max_opening,
            "d_tol": arm.position_tolerance,
            "theta_tol": arm.yaw_tolerance,
            "boundary_margin": arm.boundary_margin,
            "adaptive_order": arm.adaptive_order,
            "phase_durations": {p.value: d for p, d in arm.phase_durations.items()},
            "drop_pose": [arm.drop_pose.x, arm.drop_pose.y, arm.drop_pose.z],
            "mount": [
                cfg.arm_mount.x,
                cfg.arm_mount.y,
                cfg.arm_mount.z,
                cfg.arm_mount.yaw,
            ],
        },
        "ugv": {
            "start": list(cfg.ugv_start),
            "end": list(cfg.ugv_end),
            "speed": cfg.speed,
            "stop_latency": cfg.stop_latency,
        },
        "objects": [obj_to_dict(o) for o in cfg.objects],
        "corruptions": [{"op": _OP_NAMES[type(op)], **_record(op)} for op in cfg.seg_ops],
        "injections": {
            "depth_bias": [
                {"id": inj.object_id, "bias": inj.bias} for inj in cfg.injections
            ]
        },
    }


# --- scenario parsing ----------------------------------------------------------------
#
# The schema is the default scenario in file form: its keys are the allowed
# keys, each leaf's value is that leaf's default, and the Python type of the
# value is the type a file must give. A leaf whose template is a type instead
# of a value is required. Record lists carry one template per entry kind.


@dataclass(frozen=True)
class _Records:
    """A list of records; the value under ``tag`` picks each entry's template
    (an untagged list has one template, keyed by None)."""

    templates: dict
    tag: Optional[str] = None


_DIMS = {ObjectClass.BRICK: BrickDims(*DEFAULT_BRICK), ObjectClass.PIPE: PipeDims(*DEFAULT_PIPE)}


def _scenario_schema() -> dict:
    schema = scenario_to_dict(ScenarioConfig(name="scenario", objects=()))
    schema["objects"] = _Records(
        {
            cls.value: {
                "id": str,
                "class": cls.value,
                "dims": _record(dims),
                "pose": {"x": float, "y": float, "yaw": 0.0},
            }
            for cls, dims in _DIMS.items()
        },
        tag="class",
    )
    schema["corruptions"] = _Records(
        {
            "erode": {"op": "erode", "radius": 1},
            "holes": {"op": "holes", "fraction": 0.0, "seed": 0},
            "cut_band": {"op": "cut_band", "target_id": str, "band_px": 1},
            "relabel": {"op": "relabel", "region": [int] * 4, "new_class": 0},
        },
        tag="op",
    )
    schema["injections"]["depth_bias"] = _Records({None: {"id": str, "bias": 0.0}})
    return schema


_SCENARIO_SCHEMA = _scenario_schema()


_MISSING = object()
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _conform(value: Any, tmpl: Any, path: str, errors: list[tuple[str, str]]) -> Any:
    """``value`` checked against ``tmpl``, with missing keys filled from it.

    Problems go to ``errors`` with their field path. Numbers come back as
    finite floats and fixed-length lists as tuples.
    """
    if value is _MISSING:
        if isinstance(tmpl, type) or isinstance(tmpl, list) and isinstance(tmpl[0], type):
            errors.append((path, "required"))
            return None
        value = {} if isinstance(tmpl, dict) else [] if isinstance(tmpl, _Records) else tmpl
    if isinstance(tmpl, dict):
        if not isinstance(value, dict):
            errors.append((path, "expected an object"))
            return None
        join = lambda key: f"{path}.{key}" if path else key
        errors.extend((join(key), "unknown key") for key in value if key not in tmpl)
        errors.extend((join(key), "repeated key") for key in getattr(value, "repeated", ()))
        return {
            key: _conform(value.get(key, _MISSING), t, join(key), errors)
            for key, t in tmpl.items()
        }
    if isinstance(tmpl, _Records):
        if not isinstance(value, list):
            errors.append((path, "expected a list"))
            return None
        out = []
        for i, entry in enumerate(value):
            entry_path = f"{path}[{i}]"
            if not isinstance(entry, dict):
                errors.append((entry_path, "expected an object"))
                continue
            kind = entry.get(tmpl.tag) if tmpl.tag else None
            entry_tmpl = tmpl.templates.get(kind if isinstance(kind, str) else None)
            if entry_tmpl is None:
                errors.append((f"{entry_path}.{tmpl.tag}", f"unknown {tmpl.tag} {kind!r}"))
                continue
            out.append(_conform(entry, entry_tmpl, entry_path, errors))
        return out
    if isinstance(tmpl, list):
        if not isinstance(value, list) or len(value) != len(tmpl):
            errors.append((path, f"expected a list of {len(tmpl)} values"))
            return None
        return tuple(
            _conform(v, t, f"{path}[{i}]", errors) for i, (v, t) in enumerate(zip(value, tmpl))
        )
    kind = tmpl if isinstance(tmpl, type) else type(tmpl)
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not kind:
        errors.append((path, f"expected {_TYPE_NAMES[kind]}"))
        return None
    if kind is float and not math.isfinite(value):
        errors.append((path, "expected a finite number"))
        return None
    return value


def _arm_from_dict(arm: dict) -> ArmConfig:
    return ArmConfig(
        phase_durations={MotionPhase(p): d for p, d in arm["phase_durations"].items()},
        position_tolerance=arm["d_tol"],
        yaw_tolerance=arm["theta_tol"],
        gripper_max_opening=arm["gripper_max_opening"],
        boundary_margin=arm["boundary_margin"],
        envelope=ReachEnvelope(arm["r_min"], arm["r_max"], arm["z_min"], arm["z_max"]),
        drop_pose=Point3(*arm["drop_pose"], Frame.ARM),
        adaptive_order=arm["adaptive_order"],
    )


def _object_from_dict(o: dict) -> ObjectSpec:
    cls = ObjectClass(o["class"])
    return ObjectSpec(o["id"], cls, dataclasses.replace(_DIMS[cls], **o["dims"]), **o["pose"])


def _op_from_dict(op: dict) -> CorruptionOp:
    return _OPS[op["op"]](**{key: v for key, v in op.items() if key != "op"})


class JsonObject(dict):
    """A JSON object as ``json.loads(text, object_pairs_hook=JsonObject)``
    decodes it: ``repeated`` lists the keys it was given more than once, of
    which it keeps the last value. :func:`parse_scenario` rejects them."""

    def __init__(self, pairs: list) -> None:
        super().__init__(pairs)
        self.repeated = [key for key, n in Counter(k for k, _ in pairs).items() if n > 1]


def parse_scenario(doc: Any) -> ScenarioConfig:
    """Strictly parse a scenario document; collects every problem found.

    Only the document is checked here. The assembled config is checked
    once, by :class:`Simulation`.
    """
    errors: list[tuple[str, str]] = []
    d = _conform(doc, _SCENARIO_SCHEMA, "", errors)
    if errors:
        raise InvalidConfig(errors)

    def build(path: str, make: Callable, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            field = getattr(exc, "field", None)
            errors.append((f"{path}.{field}" if field else path, str(exc)))
            return None

    cam, arm, ugv = d["camera"], d["arm"], d["ugv"]
    cfg = ScenarioConfig(
        name=d["name"],
        objects=tuple(
            build(f"objects[{i}]", _object_from_dict, o) for i, o in enumerate(d["objects"])
        ),
        intrinsics=build(
            "camera",
            Intrinsics,
            **{key: cam[key] for key in ("fx", "fy", "cx", "cy", "width", "height")},
        ),
        camera_mount=CameraMount(*cam["mount_xy"], cam["height_m"]),
        arm_mount=ArmMount(*arm["mount"]),
        ugv_start=ugv["start"],
        ugv_end=ugv["end"],
        speed=ugv["speed"],
        stop_latency=ugv["stop_latency"],
        frame_period=d["frame_period"],
        noise=build("camera.noise", DepthNoiseModel, **cam["noise"]),
        seg_ops=tuple(
            build(f"corruptions[{i}]", _op_from_dict, op) for i, op in enumerate(d["corruptions"])
        ),
        injections=tuple(
            DepthBiasInjection(inj["id"], inj["bias"]) for inj in d["injections"]["depth_bias"]
        ),
        arm=build("arm", _arm_from_dict, arm),
        seed=d["seed"],
    )
    if errors:
        raise InvalidConfig(errors)
    return cfg


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: dict) -> str:
    return _CANONICAL.encode(value)


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(canonical_json(scenario_to_dict(cfg)).encode()).hexdigest()


def _array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    # the buffer itself, not a ``tobytes`` copy of it
    h.update(memoryview(np.ascontiguousarray(arr)))
    return h.hexdigest()


@functools.cache
def _floor_prefix(shape: tuple[int, int], rows: int) -> Any:
    """sha256 state of ``_array_digest`` of a uint8 image of ``shape``
    after its header and ``rows`` all-floor rows; callers hash a copy."""
    h = hashlib.sha256()
    h.update(b"uint8")
    h.update(repr(shape).encode())
    h.update(bytes(rows * shape[1]))
    return h


def _mask_digest(mask: LabelImage) -> str:
    """``_array_digest`` of ``mask.data``. The rows above its first cluster
    are all floor, so their hash state is taken once per row count and copied."""
    data = mask.data
    r0 = mask.clusters[0][0] if mask.clusters else data.shape[0]
    h = _floor_prefix(data.shape, r0).copy()
    h.update(memoryview(np.ascontiguousarray(data[r0:])))
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


# payloads logged field for field, by the kind each is logged as
_RECORD_KINDS = {
    GraspTargetsPayload: "targets",
    ControlStopPayload: "stop",
    ArmCommandPayload: "command",
    ArmStatusPayload: "status",
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
    kind = _RECORD_KINDS.get(type(payload))
    if kind is None:
        raise TypeError(f"no JSON form for payload type {type(payload).__name__}")
    return {"kind": kind, **_record(payload)}


def messages_to_ndjson(bus: MessageBus) -> str:
    """The bus log as NDJSON, one line per envelope, as written at publish;
    a bus with no messages gives ``""``."""
    return bus._ndjson.getvalue()


# Wall-clock text must not leak into the report or byte-level determinism
# across runs would be lost.
_WALL_NOTES = "timings are simulated; wall clock intentionally excluded"


def report_to_json(report: RunReport) -> str:
    records = [_record(r) for r in report.records]
    for rec in records:
        rec["id"] = rec.pop("object_id")
    doc = {
        "seed": report.seed,
        "config_digest": report.config_digest,
        "attempted": report.attempted,
        "succeeded": report.succeeded,
        "records": records,
        "wall_notes": _WALL_NOTES,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- built-in benchmark course ------------------------------------------------------


def build_benchmark_config(adaptive_order: bool = False, seed: int = 7) -> ScenarioConfig:
    """Ten-object course: five bricks and five pipes on a straight lane.

    Three attempts are rigged to fail in distinct, attributable ways:
    a transient depth bias on one brick, a segmentation cut through another,
    and one pipe parked at the edge of the reach envelope.
    """
    brick = _DIMS[ObjectClass.BRICK]
    pipe = _DIMS[ObjectClass.PIPE]
    thin_pipe = PipeDims(0.02, 0.40)

    def b(i: int, x: float, y: float, yaw: float) -> ObjectSpec:
        return ObjectSpec(f"b{i}", ObjectClass.BRICK, brick, x, y, yaw)

    def p(i: int, x: float, y: float, yaw: float, dims: PipeDims = pipe) -> ObjectSpec:
        return ObjectSpec(f"p{i}", ObjectClass.PIPE, dims, x, y, yaw)

    objects = (
        b(1, 1.4, 0.10, 0.25),
        p(1, 2.3, -0.12, 0.20),
        b(2, 3.2, 0.08, 0.0),  # depth-bias injection target
        p(2, 4.1, -0.10, -0.15),
        b(3, 5.0, -0.08, 0.0),  # segmentation cut target
        p(3, 5.9, 0.87, 0.0, thin_pipe),  # parked at the reach boundary
        b(4, 6.8, 0.12, -0.30),
        p(4, 7.7, -0.06, 0.10),
        b(5, 8.6, -0.11, 0.15),
        p(5, 9.5, 0.07, -0.30),
    )
    return ScenarioConfig(
        name="benchmark-10",
        objects=objects,
        intrinsics=Intrinsics(fx=180.0, fy=180.0, cx=256.0, cy=128.0, width=512, height=256),
        camera_mount=CameraMount(1.05, 0.0, 1.4),
        ugv_start=(0.0, 0.0),
        ugv_end=(10.5, 0.0),
        speed=0.5,
        stop_latency=0.2,
        seg_ops=(CutBand("b3", 4),),
        injections=(DepthBiasInjection("b2", 0.02),),
        arm=dataclasses.replace(DEFAULT_ARM_CONFIG, adaptive_order=adaptive_order),
        seed=seed,
    )


#: outcome and attribution every benchmark run must reproduce, by object id
EXPECTED_BENCHMARK_OUTCOMES: dict[str, tuple[str, tuple[str, ...]]] = {
    "b1": ("Success", ()),
    "p1": ("Success", ()),
    "b2": ("MissedGrasp", ("Camera",)),
    "p2": ("Success", ()),
    "b3": ("MissedGrasp", ("ContextAwareness", "GeometryDescriptor")),
    "p3": ("BoundaryCollision", ("RoboticArm",)),
    "b4": ("Success", ()),
    "p4": ("Success", ()),
    "b5": ("Success", ()),
    "p5": ("Success", ()),
}

EXPECTED_BENCHMARK_OUTCOMES_ADAPTIVE: dict[str, tuple[str, tuple[str, ...]]] = {
    **EXPECTED_BENCHMARK_OUTCOMES,
    "p3": ("Success", ()),
}


def check_benchmark_report(report: RunReport, adaptive_order: bool = False) -> list[str]:
    """Differences between a benchmark run and its frozen outcome table."""
    expected = (
        EXPECTED_BENCHMARK_OUTCOMES_ADAPTIVE
        if adaptive_order
        else EXPECTED_BENCHMARK_OUTCOMES
    )
    problems: list[str] = []
    seen = {r.object_id: r for r in report.records}
    if report.attempted != len(expected):
        problems.append(f"attempted {report.attempted}, expected {len(expected)}")
    for oid, (outcome, attribution) in expected.items():
        rec = seen.get(oid)
        if rec is None:
            problems.append(f"{oid}: never attempted")
            continue
        if rec.outcome != outcome:
            problems.append(f"{oid}: outcome {rec.outcome}, expected {outcome}")
        if tuple(rec.attribution) != attribution:
            problems.append(
                f"{oid}: attribution {list(rec.attribution)}, expected {list(attribution)}"
            )
    return problems
