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
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .arm import DEFAULT_ARM_CONFIG, Arm, ArmConfig, PickOutcome, PickResult
from .camera import (
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
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
    validate_scene,
    world_to_robot,
)
from .schema import (
    _DIMS,
    DepthBiasInjection,
    InvalidConfig,
    ScenarioConfig,
    canonical_json,
    scenario_to_dict,
)
from .segmentation import SEED_LIMIT, CutBand, mask_iou, segment

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
    """Dense arrays that one run's frame images are built into.

    A :class:`Simulation` builds every capture into one set, so a run holds
    one frame's dense images however long it is, and each capture writes
    into pages it has already touched.

    A noisy capture perceives its depth while the run's worker thread draws
    the next frame's noise, so those draws overlap this frame's perception.
    The worker draws into arrays of its own, which this thread sees only
    through the future's result. It starts at the first draw ahead and
    ends at :meth:`settle`.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = shape
        # compose_patches' labels, depth and instances
        self.canvas = Canvas(shape)
        self._worker: Optional[ThreadPoolExecutor] = None
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
        if self._worker is None:
            self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="clearbot-noise")
        seed = _noise_seed(cfg, frame_index + 1)
        future = self._worker.submit(draw_noise, cfg.noise, seed, self.shape)
        self._ahead = (frame_index + 1, future)
        return drawn

    def settle(self) -> None:
        """End the worker, once the draws in flight are done."""
        if self._worker is not None:
            self._worker.shutdown()
            self._worker = None
        self._ahead = None


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
            # a bias-only model offsets the valid pixels into a new array
            # and draws nothing, so it reads no seed
            depth = apply_noise(depth, DepthNoiseModel(bias=self.bias), 0)
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
    result: PickResult


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


# --- config validation -----------------------------------------------------------


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
        frames = cfg.course_frames()
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
    records: tuple[AttemptRecord, ...]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def succeeded(self) -> int:
        return sum(r.outcome == PickOutcome.SUCCESS.value for r in self.records)


# --- the simulation ----------------------------------------------------------------


class PipelineState(enum.Enum):
    DRIVING = "Driving"
    PICKING = "Picking"
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
        self.cam_to_arm = camera_to_arm_transform(cfg.camera_mount, cfg.arm_mount)
        self.state = PipelineState.DRIVING
        self.frame_index = 0
        self.distance = 0.0
        self.abandoned: set[str] = set()
        # one record per attempted object, in attempt order
        self.records: dict[str, AttemptRecord] = {}
        self._heading = self.scene.ugv.heading
        # the object whose sighting stopped the vehicle, until its pick step
        self._trigger_id: Optional[str] = None
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
        # unchanged mask shares; an unchanged mask's counts are the frame's
        counts = fd.class_pixels if mask is images.labels else mask.class_pixels()
        md = MaskData(fd.frame_index, fd.t_capture, counts, _mask_digest(mask))
        self.bus.publish(Topic.SEGMENTATION_MASKS, t_mask, md)
        t_targets = t_mask + GEOMETRY_LATENCY
        payload = GraspTargetsPayload(frame_index=fd.frame_index, targets=targets)
        self.bus.publish(Topic.GRASP_TARGETS, t_targets, payload)
        return fd, images, t_targets, self._select(targets, comps, images)

    # -- state steps --

    def step(self) -> PipelineState:
        if self.state is PipelineState.DRIVING:
            self._step_driving()
        elif self.state is PipelineState.PICKING:
            self._step_picking()
        return self.state

    def _step_driving(self) -> None:
        t_frame = self.frame_index * self.cfg.frame_period
        self._drive(t_frame - self.clock.now())
        if self.distance >= self.cfg.path_length():
            self.state = PipelineState.DONE
            # the last capture drew noise ahead for a frame the run never takes
            self._buffers.settle()
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
        self._trigger_id = matched
        # the vehicle keeps rolling through the perception latencies and the
        # braking lag, then stands still for the pick step
        self._drive(SEG_LATENCY + GEOMETRY_LATENCY + self.cfg.stop_latency)
        self.state = PipelineState.PICKING

    def _step_picking(self) -> None:
        trigger_id = self._trigger_id
        self._trigger_id = None
        assert trigger_id is not None
        # align the standstill capture to the camera's frame grid
        n = self._next_frame_slot()
        self.frame_index = n
        self.clock.advance(n * self.cfg.frame_period - self.clock.now())

        fd, images, t_targets, chosen = self._perceive(standstill=True, inject_for=trigger_id)
        self.frame_index += 1
        if chosen is None:
            # nothing actionable from the standstill view; skip the trigger
            # object so the same frame cannot stop the vehicle forever
            self.abandoned.add(trigger_id)
        else:
            rec, comp, matched = chosen
            t_cmd = t_targets + DISPATCH_LATENCY
            self.bus.publish(
                Topic.ARM_COMMANDS,
                t_cmd,
                ArmCommandPayload(frame_index=fd.frame_index, target=rec, matched_id=matched),
            )
            self.clock.advance(t_cmd - self.clock.now())
            self._execute_attempt(rec, comp, matched, images)
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

        self.bus.publish(Topic.ARM_STATUS, self.clock.now(), ArmStatusPayload(matched, result))

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
            self.scene = self.scene.without(matched)

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
        # drive and one for rounding, plus at most two per object: each stop
        # attempts or abandons an object not seen before, and costs a driving
        # step that does not advance the frame index and a picking step
        cfg = self.cfg
        limit = math.ceil(cfg.course_frames()) + 2 + 2 * len(cfg.objects)
        steps = 0
        try:
            while self.state is not PipelineState.DONE:
                if steps == limit:
                    raise RuntimeError("simulation did not terminate")
                self.step()
                steps += 1
        finally:
            # a run that raised never reached DONE
            self._buffers.settle()
        return RunReport(
            name=self.cfg.name,
            seed=self.cfg.seed,
            config_digest=config_digest(self.cfg),
            log_digest=self.bus.digest(),
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
