"""End-to-end pipeline simulation.

A UGV drives a straight path with a nadir RGB-D camera and an arm mounted on
it. Each camera frame is segmented, mask components are turned into grasp
targets in the arm frame, and when an unattempted target is inside the reach
envelope the vehicle stops, re-perceives at standstill, and runs one pick.
Every hand-off travels over the message bus of :mod:`clearbot.log`, so a
run leaves a complete, replayable message log.

Failed attempts are attributed to the pipeline stage whose output broke
tolerance: depth sensing, segmentation, mask geometry, or the arm motion
itself.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arm import DEFAULT_ARM_CONFIG, Arm, ArmConfig, PickOutcome, PickResult
from .camera import (
    DepthImage,
    DepthNoiseModel,
    InstanceImage,
    Intrinsics,
    LabelImage,
    NoiseDraws,
    apply_noise,
    compose_patches,
    draw_noise,
    render_full,
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
from .log import (
    SEG_LATENCY,
    ArmCommandPayload,
    ArmStatusPayload,
    AttemptRecord,
    ControlStopPayload,
    FrameData,
    GraspTargetsPayload,
    MaskData,
    MessageBus,
    MessageEnvelope,
    RunReport,
    TargetRecord,
    Topic,
    _array_digest,
    _mask_digest,
)
# not called here: perfbench calls and rebinds these two as orchestrator names
from .log import messages_to_ndjson, report_to_json
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

# pipeline latencies, seconds (the segmentation latency is the log's)
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


@dataclass(frozen=True)
class FrameImages:
    """The images of one frame, each the crops of the frame's clusters.

    ``depth`` is what perception sees (noisy or biased when the frame was
    altered after the ray cast, and then one dense crop, as the noise is
    drawn over the whole image); ``clean_depth`` is the ray-cast depth.
    """

    labels: LabelImage
    depth: DepthImage
    clean_depth: DepthImage
    instances: InstanceImage


class NoiseWorker:
    """The thread that draws one run's depth noise a frame ahead.

    A noisy capture perceives its depth while the worker draws the next
    frame's noise, so those draws overlap this frame's perception. The
    worker draws into arrays of its own, which the run's thread sees only
    through the future's result. It starts at the first draw ahead and
    ends at :meth:`settle`.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = shape
        self._worker: Optional[ThreadPoolExecutor] = None
        # (frame index, future) of the newest draw submitted to the worker
        self._ahead: Optional[tuple[int, Future]] = None

    def draws(self, cfg: ScenarioConfig, frame_index: int) -> Optional[NoiseDraws]:
        """Frame ``frame_index``'s draws, when they were made ahead.

        The next frame's draws are submitted first, and only then are this
        frame's waited for, so the worker draws the next frame while this
        one is perceived. None means the frame draws on the spot: a draw
        made ahead for another frame is wasted work, never waited for and
        never read.
        """
        if cfg.noise.draws_nothing:
            return None
        ahead = self._ahead
        if self._worker is None:
            self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="clearbot-noise")
        seed = _noise_seed(cfg, frame_index + 1)
        future = self._worker.submit(draw_noise, cfg.noise, seed, self.shape)
        self._ahead = (frame_index + 1, future)
        return ahead[1].result() if ahead is not None and ahead[0] == frame_index else None

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


def frame_images(
    fd: FrameData, cfg: ScenarioConfig, noise: Optional[NoiseWorker] = None
) -> FrameImages:
    """Compose a frame's crops and perceive the depth through the
    scenario's noise and the frame's bias; nothing is kept on the frame.
    The step loop perceives the view this builds at capture, with the
    noise its ``noise`` worker drew ahead; without one, the noise is drawn
    here. Replay and ``--dump-frames`` build their views here too."""
    labels, clean, instances = compose_patches(fd.shape, fd.floor_depth, fd.patches)
    depth = clean
    if not cfg.noise.is_identity:
        draws = None if noise is None else noise.draws(cfg, fd.frame_index)
        depth = apply_noise(depth, cfg.noise, _noise_seed(cfg, fd.frame_index), draws)
    if fd.bias is not None:
        # a bias-only model offsets the valid pixels into a new array
        # and draws nothing, so it reads no seed
        depth = apply_noise(depth, DepthNoiseModel(bias=fd.bias), 0)
    return FrameImages(labels=labels, depth=depth, clean_depth=clean, instances=instances)


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


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(canonical_json(scenario_to_dict(cfg)).encode()).hexdigest()


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
    votes = instances.at(comp.rows, comp.cols, comp.bbox)
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
        mask, targets, _ = perceive_frame(frame_images(fd, cfg), cfg, cam_to_arm)
        payload = GraspTargetsPayload(frame_index=fd.frame_index, targets=targets)
        out.append((mask.dense(), payload))
    return out


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
        # draws each noisy capture's noise a frame ahead
        self._noise = NoiseWorker((cfg.intrinsics.height, cfg.intrinsics.width))

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
        images = frame_images(fd, self.cfg, self._noise)
        depth = images.depth
        # the log keeps these facts of the perceived view, so serializing
        # the frame builds no image and draws no noise
        fd = dataclasses.replace(
            fd,
            class_pixels=images.labels.class_pixels(),
            depth_digest=None if depth is images.clean_depth else _array_digest(depth.dense()),
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

        Returns the frame, its images, the time its targets are published,
        and the selection (None when nothing is actionable).
        """
        fd, images = self._capture(standstill, inject_for)
        mask, targets, comps = perceive_frame(images, self.cfg, self.cam_to_arm)
        t_mask = fd.t_capture + SEG_LATENCY
        # an unchanged mask's counts are the frame's
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
            self._noise.settle()
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
        window = images.instances.windows[matched][1]
        used = images.depth.at(rows, cols, window)
        clean = images.clean_depth.at(rows, cols, window)
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
            self._noise.settle()
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
