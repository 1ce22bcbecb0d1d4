"""Scripted pick-and-place arm.

The arm runs a fixed phase sequence per pick; each phase has a constant
duration and the clock is advanced by exactly that amount, so a clean pick
always takes the same wall time. Grasp success is decided by comparing the
commanded target against the true object pose in the arm frame: position
and yaw tolerances plus a gripper-opening check.

Two failure modes are modeled mechanically. A target sitting within the
boundary margin of the reach envelope makes the default wide approach
swing into the envelope limit (collision during the move-above phase); the
adaptive phase order descends first and avoids it. A target whose pose
error exceeds tolerance closes the gripper on nothing and the arm returns
home early.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol

from .geometry import DEFAULT_ENVELOPE, Frame, Point3, ReachEnvelope, in_reach
from .scene import BrickDims, ObjectSpec, PipeDims


class MotionPhase(enum.Enum):
    HOME = "home"
    MOVE_ABOVE = "move_above"
    DESCEND = "descend"
    GRASP = "grasp"
    LIFT = "lift"
    MOVE_TO_DROP = "move_to_drop"
    RELEASE = "release"
    RETURN_HOME = "return_home"


# seconds per phase; HOME is the rest pose and costs nothing
DEFAULT_PHASE_DURATIONS: dict[MotionPhase, float] = {
    MotionPhase.MOVE_ABOVE: 4.0,
    MotionPhase.DESCEND: 3.0,
    MotionPhase.GRASP: 2.0,
    MotionPhase.LIFT: 3.0,
    MotionPhase.MOVE_TO_DROP: 4.0,
    MotionPhase.RELEASE: 1.0,
    MotionPhase.RETURN_HOME: 3.0,
}


class PickOutcome(enum.Enum):
    SUCCESS = "Success"
    UNREACHABLE = "Unreachable"
    MISSED_GRASP = "MissedGrasp"
    BOUNDARY_COLLISION = "BoundaryCollision"


class Clock(Protocol):
    def now(self) -> float: ...

    def advance(self, dt: float) -> None: ...


@dataclass(frozen=True)
class ArmConfig:
    phase_durations: Mapping[MotionPhase, float] = field(
        default_factory=lambda: dict(DEFAULT_PHASE_DURATIONS)
    )
    position_tolerance: float = 0.015
    yaw_tolerance: float = math.radians(10.0)
    gripper_max_opening: float = 0.12
    boundary_margin: float = 0.05
    envelope: ReachEnvelope = DEFAULT_ENVELOPE
    # checked and covered by the config digest; the pick sequence never reads it
    drop_pose: Point3 = Point3(0.0, -0.45, 0.10, Frame.ARM)
    adaptive_order: bool = False

    def __post_init__(self) -> None:
        # the chained comparisons also reject NaN, which compares false
        for phase, dur in self.phase_durations.items():
            if phase is MotionPhase.HOME:
                raise ValueError("the home pose has no duration entry")
            if not 0.0 < dur < math.inf:
                raise ValueError(f"{phase.value} duration must be positive and finite")
        missing = set(DEFAULT_PHASE_DURATIONS) - set(self.phase_durations)
        if missing:
            names = ", ".join(sorted(p.value for p in missing))
            raise ValueError(f"missing phase durations: {names}")
        if not (0.0 < self.position_tolerance < math.inf and 0.0 < self.yaw_tolerance < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.gripper_max_opening < math.inf:
            raise ValueError("gripper opening must be positive and finite")
        if not (0.0 <= self.boundary_margin < self.envelope.r_max - self.envelope.r_min):
            raise ValueError("boundary margin must fit inside the envelope")
        if not in_reach(self.drop_pose, self.envelope):
            raise ValueError("drop pose must be inside the reach envelope")

    def phase_order(self) -> tuple[MotionPhase, ...]:
        if self.adaptive_order:
            # descend first, then swing over: MOVE_ABOVE and DESCEND swap
            home, move_above, descend, *rest = MotionPhase
            return (home, descend, move_above, *rest)
        return tuple(MotionPhase)


DEFAULT_ARM_CONFIG = ArmConfig()


@dataclass(frozen=True)
class PickResult:
    outcome: PickOutcome
    elapsed_s: float
    # (phase, start time, end time) for every phase that actually ran
    phases: tuple[tuple[MotionPhase, float, float], ...]
    xy_error: float
    z_error: float
    yaw_error: float
    grasp_width: float
    start_time: float

    @property
    def release_time(self) -> Optional[float]:
        for phase, _, end in self.phases:
            if phase is MotionPhase.RELEASE:
                return end
        return None

    @property
    def end_time(self) -> float:
        """End of the last phase that ran; the start when none ran."""
        return self.phases[-1][2] if self.phases else self.start_time


def fold_yaw_error(commanded: float, actual: float) -> float:
    """Smallest angle between two undirected in-plane axes, in [0, pi/2]."""
    d = abs(commanded - actual) % math.pi
    return min(d, math.pi - d)


def effective_grasp_width(obj: ObjectSpec, yaw_error: float) -> float:
    """Jaw opening needed to span the object when the commanded grasp yaw

    is off by ``yaw_error`` (projection of the footprint onto the closing
    axis)."""
    d = fold_yaw_error(yaw_error, 0.0)
    if isinstance(obj.dims, BrickDims):
        return obj.dims.length * math.sin(d) + obj.dims.width * math.cos(d)
    dims: PipeDims = obj.dims
    # jaws close across the pipe axis; never wider than the stadium itself
    width = 2.0 * dims.radius * math.cos(d) + dims.length * math.sin(d)
    return min(width, dims.length + 2.0 * dims.radius)


class Arm:
    """Runs pick sequences under one configuration; it keeps no other state."""

    def __init__(self, config: ArmConfig = DEFAULT_ARM_CONFIG) -> None:
        self.config = config

    def execute_pick(
        self,
        center: Point3,
        yaw: float,
        truth: ObjectSpec,
        clock: Clock,
        floor_z: float,
    ) -> PickResult:
        """Grasp at ``center`` with the jaws' axis at ``yaw``, against the
        true object pose.

        ``center`` must be in the arm frame, or the reach check raises
        :class:`FrameMismatch`; ``yaw`` is an undirected axis, so it and
        ``yaw + pi`` grasp alike. ``truth`` carries the object pose
        expressed in the arm frame; ``floor_z`` is the workspace floor
        height in the arm frame.
        """
        cfg = self.config
        xy_error = math.hypot(center.x - truth.x, center.y - truth.y)
        z_error = abs(center.z - (floor_z + truth.top_height))
        yaw_error = fold_yaw_error(yaw, truth.yaw)
        width = effective_grasp_width(truth, yaw_error)
        grasp_ok = (
            xy_error <= cfg.position_tolerance
            and z_error <= cfg.position_tolerance
            and yaw_error <= cfg.yaw_tolerance
            and width <= cfg.gripper_max_opening
        )
        near_boundary = math.hypot(center.x, center.y) >= cfg.envelope.r_max - cfg.boundary_margin

        start = clock.now()
        trace: list[tuple[MotionPhase, float, float]] = []
        elapsed = 0.0

        def run(phase: MotionPhase) -> None:
            # elapsed accumulates the durations rather than differencing the
            # clock: the durations are small integers so the sum stays exact
            # wherever on the timeline the pick started
            nonlocal elapsed
            dur = 0.0 if phase is MotionPhase.HOME else cfg.phase_durations[phase]
            t0 = clock.now()
            clock.advance(dur)
            trace.append((phase, t0, clock.now()))
            elapsed += dur

        def result(outcome: PickOutcome) -> PickResult:
            return PickResult(
                outcome=outcome,
                elapsed_s=elapsed,
                phases=tuple(trace),
                xy_error=xy_error,
                z_error=z_error,
                yaw_error=yaw_error,
                grasp_width=width,
                start_time=start,
            )

        if not in_reach(center, cfg.envelope):
            return result(PickOutcome.UNREACHABLE)  # no motion at all

        for phase in cfg.phase_order():
            if phase is MotionPhase.MOVE_ABOVE and near_boundary and not cfg.adaptive_order:
                # wide lateral swing clips the envelope boundary
                run(MotionPhase.MOVE_ABOVE)
                return result(PickOutcome.BOUNDARY_COLLISION)
            run(phase)
            if phase is MotionPhase.GRASP and not grasp_ok:
                run(MotionPhase.RETURN_HOME)
                return result(PickOutcome.MISSED_GRASP)
        return result(PickOutcome.SUCCESS)
