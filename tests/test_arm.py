"""Scripted pick sequence: timing, failure modes, and release times."""

from __future__ import annotations

import math

import numpy as np
import pytest

from clearbot.arm import (
    Arm,
    ArmConfig,
    MotionPhase,
    PickOutcome,
    effective_grasp_width,
    fold_yaw_error,
)
from clearbot.geometry import Frame, FrameMismatch, Point3, ReachEnvelope
from clearbot.scene import (
    BrickDims,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Scene,
)

BRICK_DIMS = BrickDims(0.20, 0.095, 0.057)
PIPE_DIMS = PipeDims(0.03, 0.40)
FLOOR_Z = -0.15  # arm mounted 0.15 m above the floor


class FakeClock:
    def __init__(self, t0: float = 0.0) -> None:
        self.t = t0

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        assert dt >= 0.0
        self.t += dt


def arm_truth(x: float, y: float, yaw: float = 0.0, dims=BRICK_DIMS,
              cls: ObjectClass = ObjectClass.BRICK, oid: str = "b") -> ObjectSpec:
    """Object pose expressed directly in the arm frame."""
    return ObjectSpec(oid, cls, dims, x, y, yaw)


def target_for(truth: ObjectSpec, dx=0.0, dy=0.0, dz=0.0, dyaw=0.0) -> tuple[Point3, float]:
    """The grasp center and yaw of a pick at ``truth``, off by the given errors."""
    center = Point3(truth.x + dx, truth.y + dy, FLOOR_Z + truth.top_height + dz, Frame.ARM)
    return center, truth.yaw + dyaw


def run_pick(truth: ObjectSpec, target: tuple[Point3, float],
             config: ArmConfig = ArmConfig(), t0: float = 0.0):
    arm = Arm(config)
    clock = FakeClock(t0)
    center, yaw = target
    result = arm.execute_pick(center, yaw, truth, clock, FLOOR_Z)
    return arm, clock, result


# --- grasp width ---------------------------------------------------------------


def test_brick_width_at_zero_yaw_error():
    assert effective_grasp_width(arm_truth(0.5, 0.0), 0.0) == 0.095


def test_brick_width_at_quarter_turn():
    w = effective_grasp_width(arm_truth(0.5, 0.0), math.pi / 2)
    assert w == pytest.approx(0.20, abs=1e-12)


def test_brick_width_at_thirty_degrees():
    d = math.radians(30.0)
    want = 0.20 * math.sin(d) + 0.095 * math.cos(d)
    assert effective_grasp_width(arm_truth(0.5, 0.0), d) == pytest.approx(want, abs=1e-12)


def test_pipe_width_across_axis():
    p = arm_truth(0.5, 0.0, dims=PIPE_DIMS, cls=ObjectClass.PIPE, oid="p")
    assert effective_grasp_width(p, 0.0) == pytest.approx(0.06, abs=1e-15)


def test_pipe_width_along_axis():
    p = arm_truth(0.5, 0.0, dims=PIPE_DIMS, cls=ObjectClass.PIPE, oid="p")
    assert effective_grasp_width(p, math.pi / 2) == pytest.approx(0.40, abs=1e-12)


def test_fold_yaw_error_half_turn_symmetry():
    assert fold_yaw_error(0.3, 0.3 + math.pi) == pytest.approx(0.0, abs=1e-12)
    assert fold_yaw_error(0.0, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert fold_yaw_error(0.1, -0.1) == pytest.approx(0.2, abs=1e-12)


# --- success path ----------------------------------------------------------------


def test_perfect_pick_succeeds_in_exactly_twenty_seconds():
    truth = arm_truth(0.5, 0.0, 0.3)
    arm, clock, result = run_pick(truth, target_for(truth))
    assert result.outcome is PickOutcome.SUCCESS
    assert result.elapsed_s == 20.0
    assert clock.now() == 20.0
    assert result.release_time == 17.0  # released at the drop pose


def test_success_phase_trace_order_and_contiguity():
    truth = arm_truth(0.5, 0.0)
    _, _, result = run_pick(truth, target_for(truth), t0=5.3)
    names = [p for p, _, _ in result.phases]
    assert names == [
        MotionPhase.HOME,
        MotionPhase.MOVE_ABOVE,
        MotionPhase.DESCEND,
        MotionPhase.GRASP,
        MotionPhase.LIFT,
        MotionPhase.MOVE_TO_DROP,
        MotionPhase.RELEASE,
        MotionPhase.RETURN_HOME,
    ]
    assert result.phases[0][1] == 5.3 and result.phases[0][2] == 5.3
    for prev, nxt in zip(result.phases, result.phases[1:]):
        assert prev[2] == nxt[1]
    assert result.elapsed_s == 20.0  # exact despite the non-integral start
    assert result.release_time == result.phases[-2][2]
    assert result.start_time == 5.3


def test_elapsed_equals_sum_of_phase_durations():
    rng = np.random.default_rng(50)
    cfg = ArmConfig()
    for _ in range(20):
        truth = arm_truth(rng.uniform(0.3, 0.8), rng.uniform(-0.2, 0.2),
                          rng.uniform(0, math.pi))
        target = target_for(truth, dz=rng.choice([0.0, 0.02]))
        _, _, result = run_pick(truth, target, t0=rng.uniform(0, 100))
        want = sum(
            cfg.phase_durations[p] for p, _, _ in result.phases if p is not MotionPhase.HOME
        )
        assert result.elapsed_s == want


# --- failure modes ----------------------------------------------------------------


def test_unreachable_runs_no_phases():
    truth = arm_truth(1.2, 0.0)
    arm, clock, result = run_pick(truth, target_for(truth), t0=2.0)
    assert result.outcome is PickOutcome.UNREACHABLE
    assert result.phases == ()
    assert result.elapsed_s == 0.0
    assert clock.now() == 2.0  # clock untouched
    assert result.release_time is None


def test_depth_bias_misses_the_grasp():
    truth = arm_truth(0.5, 0.0)
    arm, clock, result = run_pick(truth, target_for(truth, dz=0.02))
    assert result.outcome is PickOutcome.MISSED_GRASP
    assert result.z_error == pytest.approx(0.02, abs=1e-12)
    assert result.elapsed_s == 12.0  # approach + failed grasp + return home
    assert [p for p, _, _ in result.phases] == [
        MotionPhase.HOME,
        MotionPhase.MOVE_ABOVE,
        MotionPhase.DESCEND,
        MotionPhase.GRASP,
        MotionPhase.RETURN_HOME,
    ]
    assert result.release_time is None


def test_xy_error_beyond_tolerance_misses():
    truth = arm_truth(0.5, 0.0)
    _, _, result = run_pick(truth, target_for(truth, dx=0.016))
    assert result.outcome is PickOutcome.MISSED_GRASP


def test_errors_at_exact_tolerance_still_succeed():
    # closed tolerance gates: <= passes
    truth = arm_truth(0.5, 0.0)
    _, _, at_z = run_pick(truth, target_for(truth, dz=-0.015))
    assert at_z.z_error == 0.015
    assert at_z.outcome is PickOutcome.SUCCESS
    _, _, under = run_pick(truth, target_for(truth, dx=0.01499))
    assert under.outcome is PickOutcome.SUCCESS
    _, _, over = run_pick(truth, target_for(truth, dx=0.01501))
    assert over.outcome is PickOutcome.MISSED_GRASP


def test_yaw_error_beyond_tolerance_misses():
    truth = arm_truth(0.5, 0.0, 0.2)
    _, _, result = run_pick(truth, target_for(truth, dyaw=math.radians(11.0)))
    assert result.outcome is PickOutcome.MISSED_GRASP
    assert result.yaw_error == pytest.approx(math.radians(11.0), abs=1e-12)


def test_wide_object_exceeds_gripper_opening():
    # quarter-turn yaw slip on a brick: passes a loose yaw gate but needs a
    # 0.20 m opening, twice what the gripper has
    truth = arm_truth(0.5, 0.0, 0.0)
    loose = ArmConfig(yaw_tolerance=1.6)
    _, _, result = run_pick(truth, target_for(truth, dyaw=math.pi / 2), config=loose)
    assert result.outcome is PickOutcome.MISSED_GRASP
    assert result.grasp_width == pytest.approx(0.20, abs=1e-12)


def test_boundary_pick_collides_without_adaptive_order():
    truth = arm_truth(0.87, 0.0)
    arm, clock, result = run_pick(truth, target_for(truth))
    assert result.outcome is PickOutcome.BOUNDARY_COLLISION
    assert result.elapsed_s == 4.0  # aborted during the lateral swing
    assert [p for p, _, _ in result.phases] == [MotionPhase.HOME, MotionPhase.MOVE_ABOVE]
    assert result.release_time is None


@pytest.mark.parametrize(
    "x, dz, outcome, end",
    [
        (1.2, 0.0, PickOutcome.UNREACHABLE, 2.5),  # no phase ran: the start
        (0.5, 0.02, PickOutcome.MISSED_GRASP, 14.5),
        (0.87, 0.0, PickOutcome.BOUNDARY_COLLISION, 6.5),
    ],
)
def test_end_time_is_the_clock_after_the_last_phase(x, dz, outcome, end):
    truth = arm_truth(x, 0.0)
    _, clock, result = run_pick(truth, target_for(truth, dz=dz), t0=2.5)
    assert result.outcome is outcome
    assert result.end_time == end == clock.now()
    assert result.end_time == result.start_time + result.elapsed_s


def test_boundary_pick_succeeds_with_adaptive_order():
    truth = arm_truth(0.87, 0.0)
    cfg = ArmConfig(adaptive_order=True)
    arm, clock, result = run_pick(truth, target_for(truth), config=cfg)
    assert result.outcome is PickOutcome.SUCCESS
    assert result.elapsed_s == 20.0
    names = [p for p, _, _ in result.phases]
    assert names.index(MotionPhase.DESCEND) < names.index(MotionPhase.MOVE_ABOVE)


def test_boundary_trigger_uses_margin_from_r_max():
    just_inside = arm_truth(0.90 - 0.05 - 1e-6, 0.0)
    _, _, ok = run_pick(just_inside, target_for(just_inside))
    assert ok.outcome is PickOutcome.SUCCESS
    at_margin = arm_truth(0.90 - 0.05, 0.0)
    _, _, hit = run_pick(at_margin, target_for(at_margin))
    assert hit.outcome is PickOutcome.BOUNDARY_COLLISION


def test_commanded_yaw_is_half_turn_invariant():
    # a yaw and its half turn are one jaw axis, and the arm folds them alike
    truth = arm_truth(0.5, 0.0, 0.4)
    for dyaw, outcome in (
        (0.0, PickOutcome.SUCCESS),
        (math.radians(11.0), PickOutcome.MISSED_GRASP),
        (math.radians(80.0), PickOutcome.MISSED_GRASP),
    ):
        center, yaw = target_for(truth, dyaw=dyaw)
        _, clock_a, a = run_pick(truth, (center, yaw))
        _, clock_b, b = run_pick(truth, (center, yaw + math.pi))
        assert b.outcome is a.outcome is outcome
        assert b.phases == a.phases and clock_b.now() == clock_a.now()
        assert b.yaw_error == pytest.approx(a.yaw_error, abs=1e-12)


def test_a_center_outside_the_arm_frame_is_refused():
    truth = arm_truth(0.5, 0.0)
    center, yaw = target_for(truth)
    camera_center = Point3(center.x, center.y, center.z, Frame.CAMERA)
    clock = FakeClock(3.0)
    with pytest.raises(FrameMismatch):
        Arm().execute_pick(camera_center, yaw, truth, clock, FLOOR_Z)
    assert clock.now() == 3.0  # refused before any motion


def test_tolerance_monotonicity():
    # success under a tight config implies success under any looser one
    rng = np.random.default_rng(51)
    tight = ArmConfig(position_tolerance=0.010, yaw_tolerance=math.radians(6.0))
    loose = ArmConfig(position_tolerance=0.018, yaw_tolerance=math.radians(14.0))
    for _ in range(40):
        truth = arm_truth(rng.uniform(0.35, 0.8), rng.uniform(-0.1, 0.1))
        target = target_for(
            truth,
            dx=rng.uniform(-0.02, 0.02),
            dz=rng.uniform(-0.02, 0.02),
            dyaw=rng.uniform(-0.3, 0.3),
        )
        _, _, res_tight = run_pick(truth, target, config=tight)
        _, _, res_loose = run_pick(truth, target, config=loose)
        if res_tight.outcome is PickOutcome.SUCCESS:
            assert res_loose.outcome is PickOutcome.SUCCESS


def test_adaptive_order_success_set_is_a_superset():
    cfg = ArmConfig()
    adaptive = ArmConfig(adaptive_order=True)
    for radius in np.linspace(0.26, 0.89, 22):
        truth = arm_truth(float(radius), 0.0)
        target = target_for(truth)
        _, _, default_res = run_pick(truth, target, config=cfg)
        _, _, adaptive_res = run_pick(truth, target, config=adaptive)
        if default_res.outcome is PickOutcome.SUCCESS:
            assert adaptive_res.outcome is PickOutcome.SUCCESS


# --- release and removal ---------------------------------------------------------


def test_place_moves_object_to_ledger():
    # the simulation removes a picked object at its release time
    truth = arm_truth(0.5, 0.0)
    _, _, result = run_pick(truth, target_for(truth), t0=40.0)
    assert result.outcome is PickOutcome.SUCCESS
    assert result.release_time == 57.0
    assert Scene(objects=(truth,)).without("b").objects == ()


def test_failed_pick_leaves_world_inputs_alone():
    truth = arm_truth(0.5, 0.0)
    _, _, result = run_pick(truth, target_for(truth, dz=0.03))
    assert result.outcome is PickOutcome.MISSED_GRASP
    # no release, so the simulation removes nothing
    assert result.release_time is None
    assert MotionPhase.RELEASE not in [p for p, _, _ in result.phases]


# --- configuration guards -------------------------------------------------------------


def test_config_rejects_nonpositive_duration():
    bad = dict(ArmConfig().phase_durations)
    bad[MotionPhase.GRASP] = 0.0
    with pytest.raises(ValueError):
        ArmConfig(phase_durations=bad)


def test_config_rejects_missing_phase():
    bad = dict(ArmConfig().phase_durations)
    del bad[MotionPhase.LIFT]
    with pytest.raises(ValueError):
        ArmConfig(phase_durations=bad)


def test_config_rejects_home_duration_entry():
    bad = dict(ArmConfig().phase_durations)
    bad[MotionPhase.HOME] = 1.0
    with pytest.raises(ValueError):
        ArmConfig(phase_durations=bad)


def test_config_rejects_unreachable_drop_pose():
    with pytest.raises(ValueError):
        ArmConfig(drop_pose=Point3(2.0, 0.0, 0.0, Frame.ARM))


def test_config_rejects_oversized_boundary_margin():
    with pytest.raises(ValueError):
        ArmConfig(boundary_margin=0.9, envelope=ReachEnvelope())


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name",
    ["position_tolerance", "yaw_tolerance", "gripper_max_opening", "boundary_margin", "grasp"],
)
def test_config_rejects_non_finite_values(name, value):
    if name == "grasp":
        durations = dict(ArmConfig().phase_durations)
        durations[MotionPhase.GRASP] = value
        kwargs = {"phase_durations": durations}
    else:
        kwargs = {name: value}
    with pytest.raises(ValueError):
        ArmConfig(**kwargs)


def test_default_phase_budget_is_twenty_seconds():
    assert sum(ArmConfig().phase_durations.values()) == 20.0


def test_custom_durations_change_elapsed():
    quick = {p: d / 2.0 for p, d in ArmConfig().phase_durations.items()}
    truth = arm_truth(0.5, 0.0)
    _, _, result = run_pick(truth, target_for(truth), config=ArmConfig(phase_durations=quick))
    assert result.outcome is PickOutcome.SUCCESS
    assert result.elapsed_s == 10.0
