"""End-to-end pipeline: message bus, state machine, failure attribution,
and the built-in ten-object course."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import json
import math
import os
import pickle
import select
import signal
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from clearbot import camera, cli, orchestrator, segmentation
from clearbot.arm import (
    DEFAULT_ARM_CONFIG,
    DEFAULT_PHASE_DURATIONS,
    ArmConfig,
    MotionPhase,
    PickOutcome,
    PickResult,
)
from clearbot.camera import (
    MAX_FIELD_OF_VIEW_DEG,
    DepthImage,
    DepthNoiseModel,
    InstanceImage,
    Intrinsics,
    LabelImage,
    ObjectPatch,
    apply_noise,
    render_full,
    window_clusters,
)
from clearbot.geometry import Frame, Point3, ReachEnvelope, connected_components
from clearbot.log import (
    SEG_LATENCY,
    ArmCommandPayload,
    ArmStatusPayload,
    AttemptRecord,
    ControlStopPayload,
    FrameData,
    GraspTargetsPayload,
    MaskData,
    MessageBus,
    RunReport,
    SequenceRegression,
    TargetRecord,
    Topic,
    _array_digest,
    _floor_prefix,
    _mask_digest,
    frame_digest,
    messages_to_ndjson,
    report_to_json,
)
from clearbot.orchestrator import (
    DISPATCH_LATENCY,
    GEOMETRY_LATENCY,
    AttemptDiagnostics,
    FailureModule,
    FrameImages,
    PipelineState,
    SimClock,
    Simulation,
    UnattributableFailure,
    attribute_failure,
    build_benchmark_config,
    config_digest,
    frame_images,
    match_component,
    replay_grasp_targets,
    run_scenario,
    validate_config,
)
from clearbot.scene import (
    DEFAULT_BRICK,
    DEFAULT_PIPE,
    ArmMount,
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
)
from clearbot.schema import (
    DepthBiasInjection,
    InvalidConfig,
    ScenarioConfig,
    parse_scenario,
    scenario_to_dict,
)
from clearbot.segmentation import IOU_DILATION, CutBand, Erode, Holes, Relabel, mask_iou

from helpers import (
    DATA,
    PERFBENCH,
    Recorder,
    assert_image_is,
    dense_compose,
    dense_view,
    explain_recorded_outputs,
    full_frame_segment,
    libm_differences,
    openblas_core,
    oracle_line,
    payload_to_dict,
    perfbench_module,
    report_to_dict,
    run_recorded,
    same_bits,
)

BRICK = BrickDims(0.20, 0.095, 0.057)


def brick(oid: str, x: float, y: float, yaw: float = 0.0) -> ObjectSpec:
    return ObjectSpec(oid, ObjectClass.BRICK, BRICK, x, y, yaw)


def tiny_scenario(objects, **overrides) -> ScenarioConfig:
    kwargs = dict(
        name="tiny",
        objects=tuple(objects),
        ugv_end=(2.5, 0.0),
        speed=0.5,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


# --- clock and bus ---------------------------------------------------------------


def test_clock_only_runs_forward():
    clock = SimClock(3.0)
    clock.advance(0.0)
    clock.advance(1.5)
    assert clock.now() == 4.5
    with pytest.raises(ValueError):
        clock.advance(-1e-9)


def _stop(frame_index: int) -> ControlStopPayload:
    # a payload the log can serialize, told apart by its frame index
    target = TargetRecord("brick", (0.5, 0.0, 0.05), 0.0, 0, (0, 0), 1, True, False)
    return ControlStopPayload(frame_index=frame_index, target=target, trigger_id="b")


def test_bus_orders_messages_and_replays_history():
    bus = MessageBus()
    recorder = Recorder(bus)
    e0 = bus.publish(Topic.CONTROL_STOP, 1.0, _stop(0))
    e1 = bus.publish(Topic.CONTROL_STOP, 1.0, _stop(1))  # equal times are fine
    e2 = bus.publish(Topic.CONTROL_STOP, 2.0, _stop(2))
    assert [e.seq for e in (e0, e1, e2)] == [0, 1, 2]
    bus.publish(Topic.CONTROL_STOP, 3.0, _stop(3))
    history = recorder.history(Topic.CONTROL_STOP)
    assert [e.payload.frame_index for e in history] == [0, 1, 2, 3]


def test_bus_rejects_time_regression_per_topic():
    bus = MessageBus()
    bus.publish(Topic.CAMERA_FRAMES, 5.0, _stop(0))
    text = messages_to_ndjson(bus)
    with pytest.raises(SequenceRegression):
        bus.publish(Topic.CAMERA_FRAMES, 4.9, _stop(1))
    # a rejected message writes no line, hashes nothing and takes no
    # sequence number
    assert messages_to_ndjson(bus) == text
    assert bus.digest() == hashlib.sha256(text.encode()).hexdigest()
    assert bus.publish(Topic.CAMERA_FRAMES, 5.0, _stop(2)).seq == 1
    # an earlier time on a different topic is allowed
    bus.publish(Topic.ARM_STATUS, 0.1, _stop(3))


@pytest.mark.parametrize("nan", [math.nan, np.float64("nan")])
def test_bus_refuses_a_nan_time(nan):
    bus = MessageBus()
    recorder = Recorder(bus)
    # a NaN is refused on a fresh topic too, whose last time is -inf
    with pytest.raises(SequenceRegression):
        bus.publish(Topic.ARM_STATUS, nan, _stop(0))
    bus.publish(Topic.CONTROL_STOP, 1.0, _stop(1))
    text = messages_to_ndjson(bus)
    with pytest.raises(SequenceRegression):
        bus.publish(Topic.CONTROL_STOP, nan, _stop(2))
    # a refused NaN writes no line, hashes nothing, takes no sequence
    # number and reaches no subscriber
    assert messages_to_ndjson(bus) == text
    assert bus.digest() == hashlib.sha256(text.encode()).hexdigest()
    assert [e.payload.frame_index for e in recorder.log()] == [1]
    # nor does it clear the topic's last time: a regression is still refused
    with pytest.raises(SequenceRegression):
        bus.publish(Topic.CONTROL_STOP, 0.5, _stop(3))
    assert bus.publish(Topic.CONTROL_STOP, 1.0, _stop(4)).seq == 1
    assert bus.publish(Topic.ARM_STATUS, 0.5, _stop(5)).seq == 0


def test_bus_global_log_preserves_publish_order():
    bus = MessageBus()
    recorder = Recorder(bus)
    bus.publish(Topic.CAMERA_FRAMES, 0.0, _stop(0))
    bus.publish(Topic.SEGMENTATION_MASKS, 0.5, _stop(1))
    bus.publish(Topic.CAMERA_FRAMES, 1.0, _stop(2))
    assert [e.payload.frame_index for e in recorder.log()] == [0, 1, 2]
    lines = [json.loads(line) for line in messages_to_ndjson(bus).splitlines()]
    assert [(d["topic"], d["seq"]) for d in lines] == [
        ("CameraFrames", 0),
        ("SegmentationMasks", 0),
        ("CameraFrames", 1),
    ]


def test_bus_publishes_no_payload_it_cannot_log():
    bus = MessageBus()
    recorder = Recorder(bus)
    with pytest.raises(TypeError, match="str"):
        bus.publish(Topic.CONTROL_STOP, 0.0, "a")
    # the bus is as it was: no line, no subscriber call, no sequence number
    assert messages_to_ndjson(bus) == "" and recorder.log() == ()
    assert bus.digest() == hashlib.sha256(b"").hexdigest()
    assert bus.publish(Topic.CONTROL_STOP, 0.0, _stop(0)).seq == 0


# ids with the characters the JSON writer escapes: quotes, backslashes,
# control characters, non-ASCII, lone surrogates and astral characters
_IDS = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f~\x85\u00e9\u2028\ud800\U0001f600'), st.characters()
    ),
    max_size=5,
)
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7)


def _floats(nan: bool) -> st.SearchStrategy:
    """Floats and numpy float64s (whose repr names the type) of every
    kind, NaN among them when ``nan``."""
    specials = (math.nan, math.inf, -math.inf) if nan else (math.inf, -math.inf)
    return st.tuples(
        st.one_of(
            st.sampled_from(_EDGE_FLOATS + specials),
            st.floats(allow_nan=nan, allow_infinity=True),
        ),
        st.booleans(),
    ).map(lambda fb: np.float64(fb[0]) if fb[1] else fb[0])


_FLOATS = _floats(nan=True)
# an envelope's time is never NaN: the bus refuses it
# (test_bus_refuses_a_nan_time)
_TIMES = _floats(nan=False)
_INTS = st.one_of(
    st.sampled_from((0, -1, 2**31, 2**63 - 1, -(2**63))),
    st.integers(-(2**63), 2**63 - 1),
)
_TARGETS = st.builds(
    TargetRecord,
    cls=_IDS,
    center=st.tuples(_FLOATS, _FLOATS, _FLOATS),
    yaw=_FLOATS,
    component_index=_INTS,
    seed_pixel=st.tuples(_INTS, _INTS),
    area=_INTS,
    in_reach=st.booleans(),
    border=st.booleans(),
)
_PATCHES = st.builds(
    lambda oid, r0, obj_index: ObjectPatch(r0, r0 + 1, 0, 1, np.zeros((1, 1)), obj_index, 1, oid),
    _IDS,
    st.integers(0, 9),
    st.integers(0, 9),
)
_PAYLOADS = st.one_of(
    st.builds(
        FrameData,
        frame_index=_INTS,
        t_capture=_FLOATS,
        ugv=st.builds(Pose2D, _FLOATS, _FLOATS, _FLOATS),
        standstill=st.booleans(),
        shape=st.tuples(_INTS, _INTS),
        floor_depth=_FLOATS,
        patches=st.lists(_PATCHES, max_size=4).map(tuple),
        class_pixels=st.tuples(_INTS, _INTS),
        # hashed into the frame's digest, so any text the UTF-8 codec takes
        depth_digest=st.none() | st.text(st.characters(codec="utf-8"), max_size=5),
    ),
    st.builds(
        MaskData,
        frame_index=_INTS,
        t_capture=_FLOATS,
        class_pixels=st.tuples(_INTS, _INTS),
        digest=_IDS,
    ),
    st.builds(
        GraspTargetsPayload,
        frame_index=_INTS,
        targets=st.lists(_TARGETS, max_size=3).map(tuple),
    ),
    st.builds(ControlStopPayload, frame_index=_INTS, target=_TARGETS, trigger_id=_IDS),
    st.builds(ArmCommandPayload, frame_index=_INTS, target=_TARGETS, matched_id=_IDS),
    st.builds(
        ArmStatusPayload,
        object_id=_IDS,
        result=st.builds(
            PickResult,
            outcome=st.sampled_from(PickOutcome),
            elapsed_s=_FLOATS,
            phases=st.lists(
                st.tuples(st.sampled_from(MotionPhase), _FLOATS, _FLOATS), max_size=3
            ).map(tuple),
            xy_error=_FLOATS,
            z_error=_FLOATS,
            yaw_error=_FLOATS,
            grasp_width=_FLOATS,
            start_time=_FLOATS,
        ),
    ),
)


def _frame_in_view(*ids: str) -> FrameData:
    patches = tuple(
        ObjectPatch(0, 1, 0, 1, np.zeros((1, 1)), i, 1, oid) for i, oid in enumerate(ids)
    )
    return FrameData(0, 0.0, Pose2D(0.0, 0.0), False, (1, 1), 1.0, patches)


@settings(deadline=None, max_examples=300)
# the ids sort one way as text and the other way once escaped
@example(payload=_frame_in_view("\u00e9", "~"), topic=Topic.CAMERA_FRAMES, t=np.float64(0.5))
@example(payload=_stop(0), topic=Topic.CONTROL_STOP, t=-0.0)
@given(payload=_PAYLOADS, topic=st.sampled_from(Topic), t=_TIMES)
def test_each_payload_writes_the_line_of_the_dict_oracle(payload, topic, t):
    # each payload type writes its own line; it must be the line the bus
    # once wrote through the payload's dict and the key-sorting encoder
    bus = MessageBus()
    recorder = Recorder(bus)
    bus.publish(topic, t, payload)
    bus.publish(topic, t, payload)
    text = messages_to_ndjson(bus)
    assert text == "".join(oracle_line(env) for env in recorder.log())
    assert bus.digest() == hashlib.sha256(text.encode()).hexdigest()


_REPORTS = st.builds(
    RunReport,
    name=_IDS,
    seed=st.one_of(st.sampled_from((0, 2**63 - 1)), st.integers(0, 2**63 - 1)),
    config_digest=_IDS,
    log_digest=_IDS,
    records=st.lists(
        st.builds(
            AttemptRecord,
            object_id=_IDS,
            cls=_IDS,
            outcome=st.one_of(st.sampled_from([o.value for o in PickOutcome]), _IDS),
            cause=_IDS,
            attribution=st.lists(_IDS, max_size=4).map(tuple),
            elapsed_s=_FLOATS,
            center_error_m=_FLOATS,
            yaw_error_rad=_FLOATS,
            mask_iou=_FLOATS,
        ),
        max_size=5,
    ).map(tuple),
)


@settings(deadline=None, max_examples=300)
@example(report=RunReport("empty", 0, "", "", ()))
@given(report=_REPORTS)
def test_report_writes_the_text_of_the_dict_oracle(report):
    # the report writes its own text; it must be the text the key-sorting,
    # two-space-indenting encoder writes from the report's dict
    oracle = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    assert report_to_json(report) == oracle


def test_ndjson_of_an_empty_bus_is_empty():
    # no messages, no lines: the text before the first publish is a prefix
    # of every later one
    assert messages_to_ndjson(MessageBus()) == ""


def test_ndjson_of_a_growing_bus_equals_a_fresh_serialization():
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.05, 0.3)]))
    recorder = Recorder(sim.bus)
    sim.run()
    envelopes = recorder.log()
    fresh = MessageBus()
    for env in envelopes:
        fresh.publish(env.topic, env.t, env.payload)
    growing = MessageBus()
    half = len(envelopes) // 2
    for env in envelopes[:half]:
        growing.publish(env.topic, env.t, env.payload)
    first = messages_to_ndjson(growing)
    for env in envelopes[half:]:
        growing.publish(env.topic, env.t, env.payload)
    text = messages_to_ndjson(growing)
    assert text.startswith(first) and text != first
    assert text == messages_to_ndjson(fresh) == messages_to_ndjson(sim.bus)


# --- config validation ------------------------------------------------------------


def test_validate_config_accepts_empty_scene():
    assert validate_config(tiny_scenario([])) == []


@pytest.mark.parametrize(
    "overrides,path",
    [
        (dict(speed=0.0), "ugv.speed"),
        (dict(stop_latency=-0.1), "ugv.stop_latency"),
        (dict(frame_period=0.0), "frame_period"),
        (dict(ugv_end=(0.0, 0.0)), "ugv.end"),
        (dict(injections=(DepthBiasInjection("ghost", 0.02),)), "injections.depth_bias[0].id"),
        (dict(seg_ops=(CutBand("ghost", 4),)), "corruptions[0].target_id"),
        (dict(frame_period=1e-9), "frame_period"),
        (dict(speed=math.nan), "ugv.speed"),
        (dict(speed=math.inf), "ugv.speed"),
        (dict(frame_period=math.nan), "frame_period"),
        (dict(stop_latency=math.nan), "ugv.stop_latency"),
        (dict(ugv_start=(math.nan, 0.0)), "ugv.start"),
        (dict(ugv_end=(math.inf, 0.0)), "ugv.end"),
        # a config cannot hold these: the object constructors name the field
        (lambda: brick("b", 1.0, 0.0, yaw=math.nan), "yaw"),
        (lambda: brick("b", math.nan, 0.0), "x"),
        (lambda: brick("b", 1.0, math.inf), "y"),
        (lambda: BrickDims(math.nan, 0.095, 0.057), "length"),
        (lambda: PipeDims(math.nan, 0.40), "radius"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**63), "seed"),
        (lambda: Holes(0.1, seed=-5), "seed"),
    ],
)
def test_validate_config_reports_field_paths(overrides, path):
    if callable(overrides):
        with pytest.raises(ValueError, match=rf"\b{path} must be"):
            overrides()
        return
    errors = validate_config(tiny_scenario([brick("b", 1.0, 0.0)], **overrides))
    assert path in [p for p, _ in errors]


def test_simulation_rejects_invalid_config():
    with pytest.raises(InvalidConfig) as exc_info:
        Simulation(tiny_scenario([], speed=-1.0))
    assert any(p == "ugv.speed" for p, _ in exc_info.value.errors)


@pytest.mark.parametrize(
    "overrides,path",
    [
        (dict(camera_mount=CameraMount(1.05, 0.0, math.nan)), "camera.height_m"),
        (dict(camera_mount=CameraMount(1.05, 0.0, math.inf)), "camera.height_m"),
        (dict(camera_mount=CameraMount(math.nan, 0.0, 1.2)), "camera.mount_xy"),
        (dict(camera_mount=CameraMount(1.05, -math.inf, 1.2)), "camera.mount_xy"),
        (dict(arm_mount=ArmMount(0.4, 0.0, math.nan)), "arm.mount"),
        (dict(arm_mount=ArmMount(math.inf, 0.0, 0.15)), "arm.mount"),
        (dict(arm_mount=ArmMount(0.4, 0.0, 0.15, yaw=math.nan)), "arm.mount"),
    ],
)
def test_simulation_rejects_non_finite_mounts(overrides, path):
    # a library-built config is not read through the scenario parser, which
    # refuses non-finite numbers itself
    with pytest.raises(InvalidConfig) as exc_info:
        run_scenario(tiny_scenario([brick("b", 1.0, 0.0)], **overrides))
    assert path in [p for p, _ in exc_info.value.errors]


# --- failure attribution ----------------------------------------------------------


def diag(outcome=PickOutcome.MISSED_GRASP, iou=1.0, depth_err=0.0,
         center_err=0.0, yaw_err=0.0) -> AttemptDiagnostics:
    return AttemptDiagnostics(
        outcome=outcome,
        iou=iou,
        median_depth_error=depth_err,
        center_error=center_err,
        yaw_error=yaw_err,
    )


def test_attribution_blames_camera_for_depth_error_under_good_mask():
    blamed = attribute_failure(diag(iou=0.95, depth_err=0.02))
    assert blamed == frozenset({FailureModule.CAMERA})


def test_attribution_blames_segmentation_below_iou_threshold():
    blamed = attribute_failure(diag(iou=0.6, center_err=0.004))
    assert blamed == frozenset({FailureModule.CONTEXT_AWARENESS})


def test_attribution_adds_geometry_when_bad_mask_moves_center():
    blamed = attribute_failure(diag(iou=0.6, center_err=0.05))
    assert blamed == frozenset(
        {FailureModule.CONTEXT_AWARENESS, FailureModule.GEOMETRY_DESCRIPTOR}
    )


def test_attribution_blames_arm_for_boundary_hit_with_clean_inputs():
    blamed = attribute_failure(
        diag(outcome=PickOutcome.BOUNDARY_COLLISION, iou=0.99, center_err=0.002)
    )
    assert blamed == frozenset({FailureModule.ROBOTIC_ARM})


def test_attribution_iou_threshold_is_inclusive():
    # iou exactly at the threshold counts as a good mask
    blamed = attribute_failure(diag(iou=0.8, depth_err=0.02))
    assert blamed == frozenset({FailureModule.CAMERA})


def test_attribution_refuses_when_everything_is_in_tolerance():
    with pytest.raises(UnattributableFailure):
        attribute_failure(diag(iou=0.95, depth_err=0.001, center_err=0.001))


def test_attribution_success_blames_nobody():
    assert attribute_failure(diag(outcome=PickOutcome.SUCCESS)) == frozenset()


# --- small scenario runs -----------------------------------------------------------


def test_empty_scene_drives_to_done():
    report, sim, recorder = run_recorded(tiny_scenario([]))
    assert sim.state is PipelineState.DONE
    assert report.attempted == 0 and report.succeeded == 0
    assert recorder.history(Topic.CONTROL_STOP) == ()
    assert recorder.history(Topic.ARM_COMMANDS) == ()
    assert len(recorder.history(Topic.CAMERA_FRAMES)) > 0


def test_single_brick_flow_stops_once_and_picks():
    report, sim, recorder = run_recorded(tiny_scenario([brick("b", 1.2, 0.05, 0.3)]))
    assert report.attempted == 1 and report.succeeded == 1
    (rec,) = report.records
    assert rec.object_id == "b" and rec.outcome == "Success"
    assert rec.cause == "" and rec.attribution == ()
    assert rec.elapsed_s == 20.0
    stops = recorder.history(Topic.CONTROL_STOP)
    commands = recorder.history(Topic.ARM_COMMANDS)
    assert len(stops) == 1 and len(commands) == 1
    assert commands[0].payload.matched_id == "b"
    # the stop precedes the arm command both in publish order and in time
    log = recorder.log()
    assert log.index(stops[0]) < log.index(commands[0])
    assert stops[0].t < commands[0].t
    assert sim.scene.objects == ()
    (status,) = recorder.history(Topic.ARM_STATUS)
    assert recorder.picked() == ["b"]
    assert status.payload.result.release_time == pytest.approx(commands[0].t + 17.0)


def test_vehicle_holds_still_through_the_pick():
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.0)]))
    recorder = Recorder(sim.bus)
    while sim.state is not PipelineState.PICKING:
        sim.step()
    parked = sim.distance
    sim.step()  # executes the pick, then resumes the drive
    assert sim.state is PipelineState.DRIVING
    assert sim.distance == parked
    # standstill frames record a stationary vehicle at the parked pose
    standstill = [
        e.payload for e in recorder.history(Topic.CAMERA_FRAMES) if e.payload.standstill
    ]
    assert len(standstill) == 1
    assert standstill[0].ugv.x == pytest.approx(parked)


def test_nearer_of_two_visible_objects_goes_first():
    # both bricks sit inside the reach annulus at the same standstill;
    # the closer one to the arm base must be attempted first
    cfg = tiny_scenario([brick("far", 2.05, -0.28), brick("near", 2.0, 0.1)],
                        ugv_end=(3.5, 0.0))
    report, _ = run_scenario(cfg)
    assert [r.object_id for r in report.records] == ["near", "far"]
    assert report.succeeded == 2


def _step_bound(cfg: ScenarioConfig) -> int:
    """The steps a run may take: one per frame of the course, one to end the
    drive, one for rounding, and two per object, for a stop's driving step
    and its picking step."""
    return math.ceil(cfg.course_frames()) + 2 + 2 * len(cfg.objects)


def test_a_run_that_makes_no_progress_raises_at_the_step_bound(monkeypatch):
    # driving steps that do nothing never reach Done: the run must raise
    # after exactly the bound's number of steps, not hang
    cfg =tiny_scenario([brick("a", 1.2, 0.0), brick("b", 2.0, 0.0)])
    sim = Simulation(cfg)
    monkeypatch.setattr(sim, "_step_driving", lambda: None)
    step, steps = sim.step, []

    def counted_step():
        steps.append(sim.state)
        return step()

    sim.step = counted_step
    with pytest.raises(RuntimeError, match="simulation did not terminate"):
        sim.run()
    assert steps == [PipelineState.DRIVING] * _step_bound(cfg)


# --- the ten-object course ---------------------------------------------------------


FROZEN_TABLE = {
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


def test_course_reproduces_the_frozen_outcome_table(benchmark_run):
    report, _, _, _ = benchmark_run
    assert report.attempted == 10 and report.succeeded == 7
    got = {r.object_id: (r.outcome, r.attribution) for r in report.records}
    assert got == FROZEN_TABLE


def test_course_failures_carry_cause_text(benchmark_run):
    report, _, _, _ = benchmark_run
    for rec in report.records:
        if rec.outcome == "Success":
            assert rec.cause == ""
        else:
            assert rec.cause != ""


def test_course_elapsed_times_come_from_the_phase_table(benchmark_run):
    report, _, _, _ = benchmark_run
    by_outcome = {
        "Success": 20.0,
        "MissedGrasp": 12.0,
        "BoundaryCollision": 4.0,
    }
    for rec in report.records:
        assert rec.elapsed_s == by_outcome[rec.outcome]


def test_adaptive_order_rescues_the_boundary_pipe(benchmark_run, adaptive_run):
    default_report, _, _, _ = benchmark_run
    adaptive_report, _ = adaptive_run
    assert adaptive_report.succeeded == 8
    got = {r.object_id: (r.outcome, r.attribution) for r in adaptive_report.records}
    assert got["p3"] == ("Success", ())
    default_wins = {r.object_id for r in default_report.records if r.outcome == "Success"}
    adaptive_wins = {r.object_id for r in adaptive_report.records if r.outcome == "Success"}
    assert default_wins <= adaptive_wins


def test_objects_are_conserved_at_every_step():
    sim = Simulation(build_benchmark_config())
    recorder = Recorder(sim.bus)
    total = len(sim.scene.objects)
    for _ in range(100000):
        state = sim.step()
        picked = recorder.picked()
        assert len(sim.scene.objects) + len(picked) == total
        # each object is picked once, and a picked object is gone
        assert len(set(picked)) == len(picked)
        assert set(picked).isdisjoint(o.id for o in sim.scene.objects)
        if state is PipelineState.DONE:
            break
    assert len(recorder.picked()) == 7


def test_command_latency_is_fixed_and_subsecond(benchmark_run):
    _, _, recorder, _ = benchmark_run
    frames = {e.payload.frame_index: e.payload for e in recorder.history(Topic.CAMERA_FRAMES)}
    commands = recorder.history(Topic.ARM_COMMANDS)
    assert len(commands) == 10
    budget = SEG_LATENCY + GEOMETRY_LATENCY + DISPATCH_LATENCY
    for env in commands:
        fd = frames[env.payload.frame_index]
        assert fd.standstill
        assert env.t - fd.t_capture == pytest.approx(budget, abs=1e-12)
        assert env.t - fd.t_capture < 1.0


def test_depth_bias_touches_only_its_own_standstill_frame(benchmark_run):
    _, _, recorder, _ = benchmark_run
    frames = [e.payload for e in recorder.history(Topic.CAMERA_FRAMES)]
    biased = [fd for fd in frames if fd.bias is not None]
    assert len(biased) == 1
    assert biased[0].standstill and biased[0].bias == 0.02
    # the course has no depth noise, so only the biased frame's depth is altered
    assert [fd for fd in frames if fd.depth_digest is not None] == biased
    # the biased capture is the one that feeds the b2 attempt
    commands = {e.payload.frame_index: e.payload for e in recorder.history(Topic.ARM_COMMANDS)}
    assert commands[biased[0].frame_index].matched_id == "b2"


def test_message_times_never_regress_per_topic(benchmark_run):
    _, _, recorder, _ = benchmark_run
    for topic in Topic:
        times = [e.t for e in recorder.history(topic)]
        assert times == sorted(times)
        seqs = [e.seq for e in recorder.history(topic)]
        assert seqs == list(range(len(seqs)))


# --- determinism and replay ----------------------------------------------------------


def test_same_seed_gives_byte_identical_reports(benchmark_run, benchmark_rerun):
    report_a, sim_a, _, _ = benchmark_run
    report_b, sim_b = benchmark_rerun
    assert report_to_json(report_a) == report_to_json(report_b)
    assert messages_to_ndjson(sim_a.bus) == messages_to_ndjson(sim_b.bus)
    assert report_a.log_digest == report_b.log_digest


def test_grasp_targets_replay_exactly_from_the_log(benchmark_run):
    _, sim, recorder, _ = benchmark_run
    replayed = replay_grasp_targets(recorder.history(Topic.CAMERA_FRAMES), sim.cfg)
    published = [e.payload for e in recorder.history(Topic.GRASP_TARGETS)]
    assert [payload for _, payload in replayed] == published
    assert len(published) > 0
    logged = recorder.history(Topic.SEGMENTATION_MASKS)
    assert len(logged) == len(replayed)
    for (mask, _), env in zip(replayed, logged):
        assert _array_digest(mask) == env.payload.digest


# --- one dense view per frame ------------------------------------------------------


@st.composite
def captures(draw):
    """A valid scenario with objects under the camera, and the object (or
    None) whose depth-bias injection the capture applies."""
    objects = []
    for i in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            width = draw(floats(0.02, 0.15))
            cls = ObjectClass.BRICK
            dims = BrickDims(draw(floats(width, 0.3)), width, draw(floats(0.01, 0.2)))
        else:
            cls = ObjectClass.PIPE
            dims = PipeDims(draw(floats(0.005, 0.05)), draw(floats(0.05, 0.3)))
        x, y = 0.4 + 0.4 * i + draw(floats(-0.1, 0.1)), draw(floats(-0.5, 0.5))
        objects.append(ObjectSpec(f"o{i}", cls, dims, x, y, draw(floats(-3.2, 3.2))))
    width, height = draw(st.integers(8, 96)), draw(st.integers(8, 64))
    focal = draw(floats(10.0, 120.0))
    intrinsics = Intrinsics(focal, focal, width / 2, height / 2, width, height)
    noise = draw(
        st.sampled_from(
            [
                DepthNoiseModel(),
                DepthNoiseModel(sigma=0.005, dropout_prob=0.1),
                DepthNoiseModel(sigma=0.005),
                DepthNoiseModel(bias=0.01),
            ]
        )
    )
    cfg = ScenarioConfig(
        name="capture",
        objects=tuple(objects),
        intrinsics=intrinsics,
        ugv_start=(0.0, draw(floats(-0.2, 0.2))),
        noise=noise,
        injections=tuple(DepthBiasInjection(o.id, 0.02) for o in objects[:1]),
        seed=draw(st.integers(0, 2**32)),
    )
    assume(validate_config(cfg) == [])
    inject_for = draw(st.sampled_from([None] + [inj.object_id for inj in cfg.injections]))
    return cfg, inject_for


@settings(deadline=None, max_examples=60)
@given(capture=captures())
def test_frame_images_recompose_bit_for_bit(capture):
    # the view the log and replay rebuild from patches is the view the
    # simulation perceived at capture time
    cfg, inject_for = capture
    sim = Simulation(cfg)
    fd, captured = sim._capture(standstill=False, inject_for=inject_for)
    rr = render_full(sim.scene, cfg.intrinsics)
    labels, depth, index = dense_compose(fd.shape, rr.floor_depth, rr.patches)
    view = frame_images(fd, cfg)
    for images in (view, captured):
        assert_image_is(images.labels, labels)
        assert_image_is(images.clean_depth, depth)
        assert_image_is(images.instances, index)
        assert images.instances.windows == {
            cfg.objects[p.obj_index].id: (p.obj_index, (p.r0, p.r1, p.c0, p.c1))
            for p in rr.patches
        }
    assert same_bits(view.depth.dense(), captured.depth.dense())
    # what the log keeps of the frame is what the rebuilt view gives
    assert fd.class_pixels == (int((labels == 1).sum()), int((labels == 2).sum()))
    altered = not cfg.noise.is_identity or inject_for is not None
    assert (view.depth is not view.clean_depth) == altered
    want = _array_digest(view.depth.dense()) if altered else None
    assert fd.depth_digest == want


@settings(deadline=None, max_examples=60)
@given(capture=captures(), data=st.data())
def test_depth_bias_injection_is_apply_noise_with_that_bias(capture, data):
    # the injection is apply_noise with a bias-only model: it adds the bias
    # to each valid pixel of the perceived depth and keeps every invalid
    # one, which an elementwise reference gives; biases that cancel a
    # pixel's depth exactly are drawn too
    cfg, _ = capture
    assume(cfg.injections)
    oid = cfg.injections[0].object_id
    _, plain = Simulation(cfg)._capture(standstill=True, inject_for=None)
    depth = plain.depth.dense()
    cancelling = -depth[(depth > 0.0) & (depth < cfg.camera_mount.height)]
    biases = floats(-1.0, 1.0)
    if cancelling.size:
        biases |= st.sampled_from(sorted(set(cancelling.tolist())))
    bias = data.draw(biases)
    sim = Simulation(dataclasses.replace(cfg, injections=(DepthBiasInjection(oid, bias),)))
    _, injected = sim._capture(standstill=True, inject_for=oid)
    assert same_bits(injected.depth.dense(), np.where(depth > 0.0, depth + bias, depth))


NOISY = DepthNoiseModel(sigma=0.002, dropout_prob=0.01)


def test_step_loop_composes_each_frame_once(monkeypatch):
    calls = {"compose_patches": 0, "apply_noise": 0}
    for name in calls:
        real = getattr(orchestrator, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(orchestrator, name, counting)
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.05, 0.3)], noise=NOISY))
    recorder = Recorder(sim.bus)
    while sim.state is not PipelineState.DONE:
        sim.step()
    frames = len(recorder.history(Topic.CAMERA_FRAMES))
    # one view per capture, and its noise drawn once; each frame was
    # serialized when it was published, from the facts taken at capture
    assert calls == {"compose_patches": frames, "apply_noise": frames}
    report = sim.run()  # already done: hashes the log written so far
    assert report.succeeded == 1
    # reading the log builds no image
    assert calls == {"compose_patches": frames, "apply_noise": frames}
    messages_to_ndjson(sim.bus)
    assert calls == {"compose_patches": frames, "apply_noise": frames}


def _lane_of(objects, **overrides) -> ScenarioConfig:
    return tiny_scenario(
        objects,
        intrinsics=Intrinsics(fx=64.0, fy=64.0, cx=64.0, cy=32.0, width=128, height=64),
        **overrides,
    )


def test_a_frame_is_the_same_size_however_many_objects_are_out_of_view():
    # the out-of-view objects come after the in-view ones, so every patch
    # keeps its object index
    near = [brick("b", 1.2, 0.05, 0.3), brick("c", 1.0, -0.1, 1.0)]
    far = [brick(f"far{i}", 40.0 + 0.5 * i, 0.0) for i in range(1000)]
    sizes = []
    for objects in (near, near + far):
        sim = Simulation(_lane_of(objects, ugv_start=(0.8, 0.0)))
        fd, _ = sim._capture(standstill=False, inject_for=None)
        assert payload_to_dict(fd)["objects_in_view"] == ["b", "c"]
        sizes.append(len(pickle.dumps(fd)))
    assert sizes[0] == sizes[1]


def test_segment_searches_only_cut_targets_in_view(monkeypatch):
    # a long lane, one cut per object: a frame searches the instance image
    # for the targets it has a patch of, and for no other
    objects = [brick(f"b{i}", 0.8 + 0.35 * i, 0.3 * (i % 3 - 1), 0.2 * i) for i in range(60)]
    cfg = _lane_of(
        objects,
        ugv_end=(22.0, 0.0),
        frame_period=0.1,
        seg_ops=tuple(CutBand(o.id, 3) for o in objects),
    )
    searched, in_segment = [], []
    real_segment, real_pixels_of = orchestrator.segment, InstanceImage.pixels_of

    def counting_segment(*args, **kwargs):
        in_segment.append(True)
        try:
            return real_segment(*args, **kwargs)
        finally:
            in_segment.pop()

    def counting_pixels_of(self, object_id):
        if in_segment:
            searched.append(object_id)
        return real_pixels_of(self, object_id)

    monkeypatch.setattr(orchestrator, "segment", counting_segment)
    monkeypatch.setattr(InstanceImage, "pixels_of", counting_pixels_of)
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    for _ in range(400):
        if sim.step() is PipelineState.DONE:
            break
    want = []
    for env in recorder.history(Topic.CAMERA_FRAMES):
        in_view = set(payload_to_dict(env.payload)["objects_in_view"])
        want += [op.target_id for op in cfg.seg_ops if op.target_id in in_view]
    assert len(recorder.history(Topic.CAMERA_FRAMES)) > 100 and want
    assert len(searched) == len(want)
    assert searched == want


def test_a_frames_render_windows_do_not_grow_with_the_course(monkeypatch):
    # render_full windows only the objects near the camera: the most it
    # windows in one frame is the same on a course of 10 objects and of 40
    windows: list[int] = []
    real_window, real_render = camera._pixel_window, orchestrator.render_full

    def counting_window(*args):
        windows[-1] += 1
        return real_window(*args)

    def counting_render(*args):
        windows.append(0)
        return real_render(*args)

    monkeypatch.setattr(camera, "_pixel_window", counting_window)
    monkeypatch.setattr(orchestrator, "render_full", counting_render)
    most = {}
    for tiles in (1, 4):
        windows.clear()
        run_scenario(parse_scenario(perfbench_module("workloads").long_course(0, tiles=tiles)))
        most[tiles] = max(windows)
    assert most[1] == most[4] > 0


def test_segment_erodes_the_clusters_not_the_box(monkeypatch):
    # two bricks far apart across the lane: erosion reads each one's cluster,
    # not the span of both
    objects = [brick("l", 2.0, 0.3), brick("r", 2.0, -0.3)]
    cfg = _lane_of(objects, ugv_end=(3.0, 0.0), seg_ops=(Erode(1),))
    eroded, clusters, spans = [], [], []
    real_segment, real_erosion = orchestrator.segment, segmentation._erode_square

    def counting_segment(gt, *args, **kwargs):
        # a frame with no object in view has no cluster to erode
        if gt.clusters:
            clusters.append([(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in gt.clusters])
            r0, r1, c0, c1 = camera.span(gt.clusters)
            spans.append((r1 - r0) * (c1 - c0))
        return real_segment(gt, *args, **kwargs)

    def counting_erosion(mask, radius):
        eroded.append(mask.size)
        return real_erosion(mask, radius)

    monkeypatch.setattr(orchestrator, "segment", counting_segment)
    monkeypatch.setattr(segmentation, "_erode_square", counting_erosion)
    report, _ = run_scenario(cfg)
    assert report.attempted == 2 and sum(len(c) == 2 for c in clusters) > 20
    assert sum(eroded) == sum(map(sum, clusters)) < sum(spans) // 2


def _arrays(value):
    """Every array reachable through a record's fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)


def test_frames_on_the_bus_hold_no_image_but_their_patches():
    # a noisy lane alters every frame's depth; the frame the bus hands its
    # subscribers holds the frame's inputs only
    _, _, recorder = run_recorded(tiny_scenario([brick("b", 1.2, 0.05, 0.3)], noise=NOISY))
    frames = [env.payload for env in recorder.history(Topic.CAMERA_FRAMES)]
    assert any(fd.patches for fd in frames)
    for fd in frames:
        assert [id(a) for a in _arrays(fd)] == [id(p.zbuf) for p in fd.patches]
    assert all(fd.depth_digest is not None for fd in frames)


# --- noise drawn ahead ---------------------------------------------------------------


def _noisy_lane() -> ScenarioConfig:
    return _lane_of([brick("b", 1.2, 0.05, 0.3)], noise=NOISY, seg_ops=(Holes(0.1, seed=3),))


def _noise_threads() -> list[str]:
    """Names of the live threads that draw noise ahead."""
    return [t.name for t in threading.enumerate() if t.name.startswith("clearbot-noise")]


def _noise_threads_at_each_frame(sim: Simulation) -> list[list[str]]:
    """What :func:`_noise_threads` gives as each of ``sim``'s frames is
    published, filled in as the run goes."""
    seen: list[list[str]] = []

    def check(env) -> None:
        if env.topic is Topic.CAMERA_FRAMES:
            seen.append(_noise_threads())

    sim.bus.subscribe(check)
    return seen


def test_bias_only_noise_builds_no_generator(monkeypatch):
    # sigma * normal is +-0 and no uniform is below 0: a bias-only model adds
    # its bias and draws nothing, here or ahead
    real = np.random.default_rng
    made = []

    def counting(seed=None):
        made.append(seed)
        return real(seed)

    bias_only = DepthNoiseModel(bias=0.01)
    cfg = _lane_of([brick("b", 1.2, 0.05, 0.3)], noise=bias_only)
    monkeypatch.setattr(np.random, "default_rng", counting)
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    during = _noise_threads_at_each_frame(sim)
    report = sim.run()
    assert during and not any(during)
    frames = [env.payload for env in recorder.history(Topic.CAMERA_FRAMES)]
    clean = dataclasses.replace(cfg, noise=DepthNoiseModel())
    for fd in frames:
        want = apply_noise(frame_images(fd, clean).depth, bias_only, seed=0)
        assert fd.depth_digest == _array_digest(want.dense())
    assert report.attempted == 1 and made == []


def test_a_run_without_noise_starts_no_thread():
    # the course injects depth biases but has no noise model: nothing is
    # drawn ahead, so no worker thread runs while it captures
    before = set(threading.enumerate())
    sim = Simulation(build_benchmark_config())
    during = _noise_threads_at_each_frame(sim)
    assert sim.run().attempted == 10
    assert during and not any(during)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("end", ["run", "raise", "step"])
def test_no_noise_thread_outlives_a_run(monkeypatch, end):
    # a run's worker ends with it, whether run() returns, run() raises, or
    # the run is stepped by hand to DONE. Threads are told apart by name,
    # so a worker that any earlier run left alive fails this too.
    renders = []
    if end == "raise":
        real = orchestrator.render_full

        def failing(*args):
            renders.append(args)
            if len(renders) == 5:
                raise RuntimeError("render failed")
            return real(*args)

        monkeypatch.setattr(orchestrator, "render_full", failing)
    sim = Simulation(_noisy_lane())
    during = _noise_threads_at_each_frame(sim)
    if end == "run":
        assert sim.run().attempted == 1
    elif end == "raise":
        with pytest.raises(RuntimeError, match="render failed"):
            sim.run()
        assert len(renders) == 5
    else:
        while sim.step() is not PipelineState.DONE:
            pass
    # the worker drew ahead at every frame of the run
    assert during and all(during)
    assert _noise_threads() == []


def test_a_finished_run_leaves_no_draw_in_flight(monkeypatch):
    # the draw ahead for the frame after the last, which the run never
    # takes, is slowed past the end of the run
    history = run_recorded(_noisy_lane())[2].history(Topic.CAMERA_FRAMES)
    never_taken = history[-1].payload.frame_index + 1
    real = orchestrator.draw_noise
    lock = threading.Lock()
    drawn = {"started": 0, "finished": 0}

    def slow(model, seed, shape):
        with lock:
            drawn["started"] += 1
        if seed.entropy[-1] == never_taken:
            time.sleep(0.2)
        result = real(model, seed, shape)
        with lock:
            drawn["finished"] += 1
        return result

    monkeypatch.setattr(orchestrator, "draw_noise", slow)
    interval = sys.getswitchinterval()
    sim = Simulation(_noisy_lane())
    report = sim.run()
    assert report.attempted == 1
    with lock:
        assert drawn["started"] == drawn["finished"] > 0
    assert sim._noise._ahead is None
    assert sys.getswitchinterval() == interval


def test_a_picking_frames_depth_outlives_the_next_draw(monkeypatch):
    # the attempt diagnoses the picking frame's depth after that frame has
    # sent the next one's draws ahead. Each draw ahead starts late, so it
    # lands after the capture it follows.
    real = orchestrator.draw_noise

    def late(*args):
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(orchestrator, "draw_noise", late)
    checked = []
    sim = Simulation(_noisy_lane())
    recorder = Recorder(sim.bus)
    diagnose = sim._diagnose

    def checked_diagnose(rec, comp, matched, images, *rest):
        ahead = sim._noise._ahead
        assert ahead is not None
        ahead[1].result(timeout=10)
        fd = recorder.history(Topic.CAMERA_FRAMES)[-1].payload
        assert fd.standstill and ahead[0] == fd.frame_index + 1
        assert _array_digest(images.depth.dense()) == fd.depth_digest
        assert same_bits(images.depth.dense(), frame_images(fd, sim.cfg).depth.dense())
        checked.append(fd.frame_index)
        return diagnose(rec, comp, matched, images, *rest)

    sim._diagnose = checked_diagnose
    sim.run()
    assert len(checked) == 1


def test_every_draw_returns_arrays_of_its_own(monkeypatch):
    # draws made ahead (used or wasted) and draws made on the spot each
    # return fresh arrays; the kept references stop ids from being reused
    returned = {"ahead": [], "spot": []}

    def recording(kind, real):
        def draw(*args):
            drawn = real(*args)
            returned[kind].append(drawn)
            return drawn

        return draw

    monkeypatch.setattr(orchestrator, "draw_noise", recording("ahead", orchestrator.draw_noise))
    monkeypatch.setattr(camera, "draw_noise", recording("spot", camera.draw_noise))
    report, _ = run_scenario(_noisy_lane())
    assert report.attempted == 1
    assert returned["ahead"] and returned["spot"]
    arrays = [a for drawn in returned["ahead"] + returned["spot"] for a in drawn if a is not None]
    assert len({id(a) for a in arrays}) == len(arrays)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
def test_a_forked_child_starts_its_own_worker_and_keeps_the_bytes():
    # the parent's worker thread is not in a forked child, whose first
    # noisy capture must start its own rather than queue on the lost one
    cfg = _noisy_lane()
    digest = run_scenario(cfg)[0].log_digest
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        try:
            os.close(read)
            os.write(write, run_scenario(cfg)[0].log_digest.encode())
        finally:
            os._exit(0)
    os.close(write)
    ready = []
    try:
        ready, _, _ = select.select([read], [], [], 60)
        logged = os.read(read, 256).decode() if ready else None
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert logged == digest


def test_simulations_in_threads_each_draw_on_their_own_worker_and_keep_their_bytes():
    # four runs at once on two cores each draw ahead on a worker of their
    # own; each must log what it logs alone, and no worker outlives its run
    cfgs = [dataclasses.replace(_noisy_lane(), seed=seed) for seed in range(4)]
    alone = [run_scenario(cfg)[0].log_digest for cfg in cfgs]
    together: dict[int, str] = {}

    def run(i: int) -> None:
        together[i] = run_scenario(cfgs[i])[0].log_digest

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert [together[i] for i in range(len(cfgs))] == alone
    assert _noise_threads() == []


# --- memory follows the patches ----------------------------------------------------


def _perceive_peak(width: int, height: int, seg_ops) -> int:
    """Peak traced bytes of building a simulation and perceiving its first,
    clean frame: a brick and a pipe under the course's camera and focal
    length, in an image of ``width`` x ``height``."""
    k = Intrinsics(fx=180.0, fy=180.0, cx=width / 2, cy=height / 2, width=width, height=height)
    pipe = ObjectSpec("p", ObjectClass.PIPE, PipeDims(0.03, 0.40), 1.35, 0.0, 1.2)
    cfg = tiny_scenario(
        [brick("b", 1.05, 0.0, 0.3), pipe],
        intrinsics=k,
        camera_mount=CameraMount(1.05, 0.0, 1.4),
        seg_ops=seg_ops,
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, images, _, chosen = Simulation(cfg)._perceive(standstill=False, inject_for=None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # both objects are in view, apart, and one is picked
    assert len(images.labels.clusters) == 2 and chosen is not None
    return peak


@pytest.mark.parametrize(
    "seg_ops",
    [(), (Erode(1), Holes(0.1), CutBand("b", 3), Relabel((0, 4096, 0, 4096), 2))],
    ids=["no ops", "every op"],
)
def test_perceiving_a_clean_frame_takes_no_memory_that_grows_with_the_image(seg_ops):
    # the course's 512 x 256 image and one of 4x its area: the frame is
    # composed into its clusters' crops, the mask copies only those, and its
    # digest hashes the floor rows from a fixed chunk of zeros. A dense
    # label image alone is 128 KiB at the course's size; the peak grows only
    # by the camera's per-row and per-column ray offsets and the width of
    # the mask digest's row bands.
    small = _perceive_peak(512, 256, seg_ops)
    large = _perceive_peak(1024, 512, seg_ops)
    assert large - small < 16 * 1024


@pytest.mark.parametrize("noise", [DepthNoiseModel(), NOISY], ids=["clean", "noisy"])
def test_step_loop_views_equal_fresh_views_frame_by_frame(noise):
    # every capture follows one whose patches moved or left the view;
    # nothing of that frame may show, and no crop is shared with another view
    pipe = ObjectSpec("p", ObjectClass.PIPE, PipeDims(0.03, 0.40), 1.7, -0.1, 1.2)
    cfg = tiny_scenario(
        [brick("b", 1.2, 0.05, 0.3), pipe],
        noise=noise,
        seg_ops=(Erode(1), Holes(0.1, seed=3), CutBand("p", 3), Relabel((0, 40, 0, 40), 2)),
        injections=(DepthBiasInjection("b", 0.02),),
    )
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    capture = sim._capture
    frames = []

    def checked_capture(standstill, inject_for):
        fd, view = capture(standstill, inject_for)
        fresh = frame_images(fd, cfg)
        for a, b, dense in zip(
            (view.labels, view.depth, view.clean_depth, view.instances),
            (fresh.labels, fresh.depth, fresh.clean_depth, fresh.instances),
            dense_view(fd, cfg),
        ):
            assert a.clusters == b.clusters
            assert not any(np.shares_memory(x, y) for x in a.crops for y in b.crops)
            assert_image_is(a, dense)
        frames.append(fd)
        return fd, view

    sim._capture = checked_capture
    report = sim.run()
    assert report.attempted == 2
    assert any(fd.bias is not None for fd in frames)
    moved = [a.patches and b.patches for a, b in zip(frames, frames[1:])]
    vanished = [a.patches and not b.patches for a, b in zip(frames, frames[1:])]
    assert any(moved) and any(vanished)
    # and every mask the step loop perceived hashes as the fresh one
    replayed = replay_grasp_targets(recorder.history(Topic.CAMERA_FRAMES), cfg)
    logged = recorder.history(Topic.SEGMENTATION_MASKS)
    for (mask, _), env in zip(replayed, logged):
        assert _array_digest(mask) == env.payload.digest


def test_every_changed_mask_is_an_array_of_its_own(monkeypatch):
    # erosion runs on every frame with a label in view, so each such mask's
    # crops are copies of the ground truth's: they share no memory with
    # another mask's or with the crops they were segmented from
    cfg = dataclasses.replace(_noisy_lane(), seg_ops=(Erode(1),))
    perceive = orchestrator.perceive_frame
    masks = []

    def keeping_perceive(images, cfg_, cam_to_arm):
        mask, targets, comps = perceive(images, cfg_, cam_to_arm)
        if images.labels.clusters:
            assert not any(
                np.shares_memory(a, b) for a in mask.crops for b in images.labels.crops
            )
            masks.append(mask.crops)
        return mask, targets, comps

    monkeypatch.setattr(orchestrator, "perceive_frame", keeping_perceive)
    report, _ = run_scenario(cfg)
    assert report.attempted == 1
    assert len(masks) > 1
    crops = [crop for mask in masks for crop in mask]
    for i, a in enumerate(crops):
        assert not any(np.shares_memory(a, b) for b in crops[i + 1 :])


@st.composite
def short_runs(draw):
    """A small runnable scenario: the objects, camera, noise and injection
    of :func:`captures` on the scenario fuzzer's cheap base (a 2 m lane at
    0.5 m/s, a frame every 0.2-0.4 s, any of the four corruption kinds in
    any order). The objects cross the view one after another, up to 0.4 m
    apart or squeezed closer, so patches move, overlap, and vanish as
    objects leave the view or are picked."""
    cfg, _ = draw(captures())
    squeeze = draw(st.sampled_from([1.0, 0.6, 0.35]))
    objects = tuple(dataclasses.replace(o, x=0.4 + (o.x - 0.4) * squeeze) for o in cfg.objects)
    if draw(st.booleans()):
        # a camera that sees a brick near the lane's center line well enough
        # for the arm to stop and pick it
        x, y, yaw = draw(floats(0.8, 1.6)), draw(floats(-0.05, 0.05)), draw(floats(-3.2, 3.2))
        objects += (ObjectSpec("r", ObjectClass.BRICK, BRICK, x, y, yaw),)
        cfg = dataclasses.replace(cfg, intrinsics=Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64))
    # a relabel of the top-left corner, or of every cluster in view
    region = draw(st.sampled_from([(0, 8, 0, 8), (0, 4096, 0, 4096)]))
    ops = [Erode(1), Holes(0.1, seed=draw(st.integers(0, 9))), Relabel(region, 2)]
    if objects:
        ops.append(CutBand(draw(st.sampled_from(objects)).id, 3))
    cfg = dataclasses.replace(
        cfg,
        objects=objects,
        ugv_end=(2.0, cfg.ugv_start[1]),
        speed=0.5,
        frame_period=draw(st.sampled_from([0.2, 0.4])),
        seg_ops=tuple(draw(st.permutations(ops))[: draw(st.integers(0, len(ops)))]),
    )
    assume(validate_config(cfg) == [])
    return cfg


def _windows_overlap(fd) -> bool:
    wins = [(p.r0, p.r1, p.c0, p.c1) for p in fd.patches]
    return any(
        a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]
        for i, a in enumerate(wins)
        for b in wins[i + 1 :]
    )


def _lane_of_two() -> ScenarioConfig:
    pipe = ObjectSpec("p", ObjectClass.PIPE, PipeDims(0.03, 0.40), 1.4, -0.1, 1.2)
    return tiny_scenario(
        [brick("b", 1.2, 0.05, 0.3), pipe],
        intrinsics=Intrinsics(fx=64.0, fy=64.0, cx=64.0, cy=32.0, width=128, height=64),
        ugv_end=(2.0, 0.0),
        frame_period=0.2,
        noise=NOISY,
        seg_ops=(Erode(1), Holes(0.1, seed=3), CutBand("p", 3), Relabel((0, 8, 0, 8), 2)),
        injections=(DepthBiasInjection("b", 0.02),),
        seed=7,
    )


def _floor_graze() -> ScenarioConfig:
    """Frame 0 sees the brick's side only along rays that meet it at the
    floor: its one finite depth is the floor depth, which draws nothing."""
    pipe = ObjectSpec("o0", ObjectClass.PIPE, PipeDims(0.03125, 0.25), 0.4, 0.0, 0.0)
    narrow = ObjectSpec("o1", ObjectClass.BRICK, BrickDims(0.02, 0.02, 0.125), 0.8, 0.0, 0.0)
    return tiny_scenario(
        [pipe, narrow],
        intrinsics=Intrinsics(fx=10.0, fy=10.0, cx=4.0, cy=4.0, width=8, height=8),
        ugv_end=(2.0, 0.0),
        frame_period=0.2,
        injections=(DepthBiasInjection("o0", 0.02),),
    )


def _side_by_side(relabel: bool = False) -> ScenarioConfig:
    """Two bricks a few pixels apart across the view: their clusters share
    rows, under holes, whose draws follow the image's raster order, and
    maybe a relabel of every cluster. Without it, each brick's mask lies
    within the mask-IoU window of the other."""
    relabelled = (Relabel((0, 4096, 0, 4096), 2),) if relabel else ()
    return tiny_scenario(
        [brick("b", 1.2, 0.0), brick("c", 1.5, 0.0)],
        intrinsics=Intrinsics(fx=64.0, fy=64.0, cx=64.0, cy=32.0, width=128, height=64),
        ugv_end=(2.0, 0.0),
        frame_period=0.2,
        seg_ops=(Holes(0.3, seed=1),) + relabelled,
    )


def _clusters_share_rows(fd) -> bool:
    clusters = window_clusters([(p.r0, p.r1, p.c0, p.c1) for p in fd.patches])
    return any(
        a[0] < b[1] and b[0] < a[1] for i, a in enumerate(clusters) for b in clusters[i + 1 :]
    )


def _pipe_behind_a_brick() -> ScenarioConfig:
    """In frames 0 and 1 the brick's top hides both of the thin pipe's hits:
    its patch is in view but draws no pixel."""
    tall = ObjectSpec("o0", ObjectClass.BRICK, BrickDims(0.15, 0.15, 0.2), 1.35, 0.0, 0.0)
    thin = ObjectSpec("o1", ObjectClass.PIPE, PipeDims(0.005, 0.05), 1.46, 0.0, 0.0)
    return tiny_scenario(
        [tall, thin],
        intrinsics=Intrinsics(fx=60.0, fy=60.0, cx=32.0, cy=32.0, width=64, height=64),
        ugv_end=(2.0, 0.0),
        frame_period=0.2,
    )


def _assert_clusters_hold_the_labels(labels: LabelImage) -> None:
    """The clusters are sorted, no two touch (diagonally included), every
    labelled pixel lies in one of them, and the counts over them are a
    whole-image count."""
    clusters = labels.clusters
    assert list(clusters) == sorted(clusters)
    for i, a in enumerate(clusters):
        for b in clusters[i + 1 :]:
            assert not (a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3])
    inside = np.zeros(labels.shape, dtype=bool)
    for r0, r1, c0, c1 in clusters:
        inside[r0:r1, c0:c1] = True
    assert not labels.dense()[~inside].any()
    assert labels.class_pixels() == ((labels.dense() == 1).sum(), (labels.dense() == 2).sum())


@settings(deadline=None, max_examples=60)
@example(cfg=tiny_scenario([brick("b", 1.2, 0.0)]))
@example(cfg=_lane_of_two())
@given(cfg=short_runs())
def test_state_transitions_stay_legal(cfg):
    # a stop is two steps: the driving step that sees the object brakes the
    # vehicle, and the picking step holds it still, then resumes the drive
    legal = {
        (PipelineState.DRIVING, PipelineState.DRIVING),
        (PipelineState.DRIVING, PipelineState.PICKING),
        (PipelineState.DRIVING, PipelineState.DONE),
        (PipelineState.PICKING, PipelineState.DRIVING),
    }
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    bound = _step_bound(cfg)
    steps = picks = 0
    prev = sim.state
    while prev is not PipelineState.DONE:
        assert steps < bound
        parked = sim.distance
        state = sim.step()
        steps += 1
        assert (prev, state) in legal
        if prev is PipelineState.PICKING:
            picks += 1
            assert sim.distance == parked
        prev = state
    event(f"the run stops: {picks > 0}")
    # every step but the last captures one frame: a driving step on the
    # move, a picking step at standstill
    frames = [env.payload for env in recorder.history(Topic.CAMERA_FRAMES)]
    standstill = sum(fd.standstill for fd in frames)
    assert standstill == picks == len(recorder.history(Topic.CONTROL_STOP))
    assert steps == (len(frames) - standstill) + picks + 1 <= bound


@settings(deadline=None, max_examples=200)
@example(cfg=_lane_of_two())
@example(cfg=_floor_graze())
@example(cfg=_pipe_behind_a_brick())
@example(cfg=_side_by_side())
@example(cfg=_side_by_side(relabel=True))
@given(cfg=short_runs())
def test_step_loop_equals_fresh_views_on_generated_runs(cfg):
    # Every capture composes the crops of its clusters, and its mask is its
    # labels or a copy of their crops. Each view, crop by crop and noise
    # included, equals the dense reference frame, and perceiving it equals
    # perceiving that frame as one-cluster images, which reads no cluster.
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    capture = sim._capture
    perceive = orchestrator.perceive_frame
    frames, dense_views, fresh_masks, unchanged = [], [], [], []

    def checked_capture(standstill, inject_for):
        fd, view = capture(standstill, inject_for)
        fresh = frame_images(fd, cfg)
        dense = dense_view(fd, cfg)
        for a, b, want in zip(
            (view.labels, view.depth, view.clean_depth, view.instances),
            (fresh.labels, fresh.depth, fresh.clean_depth, fresh.instances),
            dense,
        ):
            assert a.clusters == b.clusters
            assert_image_is(a, want)
            assert_image_is(b, want)
        # the clean images' clusters are those of the patch windows; a noisy
        # or biased depth is one dense crop
        clusters = window_clusters([(p.r0, p.r1, p.c0, p.c1) for p in fd.patches])
        assert view.labels.clusters == view.clean_depth.clusters == clusters
        assert view.instances.clusters == clusters
        _assert_clusters_hold_the_labels(view.labels)
        # every patch has a hit nearer than the floor (an occluded one may
        # still draw nothing), and perceiving may skip a view without
        # clusters, since such a view has no labelled pixel
        assert all((p.zbuf < fd.floor_depth).any() for p in fd.patches)
        # the background of a clean depth is the floor: the camera's height
        assert fd.floor_depth == view.clean_depth.background == cfg.camera_mount.height
        assert view.labels.clusters or not dense[0].any()
        windows = {p.object_id: (p.obj_index, (p.r0, p.r1, p.c0, p.c1)) for p in fd.patches}
        assert view.instances.windows == fresh.instances.windows == windows
        # the depth the log hashed at capture is the dense reference's,
        # whether its noise was drawn ahead on the worker or on the spot
        altered = not cfg.noise.is_identity or fd.bias is not None
        assert fd.depth_digest == (_array_digest(dense[1]) if altered else None)
        # each patch names the object of its index in the scene it was cast from
        assert all(p.object_id == sim.scene.objects[p.obj_index].id for p in fd.patches)
        frames.append(fd)
        labels, depth, clean, index = dense
        dense_views.append(
            FrameImages(
                labels=LabelImage.from_array(labels),
                depth=DepthImage.from_array(depth),
                clean_depth=DepthImage.from_array(clean),
                instances=InstanceImage.from_array(index, windows=windows),
            )
        )
        return fd, view

    def checked_perceive(images, cfg_, cam_to_arm):
        mask, targets, comps = perceive(images, cfg_, cam_to_arm)
        dense = dense_views[-1]
        # perceiving leaves the ground truth as it was
        assert_image_is(images.labels, dense.labels.dense())
        # the mask equals the whole-image reference, which does not read
        # the clusters
        reference = full_frame_segment(dense.labels, cfg_.seg_ops, cfg_.seed, dense.instances)
        assert_image_is(mask, reference)
        # no op labels a floor pixel, so every mask pixel names the object
        # that drew it, and match_component always finds one
        assert (dense.instances.dense()[reference != 0] >= 0).all()
        if images.labels.clusters:
            unchanged.append(mask is images.labels)
        want, want_targets, want_comps = perceive(dense, cfg_, cam_to_arm)
        assert same_bits(want.dense(), reference)
        # the mask keeps the frame's clusters of patch windows, which still
        # hold its labels, so its digest may start at its first cluster; and
        # labelling each cluster finds what labelling the whole image finds
        assert mask.clusters == images.labels.clusters
        _assert_clusters_hold_the_labels(mask)
        assert _mask_digest(mask) == _array_digest(reference)
        for cls in ObjectClass:
            got = connected_components(mask, cls)
            whole = connected_components(want, cls)
            assert [c.bbox for c in got] == [c.bbox for c in whole]
            assert [(c.area, c.seed_pixel) for c in got] == [(c.area, c.seed_pixel) for c in whole]
            for a, b in zip(got, whole):
                assert same_bits(a.rows, b.rows) and same_bits(a.cols, b.cols)
        # centers and orientations gathered from the crops, and what an
        # attempt measures, are those of the dense images
        assert targets == want_targets
        for comp, ref in zip(comps, want_comps, strict=True):
            assert mask_iou(comp, images.labels) == mask_iou(ref, dense.labels)
            assert match_component(comp, images.instances) == match_component(ref, dense.instances)
        for oid, (_, window) in images.instances.windows.items():
            rows, cols = images.instances.pixels_of(oid)
            want_rows, want_cols = dense.instances.pixels_of(oid)
            assert same_bits(rows, want_rows) and same_bits(cols, want_cols)
            for got_depth, want_depth in (
                (images.depth, dense.depth),
                (images.clean_depth, dense.clean_depth),
            ):
                got_z = got_depth.at(rows, cols, window)
                assert same_bits(got_z, want_depth.dense()[rows, cols])
        fd = frames[-1]
        digest = _array_digest(reference)
        fresh_masks.append(MaskData(fd.frame_index, fd.t_capture, want.class_pixels(), digest))
        return mask, targets, comps

    sim._capture = checked_capture
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orchestrator, "perceive_frame", checked_perceive)
        report = sim.run()
    pairs = list(zip(frames, frames[1:]))
    if not cfg.noise.draws_nothing:
        # a frame right after the one before uses the draws made ahead for
        # it; a standstill frame, or the first one after it, draws on the spot
        steps = [b.frame_index - a.frame_index for a, b in pairs]
        event(f"noise drawn ahead and used: {1 in steps}")
        event(f"noise drawn ahead for another frame: {any(d != 1 for d in steps)}")
        event(f"noisy run attempts a pick: {report.attempted > 0}")
    event(f"patches move: {any(a.patches and b.patches for a, b in pairs)}")
    event(f"patches overlap: {any(map(_windows_overlap, frames))}")
    event(f"patches vanish: {any(a.patches and not b.patches for a, b in pairs)}")
    event(f"clusters share rows: {any(map(_clusters_share_rows, frames))}")
    # on frames with patches in view
    event(f"a mask no op changed: {any(unchanged)}")
    event(f"a mask an op changed: {not all(unchanged)}")
    # replay rebuilds every logged mask and target list
    replayed = replay_grasp_targets(recorder.history(Topic.CAMERA_FRAMES), cfg)
    logged = recorder.history(Topic.SEGMENTATION_MASKS)
    published = [env.payload for env in recorder.history(Topic.GRASP_TARGETS)]
    assert [payload for _, payload in replayed] == published
    assert len(replayed) == len(logged) == len(frames)
    # each mask was hashed at publish from its crops
    assert [env.payload for env in logged] == fresh_masks
    for (mask, _), env in zip(replayed, logged):
        assert _array_digest(mask) == env.payload.digest


@settings(deadline=None, max_examples=60)
@example(cfg=_lane_of_two())
@given(cfg=short_runs())
def test_ndjson_taken_after_every_step_is_a_prefix_of_the_final_log(cfg):
    # the bus writes and hashes each envelope's line when it is published;
    # the text read after any step, from before the first message, is a
    # prefix of the final log, and the bus's digest is that text's
    sim = Simulation(cfg)
    recorder = Recorder(sim.bus)
    step = sim.step
    texts = [messages_to_ndjson(sim.bus)]

    def step_and_serialize():
        state = step()
        texts.append(messages_to_ndjson(sim.bus))
        assert sim.bus.digest() == hashlib.sha256(texts[-1].encode()).hexdigest()
        return state

    sim.step = step_and_serialize
    report = sim.run()
    final = texts[-1]
    assert all(final.startswith(text) for text in texts)
    scratch = MessageBus()
    for env in recorder.log():
        scratch.publish(env.topic, env.t, env.payload)
    assert messages_to_ndjson(scratch) == final
    assert report.log_digest == hashlib.sha256(final.encode()).hexdigest()


def _ndjson_after_the_run(envelopes) -> str:
    """The log as it was serialized once the run had ended: each recorded
    envelope's line, with its sequence number counted here per topic."""
    counts = dict.fromkeys(Topic, 0)
    lines = []
    for env in envelopes:
        assert env.seq == counts[env.topic]
        counts[env.topic] += 1
        lines.append(oracle_line(env))
    return "".join(lines)


@settings(deadline=None, max_examples=60)
@example(cfg=_lane_of_two())
@given(cfg=short_runs())
def test_log_written_at_publish_equals_the_log_serialized_after_the_run(cfg):
    # each line is written when its message is published, from the facts
    # taken by then; serializing the kept envelopes after the run, as the
    # log was once written, gives the same bytes, and a subscriber changes
    # none of them
    report, sim, recorder = run_recorded(cfg)
    text = messages_to_ndjson(sim.bus)
    assert text == _ndjson_after_the_run(recorder.log())
    unobserved, bare = run_scenario(cfg)
    assert messages_to_ndjson(bare.bus) == text
    assert report_to_json(unobserved) == report_to_json(report)


def _narrow_view() -> ScenarioConfig:
    # an 8 x 8 view ~0.13 m across: the long brick reaches into it while its
    # center lies well past the edge, where a cull radius too small drops it
    long_brick = ObjectSpec("b", ObjectClass.BRICK, BrickDims(0.3, 0.095, 0.057), 1.0, 0.0, 0.0)
    return tiny_scenario(
        [long_brick],
        intrinsics=Intrinsics(fx=72.0, fy=72.0, cx=4.0, cy=4.0, width=8, height=8),
        ugv_end=(2.0, 0.0),
        frame_period=0.1,
    )


@settings(deadline=None, max_examples=40)
@example(cfg=_lane_of_two())
@example(cfg=_narrow_view())
@given(cfg=short_runs())
def test_culling_off_gives_the_same_frame_digests(cfg):
    # render_full culls an object by the disk of radius aabb_radius; with an
    # infinite radius it culls nothing and every object gets its window
    def frame_digests() -> list[str]:
        frames = run_recorded(cfg)[2].history(Topic.CAMERA_FRAMES)
        return [frame_digest(env.payload) for env in frames]

    culled = frame_digests()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ObjectSpec, "aabb_radius", property(lambda obj: math.inf))
        assert frame_digests() == culled


def test_the_side_by_side_lane_has_clusters_that_share_rows():
    # the explicit example of the generated-run property shows them, and
    # a mask-IoU window that meets a cluster other than its component's
    cfg = _side_by_side()
    frames = [env.payload for env in run_recorded(cfg)[2].history(Topic.CAMERA_FRAMES)]
    assert sum(map(_clusters_share_rows, frames)) > 1
    reaching = 0
    for fd in frames:
        labels = frame_images(fd, cfg).labels
        for comp in connected_components(labels, ObjectClass.BRICK):
            r0, r1, c0, c1 = comp.bbox
            d = IOU_DILATION
            window = (r0 - d, r1 + d, c0 - d, c1 + d)
            reaching += len(list(labels.views(window))) > 1
    assert reaching > 1


def test_the_lane_of_two_moves_overlaps_and_vanishes():
    # the explicit example of the generated-run property shows all three
    frames = [env.payload for env in run_recorded(_lane_of_two())[2].history(Topic.CAMERA_FRAMES)]
    pairs = list(zip(frames, frames[1:]))
    assert any(a.patches and b.patches and a.patches[0].c0 != b.patches[0].c0 for a, b in pairs)
    assert any(map(_windows_overlap, frames))
    assert any(a.patches and not b.patches for a, b in pairs)


def _reachable(root: object):
    """Every object reachable from ``root`` through instances and
    containers; types, modules and functions are not followed."""
    skip = (type, types.ModuleType, types.FunctionType)
    seen, stack = {id(root)}, [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)


def test_retained_memory_grows_by_log_text_alone():
    # a lane and the same lane four times over: the bus keeps no payload, so
    # an extra frame keeps only its log text (~0.93 KB of NDJSON, ~0.95 KiB
    # retained by tracemalloc). The transient peak swings by up to ~0.5 MB
    # from run to run with the noise drawn ahead, ~2.8 KiB per extra frame
    # here. The bricks lie below the arm's reach, so none is picked, and most
    # frames see one.
    unreachable = dataclasses.replace(
        DEFAULT_ARM_CONFIG, envelope=ReachEnvelope(z_min=0.0)
    )

    def lane(tiles: int) -> ScenarioConfig:
        objects = [brick(f"b{t}", 1.5 + 3.0 * t, 0.05, 0.3) for t in range(tiles)]
        return tiny_scenario(
            objects, ugv_end=(3.0 * tiles, 0.0), speed=1.0, noise=NOISY, arm=unreachable
        )

    def retained(cfg: ScenarioConfig) -> tuple[int, int, int]:
        gc.collect()
        tracemalloc.start()
        try:
            sim = Simulation(cfg)
            sim.run()
            gc.collect()
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a run with no subscriber holds no frame's patches
        assert not any(isinstance(obj, ObjectPatch) for obj in _reachable(sim))
        lines = [json.loads(line) for line in messages_to_ndjson(sim.bus).splitlines()]
        frames = [d["payload"] for d in lines if d["topic"] == Topic.CAMERA_FRAMES.value]
        seen = sum(1 for fd in frames if any(fd["class_pixels"].values()))
        assert seen > len(frames) / 2
        return size, peak, len(frames)

    size1, peak1, frames1 = retained(lane(1))
    size4, peak4, frames4 = retained(lane(4))
    assert frames4 > 3.6 * frames1
    extra = frames4 - frames1
    assert (size4 - size1) / extra < 1.5 * 1024
    assert (peak4 - peak1) / extra < 6 * 1024


def test_a_finished_run_reaches_no_patch_but_through_its_subscribers():
    # the walk that finds no patch in a bare run finds the frames a
    # subscriber keeps
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.05, 0.3)]))
    recorder = Recorder(sim.bus)
    sim.run()
    kept = {id(p) for env in recorder.history(Topic.CAMERA_FRAMES) for p in env.payload.patches}
    assert kept
    assert kept == {id(obj) for obj in _reachable(sim) if isinstance(obj, ObjectPatch)}


def test_report_json_schema(benchmark_run):
    report, _, _, _ = benchmark_run
    doc = json.loads(report_to_json(report))
    assert set(doc) == {
        "seed", "config_digest", "attempted", "succeeded", "records", "wall_notes"
    }
    assert doc["seed"] == 7
    assert doc["attempted"] == 10 and doc["succeeded"] == 7
    assert "wall clock" in doc["wall_notes"]
    for rec in doc["records"]:
        assert set(rec) == {
            "id", "class", "outcome", "cause", "attribution",
            "elapsed_s", "center_error_m", "yaw_error_rad", "mask_iou",
        }


@pytest.mark.parametrize("run", ["benchmark_run", "noisy_run"])
def test_ndjson_log_is_one_canonical_line_per_message(request, run):
    # the noisy course's frame lines carry a depth digest, and its masks
    # come from eroded, holed labels
    _, sim, recorder = request.getfixturevalue(run)[:3]
    text = messages_to_ndjson(sim.bus)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(recorder.log())
    for line, env in zip(lines, recorder.log()):
        doc = json.loads(line)
        assert set(doc) == {"topic", "seq", "t", "payload"}
        assert doc["topic"] == env.topic.value
        assert doc["seq"] == env.seq
        # canonical form: no whitespace, sorted keys
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == line
        assert line + "\n" == oracle_line(env)
    # image payloads are digested, never inlined
    assert "zbuf" not in text


@pytest.mark.parametrize("run", ["benchmark_run", "noisy_run", "adaptive_run"])
def test_status_lines_time_the_pick_by_its_phases(request, run):
    # a status carries the pick's PickResult, and its times are derived from
    # the phases: the line's time is the end of the last phase, which is
    # where the pick left the clock
    sim = request.getfixturevalue(run)[1]
    statuses = [
        json.loads(line)
        for line in messages_to_ndjson(sim.bus).splitlines()
        if '"topic":"ArmStatus"' in line
    ]
    assert len(statuses) == len(sim.records)
    for doc in statuses:
        status, phases = doc["payload"], doc["payload"]["phases"]
        assert phases and doc["t"] == status["t_end"] == phases[-1][2]
        assert status["t_start"] == phases[0][1]
        for (_, _, end), (_, start, _) in zip(phases, phases[1:]):
            assert end == start


RECORDED = PERFBENCH / "recorded.json"


@pytest.fixture(scope="module")
def noisy_run() -> tuple[RunReport, Simulation, Recorder]:
    """The benchmark's noisy_course at its recorded seed: depth noise with
    dropout, and eroded, holed masks; a recorder keeps every message."""
    seed = json.loads(RECORDED.read_text())["default_seed"]
    return run_recorded(parse_scenario(perfbench_module("workloads").noisy_course(seed)))


@pytest.mark.parametrize(
    "run, entry",
    [
        ("benchmark_run", "course"),
        ("adaptive_run", "adaptive_course"),
        ("noisy_run", "noisy_course"),
    ],
)
def test_course_outputs_match_the_recorded_digests(request, run, entry):
    # the benchmark records these hashes; a renamed or dropped log or report
    # key changes them even when two runs still agree with each other
    report, sim = request.getfixturevalue(run)[:2]
    recorded = json.loads(RECORDED.read_text())["digests"][entry]
    log = messages_to_ndjson(sim.bus)
    # the bytes depend on the OpenBLAS kernel and the libm (ROADMAP,
    # Baseline); a failure says which this process runs, and what changed
    # against the outputs kept in tests/data
    why = explain_recorded_outputs(entry, report_to_json(report), log)
    assert report.log_digest == recorded["log_digest"], why
    assert hashlib.sha256(log.encode()).hexdigest() == recorded["log_digest"], why
    assert (
        hashlib.sha256(report_to_json(report).encode()).hexdigest()
        == recorded["report_sha256"]
    ), why


def test_the_recorded_outputs_name_no_change_on_the_course(benchmark_run):
    report, sim = benchmark_run[:2]
    why = explain_recorded_outputs("course", report_to_json(report), messages_to_ndjson(sim.bus))
    assert "report.json: no key changed" in why
    assert "messages.ndjson: no line changed" in why
    assert "runs " + openblas_core() in why


def test_a_recorded_digest_failure_names_what_changed(benchmark_run):
    # one report value and one log line of the course, changed
    report, sim = benchmark_run[:2]
    record = json.loads(report_to_json(report))
    record["records"][2]["center_error_m"] += 1e-9
    lines = messages_to_ndjson(sim.bus).splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if '"topic":"GraspTargets"' in line and i > 40)
    env = json.loads(lines[k])
    lines[k] = lines[k].replace('"kind":"targets"', '"kind":"target"')
    why = explain_recorded_outputs("course", json.dumps(record), "".join(lines))
    old = json.loads(report_to_json(report))["records"][2]["center_error_m"]
    assert f"records[2].center_error_m: {old!r} -> {old + 1e-9!r}" in why
    assert "report.json: records[2].center_error_m" in why
    assert (
        f"line {k + 1} differs first (seq {env['seq']}, topic GraspTargets, "
        f"frame_index {env['payload']['frame_index']}); 1 of {len(lines)} lines differ"
    ) in why
    # a log cut short differs first where it ends
    why = explain_recorded_outputs("course", report_to_json(report), "".join(lines[:k]))
    assert f"line {k + 1} differs first" in why and f"the run wrote {k}" in why


@pytest.mark.parametrize("entry", ["course", "adaptive_course", "noisy_course"])
def test_the_kept_reports_are_the_recorded_ones(entry):
    # an output change that refreshes perfbench/recorded.json refreshes the
    # files that explain a digest failure too (tests/data/refresh.py)
    recorded = json.loads(RECORDED.read_text())["digests"][entry]
    kept = (DATA / f"{entry}_report.json").read_bytes()
    assert hashlib.sha256(kept).hexdigest() == recorded["report_sha256"]


def test_perfbench_tracing_counts_every_layer_call():
    # perfbench traces a layer by rebinding its function where the
    # orchestrator and the CLI look it up: a name called from elsewhere
    # would count no call and raise no error
    tracing = perfbench_module("tracing")
    cfg = tiny_scenario(
        [brick("b", 1.2, 0.05, 0.3)],
        noise=NOISY,
        seg_ops=(CutBand("b", 4),),
        injections=(DepthBiasInjection("b", 0.02),),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sim = Simulation(cli.parse_scenario(scenario_to_dict(cfg)))
        tracer.attach(sim)
        report = sim.run()
        orchestrator.report_to_json(report)
        log = orchestrator.messages_to_ndjson(sim.bus)
    finally:
        tracer.uninstall()
    assert report.attempted == 1
    calls = {name: tracer.counts[f"{name}.calls"] for name in tracing.TRACED_CALLS}
    assert min(calls.values()) >= 1, calls
    topics = [json.loads(line)["topic"] for line in log.splitlines()]
    frames = topics.count(Topic.CAMERA_FRAMES.value)
    per_frame = ("camera.render_full", "camera.compose_patches", "segmentation.segment")
    for name in per_frame + ("orchestrator.compute_targets",):
        assert calls[name] == frames, name
    # the biased standstill frame offsets its noisy depth once more
    assert calls["camera.apply_noise"] == frames + 1


def test_the_libm_table_counts_the_results_this_libm_rounds_otherwise(monkeypatch):
    differ, total = libm_differences()
    assert 0 <= differ <= total and total > 1000
    rows = [line for line in (DATA / "libm.txt").read_text().splitlines() if line[0] != "#"]
    assert len(set(rows)) == total
    # the long_course yaw whose sine glibc 2.36 rounds away from the
    # correctly rounded result (ROADMAP, Baseline)
    hard = float.fromhex("0x1.95b4c31e4d25fp-3")
    assert f"sin {hard.hex()} 0x1.930eca7e88c42p-3" in rows
    # a libm that gets that one sine wrong counts it, unless this one did
    sin = math.sin
    monkeypatch.setattr(math, "sin", lambda x: 2.0 * sin(x) if x == hard else sin(x))
    assert libm_differences() == (differ + (sin(hard).hex() == "0x1.930eca7e88c42p-3"), total)


def test_publish_names_an_unknown_payload_type():
    @dataclass(frozen=True)
    class Odometry:
        frame_index: int

    bus = MessageBus()
    recorder = Recorder(bus)
    with pytest.raises(TypeError, match="Odometry"):
        bus.publish(Topic.CAMERA_FRAMES, 0.0, Odometry(0))
    assert messages_to_ndjson(bus) == "" and recorder.log() == ()


def test_an_empty_frame_publishes_an_all_floor_mask_and_no_targets():
    ops = (Erode(1), Holes(0.1), CutBand("b", 4), Relabel((0, 8, 0, 8), 2))
    # the brick is in view from the first frame and out of it by the end
    _, _, recorder = run_recorded(tiny_scenario([brick("b", 1.2, 0.05, 0.3)], seg_ops=ops))
    frames = [env.payload for env in recorder.history(Topic.CAMERA_FRAMES)]
    empty = sum(1 for fd in frames if not fd.patches)
    assert 0 < empty < len(frames)

    masks = recorder.history(Topic.SEGMENTATION_MASKS)
    targets = recorder.history(Topic.GRASP_TARGETS)
    for fd, mask, tgt in zip(frames, masks, targets):
        if fd.patches:
            continue
        # every op maps an all-floor frame to itself, and it has no component
        assert mask.payload.digest == _array_digest(np.zeros(fd.shape, dtype=np.uint8))
        assert mask.payload.class_pixels == fd.class_pixels == (0, 0)
        assert mask.t == fd.t_capture + SEG_LATENCY
        assert tgt.payload.targets == ()


def test_an_unchanged_mask_takes_its_frames_pixel_counts(monkeypatch):
    # no op runs, so each mask is its frame's labels: their pixels are
    # counted once a frame, at capture
    calls = []
    real = LabelImage.class_pixels

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LabelImage, "class_pixels", counting)
    _, _, recorder = run_recorded(
        tiny_scenario([brick("b", 1.2, 0.05, 0.3), brick("c", 2.0, -0.1, 1.0)])
    )
    frames = [env.payload for env in recorder.history(Topic.CAMERA_FRAMES)]
    masks = [env.payload for env in recorder.history(Topic.SEGMENTATION_MASKS)]
    assert any(fd.standstill for fd in frames) and any(fd.class_pixels != (0, 0) for fd in frames)
    assert len(calls) == len(frames) == len(masks)
    assert [md.class_pixels for md in masks] == [fd.class_pixels for fd in frames]


@pytest.mark.parametrize("shape", [(1, 1), (64, 128), (256, 512)])
def test_floor_digest_is_the_digest_of_an_all_floor_mask(shape):
    floor = np.zeros(shape, np.uint8)
    labels = LabelImage.from_array(floor)
    assert _mask_digest(labels) == _array_digest(floor)
    # the floor rows' hash state is taken once per shape and row count
    prefix = _floor_prefix(shape, shape[0])
    assert _floor_prefix(shape, shape[0]) is prefix


def _labelled(shape, pixels) -> np.ndarray:
    data = np.zeros(shape, np.uint8)
    for r, c, code in pixels:
        data[r, c] = code
    return data


@st.composite
def labelled_masks(draw) -> np.ndarray:
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    pixel = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1), st.sampled_from((1, 2)))
    return _labelled((h, w), draw(st.lists(pixel, max_size=12)))


@settings(max_examples=300)
@given(data=labelled_masks())
@example(data=np.zeros((16, 8), np.uint8))
@example(data=np.full((16, 8), 2, np.uint8))
@example(data=_labelled((16, 8), [(0, 7, 1)]))
@example(data=_labelled((16, 8), [(15, 0, 2)]))
def test_mask_digest_equals_the_digest_of_the_dense_mask(data):
    # the rows above the mask's first cluster come from the cached floor
    # prefix: none for the whole image, all of them for no cluster
    clusters = camera.window_clusters([(r, r + 1, c, c + 1) for r, c in zip(*np.nonzero(data))])
    for labels in (LabelImage.from_array(data), LabelImage.from_array(data, clusters)):
        assert _mask_digest(labels) == _array_digest(data)


def floats(lo: float, hi: float, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@settings(deadline=None, max_examples=200)
@given(period=floats(1e-3, 1.0), now=floats(0.0, 1e5))
@example(period=1.0 / 21.0, now=35.0 / 21.0)
@example(period=1.0 / 21.0, now=math.nextafter(35.0 / 21.0, math.inf))
def test_next_frame_slot_never_lies_behind_the_clock(period, now):
    sim = Simulation(tiny_scenario([], frame_period=period))
    sim.clock = SimClock(now)
    assert sim._next_frame_slot() * period >= now


@settings(deadline=None, max_examples=200)
@given(period=floats(1e-3, 1.0), k=st.integers(0, orchestrator.MAX_FRAME_SLOTS))
def test_next_frame_slot_keeps_a_clock_on_its_slot(period, k):
    # a clock that sits on slot k, as far as floats tell, stays there
    sim = Simulation(tiny_scenario([], frame_period=period))
    sim.clock = SimClock(k * period)
    assert sim._next_frame_slot() == k


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    """Valid configs: every op kind, objects 1 m apart so none overlap."""
    objects = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            width = draw(floats(0.01, 0.2))
            cls = ObjectClass.BRICK
            dims = BrickDims(draw(floats(width, 0.4)), width, draw(floats(0.01, 0.2)))
        else:
            cls = ObjectClass.PIPE
            dims = PipeDims(draw(floats(0.005, 0.1)), draw(floats(0.01, 0.4)))
        x, y = i + draw(floats(-0.1, 0.1)), draw(floats(-0.1, 0.1))
        objects.append(ObjectSpec(f"o{i}", cls, dims, x, y, draw(floats(-3.2, 3.2))))
    ids = st.sampled_from([o.id for o in objects])

    op = st.one_of(
        st.builds(Erode, st.integers(1, 10)),
        st.builds(Holes, floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**32)),
        st.builds(CutBand, ids, st.integers(1, 20)),
        st.builds(
            lambda r0, h, c0, w, new_class: Relabel((r0, r0 + h, c0, c0 + w), new_class),
            st.integers(0, 500),
            st.integers(1, 500),
            st.integers(0, 500),
            st.integers(1, 500),
            st.integers(0, 2),
        ),
    )

    width, height = draw(st.integers(1, 2048)), draw(st.integers(1, 2048))
    cx = draw(floats(0.0, width, exclude_max=True))
    cy = draw(floats(0.0, height, exclude_max=True))
    # focal lengths start at the shortest one the field-of-view bound allows
    tan_half = math.tan(math.radians(MAX_FIELD_OF_VIEW_DEG / 2.0))
    intrinsics = Intrinsics(
        fx=max(cx, width - 1 - cx) / tan_half + draw(floats(1.0, 1e4)),
        fy=max(cy, height - 1 - cy) / tan_half + draw(floats(1.0, 1e4)),
        cx=cx,
        cy=cy,
        width=width,
        height=height,
    )

    r_min = draw(floats(0.0, 0.5))
    r_max = r_min + draw(floats(0.1, 1.0))
    z_min = draw(floats(-1.0, 0.0))
    z_max = z_min + draw(floats(0.1, 1.0))
    heading = draw(floats(-3.2, 3.2))
    r_drop = (r_min + r_max) / 2
    arm = ArmConfig(
        phase_durations={p: draw(floats(0.1, 10.0)) for p in DEFAULT_PHASE_DURATIONS},
        position_tolerance=draw(floats(1e-3, 0.1)),
        yaw_tolerance=draw(floats(1e-3, 1.0)),
        gripper_max_opening=draw(floats(0.01, 0.3)),
        boundary_margin=draw(floats(0.0, 0.09)),
        envelope=ReachEnvelope(r_min, r_max, z_min, z_max),
        drop_pose=Point3(
            r_drop * math.cos(heading), r_drop * math.sin(heading), (z_min + z_max) / 2, Frame.ARM
        ),
        adaptive_order=draw(st.booleans()),
    )

    start = (draw(floats(-100.0, 100.0)), draw(floats(-100.0, 100.0)))
    end = (start[0] + draw(floats(1.0, 50.0)), start[1] + draw(floats(-5.0, 5.0)))
    mount = draw(floats(-1.0, 1.0)), draw(floats(-1.0, 1.0)), draw(floats(0.0, 1.0))
    arm_mount = draw(
        st.one_of(
            st.just(ArmMount(*mount)),  # yaw left to its default
            floats(-3.2, 3.2).map(lambda yaw: ArmMount(*mount, yaw)),
        )
    )
    camera_mount = CameraMount(
        draw(floats(-2.0, 2.0)), draw(floats(-1.0, 1.0)), draw(floats(0.5, 1.5))
    )
    return ScenarioConfig(
        name=draw(st.text(max_size=12)),
        objects=tuple(objects),
        intrinsics=intrinsics,
        camera_mount=camera_mount,
        arm_mount=arm_mount,
        ugv_start=start,
        ugv_end=end,
        speed=draw(floats(0.1, 5.0)),
        stop_latency=draw(floats(0.0, 1.0)),
        frame_period=draw(floats(0.01, 1.0)),
        noise=DepthNoiseModel(
            sigma=draw(floats(0.0, 0.1)),
            bias=draw(floats(-0.1, 0.1)),
            dropout_prob=draw(floats(0.0, 1.0, exclude_max=True)),
        ),
        seg_ops=tuple(draw(st.lists(op, max_size=6))),
        injections=tuple(
            draw(
                st.lists(
                    st.builds(DepthBiasInjection, ids, floats(-0.1, 0.1)),
                    max_size=3,
                    unique_by=lambda inj: inj.object_id,
                )
            )
        ),
        arm=arm,
        seed=draw(st.integers(0, 2**32)),
    )


@settings(deadline=None)
@given(cfg=scenario_configs())
@example(cfg=build_benchmark_config())
def test_scenario_dict_roundtrip_preserves_config_and_digest(cfg):
    assert validate_config(cfg) == []
    parsed = parse_scenario(scenario_to_dict(cfg))
    assert parsed == cfg
    assert config_digest(parsed) == config_digest(cfg)
    assert len(config_digest(cfg)) == 64 and int(config_digest(cfg), 16) >= 0


def _key_paths(doc: dict, prefix: tuple = ()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def test_scenario_keys_left_out_take_their_defaults():
    default = ScenarioConfig(name="scenario", objects=())
    doc = scenario_to_dict(default)
    assert parse_scenario({}) == default
    for path in _key_paths(doc):
        pruned = copy.deepcopy(doc)
        parent = pruned
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        assert parse_scenario(pruned) == default, path


def test_record_entries_take_their_defaults():
    cfg = parse_scenario(
        {
            "objects": [
                {"id": "b", "class": "brick", "pose": {"x": 1.0, "y": 0.0}},
                {"id": "p", "class": "pipe", "pose": {"x": 2.0, "y": 0.0}},
            ],
            "corruptions": [
                {"op": "erode"},
                {"op": "holes"},
                {"op": "cut_band", "target_id": "b"},
                {"op": "relabel", "region": [0, 1, 0, 1]},
            ],
            "injections": {"depth_bias": [{"id": "b"}]},
        }
    )
    assert cfg.objects == (
        ObjectSpec("b", ObjectClass.BRICK, BrickDims(*DEFAULT_BRICK), 1.0, 0.0, 0.0),
        ObjectSpec("p", ObjectClass.PIPE, PipeDims(*DEFAULT_PIPE), 2.0, 0.0, 0.0),
    )
    assert cfg.seg_ops == (Erode(1), Holes(0.0, 0), CutBand("b", 1), Relabel((0, 1, 0, 1), 0))
    assert cfg.injections == (DepthBiasInjection("b", 0.0),)


def test_integral_numbers_parse_as_floats():
    as_int = parse_scenario({"ugv": {"speed": 1}, "arm": {"phase_durations": {"grasp": 2}}})
    as_float = parse_scenario({"ugv": {"speed": 1.0}, "arm": {"phase_durations": {"grasp": 2.0}}})
    assert config_digest(as_int) == config_digest(as_float)


def test_config_digest_tracks_content_not_name():
    base = build_benchmark_config()
    reseeded = build_benchmark_config(seed=8)
    assert config_digest(base) != config_digest(reseeded)
    assert config_digest(base) == config_digest(build_benchmark_config())
