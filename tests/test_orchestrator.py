"""End-to-end pipeline: message bus, state machine, failure attribution,
and the built-in ten-object course."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clearbot import orchestrator
from clearbot.arm import DEFAULT_PHASE_DURATIONS, ArmConfig, PickOutcome
from clearbot.camera import (
    MAX_FIELD_OF_VIEW_DEG,
    DepthNoiseModel,
    Intrinsics,
    apply_noise,
    compose_patches,
    render_full,
)
from clearbot.geometry import Frame, Point3, ReachEnvelope
from clearbot.orchestrator import (
    DISPATCH_LATENCY,
    GEOMETRY_LATENCY,
    SEG_LATENCY,
    AttemptDiagnostics,
    DepthBiasInjection,
    FailureModule,
    InvalidConfig,
    MessageBus,
    PipelineState,
    ScenarioConfig,
    SequenceRegression,
    SimClock,
    Simulation,
    Topic,
    UnattributableFailure,
    attribute_failure,
    build_benchmark_config,
    config_digest,
    messages_to_ndjson,
    parse_scenario,
    payload_to_dict,
    replay_grasp_targets,
    report_to_json,
    run_scenario,
    scenario_to_dict,
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
)
from clearbot.segmentation import CutBand, Erode, Holes, Relabel

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


def test_bus_orders_messages_and_replays_history():
    bus = MessageBus()
    e0 = bus.publish(Topic.CONTROL_STOP, 1.0, "a")
    e1 = bus.publish(Topic.CONTROL_STOP, 1.0, "b")  # equal times are fine
    e2 = bus.publish(Topic.CONTROL_STOP, 2.0, "c")
    assert [e.seq for e in (e0, e1, e2)] == [0, 1, 2]
    bus.publish(Topic.CONTROL_STOP, 3.0, "d")
    assert [e.payload for e in bus.history(Topic.CONTROL_STOP)] == ["a", "b", "c", "d"]


def test_bus_rejects_time_regression_per_topic():
    bus = MessageBus()
    bus.publish(Topic.CAMERA_FRAMES, 5.0, "x")
    with pytest.raises(SequenceRegression):
        bus.publish(Topic.CAMERA_FRAMES, 4.9, "y")
    # an earlier time on a different topic is allowed
    bus.publish(Topic.ARM_STATUS, 0.1, "z")


def test_bus_global_log_preserves_publish_order():
    bus = MessageBus()
    bus.publish(Topic.CAMERA_FRAMES, 0.0, 0)
    bus.publish(Topic.SEGMENTATION_MASKS, 0.5, 1)
    bus.publish(Topic.CAMERA_FRAMES, 1.0, 2)
    assert [e.payload for e in bus.log()] == [0, 1, 2]


def test_ndjson_of_a_growing_bus_equals_a_fresh_serialization():
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.05, 0.3)]))
    sim.run()
    envelopes = sim.bus.log()
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
    report, sim = run_scenario(tiny_scenario([]))
    assert sim.state is PipelineState.DONE
    assert report.attempted == 0 and report.succeeded == 0
    assert sim.bus.history(Topic.CONTROL_STOP) == ()
    assert sim.bus.history(Topic.ARM_COMMANDS) == ()
    assert len(sim.bus.history(Topic.CAMERA_FRAMES)) > 0


def test_single_brick_flow_stops_once_and_picks():
    report, sim = run_scenario(tiny_scenario([brick("b", 1.2, 0.05, 0.3)]))
    assert report.attempted == 1 and report.succeeded == 1
    (rec,) = report.records
    assert rec.object_id == "b" and rec.outcome == "Success"
    assert rec.cause == "" and rec.attribution == ()
    assert rec.elapsed_s == 20.0
    stops = sim.bus.history(Topic.CONTROL_STOP)
    commands = sim.bus.history(Topic.ARM_COMMANDS)
    assert len(stops) == 1 and len(commands) == 1
    assert commands[0].payload.matched_id == "b"
    # the stop precedes the arm command both in publish order and in time
    log = sim.bus.log()
    assert log.index(stops[0]) < log.index(commands[0])
    assert stops[0].t < commands[0].t
    assert sim.scene.objects == ()
    assert sim.removed == [("b", pytest.approx(commands[0].t + 17.0))]


def test_vehicle_holds_still_through_the_pick():
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.0)]))
    while sim.state is not PipelineState.PICKING:
        sim.step()
    parked = sim.distance
    sim.step()  # executes the pick
    assert sim.state is PipelineState.RESUMING
    assert sim.distance == parked
    # standstill frames record a stationary vehicle at the parked pose
    standstill = [
        e.payload for e in sim.bus.history(Topic.CAMERA_FRAMES) if e.payload.standstill
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


def test_state_transitions_stay_legal():
    legal = {
        (PipelineState.DRIVING, PipelineState.DRIVING),
        (PipelineState.DRIVING, PipelineState.STOPPING),
        (PipelineState.DRIVING, PipelineState.DONE),
        (PipelineState.STOPPING, PipelineState.PICKING),
        (PipelineState.PICKING, PipelineState.RESUMING),
        (PipelineState.RESUMING, PipelineState.DRIVING),
    }
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.0)]))
    prev = sim.state
    for _ in range(10000):
        state = sim.step()
        assert (prev, state) in legal
        prev = state
        if state is PipelineState.DONE:
            break
    assert sim.state is PipelineState.DONE


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
    report, _, _ = benchmark_run
    assert report.attempted == 10 and report.succeeded == 7
    got = {r.object_id: (r.outcome, r.attribution) for r in report.records}
    assert got == FROZEN_TABLE


def test_course_failures_carry_cause_text(benchmark_run):
    report, _, _ = benchmark_run
    for rec in report.records:
        if rec.outcome == "Success":
            assert rec.cause == ""
        else:
            assert rec.cause != ""


def test_course_elapsed_times_come_from_the_phase_table(benchmark_run):
    report, _, _ = benchmark_run
    by_outcome = {
        "Success": 20.0,
        "MissedGrasp": 12.0,
        "BoundaryCollision": 4.0,
    }
    for rec in report.records:
        assert rec.elapsed_s == by_outcome[rec.outcome]


def test_adaptive_order_rescues_the_boundary_pipe(benchmark_run, adaptive_run):
    default_report, _, _ = benchmark_run
    adaptive_report, _ = adaptive_run
    assert adaptive_report.succeeded == 8
    got = {r.object_id: (r.outcome, r.attribution) for r in adaptive_report.records}
    assert got["p3"] == ("Success", ())
    default_wins = {r.object_id for r in default_report.records if r.outcome == "Success"}
    adaptive_wins = {r.object_id for r in adaptive_report.records if r.outcome == "Success"}
    assert default_wins <= adaptive_wins


def test_objects_are_conserved_at_every_step():
    sim = Simulation(build_benchmark_config())
    total = len(sim.scene.objects)
    for _ in range(100000):
        state = sim.step()
        assert len(sim.scene.objects) + len(sim.removed) == total
        # each object is removed once, and a removed object is gone
        gone = {oid for oid, _ in sim.removed}
        assert len(gone) == len(sim.removed)
        assert gone.isdisjoint(o.id for o in sim.scene.objects)
        if state is PipelineState.DONE:
            break
    assert len(sim.removed) == 7


def test_command_latency_is_fixed_and_subsecond(benchmark_run):
    _, sim, _ = benchmark_run
    frames = {e.payload.frame_index: e.payload for e in sim.bus.history(Topic.CAMERA_FRAMES)}
    commands = sim.bus.history(Topic.ARM_COMMANDS)
    assert len(commands) == 10
    budget = SEG_LATENCY + GEOMETRY_LATENCY + DISPATCH_LATENCY
    for env in commands:
        fd = frames[env.payload.frame_index]
        assert fd.standstill
        assert env.t - fd.t_capture == pytest.approx(budget, abs=1e-12)
        assert env.t - fd.t_capture < 1.0


def test_depth_bias_touches_only_its_own_standstill_frame(benchmark_run):
    _, sim, _ = benchmark_run
    frames = [e.payload for e in sim.bus.history(Topic.CAMERA_FRAMES)]
    biased = [fd for fd in frames if fd.bias is not None]
    assert len(biased) == 1
    assert biased[0].standstill and biased[0].bias == 0.02
    # the course has no depth noise, so only the biased frame's depth is altered
    assert [fd for fd in frames if fd.depth_digest is not None] == biased
    # the biased capture is the one that feeds the b2 attempt
    commands = {e.payload.frame_index: e.payload for e in sim.bus.history(Topic.ARM_COMMANDS)}
    assert commands[biased[0].frame_index].matched_id == "b2"


def test_message_times_never_regress_per_topic(benchmark_run):
    _, sim, _ = benchmark_run
    for topic in Topic:
        times = [e.t for e in sim.bus.history(topic)]
        assert times == sorted(times)
        seqs = [e.seq for e in sim.bus.history(topic)]
        assert seqs == list(range(len(seqs)))


# --- determinism and replay ----------------------------------------------------------


def test_same_seed_gives_byte_identical_reports(benchmark_run, benchmark_rerun):
    report_a, sim_a, _ = benchmark_run
    report_b, sim_b = benchmark_rerun
    assert report_to_json(report_a) == report_to_json(report_b)
    assert messages_to_ndjson(sim_a.bus) == messages_to_ndjson(sim_b.bus)
    assert report_a.log_digest == report_b.log_digest


def test_grasp_targets_replay_exactly_from_the_log(benchmark_run):
    _, sim, _ = benchmark_run
    replayed = replay_grasp_targets(sim.bus.history(Topic.CAMERA_FRAMES), sim.cfg)
    published = [e.payload for e in sim.bus.history(Topic.GRASP_TARGETS)]
    assert [payload for _, payload in replayed] == published
    assert len(published) > 0
    logged = sim.bus.history(Topic.SEGMENTATION_MASKS)
    assert len(logged) == len(replayed)
    for (mask, _), env in zip(replayed, logged):
        assert _same_bits(mask, env.payload.data)


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
    noisy = draw(st.booleans())
    cfg = ScenarioConfig(
        name="capture",
        objects=tuple(objects),
        intrinsics=intrinsics,
        ugv_start=(0.0, draw(floats(-0.2, 0.2))),
        noise=DepthNoiseModel(sigma=0.005, dropout_prob=0.1) if noisy else DepthNoiseModel(),
        injections=tuple(DepthBiasInjection(o.id, 0.02) for o in objects[:1]),
        seed=draw(st.integers(0, 2**32)),
    )
    assume(validate_config(cfg) == [])
    inject_for = draw(st.sampled_from([None] + [inj.object_id for inj in cfg.injections]))
    return cfg, inject_for


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=60)
@given(capture=captures())
def test_frame_images_recompose_bit_for_bit(capture):
    # the view the log and replay rebuild from patches is the view the
    # simulation perceived at capture time
    cfg, inject_for = capture
    sim = Simulation(cfg)
    fd, captured = sim._capture(standstill=False, inject_for=inject_for)
    rr = render_full(sim.scene, cfg.intrinsics)
    labels, depth, index = compose_patches(fd.shape, rr.floor_depth, rr.patches)
    view = fd.images(cfg)
    for images in (view, captured):
        assert _same_bits(images.labels.data, labels)
        assert _same_bits(images.clean_depth.data, depth)
        assert _same_bits(images.instances.index, index)
        assert images.instances.ids == tuple(o.id for o in cfg.objects)
    assert _same_bits(view.depth.data, captured.depth.data)
    # what the log keeps of the frame is what the rebuilt view gives
    assert fd.class_pixels == (int((labels == 1).sum()), int((labels == 2).sum()))
    altered = not cfg.noise.is_identity or inject_for is not None
    assert (view.depth is not view.clean_depth) == altered
    want = orchestrator._array_digest(view.depth.data) if altered else None
    assert fd.depth_digest == want


@settings(deadline=None, max_examples=60)
@given(capture=captures(), data=st.data())
def test_depth_bias_injection_is_apply_noise_with_that_bias(capture, data):
    # the injection offsets valid pixels only, bit for bit as apply_noise
    # does for a bias-only model; biases that cancel a pixel's depth exactly
    # are drawn too
    cfg, _ = capture
    assume(cfg.injections)
    oid = cfg.injections[0].object_id
    _, plain = Simulation(cfg)._capture(standstill=True, inject_for=None)
    depth = plain.depth.data
    cancelling = -depth[(depth > 0.0) & (depth < cfg.camera_mount.height)]
    biases = floats(-1.0, 1.0)
    if cancelling.size:
        biases |= st.sampled_from(sorted(set(cancelling.tolist())))
    bias = data.draw(biases)
    sim = Simulation(dataclasses.replace(cfg, injections=(DepthBiasInjection(oid, bias),)))
    _, injected = sim._capture(standstill=True, inject_for=oid)
    seed = data.draw(st.integers(0, 2**32))
    want = apply_noise(plain.depth, DepthNoiseModel(bias=bias), seed)
    assert _same_bits(injected.depth.data, want.data)


NOISY = DepthNoiseModel(sigma=0.002, dropout_prob=0.01)


def test_step_loop_composes_each_frame_once(monkeypatch):
    calls = {"compose_patches": 0, "apply_noise": 0}
    for name in calls:
        real = getattr(orchestrator, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(orchestrator, name, counting)
    sim = Simulation(tiny_scenario([brick("b", 1.2, 0.05, 0.3)], noise=NOISY))
    while sim.state is not PipelineState.DONE:
        sim.step()
    frames = len(sim.bus.history(Topic.CAMERA_FRAMES))
    # one view per capture, and its noise drawn once
    assert calls == {"compose_patches": frames, "apply_noise": frames}
    report = sim.run()  # already done: serializes the log for its digest
    assert report.succeeded == 1
    # the log takes each frame's facts from capture: it builds no image
    assert calls == {"compose_patches": frames, "apply_noise": frames}
    messages_to_ndjson(sim.bus)
    assert calls == {"compose_patches": frames, "apply_noise": frames}


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
    # a noisy lane alters every frame's depth; the bus keeps its inputs only
    _, sim = run_scenario(tiny_scenario([brick("b", 1.2, 0.05, 0.3)], noise=NOISY))
    frames = [env.payload for env in sim.bus.history(Topic.CAMERA_FRAMES)]
    assert any(fd.patches for fd in frames)
    for fd in frames:
        assert [id(a) for a in _arrays(fd)] == [id(p.zbuf) for p in fd.patches]
    assert all(fd.depth_digest is not None for fd in frames)


def test_report_json_schema(benchmark_run):
    report, _, _ = benchmark_run
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


def test_ndjson_log_is_one_canonical_line_per_message(benchmark_run):
    _, sim, _ = benchmark_run
    text = messages_to_ndjson(sim.bus)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(sim.bus.log())
    for line, env in zip(lines, sim.bus.log()):
        doc = json.loads(line)
        assert set(doc) == {"topic", "seq", "t", "payload"}
        assert doc["topic"] == env.topic.value
        assert doc["seq"] == env.seq
        # canonical form: no whitespace, sorted keys
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == line
    # image payloads are digested, never inlined
    assert "zbuf" not in text


RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "recorded.json"


@pytest.mark.parametrize(
    "run, entry", [("benchmark_run", "course"), ("adaptive_run", "adaptive_course")]
)
def test_course_outputs_match_the_recorded_digests(request, run, entry):
    # the benchmark records these hashes; a renamed or dropped log or report
    # key changes them even when two runs still agree with each other
    report, sim = request.getfixturevalue(run)[:2]
    recorded = json.loads(RECORDED.read_text())["digests"][entry]
    log = messages_to_ndjson(sim.bus)
    assert report.log_digest == recorded["log_digest"]
    assert hashlib.sha256(log.encode()).hexdigest() == recorded["log_digest"]
    assert (
        hashlib.sha256(report_to_json(report).encode()).hexdigest()
        == recorded["report_sha256"]
    )


def test_payload_to_dict_names_an_unknown_payload_type():
    @dataclass(frozen=True)
    class Odometry:
        frame_index: int

    with pytest.raises(TypeError, match="Odometry"):
        payload_to_dict(Odometry(0))


def test_empty_frames_skip_segmentation_and_targets(monkeypatch):
    calls = {"segment": 0, "compute_targets": 0}
    for name in calls:
        real = getattr(orchestrator, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(orchestrator, name, counting)
    ops = (Erode(1), Holes(0.1), CutBand("b", 4), Relabel((0, 8, 0, 8), 2))
    # the brick is in view from the first frame and out of it by the end
    _, sim = run_scenario(tiny_scenario([brick("b", 1.2, 0.05, 0.3)], seg_ops=ops))
    frames = [env.payload for env in sim.bus.history(Topic.CAMERA_FRAMES)]
    seen = sum(1 for fd in frames if fd.patches)
    assert 0 < seen < len(frames)
    assert calls == {"segment": seen, "compute_targets": seen}

    masks = sim.bus.history(Topic.SEGMENTATION_MASKS)
    targets = sim.bus.history(Topic.GRASP_TARGETS)
    for fd, mask, tgt in zip(frames, masks, targets):
        if fd.patches:
            continue
        # what the full path would have published for this frame
        images = fd.images(sim.cfg)
        full = orchestrator.segment(images.labels, ops, seed=0, instances=images.instances)
        assert _same_bits(mask.payload.data, full.data)
        assert mask.t == fd.t_capture + SEG_LATENCY
        assert tgt.payload.targets == ()


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
