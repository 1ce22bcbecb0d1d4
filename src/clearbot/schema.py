"""The scenario: its types and its file form.

A scenario file is one JSON object. :func:`parse_scenario` checks a decoded
document against the schema, fills every missing key with its default and
builds a :class:`ScenarioConfig`; :func:`scenario_to_dict` writes a config
back in the same form, and ``canonical_json`` of that form is what the
config digest hashes. This module knows nothing of the simulation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .arm import DEFAULT_ARM_CONFIG, ArmConfig, MotionPhase
from .camera import DEFAULT_INTRINSICS, DepthNoiseModel, Intrinsics
from .geometry import Frame, Point3, ReachEnvelope
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
)
from .segmentation import CorruptionOp, CutBand, Erode, Holes, Relabel

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

    def course_frames(self) -> float:
        """Frame periods the drive takes at full speed, stops left out."""
        return self.path_length() / (self.speed * self.frame_period)


class InvalidConfig(ValueError):
    """Scenario rejected; ``errors`` holds (field_path, message) pairs."""

    def __init__(self, errors: Sequence[tuple[str, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in errors)
        super().__init__(lines)


# --- serialization -----------------------------------------------------------------


def _record(value: Any) -> Any:
    """JSON form of a record: a dataclass becomes an object of its fields,
    and a tuple becomes a list."""
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {name: _record(getattr(value, name)) for name in fields}
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
    if kind is str:
        # a JSON "\\ud800" escape decodes to a lone surrogate, which no UTF-8
        # output can write
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            errors.append((path, "expected Unicode text, not a lone surrogate"))
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
    once, by the simulation.
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
