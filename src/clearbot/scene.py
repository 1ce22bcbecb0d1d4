"""Ground-truth world model: rigid objects on a flat floor, plus the UGV,
camera, and arm mounting frames.

Everything in this module is simulation truth. The perception stack only
ever sees rendered images of this state; the failure-attribution machinery
and the tests read it directly.

Conventions: world and robot frames are right-handed with +z up and the
floor at z = 0. Lengths are meters, angles radians. The robot frame is the
UGV body frame (x forward, y left); mounts are expressed in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

# Reliable top-down stereo depth degrades quickly past this range, so scene
# validation rejects cameras mounted higher.
MAX_CAMERA_HEIGHT = 1.5

LABEL_UNLABELED = 0


class ObjectClass(Enum):
    BRICK = "brick"
    PIPE = "pipe"

    @property
    def label(self) -> int:
        """Integer code used in label images (0 is reserved for unlabeled)."""
        return _LABEL_CODES[self]


_LABEL_CODES = {ObjectClass.BRICK: 1, ObjectClass.PIPE: 2}


# Default object sizes. A standard clay brick and a short PVC pipe segment,
# rounded to the millimeter.
DEFAULT_BRICK = (0.20, 0.095, 0.057)  # length, width, height
DEFAULT_PIPE = (0.03, 0.40)  # radius, length


@dataclass(frozen=True)
class BrickDims:
    length: float
    width: float
    height: float

    def __post_init__(self) -> None:
        # the chained comparison also rejects NaN, which compares false
        for name in ("length", "width", "height"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"brick {name} must be positive and finite")
        if self.length < self.width:
            raise ValueError("brick length must be >= width (canonical orientation)")


@dataclass(frozen=True)
class PipeDims:
    radius: float
    length: float

    def __post_init__(self) -> None:
        for name in ("radius", "length"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"pipe {name} must be positive and finite")


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; heading is normalized to [-pi, pi)."""

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self) -> None:
        wrapped = (float(self.heading) + math.pi) % (2.0 * math.pi) - math.pi
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "heading", wrapped)


@dataclass(frozen=True)
class ObjectSpec:
    """One rigid object resting on the floor.

    ``yaw`` is the direction of the brick's length axis or the pipe's
    cylinder axis. Bricks sit flat; pipes lie on their side, so a pipe's
    resting center height equals its radius.
    """

    id: str
    cls: ObjectClass
    dims: BrickDims | PipeDims
    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("object id must be non-empty")
        expected = BrickDims if self.cls is ObjectClass.BRICK else PipeDims
        if not isinstance(self.dims, expected):
            raise ValueError(f"{self.cls.value} object {self.id!r} has {type(self.dims).__name__} dims")
        for name in ("x", "y", "yaw"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"object {self.id!r} {name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def top_height(self) -> float:
        """Height of the object's highest surface above the floor."""
        if isinstance(self.dims, BrickDims):
            return self.dims.height
        return 2.0 * self.dims.radius

    # The object is immutable, so these are computed once, on first use, and
    # kept on it.

    @cached_property
    def aabb(self) -> tuple[float, float, float, float]:
        """(x0, x1, y0, y1) of the footprint's axis-aligned bounding box, in
        Python floats."""
        if isinstance(self.dims, BrickDims):
            xs, ys = zip(*_corners(self))
            return min(xs), max(xs), min(ys), max(ys)
        (ax, ay), (bx, by) = _axis(self)
        r = self.dims.radius
        return min(ax, bx) - r, max(ax, bx) + r, min(ay, by) - r, max(ay, by) + r

    @cached_property
    def aabb_radius(self) -> float:
        """Radius about (x, y) of a disk holding the corners of ``aabb``."""
        if isinstance(self.dims, BrickDims):
            r = math.hypot(self.dims.length, self.dims.width) / 2.0
        else:
            r = self.dims.length / 2.0 + self.dims.radius
        return math.sqrt(2.0) * r


def _corners(obj: ObjectSpec) -> tuple[tuple[float, float], ...]:
    """The four (x, y) corners of a brick's footprint, counterclockwise."""
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    hl, hw = obj.dims.length / 2.0, obj.dims.width / 2.0
    return tuple(
        (lx * c - ly * s + obj.x, lx * s + ly * c + obj.y)
        for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    )


def _axis(obj: ObjectSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """(x, y) end points of a pipe's axis; its footprint is this segment
    dilated by the radius."""
    h = obj.dims.length / 2.0
    hx, hy = math.cos(obj.yaw) * h, math.sin(obj.yaw) * h
    return (obj.x - hx, obj.y - hy), (obj.x + hx, obj.y + hy)


# --- exact footprint overlap tests -----------------------------------------
# Touching boundaries do not count as overlap; penetration must exceed _TOL.
# Every sum of products is written out on Python floats: a BLAS dot product
# or matmul rounds differently on different CPUs (FMA or not), and whether
# two close objects are accepted must not depend on the CPU.

_TOL = 1e-9


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _seg_seg_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between two 2D segments, given by their (x, y) end
    points."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = q2[0] - q1[0], q2[1] - q1[1]
    rx, ry = p1[0] - q1[0], p1[1] - q1[1]
    a = d1x * d1x + d1y * d1y
    e = d2x * d2x + d2y * d2y
    f = d2x * rx + d2y * ry

    if a <= 1e-30 and e <= 1e-30:
        return math.hypot(rx, ry)
    if a <= 1e-30:
        t = _clamp01(f / e)
        return math.hypot(p1[0] - (q1[0] + t * d2x), p1[1] - (q1[1] + t * d2y))
    c = d1x * rx + d1y * ry
    if e <= 1e-30:
        s = _clamp01(-c / a)
        return math.hypot(p1[0] + s * d1x - q1[0], p1[1] + s * d1y - q1[1])

    b = d1x * d2x + d1y * d2y
    denom = a * e - b * b
    s = _clamp01((b * f - c * e) / denom) if denom > 1e-30 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = _clamp01(-c / a)
    elif t > 1.0:
        t = 1.0
        s = _clamp01((b - c) / a)
    return math.hypot(p1[0] + s * d1x - (q1[0] + t * d2x), p1[1] + s * d1y - (q1[1] + t * d2y))


def _rect_rect_overlap(a: ObjectSpec, b: ObjectSpec) -> bool:
    ca, cb = _corners(a), _corners(b)
    best_gap = -math.inf
    for rect in (a, b):
        for ang in (rect.yaw, rect.yaw + math.pi / 2.0):
            ux, uy = math.cos(ang), math.sin(ang)
            pa = [x * ux + y * uy for x, y in ca]
            pb = [x * ux + y * uy for x, y in cb]
            gap = max(min(pa) - max(pb), min(pb) - max(pa))
            best_gap = max(best_gap, gap)
    return best_gap < -_TOL


def _seg_rect_distance(p1, p2, brick: ObjectSpec) -> float:
    # Work in the brick's local axis-aligned frame.
    c, s = math.cos(brick.yaw), math.sin(brick.yaw)

    def local(p):
        dx, dy = p[0] - brick.x, p[1] - brick.y
        return c * dx + s * dy, -s * dx + c * dy

    a, b = local(p1), local(p2)
    hl, hw = brick.dims.length / 2.0, brick.dims.width / 2.0
    inside = lambda p: abs(p[0]) <= hl and abs(p[1]) <= hw
    if inside(a) or inside(b):
        return 0.0
    edges = [
        ((-hl, -hw), (hl, -hw)),
        ((hl, -hw), (hl, hw)),
        ((hl, hw), (-hl, hw)),
        ((-hl, hw), (-hl, -hw)),
    ]
    return min(_seg_seg_distance(a, b, e1, e2) for e1, e2 in edges)


def footprints_overlap(a: ObjectSpec, b: ObjectSpec) -> bool:
    """True when the footprint interiors intersect (touching is allowed)."""
    a_brick, b_brick = isinstance(a.dims, BrickDims), isinstance(b.dims, BrickDims)
    if a_brick and b_brick:
        return _rect_rect_overlap(a, b)
    if not a_brick and not b_brick:
        return _seg_seg_distance(*_axis(a), *_axis(b)) < a.dims.radius + b.dims.radius - _TOL
    if a_brick:
        a, b = b, a
    # a is the pipe, b the brick
    return _seg_rect_distance(*_axis(a), b) < a.dims.radius - _TOL


# --- mounts and scene -------------------------------------------------------


@dataclass(frozen=True)
class CameraMount:
    """Camera position in the robot frame; orientation is fixed top-down with
    the image x axis along robot x."""

    x: float
    y: float
    height: float


@dataclass(frozen=True)
class ArmMount:
    """Arm base pose in the robot frame; the arm frame's axes are the robot
    axes rotated by ``yaw`` about z."""

    x: float
    y: float
    z: float
    yaw: float = 0.0


# The camera is mounted ahead of the arm base so that an object is close to
# the camera nadir by the time the UGV has stopped for it; near-nadir views
# keep the mask-centroid parallax bias far below the grasp tolerance.
DEFAULT_ARM_MOUNT = ArmMount(0.40, 0.0, 0.15)
DEFAULT_CAMERA_MOUNT = CameraMount(1.05, 0.0, 1.2)


@dataclass(frozen=True)
class Scene:
    objects: tuple[ObjectSpec, ...]
    ugv: Pose2D = Pose2D(0.0, 0.0, 0.0)
    camera_mount: CameraMount = DEFAULT_CAMERA_MOUNT
    arm_mount: ArmMount = DEFAULT_ARM_MOUNT

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))

    def object_by_id(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)

    def without(self, object_id: str) -> "Scene":
        remaining = tuple(o for o in self.objects if o.id != object_id)
        if len(remaining) == len(self.objects):
            raise KeyError(object_id)
        return replace(self, objects=remaining)


def tallest_object_height(scene: Scene) -> float:
    return max((o.top_height for o in scene.objects), default=0.0)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    ids: tuple[str, ...] = ()


def validate_scene(scene: Scene) -> list[Violation]:
    """Check every scene invariant; returns one entry per violation."""
    issues: list[Violation] = []

    seen: dict[str, int] = {}
    for obj in scene.objects:
        seen[obj.id] = seen.get(obj.id, 0) + 1
    dupes = tuple(k for k, n in seen.items() if n > 1)
    if dupes:
        issues.append(Violation("duplicate_id", f"duplicate object ids: {', '.join(dupes)}", dupes))

    h = scene.camera_mount.height
    if h > MAX_CAMERA_HEIGHT:
        issues.append(
            Violation("camera_height", f"camera height {h:g} m exceeds {MAX_CAMERA_HEIGHT:g} m")
        )
    tallest = tallest_object_height(scene)
    if h <= tallest:
        issues.append(
            Violation(
                "camera_height",
                f"camera height {h:g} m must exceed the tallest object ({tallest:g} m)",
            )
        )

    objs = scene.objects
    for i, j in _aabb_overlapping_pairs([o.aabb for o in objs]):
        a, b = objs[i], objs[j]
        if footprints_overlap(a, b):
            issues.append(
                Violation(
                    "overlapping_footprints",
                    f"footprints of {a.id!r} and {b.id!r} overlap",
                    (a.id, b.id),
                )
            )
    return issues


def _aabb_overlapping_pairs(
    boxes: list[tuple[float, float, float, float]],
) -> list[tuple[int, int]]:
    """Sorted index pairs (i < j) whose closed (x0, x1, y0, y1) boxes meet.

    Sort and sweep along x (Baraff 1992): each box is tested only against
    the boxes still open when its x interval starts.
    """
    pairs = []
    active: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda i: boxes[i][0]):
        x0, _, y0, y1 = boxes[i]
        active = [j for j in active if boxes[j][1] >= x0]
        pairs.extend(
            (min(i, j), max(i, j)) for j in active if boxes[j][2] <= y1 and y0 <= boxes[j][3]
        )
        active.append(i)
    return sorted(pairs)


# --- frame changes ----------------------------------------------------------


def world_to_robot(p, ugv: Pose2D) -> np.ndarray:
    """Map world-frame points (…, 3) into the UGV body frame."""
    p = np.asarray(p, dtype=float)
    c, s = math.cos(ugv.heading), math.sin(ugv.heading)
    out = np.empty_like(p)
    dx = p[..., 0] - ugv.x
    dy = p[..., 1] - ugv.y
    out[..., 0] = dx * c + dy * s
    out[..., 1] = -dx * s + dy * c
    out[..., 2] = p[..., 2]
    return out


def robot_to_world(p, ugv: Pose2D) -> np.ndarray:
    """Inverse of :func:`world_to_robot`."""
    p = np.asarray(p, dtype=float)
    c, s = math.cos(ugv.heading), math.sin(ugv.heading)
    out = np.empty_like(p)
    out[..., 0] = p[..., 0] * c - p[..., 1] * s + ugv.x
    out[..., 1] = p[..., 0] * s + p[..., 1] * c + ugv.y
    out[..., 2] = p[..., 2]
    return out

