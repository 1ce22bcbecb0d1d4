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
        x0, x1, y0, y1 = object_footprint(self).aabb()
        return float(x0), float(x1), float(y0), float(y1)

    @cached_property
    def aabb_radius(self) -> float:
        """Radius about (x, y) of a disk holding the corners of ``aabb``."""
        if isinstance(self.dims, BrickDims):
            r = math.hypot(self.dims.length, self.dims.width) / 2.0
        else:
            r = self.dims.length / 2.0 + self.dims.radius
        return math.sqrt(2.0) * r


@dataclass(frozen=True)
class RectFootprint:
    """Oriented rectangle on the floor plane (brick footprint)."""

    cx: float
    cy: float
    yaw: float
    length: float
    width: float

    @property
    def area(self) -> float:
        return self.length * self.width

    def corners(self) -> np.ndarray:
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = self.length / 2.0, self.width / 2.0
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])

    def contains(self, x, y, margin: float = 0.0):
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        dx = np.asarray(x, dtype=float) - self.cx
        dy = np.asarray(y, dtype=float) - self.cy
        lx = dx * c + dy * s
        ly = -dx * s + dy * c
        return (np.abs(lx) <= self.length / 2.0 + margin) & (np.abs(ly) <= self.width / 2.0 + margin)

    def aabb(self) -> tuple[float, float, float, float]:
        pts = self.corners()
        return pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max()


@dataclass(frozen=True)
class StadiumFootprint:
    """Segment dilated by a radius (lying cylinder footprint)."""

    cx: float
    cy: float
    yaw: float
    length: float
    radius: float

    @property
    def area(self) -> float:
        return self.length * 2.0 * self.radius + math.pi * self.radius**2

    def segment(self) -> tuple[np.ndarray, np.ndarray]:
        h = np.array([math.cos(self.yaw), math.sin(self.yaw)]) * (self.length / 2.0)
        center = np.array([self.cx, self.cy])
        return center - h, center + h

    def contains(self, x, y, margin: float = 0.0):
        a, b = self.segment()
        px = np.asarray(x, dtype=float) - a[0]
        py = np.asarray(y, dtype=float) - a[1]
        ab = b - a
        denom = float(ab @ ab)
        t = np.clip((px * ab[0] + py * ab[1]) / denom, 0.0, 1.0)
        dx = px - t * ab[0]
        dy = py - t * ab[1]
        return dx * dx + dy * dy <= (self.radius + margin) ** 2

    def aabb(self) -> tuple[float, float, float, float]:
        a, b = self.segment()
        r = self.radius
        return (
            min(a[0], b[0]) - r,
            max(a[0], b[0]) + r,
            min(a[1], b[1]) - r,
            max(a[1], b[1]) + r,
        )


Footprint = RectFootprint | StadiumFootprint


def object_footprint(obj: ObjectSpec) -> Footprint:
    """Exact floor-plane footprint of an object."""
    if isinstance(obj.dims, BrickDims):
        return RectFootprint(obj.x, obj.y, obj.yaw, obj.dims.length, obj.dims.width)
    return StadiumFootprint(obj.x, obj.y, obj.yaw, obj.dims.length, obj.dims.radius)


# --- exact footprint overlap tests -----------------------------------------
# Touching boundaries do not count as overlap; penetration must exceed _TOL.

_TOL = 1e-9


def _seg_seg_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between two 2D segments."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r

    if a <= 1e-30 and e <= 1e-30:
        return float(np.hypot(*r))
    if a <= 1e-30:
        t = np.clip(f / e, 0.0, 1.0)
        return float(np.linalg.norm(p1 - (q1 + t * d2)))
    c = d1 @ r
    if e <= 1e-30:
        s = np.clip(-c / a, 0.0, 1.0)
        return float(np.linalg.norm(p1 + s * d1 - q1))

    b = d1 @ d2
    denom = a * e - b * b
    s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-30 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0)
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + s * d1 - (q1 + t * d2)))


def _rect_rect_overlap(a: RectFootprint, b: RectFootprint) -> bool:
    ca, cb = a.corners(), b.corners()
    best_gap = -math.inf
    for rect in (a, b):
        for ang in (rect.yaw, rect.yaw + math.pi / 2.0):
            axis = np.array([math.cos(ang), math.sin(ang)])
            pa = ca @ axis
            pb = cb @ axis
            gap = max(pa.min() - pb.max(), pb.min() - pa.max())
            best_gap = max(best_gap, gap)
    return best_gap < -_TOL


def _seg_rect_distance(p1, p2, rect: RectFootprint) -> float:
    # Work in the rectangle's local axis-aligned frame.
    c, s = math.cos(rect.yaw), math.sin(rect.yaw)
    rot = np.array([[c, s], [-s, c]])
    a = rot @ (np.asarray(p1, dtype=float) - [rect.cx, rect.cy])
    b = rot @ (np.asarray(p2, dtype=float) - [rect.cx, rect.cy])
    hl, hw = rect.length / 2.0, rect.width / 2.0
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


def footprints_overlap(a: Footprint, b: Footprint) -> bool:
    """True when the footprint interiors intersect (touching is allowed)."""
    if isinstance(a, RectFootprint) and isinstance(b, RectFootprint):
        return _rect_rect_overlap(a, b)
    if isinstance(a, StadiumFootprint) and isinstance(b, StadiumFootprint):
        a1, a2 = a.segment()
        b1, b2 = b.segment()
        return _seg_seg_distance(a1, a2, b1, b2) < a.radius + b.radius - _TOL
    if isinstance(a, RectFootprint):
        a, b = b, a
    # a is the stadium, b the rectangle
    s1, s2 = a.segment()
    return _seg_rect_distance(s1, s2, b) < a.radius - _TOL


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

    feet = [(o.id, object_footprint(o)) for o in scene.objects]
    for i, j in _aabb_overlapping_pairs([f.aabb() for _, f in feet]):
        if footprints_overlap(feet[i][1], feet[j][1]):
            issues.append(
                Violation(
                    "overlapping_footprints",
                    f"footprints of {feet[i][0]!r} and {feet[j][0]!r} overlap",
                    (feet[i][0], feet[j][0]),
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

