"""Mask geometry and the camera-to-arm calibration chain.

Everything downstream of segmentation that turns labeled pixels into grasp
targets lives here: connected components, 3-D centers from depth, principal
orientation of a pixel blob, rigid transforms between the camera and arm
frames, and the reachability gate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage

from .camera import DepthImage, Intrinsics, LabelImage, backproject
from .scene import ArmMount, CameraMount, ObjectClass


class Frame(enum.Enum):
    CAMERA = "camera"
    ARM = "arm"
    ROBOT = "robot"
    WORLD = "world"


class FrameMismatch(ValueError):
    """Raised when geometry from different frames is combined."""


class TooFewPoints(ValueError):
    """Raised when a fit is requested with fewer point pairs than it needs."""


class DegenerateConfiguration(ValueError):
    """Raised when calibration points do not pin down a unique rotation."""


class InsufficientDepth(ValueError):
    """Raised when too few pixels of a component carry valid depth."""


class IllConditioned(ValueError):
    """Raised when an orientation has no meaningful projection in a frame."""


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float
    frame: Frame

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


_TOL = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation mapping points from ``src`` into ``dst``."""

    rotation: np.ndarray
    translation: np.ndarray
    src: Frame
    dst: Frame

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if not np.allclose(r @ r.T, np.eye(3), atol=_TOL):
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _TOL:
            raise ValueError("rotation matrix must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, p: Point3) -> Point3:
        if p.frame is not self.src:
            raise FrameMismatch(f"transform expects {self.src.value}, got {p.frame.value}")
        v = self.rotation @ p.as_array() + self.translation
        return Point3(float(v[0]), float(v[1]), float(v[2]), self.dst)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation, src=self.dst, dst=self.src)


def transform_to_arm(p: Point3, t: RigidTransform) -> Point3:
    """Map a camera-frame point into the arm frame: R p + t."""
    if p.frame is not Frame.CAMERA:
        raise FrameMismatch(f"expected a camera-frame point, got {p.frame.value}")
    if t.src is not Frame.CAMERA or t.dst is not Frame.ARM:
        raise FrameMismatch("transform must map the camera frame into the arm frame")
    return t.apply(p)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying ``b`` first, then ``a``."""
    if b.dst is not a.src:
        raise FrameMismatch(f"cannot chain {b.dst.value} into {a.src.value}")
    return RigidTransform(
        a.rotation @ b.rotation,
        a.rotation @ b.translation + a.translation,
        src=b.src,
        dst=a.dst,
    )


def rotation_about_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Camera optical frame vs robot frame for a nadir camera: x is shared,
# y and z flip. Involution, so also the inverse.
_R_CAM_TO_ROBOT = np.diag([1.0, -1.0, -1.0])


def camera_to_arm_transform(camera: CameraMount, arm: ArmMount) -> RigidTransform:
    """Exact extrinsic chain between the two mounts on the same vehicle."""
    r_arm_inv = rotation_about_z(-arm.yaw)
    rotation = r_arm_inv @ _R_CAM_TO_ROBOT
    offset = np.array([camera.x - arm.x, camera.y - arm.y, camera.height - arm.z])
    translation = r_arm_inv @ offset
    return RigidTransform(rotation, translation, src=Frame.CAMERA, dst=Frame.ARM)


def estimate_rigid_transform(
    pairs: Sequence[tuple[Point3, Point3]],
) -> RigidTransform:
    """Least-squares rigid fit from point correspondences (SVD method).

    Each pair is (point in source frame, same point in destination frame).
    Needs at least 3 pairs and a non-collinear spread in the source points.
    """
    if len(pairs) < 3:
        raise TooFewPoints(f"need at least 3 point pairs, got {len(pairs)}")
    src_frame = pairs[0][0].frame
    dst_frame = pairs[0][1].frame
    for ps, pd in pairs:
        if ps.frame is not src_frame or pd.frame is not dst_frame:
            raise FrameMismatch("all pairs must share the same two frames")
    p = np.array([ps.as_array() for ps, _ in pairs])
    q = np.array([pd.as_array() for _, pd in pairs])
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    h = pc.T @ qc
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-9 * max(s[0], 1.0):
        raise DegenerateConfiguration("point pairs are collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = q.mean(axis=0) - rotation @ p.mean(axis=0)
    return RigidTransform(rotation, translation, src=src_frame, dst=dst_frame)


def registration_rms(t: RigidTransform, pairs: Sequence[tuple[Point3, Point3]]) -> float:
    errs = []
    for ps, pd in pairs:
        mapped = t.apply(ps)
        errs.append(
            (mapped.x - pd.x) ** 2 + (mapped.y - pd.y) ** 2 + (mapped.z - pd.z) ** 2
        )
    return math.sqrt(sum(errs) / len(errs))


# --- connected components ----------------------------------------------------

A_MIN_COMPONENT_PX = 25

_STRUCTURE_8 = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class MaskComponent:
    cls: ObjectClass
    pixels: np.ndarray  # (N, 2) rows of (row, col), raster order
    area: int
    bbox: tuple[int, int, int, int]  # r0, r1, c0, c1 half-open
    seed_pixel: tuple[int, int]

    @staticmethod
    def from_pixels(cls: ObjectClass, pixels: np.ndarray) -> "MaskComponent":
        pixels = np.asarray(pixels, dtype=np.int64)
        rows, cols = pixels[:, 0], pixels[:, 1]
        order = np.lexsort((cols, rows))
        pixels = pixels[order]
        return MaskComponent(
            cls=cls,
            pixels=pixels,
            area=len(pixels),
            bbox=(int(rows.min()), int(rows.max()) + 1, int(cols.min()), int(cols.max()) + 1),
            seed_pixel=(int(pixels[0, 0]), int(pixels[0, 1])),
        )

    def touches_border(self, width: int, height: int) -> bool:
        r0, r1, c0, c1 = self.bbox
        return r0 == 0 or c0 == 0 or r1 == height or c1 == width


def connected_components(
    labels: LabelImage, cls: ObjectClass, min_area: int = A_MIN_COMPONENT_PX
) -> list[MaskComponent]:
    """8-connected components of one class, ordered by first raster pixel."""
    mask = labels.data == cls.label
    occupied_rows = np.flatnonzero(mask.any(axis=1))
    if not len(occupied_rows):
        return []
    occupied_cols = np.flatnonzero(mask.any(axis=0))
    r0, c0 = occupied_rows[0], occupied_cols[0]
    # labelling only the occupied crop gives the same components: the rows
    # and columns cut away hold no pixel of the class
    crop = mask[r0 : occupied_rows[-1] + 1, c0 : occupied_cols[-1] + 1]
    lab, _ = ndimage.label(crop, structure=_STRUCTURE_8)
    comps = []
    for i, (rs, cs) in enumerate(ndimage.find_objects(lab), start=1):
        rows, cols = np.nonzero(lab[rs, cs] == i)
        if len(rows) < min_area:
            continue
        pixels = np.stack([rows + (r0 + rs.start), cols + (c0 + cs.start)], axis=1)
        comps.append(MaskComponent.from_pixels(cls, pixels))
    comps.sort(key=lambda cmp: (cmp.seed_pixel[0], cmp.seed_pixel[1]))
    return comps


def component_center_3d(
    component: MaskComponent, depth: DepthImage, k: Intrinsics
) -> Point3:
    """Camera-frame 3-D center: mean pixel at the median valid depth."""
    rows = component.pixels[:, 0]
    cols = component.pixels[:, 1]
    z = depth.data[rows, cols]
    valid = z > 0.0
    if valid.sum() < 0.5 * component.area:
        raise InsufficientDepth(
            f"only {int(valid.sum())}/{component.area} pixels carry valid depth"
        )
    z_med = float(np.median(z[valid]))
    u = float(cols.mean())
    v = float(rows.mean())
    p = backproject(u, v, z_med, k)
    return Point3(float(p[0]), float(p[1]), float(p[2]), Frame.CAMERA)


# --- principal orientation ---------------------------------------------------


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, counterclockwise in (x, y) = (col, row) coords."""
    # plain tuples: the chain's scalar arithmetic is far slower on numpy scalars
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) <= 2:
        return np.array(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def principal_orientation(component: MaskComponent) -> float:
    """Angle of the long edge of the minimum-area enclosing rectangle.

    Works in (x, y) = (col, row) pixel coordinates and returns an angle in
    [0, pi). Rotating-calipers over hull edge directions is exact for
    integer pixel input, so the result is translation invariant.
    """
    # Only each row's first and last pixel matter: every other pixel lies
    # between them, so the hull is the same, and for a fixed row the float
    # projection c*ux + r*uy is monotone in c, so the caliper extremes over
    # these points equal those over all pixels, bit for bit. Projecting the
    # hull vertices alone would not do: a point inside a hull edge can round
    # differently in the last ulp. Needs the raster order of ``pixels``.
    rows = component.pixels[:, 0]
    breaks = np.concatenate(([True], rows[1:] != rows[:-1], [True]))
    pts = component.pixels[breaks[:-1] | breaks[1:], ::-1].astype(float)  # (col, row)
    hull = _convex_hull(pts)
    if len(hull) == 1:
        return 0.0
    if len(hull) == 2:
        d = hull[1] - hull[0]
        return math.atan2(d[1], d[0]) % math.pi

    best = None
    n = len(hull)
    for i in range(n):
        edge = hull[(i + 1) % n] - hull[i]
        norm = math.hypot(edge[0], edge[1])
        if norm < 1e-12:
            continue
        ux, uy = edge[0] / norm, edge[1] / norm
        proj_u = pts @ np.array([ux, uy])
        proj_v = pts @ np.array([-uy, ux])
        du = proj_u.max() - proj_u.min()
        dv = proj_v.max() - proj_v.min()
        area = du * dv
        if du >= dv:
            angle = math.atan2(uy, ux) % math.pi
        else:
            angle = math.atan2(ux, -uy) % math.pi
        if (
            best is None
            or area < best[0] - 1e-12
            or (area <= best[0] + 1e-12 and angle < best[1])
        ):
            best = (area, angle)
    return best[1]


def orientation_to_arm(theta: float, t: RigidTransform) -> float:
    """Map an in-image-plane orientation through ``t`` into its XY plane.

    The orientation is a line direction, so the result is folded to [0, pi).
    """
    if t.src is not Frame.CAMERA:
        raise FrameMismatch("orientation is defined in the camera frame")
    d = t.rotation @ np.array([math.cos(theta), math.sin(theta), 0.0])
    nxy = math.hypot(d[0], d[1])
    if nxy < 1e-6:
        raise IllConditioned("orientation projects to a point in the arm XY plane")
    return math.atan2(d[1], d[0]) % math.pi


# --- reachability ------------------------------------------------------------


@dataclass(frozen=True)
class ReachEnvelope:
    """Annulus of horizontal reach plus a vertical band, all inclusive."""

    r_min: float = 0.25
    r_max: float = 0.90
    z_min: float = -0.20
    z_max: float = 0.50

    def __post_init__(self) -> None:
        if not (0.0 <= self.r_min < self.r_max):
            raise ValueError("need 0 <= r_min < r_max")
        if self.z_min >= self.z_max:
            raise ValueError("need z_min < z_max")


DEFAULT_ENVELOPE = ReachEnvelope()


def in_reach(p: Point3, envelope: ReachEnvelope = DEFAULT_ENVELOPE) -> bool:
    if p.frame is not Frame.ARM:
        raise FrameMismatch("reachability is evaluated in the arm frame")
    r = math.hypot(p.x, p.y)
    return (
        envelope.r_min <= r <= envelope.r_max
        and envelope.z_min <= p.z <= envelope.z_max
    )


@dataclass(frozen=True)
class GraspTarget:
    """A pick request in the arm frame: where, at what yaw, what class."""

    center: Point3
    yaw: float
    cls: ObjectClass
    component_index: int
    frame_seq: int

    def __post_init__(self) -> None:
        if self.center.frame is not Frame.ARM:
            raise FrameMismatch("grasp targets live in the arm frame")
        object.__setattr__(self, "yaw", self.yaw % math.pi)
