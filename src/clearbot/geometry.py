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
from functools import cached_property
from typing import Sequence

import numpy as np

from .camera import DepthImage, Intrinsics, LabelImage
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


def _run_components(mask: np.ndarray) -> tuple[list[int], np.ndarray]:
    """8-connected components of ``mask`` over its row runs (two-pass run
    labelling, Rosenfeld and Pfaltz 1966).

    Returns, for each run in raster order, the index of its component's
    first run, and each run's pixel count. Run ``[s, e)`` (half-open
    columns) touches run ``[s', e')`` of the row above when ``s <= e'`` and
    ``s' <= e``; a union-find joins touching runs, always under the lesser
    root, so every root is the first run of its tree.
    """
    h, w = mask.shape
    # The rows laid end to end, each followed by one unset pixel, after one
    # more: every run starts and ends where a pixel differs from the one
    # before it. Starts and ends are offsets r * stride + column.
    stride = w + 1
    flat = np.zeros(h * stride + 1, dtype=bool)
    flat[1:].reshape(h, stride)[:, :w] = mask
    edges = (flat[1:] != flat[:-1]).nonzero()[0]
    starts, ends = edges[0::2].tolist(), edges[1::2].tolist()

    parent = list(range(len(starts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    above = 0  # the first run that may touch a run still to come
    for i, (s, e) in enumerate(zip(starts, ends)):
        # the same columns one row up: a run of any row higher still ends
        # left of ``s``, and one of this row starts right of ``e``, so the
        # walk below visits the row above alone
        s -= stride
        e -= stride
        while ends[above] < s:
            above += 1
        # the last run touched may touch this row's next run too: the walk
        # resumes at ``above``, not past it
        k, root = above, i
        while starts[k] <= e:
            # a run's parent was a root when it was set, and mostly still is
            b = parent[k]
            if parent[b] != b:
                b = find(b)
            if root == i:
                root = b
            elif b != root:
                root, b = min(root, b), max(root, b)
                parent[b] = root
            k += 1
        parent[i] = root
    # a parent never follows its child, so one forward pass finds every root
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent, np.subtract(ends, starts)


@dataclass(frozen=True, eq=False)
class MaskComponent:
    """One class's 8-connected pixels: row and column indices, raster order.

    Components compare and hash by identity, as their fields are arrays."""

    cls: ObjectClass
    rows: np.ndarray
    cols: np.ndarray

    @property
    def area(self) -> int:
        return len(self.rows)

    @property
    def seed_pixel(self) -> tuple[int, int]:
        return int(self.rows[0]), int(self.cols[0])

    @cached_property
    def bbox(self) -> tuple[int, int, int, int]:
        """r0, r1, c0, c1, half-open; raster order puts the rows at the ends."""
        cols = self.cols
        return int(self.rows[0]), int(self.rows[-1]) + 1, int(cols.min()), int(cols.max()) + 1

    def touches_border(self, width: int, height: int) -> bool:
        r0, r1, c0, c1 = self.bbox
        return r0 == 0 or c0 == 0 or r1 == height or c1 == width


def connected_components(labels: LabelImage, cls: ObjectClass) -> list[MaskComponent]:
    """8-connected components of one class of at least ``A_MIN_COMPONENT_PX``
    pixels, ordered by first raster pixel; each cluster is labelled on its
    own, as no component spans two."""
    code = cls.label
    comps = []
    for r0, r1, c0, c1 in labels.clusters:
        mask = labels.data[r0:r1, c0:c1] == code
        if not mask.any():
            continue
        roots, lengths = _run_components(mask)
        rows, cols = np.nonzero(mask)  # raster order, one run after another
        if not any(roots):
            groups = [(rows, cols)]
        else:
            # a stable sort by first run keeps each component's pixels in raster order
            labs = np.repeat(roots, lengths)
            order = np.argsort(labs, kind="stable")
            cuts = np.flatnonzero(np.diff(labs[order])) + 1
            groups = zip(np.split(rows[order], cuts), np.split(cols[order], cuts))
        comps += [
            MaskComponent(cls, rows + r0, cols + c0)
            for rows, cols in groups
            if len(rows) >= A_MIN_COMPONENT_PX
        ]
    comps.sort(key=lambda cmp: cmp.seed_pixel)
    return comps


def component_center_3d(
    component: MaskComponent, depth: DepthImage, k: Intrinsics
) -> Point3:
    """Camera-frame 3-D center: mean pixel at the median valid depth."""
    rows, cols = component.rows, component.cols
    z = depth.data[rows, cols]
    z = z[z > 0.0]
    n = len(z)
    if n < 0.5 * component.area:
        raise InsufficientDepth(f"only {n}/{component.area} pixels carry valid depth")
    # np.median's own arithmetic: the middle value, or the mean (a + b) / 2 of
    # the two middle values, found by a partial sort
    mid = n // 2
    if n % 2:
        z.partition(mid)
        z_med = float(z[mid])
    else:
        z.partition((mid - 1, mid))
        z_med = float((z[mid - 1] + z[mid]) / 2)
    # ndarray.mean's own arithmetic, without its Python wrapper
    area = len(rows)
    u = float(np.add.reduce(cols, axis=None, dtype=np.float64)) / area
    v = float(np.add.reduce(rows, axis=None, dtype=np.float64)) / area
    # backproject's arithmetic on Python floats; z_med > 0 as only z > 0 is kept
    return Point3((u - k.cx) * z_med / k.fx, (v - k.cy) * z_med / k.fy, z_med, Frame.CAMERA)


# --- principal orientation ---------------------------------------------------


def _chain(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """One half of the monotone chain over (row, col)-sorted (col, row) points.

    Sorted by (row, col), the chain keeps a point where the (col, row) cross
    product is negative. All coordinates are integers, so each cross product
    is exact and the vertices are those of a chain in (col, row) order.
    """
    chain: list[tuple[int, int]] = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) < 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _convex_hull(
    firsts: list[tuple[int, int]], lasts: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Monotone-chain hull of a raster-ordered component, given each row's
    first and last pixel as (col, row) points, top row first.

    Sorted by (row, col), the forward chain runs from the first point (the
    top row's first pixel) to the last (the bottom row's last pixel) down
    the left side, and the reverse chain back up the right side. A row's
    last pixel lies right of its first, so no other last pixel can be a
    vertex of the forward chain, and no other first pixel one of the
    reverse chain. Each chain therefore runs over one side's pixels and the
    other endpoint alone, and gives the vertices the whole set would.

    Returns the vertices counterclockwise in (x, y) = (col, row) coords from
    the least (col, row) vertex: the order the caliper tie-break sees.
    """
    first, last = firsts[0], lasts[-1]
    if first == last:
        return [first]
    # An endpoint that repeats its list's end (a one-pixel row) is popped
    # and pushed back: its cross product with itself is 0, and the chain
    # holds 2 points by then, as a one-row component has first != last.
    left = _chain(firsts + [last])
    right = _chain(lasts[::-1] + [first])
    # clockwise in (col, row) coords, so reversed
    hull = (left[:-1] + right[:-1])[::-1]
    i = hull.index(min(hull))
    return hull[i:] + hull[:i]


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
    # differently in the last ulp. Needs the raster order of the pixels.
    rows, cols = component.rows, component.cols
    breaks = np.concatenate(([True], rows[1:] != rows[:-1], [True]))
    starts, ends = breaks[:-1], breaks[1:]
    # Python ints: the chain's scalar arithmetic is far slower on numpy scalars
    row_list = rows[starts].tolist()
    vertices = _convex_hull(
        list(zip(cols[starts].tolist(), row_list)), list(zip(cols[ends].tolist(), row_list))
    )
    if len(vertices) == 1:
        return 0.0
    if len(vertices) == 2:
        (ax, ay), (bx, by) = vertices
        return math.atan2(by - ay, bx - ax) % math.pi

    # Hull vertices are distinct pixels, so every edge is at least 1 long.
    units = []
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        norm = math.hypot(bx - ax, by - ay)
        units.append(((bx - ax) / norm, (by - ay) / norm))
    # Every direction is projected by its own BLAS gemv, as ``pts @ u`` does:
    # matmul of the (N, 2) points with a C-contiguous (2E, 2, 1) stack runs
    # one gemv per direction. A single (N, 2) @ (2, E) gemm, einsum or the
    # elementwise c*ux + r*uy each round differently in the last ulp, and
    # the extremes must be those of the all-pixel projection bit for bit.
    dirs = np.array([d for ux, uy in units for d in (ux, uy, -uy, ux)])
    sel = starts | ends
    pts = np.stack([cols[sel], rows[sel]], axis=1).astype(float)  # (col, row)
    proj = np.matmul(pts, dirs.reshape(-1, 2, 1))
    extent = (proj.max(axis=1) - proj.min(axis=1)).reshape(-1, 2)
    best = None
    for (ux, uy), (du, dv) in zip(units, extent.tolist()):
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
    # a negative angle within an ulp of 0 folds to pi itself; the second fold
    # takes that to 0, the same line, and leaves every other angle as it is
    return math.atan2(d[1], d[0]) % math.pi % math.pi


# --- reachability ------------------------------------------------------------


@dataclass(frozen=True)
class ReachEnvelope:
    """Annulus of horizontal reach plus a vertical band, all inclusive."""

    r_min: float = 0.25
    r_max: float = 0.90
    z_min: float = -0.20
    z_max: float = 0.50

    def __post_init__(self) -> None:
        # the chained comparisons also reject NaN, which compares false
        if not 0.0 <= self.r_min < self.r_max < math.inf:
            raise ValueError("need 0 <= r_min < r_max, all finite")
        if not -math.inf < self.z_min < self.z_max < math.inf:
            raise ValueError("need z_min < z_max, both finite")


DEFAULT_ENVELOPE = ReachEnvelope()


def in_reach(p: Point3, envelope: ReachEnvelope = DEFAULT_ENVELOPE) -> bool:
    if p.frame is not Frame.ARM:
        raise FrameMismatch("reachability is evaluated in the arm frame")
    r = math.hypot(p.x, p.y)
    return (
        envelope.r_min <= r <= envelope.r_max
        and envelope.z_min <= p.z <= envelope.z_max
    )
