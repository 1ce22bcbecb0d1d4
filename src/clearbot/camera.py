"""Synthetic top-down RGB-D sensing.

Pinhole projection/backprojection, an exact ray caster for the ground-truth
scene (floor plane, boxes, lying cylinders), a seeded depth-noise model, and
the PGM/PPM encoders used for image dumps.

The camera looks straight down: the optical (+z) axis points at the floor
and the image x axis is aligned with robot x, which makes the camera frame
a 180-degree rotation of the robot frame about x. Depth images store
z-depth (distance along the optical axis), with nonpositive values marking
invalid pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .scene import (
    LABEL_UNLABELED,
    BrickDims,
    ObjectSpec,
    PipeDims,
    Scene,
    object_footprint,
    robot_to_world,
    validate_scene,
)


class NonPositiveDepth(ValueError):
    """Raised when a backprojection is asked for a depth that is <= 0."""


class InvalidScene(ValueError):
    """Raised when asked to render a scene that fails validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


#: most pixels an image may have (2048 x 2048); a frame holds several
#: dense images of this size
MAX_IMAGE_PIXELS = 2**22

#: widest field of view, in degrees, of a camera centred on its principal
#: point: no pixel ray may lie more than half of this from the optical axis.
#: A pinhole model stops describing real lenses well before 180 degrees,
#: where wide-angle lenses turn into fisheyes.
MAX_FIELD_OF_VIEW_DEG = 160.0


class InvalidIntrinsics(ValueError):
    """Raised for an out-of-range intrinsic; ``field`` names the parameter
    at fault, or is None when no single one is."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("fx", "fy"):
            if not getattr(self, name) > 0:
                raise InvalidIntrinsics("focal lengths must be positive", name)
        if self.width <= 0 or self.height <= 0:
            raise InvalidIntrinsics("image dimensions must be positive")
        if self.width * self.height > MAX_IMAGE_PIXELS:
            raise InvalidIntrinsics("image area must be at most 2**22 pixels")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidIntrinsics("principal point must lie inside the image")
        # the farthest pixel center from the principal point, along each axis,
        # must see at most half the field of view off the optical axis
        tan_half = math.tan(math.radians(MAX_FIELD_OF_VIEW_DEG / 2.0))
        for name, centre, size in (("fx", self.cx, self.width), ("fy", self.cy, self.height)):
            focal = getattr(self, name)
            if not max(centre, size - 1 - centre) <= focal * tan_half:
                raise InvalidIntrinsics(
                    f"{name} is too short: the image would span more than a "
                    f"{MAX_FIELD_OF_VIEW_DEG:g}-degree field of view",
                    name,
                )


DEFAULT_INTRINSICS = Intrinsics(fx=256.0, fy=256.0, cx=256.0, cy=128.0, width=512, height=256)


@dataclass(frozen=True)
class DepthImage:
    """z-depth per pixel in meters; values <= 0 are invalid."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("depth image must be 2-D")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def valid_mask(self) -> np.ndarray:
        return self.data > 0.0


@dataclass(frozen=True)
class LabelImage:
    """Per-pixel class labels: 0 unlabeled, 1 brick, 2 pipe."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("label image must be 2-D")
        if arr.size and arr.max() > 2:
            raise ValueError("label image holds an unknown class code")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


Window = tuple[int, int, int, int]  # (r0, r1, c0, c1), half open


@dataclass(frozen=True)
class InstanceImage:
    """Per-pixel object index into ``ids`` (-1 where no object).

    ``windows`` maps the id of each object in view to its index and the
    pixel window that holds all of its pixels (its render patch); an object
    not in ``windows`` has no pixels.
    """

    index: np.ndarray
    ids: tuple[str, ...]
    windows: Mapping[str, tuple[int, Window]]

    def pixels_of(self, object_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the object's pixels, in row-major order."""
        idx, (r0, r1, c0, c1) = self.windows.get(object_id, (-1, (0, 0, 0, 0)))
        rows, cols = np.nonzero(self.index[r0:r1, c0:c1] == idx)
        return rows + r0, cols + c0


def project(p, k: Intrinsics):
    """Project camera-frame points (…, 3) to pixel coordinates (u, v)."""
    p = np.asarray(p, dtype=float)
    z = p[..., 2]
    if np.any(z <= 0.0):
        raise NonPositiveDepth("cannot project points at nonpositive depth")
    u = k.fx * p[..., 0] / z + k.cx
    v = k.fy * p[..., 1] / z + k.cy
    return u, v


def backproject(u, v, z, k: Intrinsics) -> np.ndarray:
    """Lift pixel coordinates and z-depth back to camera-frame points."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise NonPositiveDepth("cannot backproject nonpositive depth")
    out = np.empty(np.broadcast(u, v, z).shape + (3,))
    out[..., 0] = (u - k.cx) * z / k.fx
    out[..., 1] = (v - k.cy) * z / k.fy
    out[..., 2] = z
    return out


# --- rendering ---------------------------------------------------------------


@dataclass(frozen=True)
class ObjectPatch:
    """Ray-cast result of one object within its pixel bounding window.

    ``zbuf`` holds candidate z-depths (+inf where the ray misses), so frames
    can be reassembled exactly with an ordinary z-buffer compose.
    """

    r0: int
    r1: int
    c0: int
    c1: int
    zbuf: np.ndarray
    obj_index: int
    label: int


@dataclass(frozen=True)
class RenderResult:
    """What a render ray-casts; :func:`compose_patches` builds the images."""

    patches: tuple[ObjectPatch, ...]
    floor_depth: float


def _reach(obj: ObjectSpec) -> float:
    """Radius about (x, y) of a disk holding the corners of the footprint's
    axis-aligned bounding box, the points ``_pixel_window`` projects."""
    if isinstance(obj.dims, BrickDims):
        r = math.hypot(obj.dims.length, obj.dims.width) / 2.0
    else:
        r = obj.dims.length / 2.0 + obj.dims.radius
    return math.sqrt(2.0) * r


def _pixel_window(obj: ObjectSpec, cam_pos: np.ndarray, heading: float, k: Intrinsics):
    """Conservative pixel bounding box of an object (None when off-screen)."""
    x0, x1, y0, y1 = object_footprint(obj).aabb()
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
    us, vs = [], []
    c, s = math.cos(heading), math.sin(heading)
    for z_w in (0.0, obj.top_height):
        zc = cam_pos[2] - z_w
        if zc <= 0:
            return None
        for wx, wy in corners:
            dx, dy = wx - cam_pos[0], wy - cam_pos[1]
            # world -> camera: undo heading, then flip y (camera y = -robot y)
            xc = dx * c + dy * s
            yc = -(-dx * s + dy * c)
            us.append(k.fx * xc / zc + k.cx)
            vs.append(k.fy * yc / zc + k.cy)
    c0 = max(0, int(math.floor(min(us))) - 1)
    c1 = min(k.width, int(math.ceil(max(us))) + 2)
    r0 = max(0, int(math.floor(min(vs))) - 1)
    r1 = min(k.height, int(math.ceil(max(vs))) + 2)
    if c0 >= c1 or r0 >= r1:
        return None
    return r0, r1, c0, c1


def _cast_box(obj: ObjectSpec, o_l: np.ndarray, dlx, dly, dlz) -> np.ndarray:
    dims: BrickDims = obj.dims
    half = (dims.length / 2.0, dims.width / 2.0)
    t_near = np.full(dlx.shape, -np.inf)
    t_far = np.full(dlx.shape, np.inf)
    bounds = ((-half[0], half[0]), (-half[1], half[1]), (0.0, dims.height))
    for axis, (lo, hi) in enumerate(bounds):
        d = (dlx, dly, dlz)[axis]
        o = o_l[axis]
        # a near-zero d can overflow t1 and t2; the parallel test discards them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        parallel = np.abs(d) < 1e-15
        lo_t = np.where(parallel, np.where(lo <= o, -np.inf, np.inf), np.minimum(t1, t2))
        hi_t = np.where(parallel, np.where(o <= hi, np.inf, -np.inf), np.maximum(t1, t2))
        t_near = np.maximum(t_near, lo_t)
        t_far = np.minimum(t_far, hi_t)
    hit = (t_near <= t_far) & (t_near > 0.0)
    return np.where(hit, t_near, np.inf)


def _cast_cylinder(obj: ObjectSpec, o_l: np.ndarray, dlx, dly, dlz) -> np.ndarray:
    dims: PipeDims = obj.dims
    r, half_len = dims.radius, dims.length / 2.0
    oy, oz = o_l[1], o_l[2] - r  # shift so the axis sits at local z = 0
    # a ray far from the optical axis can overflow these; an infinite or
    # NaN discriminant or root fails the tests below, as in ``_cast_box``
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = dly * dly + dlz * dlz
        b = 2.0 * (oy * dly + oz * dlz)
        c = oy * oy + oz * oz - r * r
        disc = b * b - 4.0 * a * c
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_lo = (-b - sq) / (2.0 * a)
        t_hi = (-b + sq) / (2.0 * a)

    best = np.full(dlx.shape, np.inf)
    for t in (t_lo, t_hi):
        x_at = o_l[0] + t * dlx
        valid = ok & (t > 0.0) & (np.abs(x_at) <= half_len)
        best = np.where(valid & (t < best), t, best)

    # Flat end caps (vertical disks); grazing-only for a top-down camera but
    # kept for exactness with tilted rays near the image border. A ray
    # nearly parallel to the caps can overflow ``t_cap``; the dlx test
    # discards it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sign in (-1.0, 1.0):
            t_cap = (sign * half_len - o_l[0]) / dlx
            y_at = oy + t_cap * dly
            z_at = oz + t_cap * dlz
            valid = (np.abs(dlx) > 1e-15) & (t_cap > 0.0) & (y_at * y_at + z_at * z_at <= r * r)
            best = np.where(valid & (t_cap < best), t_cap, best)
    return best


def render_full(scene: Scene, k: Intrinsics) -> RenderResult:
    """Ray-cast each object that reaches the image into a patch of pixel
    centers (no validation; see render)."""
    mount = scene.camera_mount
    cam_pos = robot_to_world(np.array([mount.x, mount.y, mount.height]), scene.ugv)
    heading = scene.ugv.heading
    ch, sh = math.cos(heading), math.sin(heading)

    # Per-pixel ray directions parameterized by z-depth zeta:
    #   P_world(zeta) = cam_pos + zeta * D,   D_z = -1 exactly (nadir view).
    a = (np.arange(k.width) - k.cx) / k.fx
    b = (np.arange(k.height) - k.cy) / k.fy

    floor_depth = float(cam_pos[2])
    patches: list[ObjectPatch] = []

    # Every point of an object has 0 < zc <= floor_depth, so a point whose
    # camera x (or y) lies past these half-extents projects beyond the image
    # and ``_pixel_window``'s one- and two-pixel pads at any height; three
    # pixels of margin absorb rounding.
    half_x = (max(k.cx, k.width - k.cx) + 3.0) * floor_depth / k.fx
    half_y = (max(k.cy, k.height - k.cy) + 3.0) * floor_depth / k.fy

    for idx, obj in enumerate(scene.objects):
        ox, oy = obj.x - cam_pos[0], obj.y - cam_pos[1]
        reach = _reach(obj)
        if abs(ox * ch + oy * sh) - reach > half_x or abs(ox * sh - oy * ch) - reach > half_y:
            continue
        window = _pixel_window(obj, cam_pos, heading, k)
        if window is None:
            continue
        r0, r1, c0, c1 = window
        aw = a[c0:c1][None, :]
        bw = b[r0:r1][:, None]
        # world-frame ray directions for this window
        dx = aw * ch + bw * sh
        dy = aw * sh - bw * ch
        # object-local frame: translate to object origin, rotate by -yaw
        cy_, sy_ = math.cos(obj.yaw), math.sin(obj.yaw)
        dlx = dx * cy_ + dy * sy_
        dly = -dx * sy_ + dy * cy_
        dlz = -1.0
        o_world = cam_pos - np.array([obj.x, obj.y, 0.0])
        o_l = np.array(
            [
                o_world[0] * cy_ + o_world[1] * sy_,
                -o_world[0] * sy_ + o_world[1] * cy_,
                o_world[2],
            ]
        )
        if isinstance(obj.dims, BrickDims):
            zeta = _cast_box(obj, o_l, dlx, dly, dlz)
        else:
            zeta = _cast_cylinder(obj, o_l, dlx, dly, dlz)
        if not np.isfinite(zeta).any():
            continue
        patches.append(ObjectPatch(r0, r1, c0, c1, zeta, idx, obj.cls.label))

    return RenderResult(patches=tuple(patches), floor_depth=floor_depth)


def render(scene: Scene, k: Intrinsics) -> tuple[LabelImage, DepthImage]:
    """Render ground-truth label and depth images for a valid scene."""
    violations = validate_scene(scene)
    if violations:
        raise InvalidScene(violations)
    rr = render_full(scene, k)
    labels, depth, _ = compose_patches((k.height, k.width), rr.floor_depth, rr.patches)
    return LabelImage(labels), DepthImage(depth)


def compose_patches(
    shape: tuple[int, int], floor_depth: float, patches: Sequence[ObjectPatch]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild (labels, depth, instances) from sparse patches; exact."""
    depth = np.full(shape, floor_depth)
    labels = np.zeros(shape, dtype=np.uint8)
    inst = np.full(shape, -1, dtype=np.int32)
    for p in patches:
        win = depth[p.r0 : p.r1, p.c0 : p.c1]
        closer = p.zbuf < win
        win[closer] = p.zbuf[closer]
        labels[p.r0 : p.r1, p.c0 : p.c1][closer] = p.label
        inst[p.r0 : p.r1, p.c0 : p.c1][closer] = p.obj_index
    return labels, depth, inst


# --- depth noise -------------------------------------------------------------


@dataclass(frozen=True)
class DepthNoiseModel:
    """Additive Gaussian noise, constant bias, and Bernoulli dropout."""

    sigma: float = 0.0
    bias: float = 0.0
    dropout_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ValueError("dropout_prob must be in [0, 1)")

    @property
    def is_identity(self) -> bool:
        return self.sigma == 0.0 and self.bias == 0.0 and self.dropout_prob == 0.0


def apply_noise(depth: DepthImage, model: DepthNoiseModel, seed: int) -> DepthImage:
    """Corrupt valid pixels only; draws are consumed in row-major order.

    One full-image normal draw comes first, then one full-image uniform
    draw. A valid pixel becomes ``(d + bias) + sigma * normal``, or 0 when
    its uniform is below the dropout probability.
    """
    data = depth.data
    rng = np.random.default_rng(seed)
    # built in place: IEEE addition commutes exactly, so the sum is the
    # same bits as in the form above
    out = rng.standard_normal(data.shape)
    out *= model.sigma
    out += data + model.bias if model.bias != 0.0 else data
    drop = rng.random(data.shape) < model.dropout_prob
    valid = depth.valid_mask()
    if not valid.all():
        np.copyto(out, data, where=~valid)
        drop &= valid
    out[drop] = 0.0
    return DepthImage(out)


# --- image dumps -------------------------------------------------------------

PALETTE = {
    LABEL_UNLABELED: (30, 30, 30),
    1: (200, 60, 40),  # brick
    2: (40, 90, 200),  # pipe
}


def encode_depth_pgm(depth: DepthImage) -> bytes:
    """16-bit big-endian PGM, millimeters; invalid pixels encode as 0."""
    mm = np.round(depth.data * 1000.0)
    mm[~depth.valid_mask()] = 0.0
    mm = np.clip(mm, 0, 65535).astype(">u2")
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    return header + mm.tobytes()


def encode_label_ppm(labels: LabelImage) -> bytes:
    """8-bit PPM using the fixed class palette."""
    lut = np.zeros((3, 3), dtype=np.uint8)
    for code, rgb in PALETTE.items():
        lut[code] = rgb
    rgb = lut[labels.data]
    header = f"P6\n{labels.width} {labels.height}\n255\n".encode("ascii")
    return header + rgb.tobytes()
