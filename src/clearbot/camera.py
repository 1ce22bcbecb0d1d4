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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .scene import (
    LABEL_UNLABELED,
    BrickDims,
    ObjectSpec,
    PipeDims,
    Scene,
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
            # NaN compares false; an infinite focal length has no pixel window
            if not 0 < getattr(self, name) < math.inf:
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


Window = tuple[int, int, int, int]  # (r0, r1, c0, c1), half open


def span(windows: Sequence[Window]) -> Window:
    """Bounding box of one or more windows."""
    r0s, r1s, c0s, c1s = zip(*windows)
    return min(r0s), max(r1s), min(c0s), max(c1s)


def window_clusters(windows: Sequence[Window]) -> tuple[Window, ...]:
    """Bounding boxes of the windows that overlap or touch (diagonally too),
    merged until no two touch, sorted; 8-connected pixels in them share one."""
    clusters: list[Window] = []
    for w in windows:
        # a window grown by the clusters it touches may touch more of them
        while near := [
            c for c in clusters if w[0] <= c[1] and c[0] <= w[1] and w[2] <= c[3] and c[2] <= w[3]
        ]:
            clusters = [c for c in clusters if c not in near]
            w = span([w, *near])
        clusters.append(w)
    return tuple(sorted(clusters))


@dataclass(frozen=True)
class LabelImage:
    """Per-pixel class labels: 0 unlabeled, 1 brick, 2 pipe.

    ``clusters`` are windows that touch no other, sorted (as
    :func:`window_clusters` returns them), and hold every labelled pixel
    between them; every pixel outside them is 0. Without them, the one
    cluster is the whole image.
    """

    data: np.ndarray
    clusters: Optional[tuple[Window, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("label image must be 2-D")
        h, w = arr.shape
        clusters = ((0, h, 0, w),) if self.clusters is None else self.clusters
        if any(arr[r0:r1, c0:c1].max(initial=0) > 2 for r0, r1, c0, c1 in clusters):
            raise ValueError("label image holds an unknown class code")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "clusters", clusters)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def class_pixels(self) -> tuple[int, int]:
        """(brick, pipe) pixel counts; codes are 0, 1 or 2, so each cluster
        crop's nonzero count and sum give both without an image-sized
        temporary."""
        labelled = total = 0
        for r0, r1, c0, c1 in self.clusters:
            crop = self.data[r0:r1, c0:c1]
            labelled += int(np.count_nonzero(crop))
            total += int(crop.sum(dtype=np.uint32))
        pipe = total - labelled
        return labelled - pipe, pipe


@dataclass(frozen=True)
class InstanceImage:
    """Per-pixel index of the scene object seen (-1 where no object).

    ``windows`` maps the id of each object in view to its index and the
    pixel window that holds all of its pixels (its render patch); an object
    not in ``windows`` has no pixels.
    """

    index: np.ndarray
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

    ``obj_index`` and ``object_id`` are the object's index in the scene and
    its id. ``zbuf`` holds candidate z-depths (+inf where the ray misses), so
    frames can be reassembled exactly with an ordinary z-buffer compose.
    """

    r0: int
    r1: int
    c0: int
    c1: int
    zbuf: np.ndarray
    obj_index: int
    label: int
    object_id: str


@dataclass(frozen=True)
class RenderResult:
    """What a render ray-casts; :func:`compose_patches` builds the images."""

    patches: tuple[ObjectPatch, ...]
    floor_depth: float


def _pixel_window(obj: ObjectSpec, cam_pos, heading: float, k: Intrinsics):
    """Conservative pixel bounding box of an object (None when off-screen):
    the pixels the corners of its footprint's bounding box project to, at
    floor and at top height, padded by one pixel below and two above."""
    x0, x1, y0, y1 = obj.aabb
    cam_x, cam_y, cam_z = cam_pos
    us, vs = [], []
    c, s = math.cos(heading), math.sin(heading)
    for z_w in (0.0, obj.top_height):
        zc = cam_z - z_w
        if zc <= 0:
            return None
        for wx, wy in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
            dx, dy = wx - cam_x, wy - cam_y
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


def _cast_box(obj: ObjectSpec, o_l: tuple[float, float, float], dlx, dly) -> np.ndarray:
    # Slabs (Kay and Kajiya 1986) on nadir rays, d_z = -1: the z slab runs from
    # o_z - height > 0 (``_pixel_window`` skips a top above the camera) to o_z.
    dims: BrickDims = obj.dims
    t_near, t_far = o_l[2] - dims.height, o_l[2]
    for d, o, half in ((dlx, o_l[0], dims.length / 2.0), (dly, o_l[1], dims.width / 2.0)):
        # a near-zero d can overflow t1 and t2; the parallel fix-up replaces them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (-half - o) / d
            t2 = (half - o) / d
        lo_t, hi_t = np.minimum(t1, t2), np.maximum(t1, t2)
        parallel = np.abs(d) < 1e-15
        inside = -half <= o <= half
        np.copyto(lo_t, -np.inf if inside else np.inf, where=parallel)
        np.copyto(hi_t, np.inf if inside else -np.inf, where=parallel)
        t_near = np.maximum(t_near, lo_t)
        t_far = np.minimum(t_far, hi_t)
    return np.where(t_near <= t_far, t_near, np.inf)


def _cast_cylinder(obj: ObjectSpec, o_l: tuple[float, float, float], dlx, dly) -> np.ndarray:
    dims: PipeDims = obj.dims
    r, half_len = dims.radius, dims.length / 2.0
    ox, oy, oz = o_l[0], o_l[1], o_l[2] - r  # shift so the axis sits at local z = 0
    # the side's quadratic on nadir rays (d_z = -1); a ray far from the optical
    # axis can overflow it, and an infinite or NaN discriminant or root fails
    # the tests below, as in ``_cast_box``
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = dly * dly + 1.0
        b = 2.0 * (oy * dly - oz)
        disc = b * b - 4.0 * a * (oy * oy + oz * oz - r * r)
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_lo = (-b - sq) / (2.0 * a)
        t_hi = (-b + sq) / (2.0 * a)
        hit_lo, hit_hi = (ok & (t > 0.0) & (np.abs(ox + t * dlx) <= half_len) for t in (t_lo, t_hi))
        # t_lo <= t_hi, so the far root counts only where the near one misses
        best = np.where(hit_hi, t_hi, np.inf)
        np.copyto(best, t_lo, where=hit_lo)

        # Flat end caps (vertical disks): a ray tilted along the axis can
        # enter through one. A ray nearly parallel to the caps can overflow
        # ``t_cap``; the dlx test discards it.
        tilted = np.abs(dlx) > 1e-15
        for sign in (-1.0, 1.0):
            t_cap = (sign * half_len - ox) / dlx
            y_at = oy + t_cap * dly
            z_at = oz - t_cap
            valid = tilted & (t_cap > 0.0) & (y_at * y_at + z_at * z_at <= r * r)
            np.copyto(best, t_cap, where=valid & (t_cap < best))
    return best


def render_full(scene: Scene, k: Intrinsics) -> RenderResult:
    """Ray-cast each object that reaches the image into a patch of pixel
    centers (no validation; see render)."""
    mount = scene.camera_mount
    # Python floats: the same IEEE operations as on numpy scalars, at a
    # fraction of the cost per object
    cam_pos = robot_to_world(np.array([mount.x, mount.y, mount.height]), scene.ugv).tolist()
    cam_x, cam_y, floor_depth = cam_pos
    heading = scene.ugv.heading
    ch, sh = math.cos(heading), math.sin(heading)

    # Per-pixel ray directions parameterized by z-depth zeta:
    #   P_world(zeta) = cam_pos + zeta * D,   D_z = -1 exactly (nadir view).
    a = (np.arange(k.width) - k.cx) / k.fx
    b = (np.arange(k.height) - k.cy) / k.fy

    patches: list[ObjectPatch] = []

    # Every point of an object has 0 < zc <= floor_depth, so a point whose
    # camera x (or y) lies past these half-extents projects beyond the image
    # and ``_pixel_window``'s one- and two-pixel pads at any height; three
    # pixels of margin absorb rounding.
    half_x = (max(k.cx, k.width - k.cx) + 3.0) * floor_depth / k.fx
    half_y = (max(k.cy, k.height - k.cy) + 3.0) * floor_depth / k.fy

    for idx, obj in enumerate(scene.objects):
        ox, oy = obj.x - cam_x, obj.y - cam_y
        reach = obj.aabb_radius
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
        dly = dy * cy_ - dx * sy_
        owx, owy = cam_x - obj.x, cam_y - obj.y
        o_l = (owx * cy_ + owy * sy_, -owx * sy_ + owy * cy_, floor_depth)
        if isinstance(obj.dims, BrickDims):
            zeta = _cast_box(obj, o_l, dlx, dly)
        else:
            zeta = _cast_cylinder(obj, o_l, dlx, dly)
        # a ray that only grazes the floor draws nothing
        if not (zeta < floor_depth).any():
            continue
        patches.append(ObjectPatch(r0, r1, c0, c1, zeta, idx, obj.cls.label, obj.id))

    return RenderResult(patches=tuple(patches), floor_depth=floor_depth)


def render(scene: Scene, k: Intrinsics) -> tuple[LabelImage, DepthImage]:
    """Render ground-truth label and depth images for a valid scene."""
    violations = validate_scene(scene)
    if violations:
        raise InvalidScene(violations)
    rr = render_full(scene, k)
    labels, depth, _ = compose_patches((k.height, k.width), rr.floor_depth, rr.patches)
    return LabelImage(labels), DepthImage(depth)


class Canvas:
    """The (labels, depth, instances) arrays a frame is composed into.

    It remembers what :func:`compose_patches` wrote last: the floor depth
    and the windows of the patches. Outside those windows the arrays hold
    the background (0, the floor depth, -1), so the next compose resets
    only them. A new canvas counts as written everywhere.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.arrays = (
            np.empty(shape, dtype=np.uint8),
            np.empty(shape),
            np.empty(shape, dtype=np.int32),
        )
        self.floor_depth = math.nan
        self.written: tuple[Window, ...] = ((0, shape[0], 0, shape[1]),)


def compose_patches(
    shape: tuple[int, int],
    floor_depth: float,
    patches: Sequence[ObjectPatch],
    out: Optional[Canvas] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild (labels, depth, instances) from sparse patches; exact.

    ``out`` is a canvas of ``shape`` to compose into: the windows the last
    compose wrote are reset, or the whole image when the floor depth
    changed. Without it, the images are fresh arrays.
    """
    canvas = Canvas(shape) if out is None else out
    labels, depth, inst = canvas.arrays
    stale = canvas.written
    if canvas.floor_depth != floor_depth:
        stale = ((0, shape[0], 0, shape[1]),)
    for r0, r1, c0, c1 in stale:
        labels[r0:r1, c0:c1] = 0
        depth[r0:r1, c0:c1] = floor_depth
        inst[r0:r1, c0:c1] = -1
    # recorded before the patches go in, so that it covers them all
    canvas.floor_depth = floor_depth
    canvas.written = tuple((p.r0, p.r1, p.c0, p.c1) for p in patches)
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

    @property
    def draws_nothing(self) -> bool:
        """No pixel's value depends on a draw: at most a bias is added."""
        return self.sigma == 0.0 and self.dropout_prob == 0.0


#: uniforms ``draw_noise`` draws per call: their scratch array stays small
_UNIFORM_CHUNK = 65536

NoiseDraws = tuple[np.ndarray, Optional[np.ndarray]]  # (float64 noise, dropout flags or None)


def draw_noise(
    model: DepthNoiseModel, seed: int | np.random.SeedSequence, shape: tuple[int, ...]
) -> NoiseDraws:
    """Draw the part of :func:`apply_noise` that depends on the seed alone,
    into fresh arrays of ``shape``.

    One full-image normal draw comes first, scaled by sigma; then one
    uniform per pixel, in row-major order, of which the flags keep those
    below the dropout probability. A generator fills consecutive ``out=``
    arrays with the same stream as one large draw, so the uniforms are
    drawn in chunks into a small scratch array. A model with no dropout
    draws no uniforms (no uniform is below 0) and gives no flags.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape)
    noise *= model.sigma
    if model.dropout_prob == 0.0:
        return noise, None
    drop = np.empty(shape, dtype=bool)
    flags = drop.reshape(-1)
    uniforms = np.empty(min(_UNIFORM_CHUNK, flags.size))
    for i in range(0, flags.size, _UNIFORM_CHUNK):
        chunk = uniforms[: flags.size - i]
        rng.random(out=chunk)
        np.less(chunk, model.dropout_prob, out=flags[i : i + chunk.size])
    return noise, drop


def apply_noise(
    depth: DepthImage,
    model: DepthNoiseModel,
    seed: int | np.random.SeedSequence,
    drawn: Optional[Callable[[], NoiseDraws]] = None,
) -> DepthImage:
    """Corrupt valid pixels only, with the draws of :func:`draw_noise`.

    A valid pixel becomes ``(d + bias) + sigma * normal``, or 0 when its
    uniform is below the dropout probability; an invalid pixel keeps its
    value. ``drawn`` returns this seed's draws made ahead, perhaps on
    another thread (calling it is where the caller waits for them);
    without it, they are drawn here. The noisy depth is built in place in
    the draws' noise array, which the result wraps. A model that draws
    nothing builds no generator and calls no ``drawn``.
    """
    data = depth.data
    if model.draws_nothing:
        # exact: sigma * normal is +-0, and (d + bias) + +-0 == d + bias
        noisy, drop = data + model.bias, None
    else:
        noisy, drop = drawn() if drawn is not None else draw_noise(model, seed, data.shape)
        if model.bias != 0.0:
            # IEEE addition commutes exactly, so the in-place sum is the same
            # bits as (d + bias) + sigma * normal
            noisy += data + model.bias
        else:
            noisy += data
    if drop is not None:
        np.copyto(noisy, 0.0, where=drop)
    # the min is not above 0 when a pixel is invalid (or NaN); an invalid
    # pixel keeps its value, dropped or not
    if data.size and not data.min() > 0.0:
        np.copyto(noisy, data, where=~depth.valid_mask())
    return DepthImage(noisy)


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
