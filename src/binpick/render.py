"""Software z-buffer rasterizer producing depth, instance-id, and shaded images.

Depth images are uint16 arrays in mm (0 = no surface), instance maps are
uint16 arrays (0 = background), gray images are float64 arrays in [0, 1].

Rasterization rules:
  * a pixel is covered when its center (col + 0.5, row + 0.5) lies inside
    the projected triangle; shared edges follow the top-left fill convention,
  * per-pixel depth is the perspective-correct interpolated z at the pixel
    center, rounded to integer mm,
  * nearest quantized depth wins; a tie goes to the triangle drawn first
    (render_scene draws its instances in id order, each in mesh order),
  * back-face culling is disabled (CAD meshes may have mixed winding).

Triangles are rasterized in batches, one instance of each frame at a time.
After near-plane clipping, each triangle's bounding box is cut into rows,
and each row into the column span that the three edge functions leave open:
each edge's zero crossing on the row's pixel-center line bounds the span
from the left or the right, widened by one column against rounding (scan
conversion with edge functions, after Pineda 1988 and Olano & Greer 1997).
Only the span pixels are edge-tested, as one flat list of (triangle, pixel)
pairs split into groups of bounded size, and each pixel keeps its winner
under the rules above. The per-pixel edge values, fill, `rint` and tie-break
rules are those of testing every pixel of the box for one triangle at a time
in mesh order, so the output is the same bytes.

The buffers are flat. Every frame f is drawn into a window of the camera
frame, (row, col, height, width), laid out row-major after the window before
it, and every triangle carries the frame it is drawn into: frame pixel
(r, c) of frame f is buffer index base[f] + r * width[f] + c. render_scene
draws into the one whole-frame window.

A solo render draws into a window only: the bounding box of its
near-clipped triangles' projected vertices, clipped to the frame. Every
triangle's pixel bbox lies inside it, and the raster arithmetic stays in
frame coordinates, so the window holds the bytes of the full-frame render.
render_windows draws many poses of one mesh this way, in batches of at most
_WINDOW_PX window pixels, and render_single is its one-pose case. The
windows are flat and unpadded, so a batch draws and keeps no pixel outside
them, and the batch budget keeps a scene's temporaries small: drawing each
scene's windows in one unbudgeted pass raised the peak memory of
clutter-rgb's eval stage from 42.5 to 50.8 MB, and genscenes' from 50.4 to
57.0 MB. Shades and the gray image are computed only for render_scene and
shaded windows; the codebook embeds the gray of shaded windows, which is
render_scene's gray cut to each window.

A raster group tests at most _GROUP_PX (triangle, pixel) pairs, so its
temporaries (a dozen float64 values a test) stay near the CPU caches. On a
2-core host, with freed memory kept mapped, 102 box windows of about 4500 px
in a 640 x 480 frame took 0.21 ms of CPU a window in batches of 2^15 window
pixels and groups of 2^14 to 2^18 tests, 0.25 ms in batches of 2^17 and
groups of 2^18, and 0.34 ms drawn one pose at a time; render_scene of 40
boxes took 14.7-15.7 ms at groups of 2^14 tests and 15.4-15.8 ms at 2^18.

area_resize averages over the input pixels each output pixel overlaps
(_box_weights). Where an axis is upsampled, as for most codebook views and
detection crops, an output pixel overlaps at most two input pixels, and it
is computed from those two taps alone; a two-term sum has one rounding
whatever its order, so this equals the dense weight product to the bit.
Downsampled axes keep the dense product: reordering their longer sums
changes the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose, TriangleMesh, project

__all__ = [
    "RenderConfig",
    "render_scene",
    "render_single",
    "render_windows",
    "visibility_mask",
    "crop_square",
    "area_resize",
    "mask_bbox",
]

# Slightly off-axis default light; breaks silhouette ambiguities that a
# camera-aligned light would leave in shaded codebook views.
DEFAULT_LIGHT = np.array([-0.3, 0.25, -0.9]) / np.linalg.norm([-0.3, 0.25, -0.9])


@dataclass(frozen=True)
class RenderConfig:
    intrinsics: CameraIntrinsics
    light_dir: np.ndarray = field(default_factory=lambda: DEFAULT_LIGHT.copy())
    near_mm: float = 10.0
    far_mm: float = 5000.0

    def __post_init__(self):
        if not (0 < self.near_mm < self.far_mm):
            raise ValueError("require 0 < near < far")
        if self.far_mm > 65534:
            raise ValueError("far clip must fit 16-bit mm depth (<= 65534)")
        light = np.asarray(self.light_dir, dtype=np.float64).reshape(3)
        n = np.linalg.norm(light)
        if n < 1e-12:
            raise ValueError("light direction must be nonzero")
        light = light / n
        light.setflags(write=False)
        object.__setattr__(self, "light_dir", light)


def render_scene(instances, cfg: RenderConfig):
    """Render a list of (mesh, pose, instance_id) into (depth, ids, gray).

    Poses are model-to-camera. Instance ids must be unique and in 1..65535;
    the instances are drawn in id order. An empty instance list yields
    all-background images.
    """
    instances = sorted(instances, key=lambda inst: int(inst[2]))
    ids = [int(iid) for _, _, iid in instances]
    if ids and not 1 <= ids[0] <= ids[-1] <= 65535:
        raise ValueError("instance ids must be in 1..65535")
    repeated = [a for a, b in zip(ids, ids[1:]) if a == b]
    if repeated:
        raise ValueError(f"duplicate instance id {repeated[0]}")

    k = cfg.intrinsics
    batches = ((*_triangles(mesh, [pose], cfg), iid) for (mesh, pose, _), iid in zip(instances, ids))
    frame = np.array([[0, 0, k.height, k.width]], dtype=np.intp)
    return tuple(image.reshape(k.height, k.width) for image in _zbuffer(batches, cfg, frame))


def render_single(mesh: TriangleMesh, pose: Pose, cfg: RenderConfig):
    """Render one object into its own window of the frame.

    Returns (depth, (row, col)): uint16 depth over the bbox of the projected
    triangles, clipped to the frame, and that window's top-left pixel. Pasted
    into a zero frame, the window is render_scene's depth of the object
    alone. Nothing drawn gives a 0x0 window at (0, 0). The one-pose case of
    render_windows.
    """
    return render_windows(mesh, [pose], cfg)[0]


# Upper bound on the window pixels that one render_windows batch draws.
_WINDOW_PX = 1 << 15


def render_windows(mesh: TriangleMesh, poses, cfg: RenderConfig, shaded: bool = False) -> list:
    """Render one object at each of poses into its own window of the frame,
    in batches of at most _WINDOW_PX window pixels (a larger window is a
    batch of its own).

    Returns one (depth, (row, col)) per pose, the bytes of its render_single.
    With shaded, each is (depth, (row, col), gray): the window of
    render_scene's gray image as well.
    """
    if not poses:
        return []
    k = cfg.intrinsics
    uv, z, shades, frame = _triangles(mesh, poses, cfg, shaded)
    # each pose's window: the bbox of its triangles' projected vertices, clipped to the frame
    lo = np.full((len(poses), 2), np.inf)
    hi = np.full((len(poses), 2), -np.inf)
    np.minimum.at(lo, frame, uv.min(axis=1))
    np.maximum.at(hi, frame, uv.max(axis=1))
    c0, r0 = np.maximum(np.ceil(lo - 0.5), 0.0).T
    c1, r1 = np.minimum(np.floor(hi - 0.5), (k.width - 1.0, k.height - 1.0)).T
    drawn = (c0 <= c1) & (r0 <= r1)
    windows = np.where(drawn, [r0, c0, r1 - r0 + 1, c1 - c0 + 1], 0).T.astype(np.intp)

    out = []
    for views in _budget_cuts(windows[:, 2] * windows[:, 3], _WINDOW_PX):
        tris = slice(*np.searchsorted(frame, [views.start, views.stop]))
        batch = windows[views]
        depth, _, gray = _zbuffer(
            [(uv[tris], z[tris], shades if shades is None else shades[tris], frame[tris] - views.start, 1)],
            cfg, batch, shaded=shaded,
        )
        sizes = batch[:, 2] * batch[:, 3]
        for (row, col, h, w), first in zip(batch, np.cumsum(sizes) - sizes):
            pixels = slice(first, first + h * w)
            window = depth[pixels].reshape(h, w), (int(row), int(col))
            out.append((*window, gray[pixels].reshape(h, w)) if shaded else window)
    return out


def _budget_cuts(sizes, budget):
    """Slices of consecutive items whose sizes sum to at most budget, or of
    one item that alone exceeds it."""
    total = np.cumsum(sizes)
    start = 0
    while start < len(total):
        base = total[start - 1] if start else 0
        stop = max(int(np.searchsorted(total, base + budget, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


def visibility_mask(solo: np.ndarray, scene: np.ndarray, tol_mm: float) -> np.ndarray:
    """Pixels where the solo-rendered surface is the visible front surface.

    A solo pixel is visible when its depth is within tol_mm of (or in front
    of) the scene depth at that pixel. Pixels where the scene has no surface
    are not visible.
    """
    if solo.shape != scene.shape:
        raise ValueError("depth image dimensions must match")
    return (solo > 0) & (solo.astype(np.float64) <= scene.astype(np.float64) + tol_mm)


def _zbuffer(batches, cfg, windows, shaded=True):
    """(depth, ids, gray) of (pixel uv, camera z, shades, frame, instance id)
    batches of triangles drawn in order. Frame f is drawn into window f of
    windows, an (n, 4) array of (row, col, height, width) windows of the
    camera frame; the buffers are flat, each window row-major after the one
    before it. Without shaded, gray is None and the shades are not read."""
    r0, c0, h, w = windows.T
    size = h * w
    # frame pixel (r, c) of frame f is buffer index base[f] + r * w[f] + c
    layout = np.stack([np.cumsum(size) - size - r0 * w - c0, w])
    qbuf = np.full(size.sum(), 65535, dtype=np.uint16)
    idbuf = np.zeros(size.sum(), dtype=np.uint16)
    graybuf = np.zeros(size.sum(), dtype=np.float64) if shaded else None
    for uv, z, shades, frame, iid in batches:
        _raster_batch(qbuf, idbuf, graybuf, uv, z, shades, frame, iid, cfg, layout)
    return np.where(idbuf > 0, qbuf, 0).astype(np.uint16), idbuf, graybuf


def _triangles(mesh, poses, cfg, shaded=True):
    """Triangles of a mesh at each of poses after near-plane clipping, pose
    by pose in mesh order: their (m, 3, 2) projected vertices, (m, 3) camera
    z, each one's gray shade (None unless shaded) and its pose's index."""
    tris = mesh.triangles
    tri_v = np.stack([pose.transform(mesh.vertices) for pose in poses])[:, tris].reshape(-1, 3, 3)
    shades = _shades(tri_v, cfg.light_dir) if shaded else None

    near = cfg.near_mm
    tri_z = tri_v[:, :, 2]
    inside = tri_z.min(axis=1) >= near
    crossing = ~inside & (tri_z.max(axis=1) >= near)
    owner = np.flatnonzero(inside)
    batch = tri_v[inside]
    if crossing.any():
        # clipped pieces slot in after their source triangle's position
        pieces = [(t, piece) for t in np.flatnonzero(crossing) for piece in _clip_near(tri_v[t], near)]
        owner = np.concatenate([owner, [t for t, _ in pieces]]).astype(np.intp)
        batch = np.concatenate([batch, np.array([piece for _, piece in pieces]).reshape(-1, 3, 3)])
        order = np.argsort(owner, kind="stable")
        owner, batch = owner[order], batch[order]
    shades = None if shades is None else shades[owner]
    return project(cfg.intrinsics, batch), batch[:, :, 2], shades, owner // len(tris)


def _shades(tri_v, light):
    """Lambert shade of each (3, 3) camera-space triangle, its normal turned
    to face the camera."""
    normals = np.cross(tri_v[:, 1] - tri_v[:, 0], tri_v[:, 2] - tri_v[:, 0])
    centers = tri_v.mean(axis=1)
    # flip normals to face the camera (centers point away from the origin)
    flip = (normals * centers).sum(axis=1) > 0
    normals[flip] = -normals[flip]
    norms = np.sqrt((normals**2).sum(axis=1))
    ok = norms > 1e-12
    shades = np.zeros(len(tri_v))
    shades[ok] = np.clip((normals[ok] / norms[ok, None] * light).sum(axis=1), 0.0, 1.0)
    return shades


def _clip_near(tri: np.ndarray, near: float):
    """Clip a camera-space triangle that crosses z = near; yields 1-2 triangles."""
    inside = tri[:, 2] >= near
    poly = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        if inside[i]:
            poly.append(a)
        if inside[i] != inside[(i + 1) % 3]:
            s = (near - a[2]) / (b[2] - a[2])
            poly.append(a + s * (b - a))
    for j in range(1, len(poly) - 1):
        yield np.array([poly[0], poly[j], poly[j + 1]])


# Upper bound on the (triangle, pixel) tests one raster group evaluates: a
# group's temporaries (a dozen float64 values per test) stay near the CPU caches.
_GROUP_PX = 1 << 14

# An edge whose |dy| is at most this fraction of |dx| + 1 px sets no span
# bound: it runs nearly along the rows, so its bound is rarely tighter than
# the bbox, and dividing by its dy could overflow. Leaving a bound out only
# widens a span.
_FLAT_EDGE = 1e-6

# E > _TOP_LEFT_BOUND holds exactly when E >= 0: no float lies between.
_TOP_LEFT_BOUND = -np.nextafter(0.0, 1.0)


def _raster_batch(qbuf, idbuf, graybuf, uv, z, shades, frame, iid, cfg, layout):
    """Rasterize triangles of one instance per frame, given as (m, 3, 2)
    projected vertices, (m, 3) camera z and (m,) frame indices, in order,
    into _zbuffer's flat buffers. layout holds each frame's (base, width)
    as a (2, frames) array: frame pixel (r, c) of frame f is buffer index
    base[f] + r * width[f] + c."""
    h, w = cfg.intrinsics.height, cfg.intrinsics.width
    u, v = np.moveaxis(uv, -1, 0)

    area2 = (u[:, 1] - u[:, 0]) * (v[:, 2] - v[:, 0]) - (v[:, 1] - v[:, 0]) * (u[:, 2] - u[:, 0])
    swap = area2 < 0.0
    if swap.any():
        u[swap] = u[swap][:, [0, 2, 1]]
        v[swap] = v[swap][:, [0, 2, 1]]
        z = np.where(swap[:, None], z[:, [0, 2, 1]], z)
        area2 = np.where(swap, -area2, area2)

    c0 = np.maximum(np.ceil(u.min(axis=1) - 0.5), 0.0)
    c1 = np.minimum(np.floor(u.max(axis=1) - 0.5), w - 1.0)
    r0 = np.maximum(np.ceil(v.min(axis=1) - 0.5), 0.0)
    r1 = np.minimum(np.floor(v.max(axis=1) - 0.5), h - 1.0)
    keep = np.flatnonzero((area2 != 0.0) & (c0 <= c1) & (r0 <= r1))
    if keep.size == 0:
        return
    u, v, z, area2, c0, c1 = u[keep], v[keep], z[keep], area2[keep], c0[keep], c1[keep]
    base, width = layout[:, frame[keep]]
    if shades is not None:
        shades = shades[keep]
    r0 = r0[keep].astype(np.intp)
    bh = r1[keep].astype(np.intp) - r0 + 1

    # one entry per (triangle, bbox row), in triangle order
    row_tri = np.repeat(np.arange(len(keep)), bh)
    rows = r0[row_tri] + (np.arange(len(row_tri)) - np.repeat(np.cumsum(bh) - bh, bh))

    # (edge, triangle) arrays: edge i runs opposite vertex i, and
    # E_i(vertex_i) == area2. A pixel center (px, py) is covered when every
    # E = dx*(py - ay) - dy*(px - ax) is > 0, or == 0 on a top-left edge.
    # On a row, E falls with px when dy > 0 and rises when dy < 0, so the zero
    # x of a steep edge bounds the covered columns from the right or the left.
    # Each bound is widened by one column against rounding; an edge that sets
    # no bound on a side adds +-inf there.
    a, b = [1, 2, 0], [2, 0, 1]
    dx, dy = u.T[b] - u.T[a], v.T[b] - v.T[a]
    top_left = ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)
    steep = np.abs(dy) > _FLAT_EDGE * (np.abs(dx) + 1.0)
    per_edge = np.concatenate([
        dx, v.T[a], u.T[a], dy, np.where(steep, dy, 1.0), np.where(steep & (dy > 0.0), 1.0, np.inf),
        np.where(steep & (dy < 0.0), -1.0, -np.inf), np.where(top_left, _TOP_LEFT_BOUND, 0.0),
    ])
    dx, ay, ax, dy, dy_div, right, left, bound = np.take(per_edge, row_tri, axis=1).reshape(8, 3, -1)
    row_e = dx * ((rows + 0.5) - ay)
    x = ax + row_e / dy_div - 0.5
    hi = np.minimum(c1[row_tri], (np.floor(x) + right).min(axis=0))
    lo = np.maximum(c0[row_tri], (np.ceil(x) + left).max(axis=0))
    live = np.flatnonzero(lo <= hi)
    if live.size == 0:
        return
    # (term, entry): every edge's dx*(py - ay), then dy, ax and the bound E must beat
    terms = np.take(np.concatenate([row_e, dy, ax, bound]), live, axis=1)
    row_tri, lo = row_tri[live], lo[live].astype(np.intp)
    row_at = base[row_tri] + rows[live] * width[row_tri]
    length = hi[live].astype(np.intp) - lo + 1
    zt = np.ascontiguousarray(z.T)

    for sl in _budget_cuts(length, _GROUP_PX):
        _raster_group(
            qbuf, idbuf, graybuf, iid, cfg.far_mm,
            row_tri[sl], row_at[sl], lo[sl], length[sl], terms[:, sl], area2, zt, shades,
        )


def _span_pixels(lo, length):
    """Column of every pixel of the row spans, in entry order."""
    first = np.cumsum(length) - length
    return np.arange(first[-1] + length[-1]) - np.repeat(first - lo, length)


def _raster_group(qbuf, idbuf, graybuf, iid, far, row_tri, row_at, lo, length, terms, area2, zt, shades):
    """Per-pixel edge tests over the column span of every (triangle, row)
    entry, then one z-merge. Triangle indices are those of the batch, zt
    holds each vertex's camera z as (vertex, triangle), and row_at is each
    entry's buffer index of frame column 0."""
    col = _span_pixels(lo, length)
    t = np.repeat(terms, length, axis=1)
    evals = t[0:3] - t[3:6] * ((col + 0.5) - t[6:9])
    inside = evals > t[9:12]
    sel = np.flatnonzero(inside[0] & inside[1] & inside[2])
    if sel.size == 0:
        return
    entry = np.repeat(np.arange(len(row_at)), length)[sel]
    tri = row_tri[entry]
    bary = np.take(evals, sel, axis=1) / area2[tri]
    bary /= np.take(zt, tri, axis=1)
    inv_z = bary[0] + bary[1] + bary[2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        depth = 1.0 / inv_z
    ok = np.isfinite(depth) & (depth <= far)
    tri, at = tri[ok], row_at[entry[ok]] + col[sel[ok]]
    q = np.rint(depth[ok]).clip(1, 65534).astype(np.int64)

    # nearest quantized depth per pixel over the group's range of buffer
    # indices; ties to the earliest triangle
    n = len(area2)
    start = row_at + lo
    first = int(start.min())
    best = np.full(int((start + length).max()) - first, np.iinfo(np.int64).max)
    np.minimum.at(best, at - first, q * n + tri)
    hit = np.flatnonzero(best != np.iinfo(np.int64).max)
    q, tri = np.divmod(best[hit], n)
    at = hit + first
    win = q < qbuf[at]
    at = at[win]
    qbuf[at] = q[win]
    idbuf[at] = iid
    if graybuf is not None:
        graybuf[at] = shades[tri[win]]


def mask_bbox(mask: np.ndarray):
    """Tight (x, y, width, height) pixel bbox of a boolean mask; None when empty."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    return int(cols[0]), int(rows[0]), int(cols[-1] - cols[0] + 1), int(rows[-1] - rows[0] + 1)


def crop_square(img: np.ndarray, cx: float, cy: float, side: int, origin=(0, 0)) -> np.ndarray:
    """Square window of the image centered at (cx, cy), zero-padded at borders.

    img may be the window at origin (row, col) of a frame that is zero
    elsewhere: the corner is rounded in frame coordinates, then shifted into
    the window, so the crop is the frame's."""
    if side < 1:
        raise ValueError("window side must be >= 1")
    h, w = img.shape
    c0 = int(round(cx - side / 2.0)) - origin[1]
    r0 = int(round(cy - side / 2.0)) - origin[0]
    out = np.zeros((side, side), dtype=np.float64)
    sc0, sc1 = max(c0, 0), min(c0 + side, w)
    sr0, sr1 = max(r0, 0), min(r0 + side, h)
    if sc0 < sc1 and sr0 < sr1:
        out[sr0 - r0 : sr1 - r0, sc0 - c0 : sc1 - c0] = img[sr0:sr1, sc0:sc1]
    return out


def area_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Box-filter (area-average) resampling to (out_h, out_w), C-contiguous.

    Each output pixel is the _box_weights average of the input pixels it
    overlaps. An upsampled axis takes its two taps, w0 * x[i0] + w1 * x[i1]:
    every other weight of the row is 0, and a sum of two terms does not
    depend on its order, so this is the dense product's value to the bit. A
    downsampled axis keeps the dense product, whose longer sums would change
    in the last bit if reordered."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if h == out_h and w == out_w:
        return img.copy()
    if h % out_h == 0 and w % out_w == 0:
        bh, bw = h // out_h, w // out_w
        return img.reshape(out_h, bh, out_w, bw).mean(axis=(1, 3))
    # einsum keeps the dense products off BLAS so results do not depend on thread count
    if h < out_h:
        i0, w0, i1, w1 = row_taps = _box_taps(h, out_h)
        tmp = w0[:, None] * img[i0] + w1[:, None] * img[i1]
    else:
        tmp = np.einsum("oi,ij->oj", _box_weights(h, out_h), img, optimize=False)
    if w < out_w:
        i0, w0, i1, w1 = row_taps if (h, out_h) == (w, out_w) else _box_taps(w, out_w)
        # indexing columns gives an F-ordered array; the dense product is C-ordered,
        # and embed's block means sum in memory order
        return np.ascontiguousarray(tmp[:, i0] * w0 + tmp[:, i1] * w1)
    return np.einsum("oj,pj->op", tmp, _box_weights(w, out_w), optimize=False)


def _box_weights(n_in: int, n_out: int) -> np.ndarray:
    scale = n_in / n_out
    edges = np.arange(n_in + 1, dtype=np.float64)
    out = np.arange(n_out)[:, None]
    lo, hi = out * scale, (out + 1) * scale
    overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
    return np.clip(overlap, 0.0, None) / scale


def _box_taps(n_in: int, n_out: int):
    """(i0, w0, i1, w1): the non-zero weights of each _box_weights row for
    n_in < n_out, computed by the same expressions. An output pixel spans
    less than one input pixel, so it overlaps input floor(lo) and at most the
    next one; w1 is 0 where it does not."""
    scale = n_in / n_out
    out = np.arange(n_out)
    lo, hi = out * scale, (out + 1) * scale
    i0 = np.floor(lo).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    edges = np.stack([i0, i1]).astype(np.float64)
    weights = np.clip(np.minimum(edges + 1.0, hi) - np.maximum(edges, lo), 0.0, None) / scale
    weights[1, i1 == i0] = 0.0
    return i0, weights[0], i1, weights[1]
