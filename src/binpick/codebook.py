"""Discretized rotation codebook and cosine k-NN rotation lookup.

The codebook pairs a quasi-uniform covering of the rotation group with one
embedding per rotation. Lookups score a test embedding against every entry
with the cosine similarity

    cos_i = (z_i . z_test) / (|z_i| |z_test|)

and return the top-k rotations, ties broken by lower codebook index.

The built-in embedder is a pixel template: area-downsample the crop to a
small grid, subtract the mean, divide by the norm. External encoders can
participate by writing codebook files in the documented format instead.

build_codebook splits its rotations into one run of consecutive views per
worker, as even as the count allows, and renders each run in
render.render_windows calls of at most _VIEWS_PER_WORKER views, with shades:
every view is drawn into its window of the frame only, the bbox of the
object, and its crop is cut from that window at the window's origin, so it
holds the bytes of a crop from the whole frame. The runs go to forked worker
processes, one per CPU this process may run on, which embed their views
into their own rows of one table in shared memory. A view's bytes do not
depend on the run or the call it is drawn in, and the parent joins the runs
in order, so the codebook is byte-identical at any CPU count.

Most views are smaller than spec.crop_px, so padded_crop upsamples them;
render.area_resize takes the two taps of each output pixel there.
"""

from __future__ import annotations

import hashlib
import logging
import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from .forked import map_forked
from .geometry import Pose, Rotation, TriangleMesh
from .render import RenderConfig, area_resize, crop_square, mask_bbox, render_scene, render_windows

__all__ = [
    "EmbedderSpec",
    "Codebook",
    "ScoredRotation",
    "sample_rotations",
    "embed",
    "build_codebook",
    "knn_lookup",
    "mean_nn_spacing",
    "DEFAULT_CROP_PAD",
    "padded_crop",
]

log = logging.getLogger(__name__)

EMBEDDER_ID = "pixel-template"  # the built-in embedder, as the codebook's `embedder` header names it

# Padding factor of padded_crop, shared by codebook views and detection crops
# so both sides of the cosine comparison are scale-normalized the same way.
DEFAULT_CROP_PAD = 1.2

# Super-Fibonacci spiral constants: phi = sqrt(2), psi the real root of
# x^4 = x + 4; together they give a low-discrepancy covering of the
# unit-quaternion 3-sphere with antipodal pairs collapsing onto rotations.
_SF_PHI = math.sqrt(2.0)
_SF_PSI = 1.533751168755204288118041

# Codebook rows per product block in knn_lookup and Codebook's entry norms
# (64 x 1024 float64 = 512 KB).
_KNN_BLOCK_ROWS = 64

# The least share of codebook views a forked worker takes (build_codebook),
# and the most views _views renders in one render_windows call, which holds
# every window of its views (about 10 bytes a window pixel) until they are
# embedded: so a worker holds about 1 MB of windows at any codebook size.
# On a 2-core host (medians of 9, over three runs), 128 windowed 160 x 160
# views took 41-52 ms (box) and 27-35 ms (L-bracket) in one process, and
# 26-41 ms and 25-30 ms in two workers of 64 views each; at 32 views a
# worker, 64 L-bracket views took 15 ms in one process and 21 ms in two. So
# two workers break even at about 64 views each; a smaller codebook, such as
# the 32 views of the CLI tests, is built in-process.
_VIEWS_PER_WORKER = 64


@dataclass(frozen=True)
class EmbedderSpec:
    crop_px: int = 128
    grid_px: int = 32

    def __post_init__(self):
        if self.crop_px < 1 or self.grid_px < 1:
            raise ValueError("embedder sizes must be positive")

    @property
    def dimension(self) -> int:
        return self.grid_px * self.grid_px

    def fingerprint(self) -> str:
        text = f"{EMBEDDER_ID}|crop={self.crop_px}|grid={self.grid_px}|norm=zero-mean-unit-norm|pad={DEFAULT_CROP_PAD}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ScoredRotation:
    rotation: Rotation
    similarity: float
    index: int


@dataclass(frozen=True)
class Codebook:
    """Immutable rotation-to-embedding table for one object.

    z_ref_mm, fx_ref_px, and the per-entry view bbox diagonals let the
    RGB-only translation mode turn an apparent-size ratio into a depth.
    """

    object_id: int
    embedder_id: str
    embedder_fingerprint: str
    render_fingerprint: str
    z_ref_mm: float
    fx_ref_px: float
    rotations: tuple
    embeddings: np.ndarray  # (n, d) float64, row-major
    view_diagonals_px: np.ndarray  # (n,) bbox diagonal of each rendered view
    entry_norms: np.ndarray = field(init=False, repr=False, compare=False)  # (n,) |z_i|, for knn_lookup

    def __post_init__(self):
        e = np.ascontiguousarray(self.embeddings, dtype=np.float64)  # row-major, as the row blocks take it
        d = np.asarray(self.view_diagonals_px, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] == 0:
            raise ValueError("codebook needs at least one entry")
        if e.shape[0] != len(self.rotations) or d.shape[0] != e.shape[0]:
            raise ValueError("entry count mismatch")
        # in blocks of rows, as knn_lookup takes its products: no temporary
        # of the whole table, and each row's sum is the same as over it all
        norms = np.empty(e.shape[0])
        for start in range(0, e.shape[0], _KNN_BLOCK_ROWS):
            block = e[start : start + _KNN_BLOCK_ROWS]
            norms[start : start + _KNN_BLOCK_ROWS] = np.sqrt((block * block).sum(axis=1))
        for name, value in (("embeddings", e), ("view_diagonals_px", d), ("entry_norms", norms)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def sample_rotations(n: int, seed: int) -> list:
    """Deterministic quasi-uniform covering of the rotation group.

    The first element is always the identity; the remaining n-1 rotations
    are a Super-Fibonacci spiral on the quaternion 3-sphere (antipodal
    pairs collapsed by quaternion canonicalization), composed with a seeded
    random offset rotation so different seeds give different coverings.
    """
    if n < 1:
        raise ValueError("rotation count must be >= 1")
    rots = [Rotation.identity()]
    m = n - 1
    if m == 0:
        return rots
    s = np.arange(m, dtype=np.float64) + 0.5
    t = s / m
    r = np.sqrt(t)
    big_r = np.sqrt(1.0 - t)
    alpha = 2.0 * math.pi * s / _SF_PHI
    beta = 2.0 * math.pi * s / _SF_PSI
    quats = np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), big_r * np.sin(beta), big_r * np.cos(beta)], axis=1
    )
    rng = np.random.default_rng(np.random.SeedSequence((int(seed),)))
    offset = Rotation.random(rng)
    for q in quats:
        rots.append(offset * Rotation(q))
    return rots


def mean_nn_spacing(rotations) -> float:
    """Mean geodesic distance to the nearest neighbor within a rotation set."""
    q = np.stack([r.q for r in rotations])
    if len(q) < 2:
        raise ValueError("need at least two rotations")
    dots = np.abs(q @ q.T)
    np.fill_diagonal(dots, -1.0)
    nearest = dots.max(axis=1)
    return float(np.mean(2.0 * np.arccos(np.clip(nearest, -1.0, 1.0))))


def embed(crop: np.ndarray, spec: EmbedderSpec) -> np.ndarray:
    """Pixel-template embedding of a square gray crop.

    Invariant to brightness offsets (zero-mean) and positive contrast
    scaling (unit norm). Raises on constant crops ("degenerate crop").
    """
    crop = np.asarray(crop, dtype=np.float64)
    if crop.shape != (spec.crop_px, spec.crop_px):
        raise ValueError(f"crop must be {spec.crop_px}x{spec.crop_px}")
    small = area_resize(crop, spec.grid_px, spec.grid_px)
    flat = small.reshape(-1)
    flat = flat - flat.mean()
    norm = float(np.sqrt((flat * flat).sum()))
    if norm < 1e-12:
        raise ValueError("degenerate crop")
    return flat / norm


def view_pose(mesh: TriangleMesh, rotation: Rotation, z_ref_mm: float) -> Pose:
    """The pose of a codebook view: the object at rotation, centered at (0, 0, z_ref)."""
    return Pose(rotation, np.array([0.0, 0.0, z_ref_mm]) - rotation.rotate(mesh.centroid))


def render_view(mesh: TriangleMesh, rotation: Rotation, cfg: RenderConfig, z_ref_mm: float):
    """One codebook view in a whole frame: render_scene's (depth, ids, gray) at view_pose."""
    return render_scene([(mesh, view_pose(mesh, rotation, z_ref_mm), 1)], cfg)


def padded_crop(image: np.ndarray, center_uv, extent_px: float, spec: EmbedderSpec, origin=(0, 0)) -> np.ndarray:
    """Embedder input: a square window DEFAULT_CROP_PAD x extent_px wide,
    centered on center_uv, zero-padded beyond image borders and resampled
    to spec.crop_px. Codebook views and detection crops both use it. For
    a window at origin (row, col), see crop_square.
    """
    side = max(1, int(round(DEFAULT_CROP_PAD * extent_px)))
    window = crop_square(image, float(center_uv[0]), float(center_uv[1]), side, origin)
    return area_resize(window, spec.crop_px, spec.crop_px)


def view_crop(gray: np.ndarray, mask: np.ndarray, center_uv, spec: EmbedderSpec, origin=(0, 0)):
    """Canonical codebook crop: padded square around the mask, resized.

    Returns (crop, bbox diagonal in px) or (None, 0.0) when the mask is
    empty. The extent is the mask bbox max side; see padded_crop. gray and
    mask may be the window at origin (row, col) that holds the whole mask.
    """
    bbox = mask_bbox(mask)
    if bbox is None:
        return None, 0.0
    _, _, bw, bh = bbox
    return padded_crop(gray, center_uv, max(bw, bh), spec, origin), float(math.hypot(bw, bh))


def _views(mesh: TriangleMesh, rotations, spec: EmbedderSpec, render_cfg: RenderConfig, z_ref_mm: float,
           out: np.ndarray) -> list:
    """Codebook views of a run of rotations: batched renders of shaded
    windows, at most _VIEWS_PER_WORKER views each, then view_crop and embed
    each view into its row of out. Returns one (bbox diagonal, None) a view,
    or (diagonal, reason) for a view left out, whose row is not written."""
    k = render_cfg.intrinsics
    views = []
    for start in range(0, len(rotations), _VIEWS_PER_WORKER):
        poses = [view_pose(mesh, r, z_ref_mm) for r in rotations[start : start + _VIEWS_PER_WORKER]]
        for row, (depth, origin, gray) in enumerate(render_windows(mesh, poses, render_cfg, shaded=True), start):
            # (cx, cy): projection of (0, 0, z_ref)
            crop, diag = view_crop(gray, depth > 0, (k.cx, k.cy), spec, origin)
            if crop is None:
                views.append((diag, "empty render"))
                continue
            try:
                out[row] = embed(crop, spec)
            except ValueError:
                views.append((diag, "degenerate crop"))
                continue
            views.append((diag, None))
    return views


def build_codebook(
    mesh: TriangleMesh,
    rotations,
    spec: EmbedderSpec,
    render_cfg: RenderConfig,
    z_ref_mm: float,
    object_id: int = 1,
) -> Codebook:
    """Render each rotation at the canonical distance and embed the crop.

    Entries whose crop is degenerate (object out of frame or featureless)
    are excluded, with one logged warning per call that lists them by reason;
    building fails if nothing remains.

    The views are rendered on the CPUs this process may run on
    (os.sched_getaffinity): one forked worker per CPU, with at least
    _VIEWS_PER_WORKER views a worker, so a small codebook is built in-process
    (map_forked). Worker w of W takes the run rotations[n*w//W : n*(w+1)//W]
    of the n rotations and renders it in render_windows calls of at most
    _VIEWS_PER_WORKER views, each view into its own window only. It embeds
    each view into the same rows of one (n, dimension) table, allocated in
    anonymous shared memory before the fork, and sends back only each view's
    (diagonal, reason); the kept rows are then moved up over the excluded
    ones in place, so the codebook holds the table and no copy of it. A
    view's bytes do not depend on its run or its call, and the runs are
    joined in order, so the codebook bytes, the exclusion warning and the
    error of the lowest failing view are the same at any CPU count. If the
    stage is killed, each worker ends when its run is drawn.
    """
    n = len(rotations)
    if n == 0:
        raise ValueError("rotation list must be nonempty")
    if z_ref_mm <= 0:
        raise ValueError("z_ref must be positive")
    workers = max(1, min(len(os.sched_getaffinity(0)), n // _VIEWS_PER_WORKER))
    # one table, in memory the workers share: each embeds its views into its own rows
    table = np.frombuffer(mmap.mmap(-1, n * spec.dimension * 8), dtype=np.float64).reshape(n, spec.dimension)

    def run(w):
        lo, hi = n * w // workers, n * (w + 1) // workers
        return _views(mesh, rotations[lo:hi], spec, render_cfg, z_ref_mm, table[lo:hi])

    views = [view for part in map_forked(run, workers, "codebook view", "views") for view in part]
    kept, excluded = [], {"empty render": [], "degenerate crop": []}  # entry indices, by reason if left out
    for i, (_, reason) in enumerate(views):
        (kept if reason is None else excluded[reason]).append(i)
    if len(kept) < n:
        log.warning(
            "%d of %d codebook entries excluded: %s", n - len(kept), n,
            "; ".join(f"{reason}: {', '.join(map(str, group))}" for reason, group in excluded.items() if group),
        )
    if not kept:
        raise ValueError("no valid codebook entries")
    for row, i in enumerate(kept):  # in place: row <= i, so no kept row is overwritten before it moves
        if row != i:
            table[row] = table[i]
    return Codebook(
        object_id=object_id,
        embedder_id=EMBEDDER_ID,
        embedder_fingerprint=spec.fingerprint(),
        render_fingerprint=render_fingerprint(render_cfg, z_ref_mm),
        z_ref_mm=float(z_ref_mm),
        fx_ref_px=float(render_cfg.intrinsics.fx),
        rotations=tuple(rotations[i] for i in kept),
        embeddings=table[: len(kept)],
        view_diagonals_px=np.array([views[i][0] for i in kept]),
    )


def render_fingerprint(cfg: RenderConfig, z_ref_mm: float) -> str:
    k = cfg.intrinsics
    text = "|".join(
        repr(x)
        for x in (
            k.fx, k.fy, k.cx, k.cy, k.width, k.height,
            cfg.light_dir[0], cfg.light_dir[1], cfg.light_dir[2],
            cfg.near_mm, cfg.far_mm, float(z_ref_mm),
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def knn_lookup(cb: Codebook, z_test: np.ndarray, k: int) -> list:
    """Exact top-k rotations by cosine similarity, ties to lower index."""
    z = np.asarray(z_test, dtype=np.float64).reshape(-1)
    if z.shape[0] != cb.dimension:
        raise ValueError(f"embedding dimension {z.shape[0]} != codebook dimension {cb.dimension}")
    if not (1 <= k <= len(cb)):
        raise ValueError("k out of range")
    zn = float(np.sqrt((z * z).sum()))
    if zn < 1e-12:
        raise ValueError("zero-norm test embedding")
    # elementwise product + sum stays off BLAS: bit-identical at any thread
    # count; blocks of rows keep the product temporary small, and each row's
    # sum is the same as over the whole matrix
    dots = np.empty(len(cb))
    for start in range(0, len(cb), _KNN_BLOCK_ROWS):
        rows = slice(start, start + _KNN_BLOCK_ROWS)
        dots[rows] = (cb.embeddings[rows] * z).sum(axis=1)
    cos = np.clip(dots / (cb.entry_norms * zn), -1.0, 1.0)
    order = np.lexsort((np.arange(len(cos)), -cos))[:k]
    return [ScoredRotation(cb.rotations[i], float(cos[i]), int(i)) for i in order]
