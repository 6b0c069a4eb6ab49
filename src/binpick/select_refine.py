"""Depth-error pose scoring, top-k selection strategies, and ICP refinement.

The depth error of an estimate compares the observed depth image against a
render of the object at the estimated pose, over the intersection of

  A1: the detection's segmentation mask,
  A2: pixels where both depths are valid and differ by less than a margin,
  A3: the rendered object's mask,

summing the absolute depth differences over A1 n A2 n A3. The literal sum
favours small visible objects, so the default ranking key is the per-pixel
mean with a minimum-coverage gate; the plain sum stays selectable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .forked import map_forked
from .geometry import Pose, Rotation, TriangleMesh, back_project, sample_surface_points
from .render import RenderConfig, mask_bbox

__all__ = [
    "SelectionConfig",
    "SelectionScore",
    "IcpConfig",
    "IcpResult",
    "SORT_METHODS",
    "depth_error",
    "score_depth_error",
    "select_top_k",
    "icp_refine",
    "icp_refine_many",
    "detection_cloud",
]

SORT_DETECTOR = "detector_score"
SORT_COSINE = "cosine"
SORT_DEPTH = "depth_error"
SORT_METHODS = (SORT_DETECTOR, SORT_COSINE, SORT_DEPTH)


@dataclass(frozen=True)
class SelectionConfig:
    margin_mm: float = 5.0
    min_coverage: float = 0.3
    variant: str = "mean"

    def __post_init__(self):
        if not self.margin_mm > 0:
            raise ValueError("margin must be positive")
        if not (0.0 <= self.min_coverage <= 1.0):
            raise ValueError("min coverage must be in [0, 1]")
        if self.variant not in ("mean", "sum"):
            raise ValueError("variant must be 'mean' or 'sum'")


@dataclass(frozen=True)
class SelectionScore:
    e_sum: float  # literal inlier depth-error sum, mm
    n_intersection: int
    n_rendered: int
    mean_error: float
    coverage: float
    disqualified: bool


def score_depth_error(
    obs: np.ndarray, rendered: np.ndarray, det_mask: np.ndarray, cfg: SelectionConfig
) -> SelectionScore:
    """Depth-error score from an already-rendered estimate depth image.

    The three images may be any window of the frame that holds every pixel
    of the render: A3 lies inside it, and row-major order is that of the
    frame, so the sums equal full-frame ones.
    """
    if obs.shape != rendered.shape or obs.shape != det_mask.shape:
        raise ValueError("image dimensions must match")
    a3 = rendered > 0
    n_rendered = int(a3.sum())
    if n_rendered == 0:
        return SelectionScore(0.0, 0, 0, 0.0, 0.0, True)
    diff = np.abs(obs.astype(np.float64) - rendered.astype(np.float64))
    inter = det_mask & (obs > 0) & a3 & (diff < cfg.margin_mm)  # A1 n A2 n A3
    n_inter = int(inter.sum())
    e_sum = float(diff[inter].sum())
    mean_error = e_sum / n_inter if n_inter > 0 else 0.0
    coverage = n_inter / n_rendered
    return SelectionScore(e_sum, n_inter, n_rendered, mean_error, coverage, coverage < cfg.min_coverage)


def depth_error(
    obs: np.ndarray,
    window,
    det_mask: np.ndarray,
    render_cfg: RenderConfig,
    cfg: SelectionConfig,
) -> SelectionScore:
    """Score an estimate's render, render_single's or render_windows'
    (depth, (row, col)) window, against the full-frame obs and det_mask of
    render_cfg's camera, over that window."""
    k = render_cfg.intrinsics
    if obs.shape != (k.height, k.width) or det_mask.shape != obs.shape:
        raise ValueError("image dimensions must match")
    rendered, (row, col) = window
    win = np.s_[row : row + rendered.shape[0], col : col + rendered.shape[1]]
    return score_depth_error(obs[win], rendered, det_mask[win], cfg)


def select_top_k(scored_estimates, method: str, k: int, cfg: SelectionConfig | None = None):
    """Order (PoseEstimate, SelectionScore | None) pairs and truncate to k.

    detector_score and cosine sort descending on their keys; depth_error
    sorts qualified estimates ascending on the configured variant key and
    ranks disqualified ones last, by coverage descending. All ties resolve
    by detection index ascending.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in SORT_METHODS:
        raise ValueError(f"unknown sort method '{method}'")
    if cfg is None:
        cfg = SelectionConfig()

    def key(pair):
        est, score = pair
        if method == SORT_DETECTOR:
            return (-est.detector_score, est.detection_index)
        if method == SORT_COSINE:
            return (-est.cosine, est.detection_index)
        if score is None:
            raise ValueError("depth_error sorting requires selection scores")
        value = score.mean_error if cfg.variant == "mean" else score.e_sum
        if score.disqualified:
            return (1, -score.coverage, est.detection_index)
        return (0, value, est.detection_index)

    return sorted(scored_estimates, key=key)[:k]


# The least share of cloud points a forked ICP worker takes (icp_refine_many).
# On a 2-core host (medians of 9, alternating; box clutter clouds of at most
# 2000 points), estimates started 5 degrees and 3 mm off their poses took
# 95 ms (5k points), 237 ms (12k), 445-487 ms (22k) and 724-748 ms (40k) in
# one process, and 69-115, 168-241, 304-309 and 447-488 ms in two workers;
# estimates 100 mm off, which stop after one query, took 5-31 ms (22k-170k
# points) in one process and 11-22 ms more in two. So two workers break even
# at about 5k points each on a run that iterates; at 20k points a worker the
# fork costs at most about 20 ms on one that does not.
_POINTS_PER_WORKER = 20_000


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 30
    tolerance_mm: float = 1e-4
    max_corr_mm: float = 10.0
    model_points: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.max_iterations, self.model_points) < 1 or not (self.tolerance_mm > 0 and self.max_corr_mm > 0):
            raise ValueError("ICP parameters must be positive")


@dataclass(frozen=True)
class IcpResult:
    pose: Pose
    rms_mm: float
    iterations: int
    converged: bool
    message: str
    residuals: tuple  # per-iteration RMS, non-increasing


def icp_refine_many(clouds, mesh: TriangleMesh, inits, cfg: IcpConfig) -> list:
    """Point-to-point ICP of each observed cloud against the model surface.

    Correspondences pair each observed point with its nearest model-surface
    sample within max_corr_mm; each update is the closed-form least-squares
    rigid alignment. Iteration stops when the pose change or the RMS
    improvement drops below the tolerance, or as soon as the RMS residual
    would increase (the previous pose is kept, so reported residuals never
    increase). A stop on the iteration cap is reported as not converged,
    "iteration cap". If no iteration finds at least 3 correspondences the
    initial pose is returned unchanged, flagged "no correspondences"; so is
    an empty cloud, which takes no rows of the batched query.

    The model samples and the k-d tree are built once per call. The
    estimates are split into one run of consecutive estimates per worker,
    with about equal point counts, and each run is refined in lock-step
    (_icp_run) in a worker forked on the CPUs this process may run on
    (os.sched_getaffinity): one worker per CPU, with at least
    _POINTS_PER_WORKER cloud points a worker and at least one estimate, so
    a small batch, such as one estimate refined alone, runs in-process
    (map_forked). Each estimate's arithmetic is that of a lone run, and the
    runs are joined in order, so every IcpResult is bit-identical to
    refining its cloud alone, at any CPU count.
    """
    from scipy.spatial import cKDTree  # deferred: keeps scipy off every other stage's start-up

    obs = [np.asarray(c, dtype=np.float64).reshape(-1, 3) for c in clouds]
    inits = list(inits)
    if len(obs) != len(inits):
        raise ValueError(f"{len(obs)} clouds but {len(inits)} initial poses")
    model = sample_surface_points(mesh, cfg.model_points, seed=cfg.seed)
    tree = cKDTree(model)  # built before the fork: the workers share it

    # worker w takes the estimates whose clouds start in its share
    # [total*w/W, total*(w+1)/W) of the concatenated points
    starts = np.cumsum([0] + [o.shape[0] for o in obs])
    total = int(starts[-1])
    workers = max(1, min(len(os.sched_getaffinity(0)), total // _POINTS_PER_WORKER, len(obs)))
    cuts = [int(np.searchsorted(starts[:-1], -(-total * w // workers))) for w in range(workers)] + [len(obs)]
    runs = map_forked(
        lambda w: _icp_run(obs[cuts[w] : cuts[w + 1]], inits[cuts[w] : cuts[w + 1]], mesh, model, tree, cfg),
        workers, "ICP", "results",
    )
    return [result for run in runs for result in run]


def _icp_run(obs, inits, mesh: TriangleMesh, model: np.ndarray, tree, cfg: IcpConfig) -> list:
    """icp_refine_many's lock-step loop over one run of estimates: each
    iteration makes one nearest-neighbour query over the points of every
    estimate still iterating. Per-point query results do not depend on the
    batch, so each estimate's result is that of a lone run."""
    # raw (R, t) in the loop; einsum keeps the transforms off BLAS so the
    # result is bit-identical at any thread count
    r_mat = [init.rotation.as_matrix() for init in inits]
    t_vec = [init.translation.copy() for init in inits]
    prev = [None] * len(obs)  # (r, t, rms)
    residuals = [[] for _ in obs]
    local = np.empty((sum(o.shape[0] for o in obs), 3))
    active = list(range(len(obs)))
    for _ in range(cfg.max_iterations):
        if not active:
            break
        ends = np.cumsum([obs[i].shape[0] for i in active]).tolist()
        spans = list(zip(active, [0, *ends], ends))
        for i, a, b in spans:
            np.einsum("ni,ij->nj", obs[i] - t_vec[i], r_mat[i], out=local[a:b], optimize=False)
        dist_all, idx_all = tree.query(local[: ends[-1]], distance_upper_bound=cfg.max_corr_mm)
        active = []
        for i, a, b in spans:
            dist, idx = dist_all[a:b], idx_all[a:b]
            valid = np.isfinite(dist)
            if int(valid.sum()) < 3:
                continue
            rms = float(np.sqrt(np.mean(dist[valid] ** 2)))
            if prev[i] is not None and rms > prev[i][2] + 1e-12:
                r_mat[i], t_vec[i] = prev[i][0], prev[i][1]
                continue
            residuals[i].append(rms)
            if prev[i] is not None and prev[i][2] - rms < cfg.tolerance_mm:
                continue  # residual improvement below tolerance

            src = np.einsum("ni,ji->nj", model[idx[valid]], r_mat[i], optimize=False) + t_vec[i]
            dr, dt = _rigid_align(src, obs[i][valid])
            prev[i] = (r_mat[i], t_vec[i], rms)
            r_mat[i] = dr @ r_mat[i]
            t_vec[i] = dr @ t_vec[i] + dt

            angle = math.acos(min(1.0, max(-1.0, (np.trace(dr) - 1.0) / 2.0)))
            step = float(np.linalg.norm(dt)) + angle * mesh.bounding_radius
            if step >= cfg.tolerance_mm:
                active.append(i)
    capped = set(active)  # still iterating when the cap stopped them

    results = []
    for i, (init, res) in enumerate(zip(inits, residuals)):
        if not res:
            results.append(IcpResult(init, float("inf"), 0, False, "no correspondences", ()))
            continue
        pose = Pose(Rotation.from_matrix(r_mat[i]), t_vec[i])
        message = "iteration cap" if i in capped else "ok"
        results.append(IcpResult(pose, res[-1], len(res), i not in capped, message, tuple(res)))
    return results


def icp_refine(obs_points: np.ndarray, mesh: TriangleMesh, init: Pose, cfg: IcpConfig) -> IcpResult:
    """ICP of one observed cloud: the one-estimate case of icp_refine_many."""
    return icp_refine_many([obs_points], mesh, [init], cfg)[0]


def detection_cloud(depth: np.ndarray, mask: np.ndarray, k, max_points: int | None = None) -> np.ndarray:
    """Back-projected mask-interior depth pixels (camera frame, mm).

    Points are back-projected at pixel centers, in row-major order. With
    max_points set, the cloud is thinned by an even deterministic stride.
    """
    if mask.shape != depth.shape:
        raise ValueError("image dimensions must match")
    # only the mask's bbox is scanned; its origin is added back
    x, y, w, h = mask_bbox(mask) or (0, 0, 0, 0)
    win = np.s_[y : y + h, x : x + w]
    rows, cols = np.nonzero(mask[win] & (depth[win] > 0))
    rows += y
    cols += x
    z = depth[rows, cols].astype(np.float64)
    pts = back_project(k, cols + 0.5, rows + 0.5, z)
    if max_points is not None and pts.shape[0] > max_points:
        idx = np.round(np.linspace(0, pts.shape[0] - 1, max_points)).astype(int)
        pts = pts[idx]
    return pts


def _rigid_align(src: np.ndarray, dst: np.ndarray):
    """Closed-form rigid (R, t) minimizing |R src + t - dst|^2 (Kabsch)."""
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = np.einsum("ni,nj->ij", src - sc, dst - dc, optimize=False)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, dc - r @ sc
