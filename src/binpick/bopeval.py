"""Pose-error metrics (VSD, MSSD, MSPD), Average Recall, and detection AP/AR.

The evaluation protocol is fixed as module constants. The threshold grids
are the BOP Challenge 2020 ones: VSD misalignment tolerances (fractions of
the object diameter) and correctness thresholds step from 0.05 to 0.5, MSSD
thresholds are the same fractions of the diameter, and MSPD thresholds step
from 5 to 50 px at a 640 px wide image, scaled by image width / 640. Beside
them stand VISIB_THRESHOLD, VISIB_TOL_MM and MAX_PER_IMAGE. An estimate is
correct w.r.t. a pose-error function e when e < theta_e; the Average Recall
of a metric is the fraction of (estimate, threshold) combinations judged
correct, and the overall AR averages the three metrics. A failed pick
(FAILURE) scores VSD 1 at every tau and MSSD and MSPD inf, so it misses
every threshold.

Estimates are matched to ground truth greedily in selection order, each to
the unmatched candidate instance with the smallest symmetry-aware surface
distance (ties to the earlier instance); unmatched estimates count as
failures. scene_pose_errors puts each candidate's points under each
symmetry once per scene (_symmetric_points) and matches every sort method's
selection against them by the max point distance (_max_distance), one array
expression per estimate. A matched pick's MSSD is the distance the matching
found; its MSPD projects the matched candidate's points only, and is inf if
a point of either lies at or behind the camera plane. mssd and mspd are the
one-pair case of the same two routines.

Evaluation does each piece of work once. VSD of an (estimate, GT) pair is
computed over the union bbox of the two solo render windows only, where
both visibility masks and the depth difference are built once and every tau
counts its hits from them. scene_pose_errors renders each distinct pose of a
matched pair of a scene once, into its own window, all in one batched call
(render.render_windows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, Rotation, SymmetrySet, TriangleMesh, project, _quat_matrix, _quat_product
from .render import RenderConfig, render_windows, visibility_mask

__all__ = [
    "VSD_TAUS_FRAC",
    "VSD_THRESHOLDS",
    "MSSD_THRESHOLDS_FRAC",
    "MSPD_THRESHOLDS_BASE",
    "VISIB_THRESHOLD",
    "VISIB_TOL_MM",
    "MAX_PER_IMAGE",
    "PoseError",
    "EvalReport",
    "DetectionMetrics",
    "mssd",
    "mspd",
    "vsd",
    "vsd_from_depths",
    "pose_errors",
    "scene_pose_errors",
    "average_recall",
    "match_estimates",
    "detection_metrics",
]


# BOP Challenge 2020 grids, i = 1..10: VSD misalignment tolerances and MSSD
# thresholds as fractions of the object diameter, VSD correctness thresholds,
# and MSPD thresholds in px at a 640 px wide image
VSD_TAUS_FRAC = VSD_THRESHOLDS = MSSD_THRESHOLDS_FRAC = tuple(0.05 * i for i in range(1, 11))
MSPD_THRESHOLDS_BASE = tuple(5.0 * i for i in range(1, 11))
# a GT instance is a matching candidate when its visible fraction is at least
# VISIB_THRESHOLD; VSD counts a rendered pixel as visible when it lies at most
# VISIB_TOL_MM behind the scene depth (render.visibility_mask)
VISIB_THRESHOLD = 0.10
VISIB_TOL_MM = 5.0
MAX_PER_IMAGE = 100  # detections ranked per image: the 100 of ar_max100


@dataclass(frozen=True)
class PoseError:
    """Errors of one (estimate, ground truth) pair; vsd is per-tau."""

    vsd: tuple
    mssd_mm: float
    mspd_px: float


@dataclass(frozen=True)
class EvalReport:
    n_estimates: int
    ar_vsd: float | None
    ar_mssd: float | None
    ar_mspd: float | None
    ar: float | None
    empty: bool = False


@dataclass(frozen=True)
class DetectionMetrics:
    ap50: float
    ap50_95: float
    ar_max100: float


def _model_points(vertices) -> np.ndarray:
    pts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty vertex set")
    return pts


def _symmetric_points(poses, sym: SymmetrySet, pts: np.ndarray) -> np.ndarray:
    """pts under each pose after each symmetry, as (pose, symmetry, point, xyz): the bits
    of compose(pose, Pose(s, 0)).transform(pts), in one array expression over every pair.

    Rotation's product, canonical sign and matrix, then Rotation.rotate's einsum (no
    BLAS), each applied elementwise. A product whose w is 0, or whose norm is off 1 by
    more than 1e-13, is left to Rotation itself (its sign rule for a zero w and its
    1e-12 renormalization). compose adds the rotated zero translation, which is +0.0."""
    a = np.array([pose.rotation.q for pose in poses]).T[:, :, None]  # (wxyz, pose, 1)
    b = np.array([s.q for s in sym.rotations]).T[:, None, :]  # (wxyz, 1, symmetry)
    q = np.stack(_quat_product(a, b), axis=-1)  # (pose, symmetry, wxyz)
    flip = q[..., 0] < 0.0
    q[flip] = -q[flip]
    odd = (q[..., 0] == 0.0) | (np.abs(np.sqrt((q * q).sum(axis=-1)) - 1.0) > 1e-13)
    if odd.any():
        q[odd] = [Rotation(row).q for row in q[odd]]
    # (pose, symmetry, 3, 3) in C order: each matrix laid out as rotate's, since einsum
    # picks its summation kernel, and so the rounding, by the operands' layout
    m = np.ascontiguousarray(np.moveaxis(np.array(_quat_matrix(np.moveaxis(q, -1, 0))), (0, 1), (2, 3)))
    t = np.array([pose.translation for pose in poses]) + 0.0
    return np.einsum("pi,gsji->gspj", np.asarray(pts, dtype=np.float64), m, optimize=False) + t[:, None, None, :]


def _max_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max distance of corresponding points over the (point, xyz) last axes."""
    return np.sqrt(((a - b) ** 2).sum(axis=-1)).max(axis=-1)


def mssd(est: Pose, gt: Pose, sym: SymmetrySet, vertices: np.ndarray) -> float:
    """Maximum Symmetry-aware Surface Distance in mm.

    :param est: estimated model-to-camera pose.
    :param gt: ground-truth model-to-camera pose.
    :param sym: discrete symmetry set of the object.
    :param vertices: (n, 3) model points in mm.
    :return: min over symmetries of the max vertex displacement.
    """
    pts = _model_points(vertices)
    return float(_max_distance(est.transform(pts), _symmetric_points([gt], sym, pts)[0]).min())


def mspd(est: Pose, gt: Pose, sym: SymmetrySet, vertices: np.ndarray, k: CameraIntrinsics) -> float:
    """Maximum Symmetry-aware Projection Distance in pixels.

    Raises if any transformed vertex lies at or behind the camera plane.
    scene_pose_errors and pose_errors instead score such a matched pick's
    MSPD as inf, a miss at every threshold.
    """
    pts = _model_points(vertices)
    return float(_max_distance(project(k, est.transform(pts)), project(k, _symmetric_points([gt], sym, pts)[0])).min())


def vsd_from_depths(
    d_est: np.ndarray, d_gt: np.ndarray, scene_depth: np.ndarray, tau_mm: float, vis_tol_mm: float
) -> float:
    """Visible Surface Discrepancy from pre-rendered distance maps.

    Cost over the union of the two visibility masks: 1 where the pixel is
    not visible in both or the depths differ by more than tau, else 0; the
    error is the mean cost (1 for an empty union).
    """
    if not (d_est.shape == d_gt.shape == scene_depth.shape):
        raise ValueError("depth image dimensions must match")
    return _vsd_per_tau((d_est, (0, 0)), (d_gt, (0, 0)), scene_depth, [tau_mm], vis_tol_mm)[0]


def vsd(
    est: Pose,
    gt: Pose,
    mesh: TriangleMesh,
    scene_depth: np.ndarray,
    render_cfg: RenderConfig,
    tau_mm: float,
    vis_tol_mm: float,
) -> float:
    """Visible Surface Discrepancy for a single misalignment tolerance."""
    k = render_cfg.intrinsics
    if scene_depth.shape != (k.height, k.width):
        raise ValueError("depth image dimensions must match")
    return _vsd_per_tau(*render_windows(mesh, [est, gt], render_cfg), scene_depth, [tau_mm], vis_tol_mm)[0]


def _vsd_per_tau(est, gt, scene_depth: np.ndarray, taus, vis_tol_mm: float) -> tuple:
    """VSD at every tau for one pair of (depth window, (row, col)) renders.

    No pixel outside the union bbox of the two windows is visible in either
    render, so both visibility masks and the depth difference are computed
    once, over that window only, and each tau just counts matching pixels.
    """
    boxes = [(r, c, r + d.shape[0], c + d.shape[1]) for d, (r, c) in (est, gt) if d.size]
    if not boxes:
        return (1.0,) * len(taus)
    top, left = min(b[0] for b in boxes), min(b[1] for b in boxes)
    window = scene_depth[top : max(b[2] for b in boxes), left : max(b[3] for b in boxes)]

    def paste(crop, origin):
        out = np.zeros(window.shape, crop.dtype)
        r, c = origin[0] - top, origin[1] - left
        out[r : r + crop.shape[0], c : c + crop.shape[1]] = crop
        return out

    d_est, d_gt = paste(*est), paste(*gt)
    vis_est = visibility_mask(d_est, window, vis_tol_mm)
    vis_gt = visibility_mask(d_gt, window, vis_tol_mm)
    n_union = int((vis_est | vis_gt).sum())
    if n_union == 0:
        return (1.0,) * len(taus)
    inter = vis_est & vis_gt
    diff = np.sort(np.abs(d_est[inter].astype(np.float64) - d_gt[inter].astype(np.float64)))
    n_match = np.searchsorted(diff, np.asarray(taus, dtype=np.float64), side="right")
    return tuple(float((n_union - int(m)) / n_union) for m in n_match)


def pose_errors(
    est: Pose,
    gt: Pose,
    mesh: TriangleMesh,
    sym: SymmetrySet,
    scene_depth: np.ndarray,
    render_cfg: RenderConfig,
) -> PoseError:
    """All three pose errors of est against gt: the one-pair case of scene_pose_errors."""
    return _errors([[est]], [gt], mesh, sym, scene_depth, render_cfg)[0][0]


def scene_pose_errors(
    selections,
    gt_instances,
    mesh: TriangleMesh,
    sym: SymmetrySet,
    scene_depth: np.ndarray,
    render_cfg: RenderConfig,
) -> list:
    """One list of PoseErrors per selection of a scene's estimates, each
    matched as match_estimates does; FAILURE marks an unmatched pick. Each
    distinct pose of a matched pair is rendered once, into its own window,
    all in one render_windows call; the windows are kept only for this call.
    """
    gt_poses = [g.pose_cam for g in gt_instances if g.visible_fraction >= VISIB_THRESHOLD]
    selections = [[est.pose for est in selected] for selected in selections]
    return _errors(selections, gt_poses, mesh, sym, scene_depth, render_cfg)


def _errors(selections, gt_poses, mesh, sym, scene_depth, render_cfg) -> list:
    """scene_pose_errors of selections of poses against candidate GT poses."""
    k = render_cfg.intrinsics
    if scene_depth.shape != (k.height, k.width):
        raise ValueError("depth image dimensions must match")
    taus = [f * mesh.diameter for f in VSD_TAUS_FRAC]
    matched, gt_pts = _match(selections, gt_poses, sym, mesh.vertices)

    def key(pose: Pose):
        return pose.rotation.q.tobytes(), pose.translation.tobytes()

    # every distinct pose of a matched pair, drawn once, all in one batch
    drawn = {key(pose): pose for selected, picks in zip(selections, matched)
             for est, (j, *_) in zip(selected, picks) if j is not None for pose in (est, gt_poses[j])}
    windows = dict(zip(drawn, render_windows(mesh, list(drawn.values()), render_cfg)))

    def error(est, j, mssd_mm, est_pts):
        if j is None:
            return FAILURE
        # the matched candidate only: another one may lie behind the camera;
        # a point at or behind the camera plane has no projection
        in_front = (est_pts[:, 2] > 0).all() and (gt_pts[j][..., 2] > 0).all()
        return PoseError(
            vsd=_vsd_per_tau(windows[key(est)], windows[key(gt_poses[j])], scene_depth, taus, VISIB_TOL_MM),
            mssd_mm=mssd_mm,
            mspd_px=float(_max_distance(project(k, est_pts), project(k, gt_pts[j])).min()) if in_front else np.inf,
        )

    return [[error(est, *pick) for est, pick in zip(selected, picks)] for selected, picks in zip(selections, matched)]


FAILURE = PoseError(vsd=(1.0,) * len(VSD_TAUS_FRAC), mssd_mm=np.inf, mspd_px=np.inf)


def average_recall(errors, diameter_mm: float, image_width_px: int) -> EvalReport:
    """Average Recall over the threshold grids; AR averages the three metrics.

    An empty error list yields a report flagged empty with undefined AR
    rather than zero.
    """
    errors = list(errors)
    if not errors:
        return EvalReport(0, None, None, None, None, empty=True)

    def recall(values, grid):
        """Share of (error, threshold) pairs with error < threshold."""
        return float(np.mean(np.array(values)[..., None] < np.array(grid)))

    ar_vsd = recall([e.vsd for e in errors], VSD_THRESHOLDS)
    ar_mssd = recall([e.mssd_mm for e in errors], np.array(MSSD_THRESHOLDS_FRAC) * diameter_mm)
    ar_mspd = recall([e.mspd_px for e in errors], np.array(MSPD_THRESHOLDS_BASE) * (image_width_px / 640.0))
    ar = (ar_vsd + ar_mssd + ar_mspd) / 3.0
    return EvalReport(len(errors), ar_vsd, ar_mssd, ar_mspd, ar)


def match_estimates(selected, gt_instances, sym: SymmetrySet, vertices: np.ndarray):
    """Greedy one-to-one matching of ordered estimates to GT instances.

    In selection order, each estimate takes the unmatched instance with
    visible fraction >= VISIB_THRESHOLD that minimizes the symmetry-aware
    surface distance (ties to the earlier instance). Returns (estimate,
    instance-or-None) pairs; None marks a failure (no instance left). This
    is the one-selection case of scene_pose_errors' matching.
    """
    selected = list(selected)
    candidates = [g for g in gt_instances if g.visible_fraction >= VISIB_THRESHOLD]
    (picks,), _ = _match([[est.pose for est in selected]], [g.pose_cam for g in candidates], sym, vertices)
    return [(est, None if j is None else candidates[j]) for est, (j, _, _) in zip(selected, picks)]


def _match(selections, gt_poses, sym: SymmetrySet, vertices: np.ndarray):
    """Greedy matching of each selection of estimated poses to gt_poses:
    per selection, one (GT index or None, MSSD to it, the pose's points) per
    pose; and the GT poses' points as (GT, symmetry, point, xyz).
    """
    if not gt_poses or not any(selections):
        return [[(None, np.inf, None)] * len(selected) for selected in selections], None
    pts = _model_points(vertices)
    gt_pts = _symmetric_points(gt_poses, sym, pts)
    matched = []
    for selected in selections:
        free = np.ones(len(gt_poses), dtype=bool)
        picks = []
        for est in selected:
            est_pts = est.transform(pts)
            d = _max_distance(est_pts, gt_pts).min(axis=1)
            d[~free] = np.inf
            j = int(np.argmin(d))
            if d[j] < np.inf:
                free[j] = False
                picks.append((j, float(d[j]), est_pts))
            else:
                picks.append((None, np.inf, est_pts))
        matched.append(picks)
    return matched, gt_pts


def _box_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def detection_metrics(dets, gt_dets) -> DetectionMetrics:
    """Box-IoU detection metrics: AP at IoU 0.5, AP 0.5:0.95, AR at 100.

    :param dets: Detections predicted, grouped by their image_id; the
        MAX_PER_IMAGE best-scored of each image count.
    :param gt_dets: ground-truth Detections, grouped by their image_id.
    :return: DetectionMetrics with values in [0, 1]; AP integrates the
        interpolated precision envelope exactly.
    """
    dets_by_image, gt_by_image = {}, {}
    for grouped, listed in ((dets_by_image, dets), (gt_by_image, gt_dets)):
        for d in listed:
            grouped.setdefault(d.image_id, []).append(d)
    image_ids = sorted(dets_by_image.keys() | gt_by_image.keys())
    gt_boxes = {i: [d.bbox for d in gt_by_image.get(i, [])] for i in image_ids}
    n_gt = sum(len(v) for v in gt_boxes.values())

    ranked = []  # (score, image_id, in-image rank, bbox)
    for i in image_ids:
        img_dets = sorted(
            enumerate(dets_by_image.get(i, [])), key=lambda p: (-p[1].score, p[0])
        )[:MAX_PER_IMAGE]
        for rank, (orig_idx, d) in enumerate(img_dets):
            ranked.append((d.score, i, rank, orig_idx, d.bbox))
    ranked.sort(key=lambda r: (-r[0], r[1], r[2]))

    thresholds = [0.5 + 0.05 * i for i in range(10)]
    aps = []
    recalls = []
    for th in thresholds:
        matched = {i: [False] * len(gt_boxes[i]) for i in image_ids}
        tp = np.zeros(len(ranked))
        for n, (_, img, _, _, box) in enumerate(ranked):
            best_iou, best_j = th, -1
            for j, gbox in enumerate(gt_boxes[img]):
                if matched[img][j]:
                    continue
                iou = _box_iou(box, gbox)
                if iou >= best_iou:
                    best_iou, best_j = iou, j
            if best_j >= 0:
                matched[img][best_j] = True
                tp[n] = 1.0
        if n_gt == 0:
            aps.append(0.0)
            recalls.append(0.0)
            continue
        cum_tp = np.cumsum(tp)
        cum_fp = np.cumsum(1.0 - tp)
        recall = cum_tp / n_gt
        precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
        aps.append(_average_precision(recall, precision))
        recalls.append(float(recall[-1]) if len(recall) else 0.0)

    return DetectionMetrics(ap50=aps[0], ap50_95=float(np.mean(aps)), ar_max100=float(np.mean(recalls)))


def _average_precision(recall: np.ndarray, precision: np.ndarray) -> float:
    if len(recall) == 0:
        return 0.0
    r = np.concatenate([[0.0], recall, [1.0]])
    # precision envelope: max precision at recall >= r
    p = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.flatnonzero(r[1:] != r[:-1])
    return float(np.sum((r[steps + 1] - r[steps]) * p[steps + 1]))
