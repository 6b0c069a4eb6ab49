from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpick.bopeval import (
    FAILURE,
    MAX_PER_IMAGE,
    DetectionMetrics,
    EvalReport,
    PoseError,
    VISIB_THRESHOLD,
    VISIB_TOL_MM,
    VSD_TAUS_FRAC,
    _average_precision,
    average_recall,
    detection_metrics,
    match_estimates,
    mspd,
    mssd,
    pose_errors,
    scene_pose_errors,
    vsd,
    vsd_from_depths,
)
from binpick.geometry import CameraIntrinsics, Pose, Rotation, SymmetrySet, TriangleMesh, compose
from binpick.pipeline import PoseEstimate
from binpick.render import RenderConfig, render_scene, render_single, visibility_mask
from binpick.scenegen import Detection, GTInstance, SceneConfig, generate_scene
from binpick.shapes import box_symmetries, make_box, make_lbracket
from conftest import solo_frame


def brute_force_mssd(est, gt, sym, pts):
    best = math.inf
    for s in sym.rotations:
        worst = 0.0
        for x in pts:
            a = est.rotation.rotate(x) + est.translation
            b = gt.rotation.rotate(s.rotate(x)) + gt.translation
            worst = max(worst, float(np.linalg.norm(a - b)))
        best = min(best, worst)
    return best


def brute_force_mspd(est, gt, sym, pts, k):
    def proj(p):
        return np.array([k.cx + k.fx * p[0] / p[2], k.cy + k.fy * p[1] / p[2]])

    best = math.inf
    for s in sym.rotations:
        worst = 0.0
        for x in pts:
            a = proj(est.rotation.rotate(x) + est.translation)
            b = proj(gt.rotation.rotate(s.rotate(x)) + gt.translation)
            worst = max(worst, float(np.linalg.norm(a - b)))
        best = min(best, worst)
    return best


class TestMssdMspd:
    def test_exact_pose_zero(self, box, rng):
        pose = Pose(Rotation.random(rng), [5, 5, 300.0])
        assert mssd(pose, pose, box_symmetries(), box.vertices) == 0.0

    def test_pure_shift(self, box):
        gt = Pose(Rotation.identity(), [0, 0, 300.0])
        est = Pose(Rotation.identity(), [5.0, 0, 300.0])
        assert mssd(est, gt, SymmetrySet.trivial(), box.vertices) == pytest.approx(5.0, abs=1e-12)

    def test_symmetry_absorbed(self, box, rng):
        sym = box_symmetries()
        gt = Pose(Rotation.random(rng), [3, -4, 290.0])
        est = compose(gt, Pose(sym.rotations[1], np.zeros(3)))
        assert mssd(est, gt, sym, box.vertices) < 1e-9
        cam = _cam()
        assert mspd(est, gt, sym, box.vertices, cam) < 1e-7

    def test_mspd_pinhole_shift(self):
        # single vertex at (0,0,300), shift 30 mm, fx=600 -> 60 px
        cam = _cam()
        single = np.array([[0.0, 0.0, 0.0]])
        gt = Pose(Rotation.identity(), [0, 0, 300.0])
        est = Pose(Rotation.identity(), [30.0, 0, 300.0])
        assert mspd(est, gt, SymmetrySet.trivial(), single, cam) == pytest.approx(60.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        verts = rng.normal(size=(40, 3)) * 15.0
        tris = np.array([[0, 1, 2]])
        mesh_pts = verts
        sym = box_symmetries()
        cam = _cam()
        for _ in range(10):
            gt = Pose(Rotation.random(rng), rng.normal(size=3) * 5 + [0, 0, 400.0])
            est = Pose(Rotation.random(rng), rng.normal(size=3) * 5 + [0, 0, 400.0])
            a = mssd(est, gt, sym, mesh_pts)
            b = brute_force_mssd(est, gt, sym, mesh_pts)
            assert a == pytest.approx(b, rel=1e-9)
            c = mspd(est, gt, sym, mesh_pts, cam)
            d = brute_force_mspd(est, gt, sym, mesh_pts, cam)
            assert c == pytest.approx(d, rel=1e-9)

    def test_empty_vertices(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            mssd(pose, pose, SymmetrySet.trivial(), np.zeros((0, 3)))

    def test_mspd_behind_camera(self):
        cam = _cam()
        pose = Pose(Rotation.identity(), [0, 0, -50.0])
        with pytest.raises(ValueError, match="behind camera"):
            mspd(pose, pose, SymmetrySet.trivial(), np.array([[0.0, 0.0, 0.0]]), cam)


class TestVsd:
    def test_exact_zero(self, box, cam_small):
        rcfg = RenderConfig(cam_small)
        cfg = SceneConfig(instance_count=5, master_seed=3)
        gt, depth, _, _ = generate_scene(box, cfg, rcfg)
        inst = gt.instances[0]
        assert vsd(inst.pose_cam, inst.pose_cam, box, depth, rcfg, 2.0, 5.0) == 0.0

    def test_disjoint_is_one(self, box, cam_small):
        rcfg = RenderConfig(cam_small)
        cfg = SceneConfig(instance_count=3, master_seed=4)
        gt, depth, _, _ = generate_scene(box, cfg, rcfg)
        inst = gt.instances[0]
        far = Pose(inst.pose_cam.rotation, inst.pose_cam.translation + np.array([400.0, 0, 0]))
        assert vsd(far, inst.pose_cam, box, depth, rcfg, 2.0, 5.0) == 1.0

    def test_scene_depth_not_of_the_frame(self, box, cam_small):
        pose = Pose(Rotation.identity(), [0, 0, 300.0])
        depth = np.full((cam_small.height, cam_small.width - 1), 300, np.uint16)
        with pytest.raises(ValueError, match="dimensions must match"):
            vsd(pose, pose, box, depth, RenderConfig(cam_small), 2.0, 5.0)

    def test_constructed_half_mismatch(self):
        # two-region fixture: identical masks, half the pixels differ > tau
        d_gt = np.zeros((10, 10), np.uint16)
        d_gt[:, :] = 100
        d_est = d_gt.copy()
        d_est[:5, :] = 150  # 50 of 100 pixels off by 50 mm
        scene = d_gt.copy()
        # per-pixel oracle: both visible everywhere (est differs beyond tol on
        # top half, so visibility there comes from gt only)
        e = vsd_from_depths(d_est, d_gt, scene, tau_mm=10.0, vis_tol_mm=np.inf)
        assert e == 0.5

    def test_empty_union(self):
        z = np.zeros((4, 4), np.uint16)
        assert vsd_from_depths(z, z, z, 1.0, 5.0) == 1.0


def _oracle_average_recall(errors, diameter_mm, image_width_px):
    """average_recall as one loop per (error, threshold), over literal BOP 2020 grids."""
    errors = list(errors)
    if not errors:
        return EvalReport(0, None, None, None, None, empty=True)
    fractions = [0.05 * i for i in range(1, 11)]
    vsd_hits = 0
    for e in errors:
        per_tau = e.vsd if len(e.vsd) == len(fractions) else (1.0,) * len(fractions)
        for ev in per_tau:
            vsd_hits += sum(1 for th in fractions if ev < th)
    ar_vsd = vsd_hits / (len(errors) * len(fractions) ** 2)
    mssd_th = [f * diameter_mm for f in fractions]
    ar_mssd = float(np.mean([[e.mssd_mm < th for th in mssd_th] for e in errors]))
    mspd_th = [5.0 * i * (image_width_px / 640.0) for i in range(1, 11)]
    ar_mspd = float(np.mean([[e.mspd_px < th for th in mspd_th] for e in errors]))
    return EvalReport(len(errors), ar_vsd, ar_mssd, ar_mspd, (ar_vsd + ar_mssd + ar_mspd) / 3.0)


class TestAverageRecall:
    def test_all_zero_errors(self, box):
        errs = [PoseError(vsd=(0.0,) * 10, mssd_mm=0.0, mspd_px=0.0)] * 3
        rep = average_recall(errs, box.diameter, 640)
        assert rep.ar_vsd == rep.ar_mssd == rep.ar_mspd == rep.ar == 1.0

    def test_all_failures(self, box):
        rep = average_recall([FAILURE] * 3, box.diameter, 640)
        assert rep.ar == 0.0

    def test_threshold_counting(self, box):
        # e_mssd = 0.2 d passes thresholds {0.25d .. 0.5d}: 6 of 10
        d = box.diameter
        errs = [PoseError(vsd=(0.0,) * 10, mssd_mm=0.2 * d, mspd_px=0.0)]
        rep = average_recall(errs, d, 640)
        assert rep.ar_mssd == 0.6

    def test_empty_flagged(self, box):
        rep = average_recall([], box.diameter, 640)
        assert rep.empty and rep.ar is None

    def test_ar_identity(self, box, rng):
        errs = [
            PoseError(
                vsd=tuple(rng.random(10)),
                mssd_mm=float(rng.random() * 30),
                mspd_px=float(rng.random() * 60),
            )
            for _ in range(20)
        ]
        rep = average_recall(errs, box.diameter, 640)
        assert rep.ar == pytest.approx((rep.ar_vsd + rep.ar_mssd + rep.ar_mspd) / 3.0, abs=1e-12)

    def test_monotone_under_noise(self, box, cam_small, rng):
        # AR is non-increasing along an increasing-noise ladder
        sym = box_symmetries()
        rcfg = RenderConfig(cam_small)
        cfg = SceneConfig(instance_count=10, master_seed=6)
        gt, depth, _, _ = generate_scene(box, cfg, rcfg)
        from binpick.bopeval import pose_errors

        levels = [0.0, 2.0, 5.0, 12.0, 30.0]  # mm translation noise
        ars = []
        for level in levels:
            errs = []
            for inst in gt.instances:
                offset = rng.normal(size=3)
                offset = offset / np.linalg.norm(offset) * level
                est = Pose(inst.pose_cam.rotation, inst.pose_cam.translation + offset)
                errs.append(pose_errors(est, inst.pose_cam, box, sym, depth, rcfg))
            ars.append(average_recall(errs, box.diameter, cam_small.width).ar)
        assert all(b <= a + 1e-9 for a, b in zip(ars, ars[1:]))
        assert ars[0] > ars[-1]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_loop_over_thresholds(self, data):
        diameter = data.draw(st.sampled_from([m.diameter for m in _EVAL_MESHES.values()] + [1.0, 0.3, 97.25]))
        width = data.draw(st.sampled_from([640, 160, 96, 1, 1000]))
        on_grid = st.integers(0, 11).map(lambda i: 0.05 * i)
        vsd_value = st.one_of(on_grid, st.floats(0.0, 1.0), st.just(1.0))
        mssd_mm = st.one_of(on_grid.map(lambda f: f * diameter), st.floats(0.0, 2.0 * diameter), st.just(np.inf))
        mspd_px = st.one_of(st.integers(0, 11).map(lambda i: 5.0 * i * (width / 640.0)),
                            st.floats(0.0, 80.0 * width / 640.0), st.just(np.inf))
        error = st.builds(PoseError, st.tuples(*[vsd_value] * 10), mssd_mm, mspd_px)
        errors = data.draw(st.lists(st.one_of(error, st.just(FAILURE)), max_size=12))
        assert average_recall(errors, diameter, width) == _oracle_average_recall(errors, diameter, width)


class TestMatchEstimates:
    def _inst(self, iid, pose, vis=1.0):
        return GTInstance(iid, 1, pose, vis)

    def test_exact_match(self, box):
        pose = Pose(Rotation.identity(), [0, 0, 300.0])
        inst = self._inst(1, pose)
        est = PoseEstimate(0, 0, pose, 0.9, 0.9, "depth_center")
        pairs = match_estimates([est], [inst], SymmetrySet.trivial(), box.vertices)
        assert pairs[0][1] is inst
        assert mssd(est.pose, pairs[0][1].pose_cam, SymmetrySet.trivial(), box.vertices) == 0.0

    def test_unmatched_second_estimate(self, box):
        pose = Pose(Rotation.identity(), [0, 0, 300.0])
        inst = self._inst(1, pose)
        ests = [PoseEstimate(0, i, pose, 0.9, 0.9, "depth_center") for i in range(2)]
        pairs = match_estimates(ests, [inst], SymmetrySet.trivial(), box.vertices)
        assert pairs[0][1] is inst and pairs[1][1] is None

    def test_greedy_order(self, box):
        # oracle on a 2x2 distance table: est1 takes A (its nearest), est2
        # settles for B even though A is also B-nearest
        pose_a = Pose(Rotation.identity(), [0, 0, 300.0])
        pose_b = Pose(Rotation.identity(), [50.0, 0, 300.0])
        inst_a, inst_b = self._inst(1, pose_a), self._inst(2, pose_b)
        est1 = PoseEstimate(0, 0, Pose(Rotation.identity(), [2.0, 0, 300.0]), 0.9, 0.9, "d")
        est2 = PoseEstimate(0, 1, Pose(Rotation.identity(), [10.0, 0, 300.0]), 0.9, 0.9, "d")
        pairs = match_estimates([est1, est2], [inst_a, inst_b], SymmetrySet.trivial(), box.vertices)
        assert pairs[0][1] is inst_a and pairs[1][1] is inst_b

    def test_visibility_threshold(self, box):
        pose = Pose(Rotation.identity(), [0, 0, 300.0])
        inst = self._inst(1, pose, vis=0.05)
        est = PoseEstimate(0, 0, pose, 0.9, 0.9, "d")
        pairs = match_estimates([est], [inst], SymmetrySet.trivial(), box.vertices)
        assert pairs[0][1] is None


def _det(image_id, bbox, score=1.0, shape=(120, 160)):
    mask = np.zeros(shape, bool)
    x, y, w, h = bbox
    mask[y : y + h, x : x + w] = True
    return Detection(image_id, 1, score, bbox, mask)


class TestDetectionMetrics:
    def test_identical_sets(self):
        dets = [_det(0, (10, 10, 20, 20)), _det(0, (50, 50, 30, 15))]
        m = detection_metrics(dets, dets)
        assert m.ap50 == 1.0 and m.ap50_95 == 1.0 and m.ar_max100 == 1.0

    def test_empty_detections(self):
        gt = [_det(0, (10, 10, 20, 20))]
        m = detection_metrics([], gt)
        assert m.ap50 == 0.0 and m.ap50_95 == 0.0 and m.ar_max100 == 0.0

    def test_one_of_two(self):
        # single-point precision-recall curve: recall 0.5 at precision 1 -> 0.5
        gt = [_det(0, (10, 10, 20, 20)), _det(0, (60, 60, 20, 20))]
        dets = [_det(0, (10, 10, 20, 20), score=1.0)]
        m = detection_metrics(dets, gt)
        assert m.ap50 == 0.5
        assert m.ap50_95 == 0.5
        assert m.ar_max100 == 0.5

    def test_false_positive_penalizes_ap(self):
        gt = [_det(0, (10, 10, 20, 20))]
        dets = [_det(0, (100, 80, 20, 20), score=0.9), _det(0, (10, 10, 20, 20), score=0.8)]
        m = detection_metrics(dets, gt)
        assert m.ap50 == 0.5  # envelope precision at recall 1 is 1/2
        assert m.ar_max100 == 1.0

    def test_max_per_image_cap(self):
        gt = [_det(0, (10, 10, 20, 20))]
        noise = [_det(0, (100, 80, 20, 20), score=0.9)] * MAX_PER_IMAGE
        dets = noise + [_det(0, (10, 10, 20, 20), score=0.1)]
        m = detection_metrics(dets, gt)
        assert m.ar_max100 == 0.0  # true detection fell past the cap

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=40), st.integers(1, 40))
    def test_average_precision_equals_backward_loop(self, hits, n_gt):
        tp = np.array(hits, dtype=float)
        cum_tp, cum_fp = np.cumsum(tp), np.cumsum(1.0 - tp)
        recall, precision = cum_tp / n_gt, cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
        assert _average_precision(recall, precision) == _oracle_average_precision(recall, precision)


def _cam():
    from binpick.geometry import CameraIntrinsics

    return CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


# ---------------------------------------------------------------------------
# slow references: VSD one tau at a time over full frames, and matching by
# one mssd call per (estimate, candidate)

def _oracle_vsd_from_depths(d_est, d_gt, scene_depth, tau_mm, vis_tol_mm):
    vis_est = visibility_mask(d_est, scene_depth, vis_tol_mm)
    vis_gt = visibility_mask(d_gt, scene_depth, vis_tol_mm)
    union = vis_est | vis_gt
    n_union = int(union.sum())
    if n_union == 0:
        return 1.0
    inter = vis_est & vis_gt
    diff = np.abs(d_est.astype(np.float64) - d_gt.astype(np.float64))
    n_match = int((inter & (diff <= tau_mm)).sum())
    return float((n_union - n_match) / n_union)


def _oracle_pose_errors(est, gt, mesh, sym, scene_depth, render_cfg):
    d_est, _ = solo_frame(mesh, est, render_cfg)
    d_gt, _ = solo_frame(mesh, gt, render_cfg)
    taus = [f * mesh.diameter for f in VSD_TAUS_FRAC]
    return PoseError(
        vsd=tuple(_oracle_vsd_from_depths(d_est, d_gt, scene_depth, tau, VISIB_TOL_MM) for tau in taus),
        mssd_mm=mssd(est, gt, sym, mesh.vertices),
        mspd_px=mspd(est, gt, sym, mesh.vertices, render_cfg.intrinsics),
    )


def _oracle_match_estimates(selected, gt_instances, sym, vertices):
    candidates = [g for g in gt_instances if g.visible_fraction >= VISIB_THRESHOLD]
    taken = set()
    pairs = []
    for est in selected:
        best = None
        best_d = np.inf
        for j, inst in enumerate(candidates):
            if j in taken:
                continue
            d = mssd(est.pose, inst.pose_cam, sym, vertices)
            if d < best_d:
                best, best_d = j, d
        if best is None:
            pairs.append((est, None))
        else:
            taken.add(best)
            pairs.append((est, candidates[best]))
    return pairs


def _oracle_average_precision(recall, precision):
    """Area under the precision envelope, the envelope built by a backward loop."""
    if len(recall) == 0:
        return 0.0
    r = np.concatenate([[0.0], recall, [1.0]])
    p = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    steps = np.flatnonzero(r[1:] != r[:-1])
    return float(np.sum((r[steps + 1] - r[steps]) * p[steps + 1]))


def _ids(pairs):
    return [(id(est), None if inst is None else id(inst)) for est, inst in pairs]


_EVAL_CAM = CameraIntrinsics(150.0, 150.0, 48.0, 36.0, 96, 72)
# near plane far enough out that a whole part fits in front of it
_EVAL_RCFG = RenderConfig(_EVAL_CAM, near_mm=60.0)
_EVAL_MESHES = {"box": make_box(), "lbracket": make_lbracket()}


def _estimate_pose(kind, gt_pose, rng):
    if kind == "exact":
        return gt_pose
    if kind == "near":
        return Pose(gt_pose.rotation, gt_pose.translation + rng.normal(size=3) * 3.0)
    if kind == "off_frame":
        return Pose(Rotation.random(rng), [5000.0, 0.0, 200.0])
    if kind == "behind_near":
        # every vertex between the camera and the near plane: renders empty
        return Pose(Rotation.random(rng), [0.0, 0.0, 35.0])
    return Pose(Rotation.random(rng), [rng.uniform(-40, 40), rng.uniform(-30, 30), rng.uniform(150, 250)])


@st.composite
def _eval_scenes(draw):
    """(mesh, sym, GT instances, estimates, scene depth, a VSD visibility tolerance in mm)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = _EVAL_MESHES[draw(st.sampled_from(sorted(_EVAL_MESHES)))]
    gts = []
    for i in range(draw(st.integers(1, 5))):
        t = [rng.uniform(-40, 40), rng.uniform(-30, 30), rng.uniform(150, 250)]
        gts.append(GTInstance(i + 1, 1, Pose(Rotation.random(rng), t), float(rng.uniform(0.0, 1.0))))
    if draw(st.booleans()):
        # a duplicate GT pose: its matching distances tie with the original's
        j = draw(st.integers(0, len(gts) - 1))
        gts.insert(draw(st.integers(0, len(gts))), GTInstance(len(gts) + 1, 1, gts[j].pose_cam, 1.0))
    kinds = st.sampled_from(["exact", "near", "random", "off_frame", "behind_near"])
    ests = []
    # up to three more estimates than candidates: the surplus is unmatched
    for n in range(draw(st.integers(1, len(gts) + 3))):
        gt_pose = gts[draw(st.integers(0, len(gts) - 1))].pose_cam
        ests.append(PoseEstimate(0, n, _estimate_pose(draw(kinds), gt_pose, rng), 0.9, 0.9, "depth_center"))
    scene = draw(st.sampled_from(["rendered", "empty", "wall"]))
    if scene == "rendered":
        depth, _, _ = render_scene([(mesh, g.pose_cam, g.instance_id) for g in gts], _EVAL_RCFG)
    elif scene == "empty":
        # no scene surface anywhere: every visibility union is empty
        depth = np.zeros((_EVAL_CAM.height, _EVAL_CAM.width), np.uint16)
    else:
        # a wall through the parts' depth range: each part is partly in front of it
        depth = np.full((_EVAL_CAM.height, _EVAL_CAM.width), 200, np.uint16)
    sym = draw(st.sampled_from([SymmetrySet.trivial(), box_symmetries()]))
    return mesh, sym, gts, ests, depth, draw(st.sampled_from([5.0, 0.0, 40.0]))


class TestEvalOracles:
    @settings(max_examples=60, deadline=None)
    @given(_eval_scenes())
    def test_match_estimates_equals_loop_over_mssd(self, scene):
        mesh, sym, gts, ests, _, _ = scene
        got = match_estimates(ests, gts, sym, mesh.vertices)
        want = _oracle_match_estimates(ests, gts, sym, mesh.vertices)
        assert _ids(got) == _ids(want)

    @settings(max_examples=60, deadline=None)
    @given(_eval_scenes(), st.lists(st.lists(st.integers(0, 7), max_size=8), min_size=1, max_size=4))
    def test_scene_pose_errors_equal_matching_then_pose_errors(self, scene, picks):
        # one selection per sort method, each a reordered subset of the estimates
        mesh, sym, gts, ests, depth, _ = scene
        selections = [[ests[i % len(ests)] for i in pick] for pick in picks]
        want = [
            [
                FAILURE if inst is None
                else _oracle_pose_errors(est.pose, inst.pose_cam, mesh, sym, depth, _EVAL_RCFG)
                for est, inst in _oracle_match_estimates(selected, gts, sym, mesh.vertices)
            ]
            for selected in selections
        ]
        assert scene_pose_errors(selections, gts, mesh, sym, depth, _EVAL_RCFG) == want

    @settings(max_examples=60, deadline=None)
    @given(_eval_scenes())
    def test_pose_errors_equal_per_tau_vsd(self, scene):
        mesh, sym, gts, ests, depth, vis_tol_mm = scene
        # every estimate against every GT pose
        for est, gt in [(e.pose, g.pose_cam) for e in ests for g in gts]:
            want = _oracle_pose_errors(est, gt, mesh, sym, depth, _EVAL_RCFG)
            assert pose_errors(est, gt, mesh, sym, depth, _EVAL_RCFG) == want
        est, gt = ests[0].pose, gts[0].pose_cam
        d_est, _ = solo_frame(mesh, est, _EVAL_RCFG)
        d_gt, _ = solo_frame(mesh, gt, _EVAL_RCFG)
        for tau in (0.0, 2.0, 9.5, 1e9):
            assert vsd_from_depths(d_est, d_gt, depth, tau, vis_tol_mm) == _oracle_vsd_from_depths(
                d_est, d_gt, depth, tau, vis_tol_mm
            )

    def test_scene_pose_errors_empty_renders_and_duplicate_gt(self, box):
        gt = Pose(Rotation.identity(), [0.0, 0.0, 200.0])
        gts = self._gts(gt, gt, Pose(Rotation.identity(), [30.0, 0.0, 220.0]))
        depth, _, _ = render_scene([(box, g.pose_cam, g.instance_id) for g in gts[1:]], _EVAL_RCFG)
        off_frame, behind_near = (Pose(Rotation.identity(), t) for t in ([5000.0, 0.0, 200.0], [0.0, 0.0, 35.0]))
        ests = [PoseEstimate(0, i, p, 0.9, 0.9, "d") for i, p in enumerate([off_frame, gt, behind_near, gt, gt])]
        sym = box_symmetries()
        selections = [ests, ests[::-1], [ests[1]] * 4]
        got = scene_pose_errors(selections, gts, box, sym, depth, _EVAL_RCFG)
        for selected, errors in zip(selections, got):
            pairs = _oracle_match_estimates(selected, gts, sym, box.vertices)
            assert errors == [
                FAILURE if inst is None else _oracle_pose_errors(est.pose, inst.pose_cam, box, sym, depth, _EVAL_RCFG)
                for est, inst in pairs
            ]
        assert got[0][0].vsd == got[0][2].vsd == (1.0,) * 10  # empty renders
        # the duplicate GT poses both match at 0 mm; a fourth pick finds no instance left
        assert [e.mssd_mm for e in got[2][:2]] == [0.0, 0.0] and got[2][3] is FAILURE

    def _gts(self, *poses, vis=1.0):
        return [GTInstance(i + 1, 1, pose, vis) for i, pose in enumerate(poses)]

    def test_duplicate_gt_poses_tie_to_lower_index(self, box):
        pose = Pose(Rotation.identity(), [0, 0, 300.0])
        gts = self._gts(pose, pose, pose)
        ests = [PoseEstimate(0, i, pose, 0.9, 0.9, "d") for i in range(2)]
        pairs = match_estimates(ests, gts, box_symmetries(), box.vertices)
        assert [inst for _, inst in pairs] == gts[:2]
        assert _ids(pairs) == _ids(_oracle_match_estimates(ests, gts, box_symmetries(), box.vertices))

    def test_more_estimates_than_candidates(self, box, rng):
        gts = self._gts(*(Pose(Rotation.random(rng), [10.0 * i, 0, 300.0]) for i in range(2)))
        ests = [PoseEstimate(0, i, Pose(Rotation.random(rng), [5.0 * i, 0, 300.0]), 0.9, 0.9, "d")
                for i in range(5)]
        pairs = match_estimates(ests, gts, box_symmetries(), box.vertices)
        assert [inst is None for _, inst in pairs] == [False, False, True, True, True]
        assert _ids(pairs) == _ids(_oracle_match_estimates(ests, gts, box_symmetries(), box.vertices))

    def test_vis_threshold_filters_candidates(self, box):
        near = Pose(Rotation.identity(), [0, 0, 300.0])
        gts = self._gts(near, *(Pose(Rotation.identity(), [x, 0, 300.0]) for x in (40.0, 80.0)))
        gts[0] = GTInstance(1, 1, near, 0.09)
        # exactly at the threshold: still a candidate
        gts[2] = GTInstance(3, 1, gts[2].pose_cam, VISIB_THRESHOLD)
        ests = [PoseEstimate(0, i, near, 0.9, 0.9, "d") for i in range(3)]
        pairs = match_estimates(ests, gts, SymmetrySet.trivial(), box.vertices)
        assert [inst for _, inst in pairs] == [gts[1], gts[2], None]
        assert _ids(pairs) == _ids(_oracle_match_estimates(ests, gts, SymmetrySet.trivial(), box.vertices))

    @pytest.mark.parametrize("est", [
        Pose(Rotation.identity(), [5000.0, 0.0, 200.0]),
        Pose(Rotation.identity(), [0.0, 0.0, 35.0]),
    ], ids=["off_frame", "behind_near"])
    def test_empty_render_is_vsd_one(self, box, est):
        gt = Pose(Rotation.identity(), [0.0, 0.0, 200.0])
        depth, _, _ = render_scene([(box, gt, 1)], _EVAL_RCFG)
        assert not render_single(box, est, _EVAL_RCFG)[0].any()
        err = pose_errors(est, gt, box, SymmetrySet.trivial(), depth, _EVAL_RCFG)
        assert err.vsd == (1.0,) * 10
        assert err == _oracle_pose_errors(est, gt, box, SymmetrySet.trivial(), depth, _EVAL_RCFG)

    def test_empty_visibility_union(self, box):
        pose = Pose(Rotation.identity(), [0.0, 0.0, 200.0])
        depth = np.zeros((_EVAL_CAM.height, _EVAL_CAM.width), np.uint16)
        err = pose_errors(pose, pose, box, SymmetrySet.trivial(), depth, _EVAL_RCFG)
        assert err.vsd == (1.0,) * 10
        assert err == _oracle_pose_errors(pose, pose, box, SymmetrySet.trivial(), depth, _EVAL_RCFG)

    def test_pick_reaching_behind_camera_plane_misses_mspd(self, box):
        # a matched pick whose points reach z <= 0 cannot be projected: MSPD
        # inf, a miss at every threshold; its VSD and MSSD are scored as usual
        near = Pose(Rotation.from_axis_angle([1.0, 0.0, 0.0], np.pi / 2), [0.0, 0.0, 15.0])
        assert (near.transform(box.vertices)[:, 2] <= 0).any()
        gts = self._gts(near, Pose(Rotation.identity(), [30.0, 0.0, 220.0]))
        rcfg, sym = RenderConfig(_EVAL_CAM), box_symmetries()
        depth, _, _ = render_scene([(box, g.pose_cam, g.instance_id) for g in gts], rcfg)
        with pytest.raises(ValueError, match="behind camera"):
            mspd(near, near, sym, box.vertices, _EVAL_CAM)
        (err,), = scene_pose_errors([[PoseEstimate(0, 0, near, 0.9, 0.9, "d")]], gts, box, sym, depth, rcfg)
        d_near, _ = solo_frame(box, near, rcfg)
        taus = [f * box.diameter for f in VSD_TAUS_FRAC]
        assert err == PoseError(
            vsd=tuple(_oracle_vsd_from_depths(d_near, d_near, depth, tau, VISIB_TOL_MM) for tau in taus),
            mssd_mm=0.0,
            mspd_px=np.inf,
        )
        assert err.vsd != FAILURE.vsd
        assert average_recall([err], box.diameter, _EVAL_CAM.width).ar_mspd == 0.0
