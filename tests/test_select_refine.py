from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from binpick.geometry import Pose, Rotation, compose, sample_surface_points
from binpick.pipeline import PoseEstimate
from binpick.render import RenderConfig, render_single
from binpick.scenegen import SceneConfig, generate_scene, gt_detections
from binpick.select_refine import (
    IcpConfig,
    SelectionConfig,
    depth_error,
    detection_cloud,
    icp_refine,
    score_depth_error,
    select_top_k,
)


def est(idx, score=0.5, cosine=0.5):
    return PoseEstimate(0, idx, Pose.identity(), cosine, score, "depth_center")


def sel_score(mean_error=0.0, e_sum=0.0, coverage=1.0, disqualified=False, n_inter=10, n_rendered=10):
    from binpick.select_refine import SelectionScore

    return SelectionScore(e_sum, n_inter, n_rendered, mean_error, coverage, disqualified)


class TestScoreDepthError:
    def test_worked_2x2(self):
        # hand evaluation: obs all 10; rendered [10,11;13,10]; margin 2
        obs = np.full((2, 2), 10, np.uint16)
        ren = np.array([[10, 11], [13, 10]], np.uint16)
        mask = np.ones((2, 2), bool)
        s = score_depth_error(obs, ren, mask, SelectionConfig(margin_mm=2.0))
        assert s.e_sum == 1.0
        assert s.n_intersection == 3
        assert s.coverage == 0.75
        assert s.mean_error == pytest.approx(1.0 / 3.0)
        assert not s.disqualified

    def test_perfect_agreement(self, box, cam_small):
        cfg = RenderConfig(cam_small)
        pose = Pose(Rotation.from_axis_angle([1, 0.2, 0], 0.5), [0, 0, 280.0])
        depth, mask = render_single(box, pose, cfg)
        s = depth_error(depth, pose, box, mask > 0, cfg, SelectionConfig())
        assert s.e_sum == 0.0 and s.coverage == 1.0 and not s.disqualified

    def test_empty_intersection_disqualified(self, box, cam_small):
        cfg = RenderConfig(cam_small)
        pose = Pose(Rotation.identity(), [0, 0, 280.0])
        depth, _ = render_single(box, pose, cfg)
        det_mask = np.zeros(depth.shape, bool)  # detection elsewhere
        s = depth_error(depth, pose, box, det_mask, cfg, SelectionConfig())
        assert s.disqualified and s.n_intersection == 0

    def test_every_inlier_below_margin(self, rng):
        cfg = SelectionConfig(margin_mm=3.0)
        obs = rng.integers(1, 40, size=(16, 16)).astype(np.uint16)
        ren = rng.integers(1, 40, size=(16, 16)).astype(np.uint16)
        mask = rng.random((16, 16)) > 0.3
        s = score_depth_error(obs, ren, mask, cfg)
        assert s.e_sum < cfg.margin_mm * max(s.n_intersection, 1)


class TestSelectTopK:
    def test_depth_error_ascending(self):
        scored = [
            (est(0), sel_score(mean_error=0.5)),
            (est(1), sel_score(mean_error=0.1)),
            (est(2), sel_score(mean_error=0.3)),
        ]
        picked = select_top_k(scored, "depth_error", 2)
        assert [e.detection_index for e, _ in picked] == [1, 2]

    def test_cosine_descending(self):
        scored = [(est(0, cosine=0.2), None), (est(1, cosine=0.9), None)]
        picked = select_top_k(scored, "cosine", 1)
        assert picked[0][0].detection_index == 1

    def test_truncation(self):
        scored = [(est(i, score=1.0 - i * 0.1), None) for i in range(3)]
        picked = select_top_k(scored, "detector_score", 10)
        assert [e.detection_index for e, _ in picked] == [0, 1, 2]

    def test_disqualified_rank_last_by_coverage(self):
        scored = [
            (est(0), sel_score(mean_error=9.0)),
            (est(1), sel_score(disqualified=True, coverage=0.2)),
            (est(2), sel_score(disqualified=True, coverage=0.25)),
        ]
        picked = select_top_k(scored, "depth_error", 3)
        assert [e.detection_index for e, _ in picked] == [0, 2, 1]

    def test_sum_variant(self):
        cfg = SelectionConfig(variant="sum")
        scored = [
            (est(0), sel_score(mean_error=0.1, e_sum=100.0)),
            (est(1), sel_score(mean_error=0.5, e_sum=10.0)),
        ]
        picked = select_top_k(scored, "depth_error", 2, cfg)
        assert [e.detection_index for e, _ in picked] == [1, 0]

    def test_tie_by_detection_index(self):
        scored = [(est(2, score=0.5), None), (est(0, score=0.5), None), (est(1, score=0.5), None)]
        picked = select_top_k(scored, "detector_score", 3)
        assert [e.detection_index for e, _ in picked] == [0, 1, 2]

    def test_permutation_invariance(self, rng):
        scored = [(est(i, score=float(rng.random())), sel_score(mean_error=float(rng.random()))) for i in range(10)]
        for method in ("detector_score", "cosine", "depth_error"):
            base = [e.detection_index for e, _ in select_top_k(scored, method, 5)]
            perm = list(scored)
            rng.shuffle(perm)
            assert [e.detection_index for e, _ in select_top_k(perm, method, 5)] == base

    def test_k_validation(self):
        with pytest.raises(ValueError):
            select_top_k([], "cosine", 0)

    def test_missing_scores_for_depth(self):
        with pytest.raises(ValueError, match="requires selection scores"):
            select_top_k([(est(0), None)], "depth_error", 1)


class TestIcp:
    def test_fixed_point(self, box):
        cloud = sample_surface_points(box, 1000, seed=0)  # same seed as model
        res = icp_refine(cloud, box, Pose.identity(), IcpConfig(model_points=1000, seed=0))
        assert res.rms_mm == 0.0
        assert res.iterations == 1
        t = res.pose.translation
        assert np.abs(t).max() < 1e-12

    def test_translation_recovery(self, box):
        # oracle: closed-form rigid alignment on the true correspondences
        cloud = sample_surface_points(box, 2000, seed=4)
        shift = np.array([1.0, 0.0, 0.0])
        obs = cloud + shift
        res = icp_refine(obs, box, Pose.identity(), IcpConfig(model_points=2000, seed=4))
        assert np.abs(res.pose.translation - shift).max() < 1e-3
        sc, dc = cloud.mean(axis=0), obs.mean(axis=0)
        oracle_t = dc - sc  # rotation is identity for a pure shift
        assert np.abs(res.pose.translation - oracle_t).max() < 1e-3

    def test_no_correspondences(self, box):
        cloud = sample_surface_points(box, 200, seed=1) + np.array([500.0, 0.0, 0.0])
        res = icp_refine(cloud, box, Pose.identity(), IcpConfig())
        assert res.message == "no correspondences"
        assert res.iterations == 0
        assert np.array_equal(res.pose.translation, np.zeros(3))

    def test_empty_cloud(self, box):
        with pytest.raises(ValueError, match="empty observation cloud"):
            icp_refine(np.zeros((0, 3)), box, Pose.identity(), IcpConfig())

    def test_residuals_non_increasing(self, box, rng):
        for _ in range(5):
            obs = sample_surface_points(box, 800, seed=int(rng.integers(1 << 30)))
            obs = obs + rng.normal(scale=2.0, size=3)
            res = icp_refine(obs, box, Pose.identity(), IcpConfig())
            assert all(b <= a + 1e-12 for a, b in zip(res.residuals, res.residuals[1:]))

    def test_rotation_recovery(self, box):
        rot = Rotation.from_axis_angle([0.3, 1.0, 0.2], 0.1)
        cloud = sample_surface_points(box, 3000, seed=6)
        obs = rot.rotate(cloud) + np.array([2.0, -1.0, 0.5])
        res = icp_refine(obs, box, Pose.identity(), IcpConfig(model_points=3000, seed=6, max_iterations=50))
        assert res.pose.rotation.angle_to(rot) < 0.01
        assert np.abs(res.pose.translation - [2.0, -1.0, 0.5]).max() < 0.05


class TestDetectionCloud:
    def test_backprojects_mask_pixels(self, cam_small, box):
        cfg = RenderConfig(cam_small)
        pose = Pose(Rotation.identity(), [0, 0, 290.0])
        depth, mask = render_single(box, pose, cfg)
        cloud = detection_cloud(depth, mask > 0, cam_small)
        assert cloud.shape[0] == int((mask > 0).sum())
        assert abs(float(np.median(cloud[:, 2])) - 286.0) <= 1.0  # top face of the 8 mm box

    def test_subsampling(self, cam_small, box):
        cfg = RenderConfig(cam_small)
        depth, mask = render_single(box, Pose(Rotation.identity(), [0, 0, 290.0]), cfg)
        cloud = detection_cloud(depth, mask > 0, cam_small, max_points=100)
        assert cloud.shape == (100, 3)


class TestCorruptionSeparation:
    def test_depth_error_separates_corrupted(self, box, rng):
        # 20 estimates, 10 corrupted by >= 30 deg: depth ranking keeps >= 8
        # uncorrupted in the top 10 on >= 90% of trials
        from binpick.geometry import CameraIntrinsics

        cam = CameraIntrinsics(150.0, 150.0, 80.0, 60.0, 160, 120)
        rcfg = RenderConfig(cam)
        sel_cfg = SelectionConfig()
        ok_trials = 0
        n_trials = 25
        for trial in range(n_trials):
            cfg = SceneConfig(instance_count=20, master_seed=1000 + trial)
            gt, depth, ids, _ = generate_scene(box, cfg, rcfg)
            # detection masks come straight from the instance-id map
            scored = []
            corrupted = set(rng.choice(20, size=10, replace=False).tolist())
            for i, inst in enumerate(gt.instances):
                pose = inst.pose_cam
                if i in corrupted:
                    axis = rng.normal(size=3)
                    angle = rng.uniform(np.radians(35), np.radians(120))
                    pose = Pose(Rotation.from_axis_angle(axis, angle) * pose.rotation, pose.translation)
                mask = ids == inst.instance_id
                s = depth_error(depth, pose, box, mask, rcfg, sel_cfg)
                scored.append((est(i), s))
            picked = select_top_k(scored, "depth_error", 10, sel_cfg)
            n_clean = sum(1 for e, _ in picked if e.detection_index not in corrupted)
            if n_clean >= 8:
                ok_trials += 1
        assert ok_trials / n_trials >= 0.90


def _run_python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports binpick from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestDeferredScipy:
    """Only ICP uses scipy, so only a process that runs ICP loads it."""

    def test_import_loads_no_scipy(self):
        out = _run_python(
            "import sys, binpick, binpick.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert out == "[]"

    def test_icp_loads_scipy_spatial(self):
        out = _run_python(
            "import sys\n"
            "from binpick.geometry import Pose, sample_surface_points\n"
            "from binpick.select_refine import IcpConfig, icp_refine\n"
            "from binpick.shapes import make_box\n"
            "box = make_box()\n"
            "cloud = sample_surface_points(box, 50, seed=0)\n"
            "print('scipy.spatial' in sys.modules, end=' ')\n"
            "print(icp_refine(cloud, box, Pose.identity(), IcpConfig(model_points=100)).converged, end=' ')\n"
            "print('scipy.spatial' in sys.modules)"
        )
        assert out == "False True True"
