from __future__ import annotations

import numpy as np
import pytest

from binpick import fileio
from binpick.geometry import Rotation
from binpick.render import RenderConfig, render_scene
from binpick.scenegen import (
    OVERLAP_FACTOR,
    DetectionPerturb,
    SceneConfig,
    SceneGT,
    generate_scene,
    gt_detections,
)
from conftest import solo_frame


@pytest.fixture()
def rcfg(cam_small):
    return RenderConfig(cam_small)


class TestGenerateScene:
    def test_single_instance_zero_cone(self, box, rcfg):
        cfg = SceneConfig(instance_count=1, cam_cone_half_angle_deg=0.0, master_seed=3)
        gt, depth, ids, _ = generate_scene(box, cfg, rcfg)
        assert len(gt.instances) == 1
        # optical axis vertical: bin up maps to camera -z
        up_cam = gt.cam_from_bin.rotation.rotate(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(up_cam, [0.0, 0.0, -1.0], atol=1e-12)
        t = gt.instances[0].pose_cam.translation
        lo, hi = cfg.cam_height_range_mm
        assert lo - 200 < t[2] < hi  # inside the bin, in front of the camera

    def test_deterministic_files(self, box, rcfg, tmp_path):
        cfg = SceneConfig(instance_count=8, master_seed=11)
        for sub in ("a", "b"):
            gt, depth, ids, gray = generate_scene(box, cfg, rcfg, scene_index=2)
            fileio.write_scene(tmp_path / sub, 2, gt, depth, ids, gray)
        for name in ("camera.txt", "gt_poses.txt", "depth.pgm", "instances.pgm", "gray.pgm"):
            fa = (tmp_path / "a" / "scene_000002" / name).read_bytes()
            fb = (tmp_path / "b" / "scene_000002" / name).read_bytes()
            assert fa == fb, name

    def test_pairwise_separation(self, box, rcfg):
        cfg = SceneConfig(instance_count=30, master_seed=5)
        gt, _, _, _ = generate_scene(box, cfg, rcfg)
        # post-hoc check against the placement rule, in the camera frame
        centers = [inst.pose_cam.transform(box.centroid) for inst in gt.instances]
        r = box.bounding_radius
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                d = float(np.linalg.norm(centers[i] - centers[j]))
                assert d >= 2 * r * OVERLAP_FACTOR - 1e-6

    def test_placement_overflow(self, box, rcfg):
        cfg = SceneConfig(instance_count=500, bin_extents_mm=(60.0, 60.0, 50.0), master_seed=0)
        with pytest.raises(ValueError, match="placement overflow"):
            generate_scene(box, cfg, rcfg)

    def test_rerender_reproduces_images(self, box, rcfg, tmp_path):
        cfg = SceneConfig(instance_count=6, master_seed=9)
        gt, depth, ids, gray = generate_scene(box, cfg, rcfg)
        fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        d = fileio.scene_dir(tmp_path, 0)
        loaded = fileio.load_gt_poses(d / "camera.txt", d / "gt_poses.txt")
        instances = [(box, inst.pose_cam, inst.instance_id) for inst in loaded.instances]
        re_depth, re_ids, re_gray = render_scene(instances, rcfg)
        stored_depth, stored_ids = fileio.load_scene_images(d / "depth.pgm", d / "instances.pgm")
        assert np.array_equal(re_depth, stored_depth)
        assert np.array_equal(re_ids, stored_ids)
        assert np.array_equal(re_depth, depth) and np.array_equal(re_ids, ids)

    def test_visible_fraction_definition(self, box, rcfg):
        cfg = SceneConfig(instance_count=10, master_seed=2)
        gt, _, ids, _ = generate_scene(box, cfg, rcfg)
        for inst in gt.instances[:4]:
            solo, _ = solo_frame(box, inst.pose_cam, rcfg)
            solo_px = int((solo > 0).sum())
            vis_px = int((ids == inst.instance_id).sum())
            expect = vis_px / solo_px if solo_px else 0.0
            assert inst.visible_fraction == expect
            assert 0.0 <= inst.visible_fraction <= 1.0


class TestGtDetections:
    def test_single_unoccluded(self, box, rcfg):
        cfg = SceneConfig(instance_count=1, master_seed=4)
        gt, depth, ids, _ = generate_scene(box, cfg, rcfg)
        dets = gt_detections(ids, gt, image_id=0)
        assert len(dets) == 1
        det = dets[0]
        assert det.score == 1.0
        rows = np.flatnonzero((ids == 1).any(axis=1))
        cols = np.flatnonzero((ids == 1).any(axis=0))
        assert det.bbox == (cols[0], rows[0], cols[-1] - cols[0] + 1, rows[-1] - rows[0] + 1)
        assert np.array_equal(det.mask, ids == 1)

    def test_fully_occluded_absent(self, box, rcfg, cam_small):
        # synthetic instance map where instance 2 has no pixels
        cfg = SceneConfig(instance_count=2, master_seed=4)
        gt, _, ids, _ = generate_scene(box, cfg, rcfg)
        from binpick.scenegen import GTInstance

        hidden = SceneGT(
            gt.intrinsics,
            (gt.instances[0], GTInstance(2, 1, gt.instances[1].pose_cam, 0.0)),
            gt.cam_from_bin,
        )
        only_first = np.where(ids == 1, ids, 0).astype(np.uint16)
        dets = gt_detections(only_first, hidden, image_id=0)
        assert [d.bbox for d in dets] and len(dets) == 1

    def test_dropout_all(self, box, rcfg):
        cfg = SceneConfig(instance_count=4, master_seed=6)
        gt, _, ids, _ = generate_scene(box, cfg, rcfg)
        dets = gt_detections(ids, gt, image_id=0, perturb=DetectionPerturb(seed=1, dropout_prob=1.0))
        assert dets == []

    @pytest.mark.parametrize("kwargs, message", [
        ({"dropout_prob": 1.5}, "dropout probability"),
        ({"dropout_prob": -0.1}, "dropout probability"),
        ({"bbox_jitter_px": -1}, "bbox jitter"),
    ])
    def test_perturb_rejects_out_of_range(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DetectionPerturb(**kwargs)

    def test_masks_subset_of_instance_pixels(self, box, rcfg):
        cfg = SceneConfig(instance_count=8, master_seed=8)
        gt, _, ids, _ = generate_scene(box, cfg, rcfg)
        for det, inst in zip(gt_detections(ids, gt, image_id=0), gt.instances):
            pass
        dets = gt_detections(ids, gt, image_id=0)
        for det in dets:
            covered = ids[det.mask]
            assert len(set(covered.tolist())) == 1  # each mask is one instance's pixels

    def test_jitter_deterministic_and_clamped(self, box, rcfg):
        cfg = SceneConfig(instance_count=6, master_seed=10)
        gt, depth, ids, _ = generate_scene(box, cfg, rcfg)
        p = DetectionPerturb(seed=3, bbox_jitter_px=5)
        a = gt_detections(ids, gt, image_id=0, perturb=p)
        b = gt_detections(ids, gt, image_id=0, perturb=p)
        assert [d.bbox for d in a] == [d.bbox for d in b]
        h, w = ids.shape
        for det in a:
            x, y, bw, bh = det.bbox
            assert 0 <= x and x + bw <= w and 0 <= y and y + bh <= h
