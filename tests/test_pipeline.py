from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from binpick import pipeline
from binpick.codebook import EmbedderSpec, knn_lookup, embed
from binpick.geometry import Pose, Rotation, geodesic_distance
from binpick.pipeline import (
    TranslationMode,
    default_surface_offset,
    estimate_poses,
    estimate_translation,
    extract_crop,
)
from binpick.render import RenderConfig
from binpick.scenegen import Detection, SceneConfig, generate_scene, gt_detections


def make_detection(image_shape, bbox, image_id=0, object_id=1, score=1.0, mask=None):
    if mask is None:
        mask = np.zeros(image_shape, bool)
        x, y, w, h = bbox
        mask[y : y + h, x : x + w] = True
    return Detection(image_id, object_id, score, bbox, mask)


class TestExtractCrop:
    # the window side is DEFAULT_CROP_PAD (1.2) x max(bbox w, h)

    def test_identity_window(self, rng):
        gray = rng.random((256, 256))
        det = make_detection(gray.shape, (64, 64, 80, 80))
        crop = extract_crop(gray, det, EmbedderSpec(crop_px=96))
        assert np.array_equal(crop, gray[56:152, 56:152])

    def test_corner_zero_padded(self, rng):
        gray = np.ones((100, 100))
        det = make_detection(gray.shape, (0, 0, 50, 50))
        crop = extract_crop(gray, det, EmbedderSpec(crop_px=60))
        assert crop.shape == (60, 60)
        assert not crop[:5].any() and not crop[:, :5].any()  # out-of-frame border
        assert np.all(crop[5:, 5:] == 1.0)

    def test_mask_only_degenerate_propagates(self, rng):
        gray = rng.random((64, 64))
        mask = np.zeros((64, 64), bool)
        mask[50:60, 50:60] = True  # mask disjoint from bbox
        det = make_detection(gray.shape, (0, 0, 20, 20), mask=mask)
        spec = EmbedderSpec(crop_px=24, grid_px=4)
        crop = extract_crop(gray, det, spec, mask_only=True)
        with pytest.raises(ValueError, match="degenerate crop"):
            embed(crop, spec)

    def test_mask_only_zeroes_outside_mask(self, rng):
        gray = rng.random((256, 256)) + 0.5
        mask = np.zeros((256, 256), bool)
        mask[64:144, 64:104] = True  # left half of the bbox
        det = make_detection(gray.shape, (64, 64, 80, 80), mask=mask)
        crop = extract_crop(gray, det, EmbedderSpec(crop_px=96), mask_only=True)
        assert np.array_equal(crop, np.where(mask, gray, 0.0)[56:152, 56:152])


class TestEstimateTranslation:
    def test_centered_depth(self, cam, big_codebook):
        cb, _, _ = big_codebook
        depth = np.zeros((480, 640), np.uint16)
        depth[230:250, 310:330] = 300
        det = make_detection(depth.shape, (310, 230, 20, 20))
        mode = TranslationMode(center_window_px=5, surface_offset_mm=0.0)
        t = estimate_translation(det, depth, cam, mode, cb)
        assert np.allclose(t, [0.0, 0.0, 300.0])

    def test_rgb_scale_unit_ratio(self, codebook_cam, big_codebook):
        # same camera as the codebook, detected diagonal == view diagonal:
        # the recovered depth is exactly z_ref
        cb, _, _ = big_codebook
        assert cb.fx_ref_px == codebook_cam.fx
        idx = 17
        d = float(cb.view_diagonals_px[idx])
        w, h = 30, int(round(math.sqrt(max(d * d - 900.0, 1.0))))
        det = make_detection((160, 160), (40, 40, w, h), )
        mode = TranslationMode(mode="rgb_scale")
        t = estimate_translation(det, None, codebook_cam, mode, cb, entry_index=idx)
        assert t[2] == pytest.approx(cb.z_ref_mm * d / math.hypot(w, h), rel=1e-12)

    def test_rgb_scale_focal_ratio(self, cam, big_codebook):
        # different camera: the depth scales with the focal-length ratio
        cb, _, _ = big_codebook
        idx = 3
        d = float(cb.view_diagonals_px[idx])
        w, h = 30, int(round(math.sqrt(max(d * d - 900.0, 1.0))))
        det = make_detection((480, 640), (100, 100, w, h))
        mode = TranslationMode(mode="rgb_scale")
        t = estimate_translation(det, None, cam, mode, cb, entry_index=idx)
        expect = cb.z_ref_mm * (d / math.hypot(w, h)) * (cam.fx / cb.fx_ref_px)
        assert t[2] == pytest.approx(expect, rel=1e-12)

    def test_occluded_window_errors(self, cam, big_codebook):
        cb, _, _ = big_codebook
        depth = np.zeros((480, 640), np.uint16)
        det = make_detection(depth.shape, (310, 230, 20, 20))
        with pytest.raises(ValueError, match="no valid depth"):
            estimate_translation(det, depth, cam, TranslationMode(), cb)

    def test_surface_offset_added(self, cam, big_codebook, box):
        cb, _, _ = big_codebook
        depth = np.zeros((480, 640), np.uint16)
        depth[230:250, 310:330] = 296
        det = make_detection(depth.shape, (310, 230, 20, 20))
        offset = default_surface_offset(box)
        assert offset == 4.0  # half the 8 mm thickness
        mode = TranslationMode(surface_offset_mm=offset)
        t = estimate_translation(det, depth, cam, mode, cb)
        assert t[2] == pytest.approx(300.0)

    def test_no_surface_offset_refused(self):
        # a None offset used to pass here and fail in estimate_poses' detection loop with a TypeError
        with pytest.raises(ValueError, match="^surface_offset_mm must be a number, not None"):
            TranslationMode(surface_offset_mm=None)


class TestEstimatePoses:
    def test_empty_detections(self, cam, big_codebook, rng):
        cb, _, _ = big_codebook
        out = estimate_poses(np.zeros((480, 640)), None, [], cb, cam, TranslationMode())
        assert out == []

    def test_skips_summarized_in_one_record(self, cam, big_codebook, caplog, rng):
        cb, _, _ = big_codebook
        gray = np.zeros((480, 640))
        gray[90:150, 90:150] = rng.random((60, 60))
        dets = [
            make_detection(gray.shape, (300, 200, 40, 40), image_id=7),  # black: featureless crop
            make_detection(gray.shape, (100, 100, 40, 40), image_id=7),  # textured, but no depth
            make_detection(gray.shape, (400, 300, 30, 30), image_id=7),
        ]
        depth = np.zeros(gray.shape, np.uint16)
        with caplog.at_level("WARNING", logger="binpick.pipeline"):
            assert estimate_poses(gray, depth, dets, cb, cam, TranslationMode()) == []
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 3 of 3 detections of image 7: degenerate crop: 0, 2; no valid depth in center window: 1"
        ]

    def test_object_id_mismatch(self, cam, big_codebook):
        cb, _, _ = big_codebook
        det = make_detection((480, 640), (10, 10, 20, 20), object_id=99)
        with pytest.raises(ValueError, match="does not match"):
            estimate_poses(np.zeros((480, 640)), None, [det], cb, cam, TranslationMode())

    @pytest.mark.parametrize("misfit", ["object_id", "fx_ref_px", "view_diag_px"])
    def test_codebook_fit_checked_before_any_detection(self, cam, big_codebook, monkeypatch, misfit):
        cb, _, _ = big_codebook
        diagonals = cb.view_diagonals_px.copy()
        diagonals[-1] = 0.0
        cb = {"object_id": cb, "fx_ref_px": dataclasses.replace(cb, fx_ref_px=0.0),
              "view_diag_px": dataclasses.replace(cb, view_diagonals_px=diagonals)}[misfit]
        dets = [make_detection((480, 640), (100, 100, 40, 40)),
                make_detection((480, 640), (200, 100, 40, 40), object_id=2 if misfit == "object_id" else 1)]

        def handled(*args, **kwargs):
            raise AssertionError("a detection was handled")

        monkeypatch.setattr(pipeline, "extract_crop", handled)
        with pytest.raises(ValueError, match=misfit):
            estimate_poses(np.zeros((480, 640)), None, dets, cb, cam, TranslationMode(mode="rgb_scale"))

    def test_codebook_embedder_mismatch(self, cam, big_codebook):
        # raised before the detection loop, so no detection is needed
        cb, _, _ = big_codebook
        gray = np.zeros((480, 640))
        with pytest.raises(ValueError, match="codebook dimension 1024 does not match embedder dimension 256"):
            estimate_poses(gray, None, [], cb, cam, TranslationMode(), embedder=EmbedderSpec(grid_px=16))
        with pytest.raises(ValueError, match=r"embedder_fingerprint .* \(crop_px 64, grid_px 32\)"):
            estimate_poses(gray, None, [], cb, cam, TranslationMode(), embedder=EmbedderSpec(crop_px=64))
        unsigned = dataclasses.replace(cb, embedder_fingerprint="")  # external encoders may omit it
        assert estimate_poses(gray, None, [], unsigned, cam, TranslationMode(), EmbedderSpec(crop_px=64)) == []

    def test_duplicate_detection_same_pose(self, lbracket, codebook_cam, big_codebook):
        cb, _, _ = big_codebook
        cfg = RenderConfig(codebook_cam)
        from binpick.codebook import render_view

        rot = Rotation.from_axis_angle([0.4, 0.2, 0.9], 0.8)
        depth, ids, gray = render_view(lbracket, rot, cfg, 300.0)
        gt = _single_scene_gt(codebook_cam, lbracket, rot)
        dets = gt_detections(ids, gt, image_id=0)
        dets = [dets[0], dets[0]]
        mode = TranslationMode(surface_offset_mm=default_surface_offset(lbracket))
        ests = estimate_poses(gray, depth, dets, cb, codebook_cam, mode)
        assert len(ests) == 2
        assert np.array_equal(ests[0].pose.rotation.q, ests[1].pose.rotation.q)
        assert np.array_equal(ests[0].pose.translation, ests[1].pose.translation)
        assert ests[0].detection_index == 0 and ests[1].detection_index == 1

    def test_single_instance_round_trip(self, box, cam, rng):
        # flat-lying box at codebook distance: rotation within codebook
        # spacing, translation within 5 mm of ground truth
        from binpick.codebook import build_codebook, mean_nn_spacing, sample_rotations
        from binpick.render import render_scene
        from binpick.shapes import box_symmetries

        rotations = sample_rotations(2048, seed=1)
        cfg = RenderConfig(cam)
        cb = build_codebook(box, rotations, EmbedderSpec(), cfg, 300.0, object_id=1)
        spacing = mean_nn_spacing(rotations)
        sym = box_symmetries()

        rot = Rotation.from_axis_angle([0, 0, 1], 0.17)  # in-plane tilt, flat pose
        t = np.array([8.0, -6.0, 300.0]) - rot.rotate(box.centroid)
        pose = Pose(rot, t)
        depth, ids, gray = render_scene([(box, pose, 1)], cfg)
        gt = _single_scene_gt(cam, box, rot, pose)
        dets = gt_detections(ids, gt, image_id=0)
        assert len(dets) == 1
        mode = TranslationMode(surface_offset_mm=default_surface_offset(box))
        ests = estimate_poses(gray, depth, dets, cb, cam, mode)
        assert len(ests) == 1
        rot_err = geodesic_distance(ests[0].pose.rotation, rot, sym)
        assert rot_err <= 2.5 * spacing
        t_err = np.linalg.norm(ests[0].pose.translation - pose.translation)
        assert t_err <= 5.0

    def test_rotation_matches_brute_force_argmax(self, lbracket, codebook_cam, big_codebook, rng):
        cb, _, _ = big_codebook
        cfg = RenderConfig(codebook_cam)
        from binpick.codebook import render_view, view_crop

        spec = EmbedderSpec()
        for _ in range(5):
            r = Rotation.random(rng)
            depth, _, gray = render_view(lbracket, r, cfg, 300.0)
            crop, _ = view_crop(gray, depth > 0, (codebook_cam.cx, codebook_cam.cy), spec)
            z = embed(crop, spec)
            top = knn_lookup(cb, z, 1)[0]
            # oracle: full scan in python
            cos = [
                float(np.dot(e, z) / (np.linalg.norm(e) * np.linalg.norm(z)))
                for e in cb.embeddings
            ]
            best = min(range(len(cos)), key=lambda i: (-cos[i], i))
            assert top.index == best

    def test_rgb_scale_translation_invariance(self, cam, big_codebook):
        # moving the bbox without resizing changes only x, y
        cb, _, _ = big_codebook
        mode = TranslationMode(mode="rgb_scale")
        z_values = []
        for x in (50, 200, 400):
            det = make_detection((480, 640), (x, 120, 40, 30))
            t = estimate_translation(det, None, cam, mode, cb, entry_index=5)
            z_values.append(t[2])
        assert z_values[0] == z_values[1] == z_values[2]


def _single_scene_gt(k, mesh, rot, pose=None):
    from binpick.geometry import Pose as P
    from binpick.scenegen import GTInstance, SceneGT

    if pose is None:
        t = np.array([0.0, 0.0, 300.0]) - rot.rotate(mesh.centroid)
        pose = P(rot, t)
    return SceneGT(k, (GTInstance(1, 1, pose, 1.0),), P.identity())
