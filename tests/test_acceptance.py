"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criteria use the module-level defaults (margins, thresholds,
tolerances) pinned in the library; nothing is calibrated at test time.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from binpick import fileio
from binpick.bopeval import (
    FAILURE,
    PoseError,
    average_recall,
    detection_metrics,
    match_estimates,
    mspd,
    mssd,
    pose_errors,
    vsd,
)
from binpick.codebook import Codebook, EmbedderSpec, embed, knn_lookup, render_view, view_crop
from binpick.geometry import Pose, Rotation, SymmetrySet, geodesic_distance
from binpick.pipeline import PoseEstimate
from binpick.render import RenderConfig, render_single
from binpick.scenegen import SceneConfig, generate_scene, gt_detections
from binpick.select_refine import IcpConfig, SelectionConfig, depth_error, detection_cloud, icp_refine, select_top_k
from binpick.shapes import box_symmetries, make_box

from conftest import child_env
from test_bopeval import brute_force_mspd, brute_force_mssd


def report(criterion: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail} ({elapsed:.1f} s)")


@pytest.fixture(scope="module")
def small_cam():
    from binpick.geometry import CameraIntrinsics

    return CameraIntrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)


def test_criterion_1_metric_oracles(small_cam):
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    box = make_box()
    sym = box_symmetries()
    cam = small_cam

    ok = True
    # MSSD / MSPD against brute-force double loops, <= 100 vertices
    verts = rng.normal(size=(60, 3)) * 15.0
    for _ in range(10):
        gt = Pose(Rotation.random(rng), rng.normal(size=3) * 10 + [0, 0, 400.0])
        est = Pose(Rotation.random(rng), rng.normal(size=3) * 10 + [0, 0, 400.0])
        a, b = mssd(est, gt, sym, verts), brute_force_mssd(est, gt, sym, verts)
        ok &= abs(a - b) <= 1e-9 * max(abs(b), 1.0)
        c, d = mspd(est, gt, sym, verts, cam), brute_force_mspd(est, gt, sym, verts, cam)
        ok &= abs(c - d) <= 1e-9 * max(abs(d), 1.0)

    # VSD of exact poses is 0
    rcfg = RenderConfig(cam)
    gt_scene, depth, _, _ = generate_scene(box, SceneConfig(instance_count=5, master_seed=20), rcfg)
    for inst in gt_scene.instances:
        ok &= vsd(inst.pose_cam, inst.pose_cam, box, depth, rcfg, 2.0, 5.0) == 0.0

    # AR of exact estimates is exactly 1.0
    zeros = [PoseError(vsd=(0.0,) * 10, mssd_mm=0.0, mspd_px=0.0)] * 5
    rep = average_recall(zeros, box.diameter, cam.width)
    ok &= rep.ar == 1.0

    # threshold-counting worked example: e = 0.2 d -> 6 of 10 thresholds
    case = [PoseError(vsd=(0.0,) * 10, mssd_mm=0.2 * box.diameter, mspd_px=0.0)]
    rep2 = average_recall(case, box.diameter, cam.width)
    ok &= rep2.ar_mssd == 0.6

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, ok, f"metric oracle suite (AR_MSSD case {rep2.ar_mssd})", elapsed)
    assert ok


def test_criterion_2_knn_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n, dim = 4096, 128
    e = rng.normal(size=(n, dim))
    e[512] = e[31]  # exact duplicates exercise the index tie-break
    e[1024] = e[31]
    cb = Codebook(
        object_id=1, embedder_id="pixel-template", embedder_fingerprint="", render_fingerprint="",
        z_ref_mm=300.0, fx_ref_px=600.0, rotations=tuple(Rotation.identity() for _ in range(n)),
        embeddings=e, view_diagonals_px=np.ones(n),
    )
    norms = np.linalg.norm(e, axis=1)
    mismatches = 0
    for _ in range(1000):
        z = rng.normal(size=dim)
        got = [r.index for r in knn_lookup(cb, z, 5)]
        cos = e @ z / (norms * np.linalg.norm(z))
        expect = sorted(range(n), key=lambda i: (-cos[i], i))[:5]
        mismatches += got != expect
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(2, ok, f"Eq.(1) oracle: {mismatches} mismatches in 1000 queries", elapsed)
    assert ok


def test_criterion_3_codebook_round_trip(big_codebook, lbracket, codebook_cam):
    cb, rotations, spacing = big_codebook
    start = time.perf_counter()
    cfg = RenderConfig(codebook_cam)
    spec = EmbedderSpec()
    sym = SymmetrySet.trivial()  # the bracket has no rotational symmetry
    rng = np.random.default_rng(321)
    hits = 0
    trials = 200
    for _ in range(trials):
        r = Rotation.random(rng)
        depth, _, gray = render_view(lbracket, r, cfg, 300.0)
        crop, _ = view_crop(gray, depth > 0, (codebook_cam.cx, codebook_cam.cy), spec)
        top = knn_lookup(cb, embed(crop, spec), 1)[0]
        if geodesic_distance(r, top.rotation, sym) <= 2.5 * spacing:
            hits += 1
    elapsed = time.perf_counter() - start
    rate = hits / trials
    ok = rate >= 0.90 and elapsed < 300.0
    report(3, ok, f"codebook round trip: {rate:.1%} within 2.5x spacing ({np.degrees(spacing):.1f} deg)", elapsed)
    assert ok


def test_criterion_4_depth_error(small_cam):
    start = time.perf_counter()
    from binpick.select_refine import score_depth_error

    obs = np.full((2, 2), 10, np.uint16)
    ren = np.array([[10, 11], [13, 10]], np.uint16)
    s = score_depth_error(obs, ren, np.ones((2, 2), bool), SelectionConfig(margin_mm=2.0))
    ok = s.e_sum == 1.0 and s.n_intersection == 3 and s.coverage == 0.75

    box = make_box()
    rcfg = RenderConfig(small_cam)
    sel_cfg = SelectionConfig()
    n_unoccluded = 0
    for seed in range(4):
        gt, depth, ids, _ = generate_scene(box, SceneConfig(instance_count=5, master_seed=40 + seed), rcfg)
        for inst in gt.instances:
            if inst.visible_fraction < 1.0:
                continue
            n_unoccluded += 1
            mask = ids == inst.instance_id
            score = depth_error(depth, render_single(box, inst.pose_cam, rcfg), mask, rcfg, sel_cfg)
            ok &= score.mean_error <= 0.5
            ok &= score.coverage >= 0.99
    ok &= n_unoccluded >= 5
    elapsed = time.perf_counter() - start
    report(4, ok, f"Eq.(2) fixture exact; {n_unoccluded} unoccluded GT scores clean", elapsed)
    assert ok


def test_criterion_5_sorting_comparison(small_cam):
    start = time.perf_counter()
    box = make_box()
    sym = box_symmetries()
    rcfg = RenderConfig(small_cam)
    sel_cfg = SelectionConfig()
    rng = np.random.default_rng(2024)
    k_top = 5

    errors = {m: [] for m in ("detector_score", "cosine", "depth_error")}
    for sid in range(20):
        cfg = SceneConfig(instance_count=30, master_seed=500 + sid)
        gt, depth, ids, _ = generate_scene(box, cfg, rcfg)
        visible = [i for i in gt.instances if i.visible_fraction >= 0.10]
        corrupted = set(rng.choice(len(visible), size=len(visible) // 2, replace=False).tolist())
        scored = []
        for di, inst in enumerate(visible):
            pose = inst.pose_cam
            if di in corrupted:
                axis = rng.normal(size=3)
                angle = rng.uniform(np.radians(35.0), np.radians(120.0))
                pose = Pose(Rotation.from_axis_angle(axis, angle) * pose.rotation, pose.translation)
            est = PoseEstimate(sid, di, pose, float(rng.random()), float(rng.random()), "depth_center")
            mask = ids == inst.instance_id
            scored.append((est, depth_error(depth, render_single(box, pose, rcfg), mask, rcfg, sel_cfg)))
        for method in errors:
            picked = [e for e, _ in select_top_k(scored, method, k_top, sel_cfg)]
            pairs = match_estimates(picked, gt.instances, sym, box.vertices)
            for est, inst in pairs:
                if inst is None:
                    errors[method].append(FAILURE)
                else:
                    errors[method].append(pose_errors(est.pose, inst.pose_cam, box, sym, depth, rcfg))

    ars = {
        m: average_recall(errs, box.diameter, small_cam.width).ar
        for m, errs in errors.items()
    }
    elapsed = time.perf_counter() - start
    ok = ars["depth_error"] > ars["cosine"] and ars["depth_error"] > ars["detector_score"]
    ok &= elapsed < 600.0
    report(
        5, ok,
        f"AR depth={ars['depth_error']:.3f} > cosine={ars['cosine']:.3f}, score={ars['detector_score']:.3f}",
        elapsed,
    )
    assert ok


def test_criterion_6_icp_improves(small_cam):
    start = time.perf_counter()
    box = make_box()
    sym = box_symmetries()
    rcfg = RenderConfig(small_cam)
    icp_cfg = IcpConfig(model_points=1000)
    rng = np.random.default_rng(77)

    errs_plain = []
    errs_icp = []
    icp_time = 0.0
    icp_calls = 0
    monotone = True
    for sid in range(10):
        cfg = SceneConfig(instance_count=15, master_seed=900 + sid)
        gt, depth, ids, _ = generate_scene(box, cfg, rcfg)
        for inst in gt.instances:
            if inst.visible_fraction < 0.3:
                continue
            axis = rng.normal(size=3)
            angle = rng.uniform(np.radians(3.0), np.radians(15.0))
            dt = rng.normal(size=3)
            dt = dt / np.linalg.norm(dt) * rng.uniform(2.0, 10.0)
            perturbed = Pose(
                Rotation.from_axis_angle(axis, angle) * inst.pose_cam.rotation,
                inst.pose_cam.translation + dt,
            )
            mask = ids == inst.instance_id
            cloud = detection_cloud(depth, mask, small_cam, max_points=1500)
            t0 = time.perf_counter()
            result = icp_refine(cloud, box, perturbed, icp_cfg)
            icp_time += time.perf_counter() - t0
            icp_calls += 1
            monotone &= all(b <= a + 1e-12 for a, b in zip(result.residuals, result.residuals[1:]))
            errs_plain.append(pose_errors(perturbed, inst.pose_cam, box, sym, depth, rcfg))
            errs_icp.append(pose_errors(result.pose, inst.pose_cam, box, sym, depth, rcfg))

    ar_plain = average_recall(errs_plain, box.diameter, small_cam.width).ar
    ar_icp = average_recall(errs_icp, box.diameter, small_cam.width).ar
    per_pose_ms = icp_time / icp_calls * 1000.0
    elapsed = time.perf_counter() - start
    ok = ar_icp >= ar_plain and monotone and per_pose_ms < 50.0
    report(
        6, ok,
        f"AR icp={ar_icp:.3f} >= plain={ar_plain:.3f}; residuals monotone={monotone}; "
        f"{per_pose_ms:.1f} ms/pose over {icp_calls} poses",
        elapsed,
    )
    assert ok


def test_criterion_7_detection_metrics(small_cam):
    start = time.perf_counter()
    box = make_box()
    rcfg = RenderConfig(small_cam)
    gt, depth, ids, _ = generate_scene(box, SceneConfig(instance_count=10, master_seed=60), rcfg)
    dets = gt_detections(ids, gt, image_id=0)
    perfect = detection_metrics(dets, dets)
    ok = perfect.ap50 == 1.0 and perfect.ap50_95 == 1.0 and perfect.ar_max100 == 1.0

    half = detection_metrics([dets[0]], [dets[0], dets[1]])
    ok &= half.ap50 == 0.5
    elapsed = time.perf_counter() - start
    report(7, ok, f"perfect={perfect.ap50}, 1-of-2 AP50={half.ap50}", elapsed)
    assert ok


def test_criterion_8_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    from binpick.shapes import make_box, box_symmetries

    fileio.write_mesh(tmp_path / "box.txt", make_box())
    fileio.write_symmetries(tmp_path / "sym.txt", box_symmetries())
    config = {
        "mesh": str(tmp_path / "box.txt"),
        "symmetries": str(tmp_path / "sym.txt"),
        "scenes": 10,
        "scene": {"instance_count": 30},
        "camera": {"fx": 300.0, "fy": 300.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
        "codebook": {
            "size": 256, "seed": 0, "z_ref_mm": 300.0,
            "camera": {"fx": 300.0, "fy": 300.0, "cx": 64.0, "cy": 64.0, "width": 128, "height": 128},
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    commands = ["genscenes", "codebook", "detect-gt", "estimate", "refine", "select", "eval", "report"]
    digests = {}
    for sub, threads in (("outA", "4"), ("outB", "1")):
        env = child_env()
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        for cmd in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "binpick.cli", cmd, "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / sub), "--seed", "11"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
        tree = {}
        root = tmp_path / sub
        for p in sorted(root.rglob("*")):
            if p.is_file() and p.name != "timings.txt":
                tree[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
        digests[sub] = tree

    elapsed = time.perf_counter() - start
    identical = digests["outA"] == digests["outB"]
    ok = identical and elapsed < 600.0
    n_files = len(digests["outA"])
    report(8, ok, f"full pipeline twice (thread counts 4 vs 1): {n_files} artifacts byte-identical={identical}", elapsed)
    assert ok
