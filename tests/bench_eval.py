"""Micro-benchmarks for evaluation: per-pair VSD, MSSD matching, one scene.

The file name keeps it out of the default test collection. Run it with

    PYTHONPATH=src python -m pytest tests/bench_eval.py --benchmark-only

(pytest-benchmark options such as ``--benchmark-compare`` apply as usual).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from binpick import bopeval, cli
from binpick.bopeval import VISIB_TOL_MM, VSD_TAUS_FRAC, match_estimates, scene_pose_errors
from binpick.geometry import CameraIntrinsics, Pose, Rotation
from binpick.pipeline import PoseEstimate
from binpick.render import RenderConfig, render_single
from binpick.scenegen import SceneConfig, generate_scene
from binpick.shapes import box_symmetries, make_box

# keep freed heap memory mapped, as every stage process does, so that the
# timings measure the work and not the page faults of refetched temporaries
cli._keep_freed_memory()

SCENE_CAM = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


@pytest.fixture(scope="module")
def scene():
    """A 40-instance box clutter scene and one noisy estimate per instance."""
    mesh = make_box()
    rcfg = RenderConfig(SCENE_CAM)
    gt, depth, _, _ = generate_scene(mesh, SceneConfig(instance_count=40, master_seed=1), rcfg)
    rng = np.random.default_rng(0)
    ests = [
        PoseEstimate(0, i, Pose(g.pose_cam.rotation, g.pose_cam.translation + rng.normal(size=3) * 3.0),
                     0.9, 0.9, "depth_center")
        for i, g in enumerate(gt.instances)
    ]
    return mesh, rcfg, gt, depth, ests


def test_vsd_pair_ten_taus(benchmark, scene):
    mesh, rcfg, gt, depth, ests = scene
    windows = [render_single(mesh, p, rcfg) for p in (ests[0].pose, gt.instances[0].pose_cam)]
    taus = [f * mesh.diameter for f in VSD_TAUS_FRAC]
    errors = benchmark(bopeval._vsd_per_tau, *windows, depth, taus, VISIB_TOL_MM)
    assert len(errors) == 10 and errors[-1] <= errors[0]


def test_match_40_candidates_4_symmetries(benchmark, scene):
    mesh, _, gt, _, ests = scene
    sym = box_symmetries()
    assert len(gt.instances) == 40 and len(sym.rotations) == 4
    # every instance a candidate, however little of it is visible
    candidates = [replace(g, visible_fraction=1.0) for g in gt.instances]
    pairs = benchmark(match_estimates, ests[:10], candidates, sym, mesh.vertices)
    assert all(inst is not None for _, inst in pairs)


def test_scene_evaluation(benchmark, scene):
    """Three methods' top-10 picks, overlapping as sort methods do, matched and scored as eval does."""
    mesh, rcfg, gt, depth, ests = scene
    sym = box_symmetries()
    picks = [ests[:10], ests[5:15], ests[::4]]

    errors = benchmark(scene_pose_errors, picks, gt.instances, mesh, sym, depth, rcfg)
    assert [len(e) for e in errors] == [10, 10, 10]
