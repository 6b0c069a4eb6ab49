"""Micro-benchmarks for refinement and selection: lock-step ICP, depth-error scoring.

The file name keeps it out of the default test collection. Run it with

    PYTHONPATH=src python -m pytest tests/bench_refine.py --benchmark-only

(pytest-benchmark options such as ``--benchmark-compare`` apply as usual).
"""

from __future__ import annotations

import numpy as np
import pytest

from binpick import cli
from binpick.geometry import CameraIntrinsics, Pose, Rotation
from binpick.render import RenderConfig, render_single
from binpick.scenegen import SceneConfig, generate_scene
from binpick.select_refine import (
    IcpConfig,
    SelectionConfig,
    depth_error,
    detection_cloud,
    icp_refine,
    icp_refine_many,
    score_depth_error,
)
from binpick.shapes import make_box

# keep freed heap memory mapped, as every stage process does, so that the
# timings measure the work and not the page faults of refetched temporaries
cli._keep_freed_memory()

SCENE_CAM = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


@pytest.fixture(scope="module")
def scene():
    """A 40-instance box clutter scene: each instance's visible cloud and a
    perturbed start pose (a few degrees and millimetres off its GT pose)."""
    mesh = make_box()
    gt, depth, ids, _ = generate_scene(mesh, SceneConfig(instance_count=40, master_seed=1), RenderConfig(SCENE_CAM))
    rng = np.random.default_rng(0)
    clouds, inits = [], []
    for inst in gt.instances:
        cloud = detection_cloud(depth, ids == inst.instance_id, SCENE_CAM, max_points=2000)
        if cloud.shape[0] == 0:
            continue
        clouds.append(cloud)
        turn = Rotation.from_axis_angle(rng.normal(size=3), np.radians(5.0))
        inits.append(Pose(turn * inst.pose_cam.rotation, inst.pose_cam.translation + rng.normal(scale=3.0, size=3)))
    return mesh, depth, ids, gt, clouds, inits


def test_icp_lock_step(benchmark, scene):
    mesh, _, _, _, clouds, inits = scene
    results = benchmark(icp_refine_many, clouds, mesh, inits, IcpConfig())
    assert len(results) == len(clouds) >= 30


def test_icp_per_estimate(benchmark, scene):
    """The same estimates one call each: a tree and a query per estimate per iteration."""
    mesh, _, _, _, clouds, inits = scene
    results = benchmark(lambda: [icp_refine(c, mesh, p, IcpConfig()) for c, p in zip(clouds, inits)])
    assert len(results) == len(clouds)


def test_score_depth_error_window(benchmark, scene):
    mesh, depth, ids, gt, _, inits = scene
    rendered, (row, col) = render_single(mesh, inits[0], RenderConfig(SCENE_CAM))
    win = np.s_[row : row + rendered.shape[0], col : col + rendered.shape[1]]
    mask = ids == gt.instances[0].instance_id
    score = benchmark(score_depth_error, depth[win], rendered, mask[win], SelectionConfig())
    assert score.n_rendered > 0


def test_depth_error(benchmark, scene):
    """Render at the estimate's pose, then score over the render's window."""
    mesh, depth, ids, gt, _, inits = scene
    mask = ids == gt.instances[0].instance_id
    cfg = RenderConfig(SCENE_CAM)
    score = benchmark(lambda: depth_error(depth, render_single(mesh, inits[0], cfg), mask, cfg, SelectionConfig()))
    assert score.n_rendered > 0
