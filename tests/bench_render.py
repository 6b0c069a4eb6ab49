"""Micro-benchmarks for the rasterizer and the area resampler.

The file name keeps it out of the default test collection. Run it with

    PYTHONPATH=src python -m pytest tests/bench_render.py --benchmark-only

(pytest-benchmark options such as ``--benchmark-compare`` apply as usual).
"""

from __future__ import annotations

import numpy as np
import pytest

from binpick import cli
from binpick.geometry import CameraIntrinsics, Pose, Rotation
from binpick.render import RenderConfig, area_resize, render_scene, render_single, render_windows
from binpick.shapes import make_box, make_lbracket

# keep freed heap memory mapped, as every stage process does, so that the
# timings measure the work and not the page faults of refetched temporaries
cli._keep_freed_memory()

CODEBOOK_CAM = CameraIntrinsics(400.0, 400.0, 80.0, 80.0, 160, 160)
SCENE_CAM = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


@pytest.fixture(scope="module", params=["box", "lbracket"])
def codebook_views(request):
    """16 codebook views of one part. A box view covers about twice the pixels
    of an L-bracket view with half the triangles, so per-pixel work weighs more."""
    rng = np.random.default_rng(0)
    mesh = make_box() if request.param == "box" else make_lbracket()
    return [[(mesh, Pose(Rotation.random(rng), [0.0, 0.0, 300.0]), 1)] for _ in range(16)]


@pytest.fixture(scope="module")
def clutter():
    rng = np.random.default_rng(0)
    box, lbracket = make_box(), make_lbracket()
    return [
        (
            box if i % 2 else lbracket,
            Pose(Rotation.random(rng), [rng.uniform(-120, 120), rng.uniform(-90, 90), rng.uniform(250, 330)]),
            i + 1,
        )
        for i in range(40)
    ]


def test_render_codebook_view(benchmark, codebook_views):
    cfg = RenderConfig(CODEBOOK_CAM)
    views = iter(codebook_views * 10_000)
    depth, _, _ = benchmark(lambda: render_scene(next(views), cfg))
    assert depth.shape == (160, 160) and (depth > 0).any()


def test_render_codebook_views_batched(benchmark, codebook_views):
    """64 codebook views as shaded windows in one call, as build_codebook renders a worker's run of them."""
    cfg = RenderConfig(CODEBOOK_CAM)
    mesh = codebook_views[0][0][0]
    poses = [view[0][1] for view in codebook_views] * 4
    windows = benchmark(render_windows, mesh, poses, cfg, shaded=True)
    assert len(windows) == 64 and all((depth > 0).any() and gray.shape == depth.shape for depth, _, gray in windows)


def test_render_full_frame(benchmark, clutter):
    depth, ids, _ = benchmark(render_scene, clutter, RenderConfig(SCENE_CAM))
    assert depth.shape == (480, 640) and len(np.unique(ids)) > 20


def test_render_single_window(benchmark, clutter):
    """Each clutter instance alone, into its own window, as select, eval and genscenes render it."""
    cfg = RenderConfig(SCENE_CAM)
    windows = benchmark(lambda: [render_single(mesh, pose, cfg) for mesh, pose, _ in clutter])
    assert len(windows) == 40 and all(w.size and w.size < 480 * 640 for w, _ in windows)


def test_render_windows_batched(benchmark, clutter):
    """The clutter instances' windows of each mesh in one batched call, as select, eval and genscenes draw a scene's."""
    cfg = RenderConfig(SCENE_CAM)
    groups = [(mesh, [pose for m, pose, _ in clutter if m is mesh]) for mesh in (clutter[0][0], clutter[1][0])]
    windows = benchmark(lambda: [w for mesh, poses in groups for w in render_windows(mesh, poses, cfg)])
    assert len(windows) == 40 and all(w.size and w.size < 480 * 640 for w, _ in windows)


def test_area_resize_non_divisible(benchmark):
    img = np.random.default_rng(0).random((197, 197))
    out = benchmark(area_resize, img, 128, 128)
    assert out.shape == (128, 128)
    assert out.mean() == pytest.approx(img.mean(), abs=1e-12)


def test_area_resize_upsampling(benchmark):
    """A 62 px crop to 128 px, as most codebook views are: two taps an output pixel."""
    img = np.random.default_rng(0).random((62, 62))
    out = benchmark(area_resize, img, 128, 128)
    assert out.shape == (128, 128) and out.flags.c_contiguous
    assert out.mean() == pytest.approx(img.mean(), abs=1e-12)
