from __future__ import annotations

import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpick import codebook, render
from binpick.codebook import (
    Codebook,
    EmbedderSpec,
    build_codebook,
    embed,
    knn_lookup,
    mean_nn_spacing,
    render_view,
    sample_rotations,
    view_crop,
    view_pose,
)
from binpick.fileio import sha256_file, write_codebook
from binpick.geometry import CameraIntrinsics, Rotation, geodesic_distance
from binpick.render import RenderConfig, crop_square, render_scene, render_windows
from binpick.shapes import make_box, make_lbracket

# sha256 of codebook.txt for the box at 192 views (seed 0) on the 160 x 160
# codebook camera, pinned: a change to any view's render, crop resampling or
# embedding bits fails the tests that build it
CODEBOOK_192_SHA256 = "c7a5d459864f1728b235269f30da5d4fd8ceb5ecd94b9e781fdc4d789e559425"


def make_codebook_from_embeddings(embeddings) -> Codebook:
    e = np.asarray(embeddings, dtype=np.float64)
    return Codebook(
        object_id=1,
        embedder_id="pixel-template",
        embedder_fingerprint="",
        render_fingerprint="",
        z_ref_mm=300.0,
        fx_ref_px=600.0,
        rotations=tuple(Rotation.identity() for _ in range(len(e))),
        embeddings=e,
        view_diagonals_px=np.ones(len(e)),
    )


class TestSampleRotations:
    def test_single_is_identity(self):
        rots = sample_rotations(1, seed=0)
        assert len(rots) == 1
        assert rots[0].angle_to(Rotation.identity()) == 0.0

    def test_first_is_identity(self):
        rots = sample_rotations(64, seed=5)
        assert rots[0].angle_to(Rotation.identity()) == 0.0

    def test_deterministic(self):
        a = sample_rotations(128, seed=9)
        b = sample_rotations(128, seed=9)
        assert all(np.array_equal(x.q, y.q) for x, y in zip(a, b))

    def test_seed_changes_set(self):
        a = sample_rotations(16, seed=0)
        b = sample_rotations(16, seed=1)
        assert any(not np.array_equal(x.q, y.q) for x, y in zip(a[1:], b[1:]))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_rotations(0, seed=0)

    def test_covering_quality(self, rng):
        # random probing: worst probe distance within 2.5x mean spacing
        rots = sample_rotations(512, seed=0)
        spacing = mean_nn_spacing(rots)
        q = np.stack([r.q for r in rots])
        worst = 0.0
        for _ in range(200):
            p = Rotation.random(rng)
            best = float(np.abs(q @ p.q).max())
            worst = max(worst, 2.0 * np.arccos(min(1.0, best)))
        assert worst <= 2.5 * spacing


class TestEmbed:
    def test_brightness_invariance(self, rng):
        spec = EmbedderSpec()
        crop = rng.random((128, 128))
        assert np.allclose(embed(crop, spec), embed(crop + 0.1, spec), atol=1e-12)

    def test_contrast_invariance(self, rng):
        spec = EmbedderSpec()
        crop = rng.random((128, 128))
        assert np.allclose(embed(crop, spec), embed(0.5 * crop, spec), atol=1e-12)

    def test_degenerate_crop(self):
        with pytest.raises(ValueError, match="degenerate crop"):
            embed(np.zeros((128, 128)), EmbedderSpec())

    def test_dimension(self, rng):
        z = embed(rng.random((128, 128)), EmbedderSpec())
        assert z.shape == (1024,)
        assert np.isclose(np.linalg.norm(z), 1.0)

    def test_wrong_size(self, rng):
        with pytest.raises(ValueError):
            embed(rng.random((64, 64)), EmbedderSpec())


class TestBuildCodebook:
    def test_single_rotation(self, lbracket, codebook_cam):
        cb = build_codebook(lbracket, [Rotation.identity()], EmbedderSpec(), RenderConfig(codebook_cam), 300.0)
        assert len(cb) == 1
        assert cb.dimension == 1024

    def test_deterministic(self, lbracket, codebook_cam, tmp_path):
        from binpick.fileio import write_codebook

        rots = sample_rotations(8, seed=0)
        spec = EmbedderSpec()
        paths = []
        for name in ("a.txt", "b.txt"):
            cb = build_codebook(lbracket, rots, spec, RenderConfig(codebook_cam), 300.0)
            write_codebook(tmp_path / name, cb)
            paths.append(tmp_path / name)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_shape_check_4096(self, big_codebook):
        cb, rotations, _ = big_codebook
        assert len(cb) == 4096
        assert cb.dimension == 1024
        assert cb.embeddings.shape == (4096, 1024)

    def test_all_entries_invalid_raises(self, lbracket, codebook_cam, caplog):
        # object behind the near plane renders empty everywhere
        cfg = RenderConfig(codebook_cam, near_mm=400.0, far_mm=500.0)
        with caplog.at_level(logging.WARNING), pytest.raises(ValueError, match="no valid codebook entries"):
            build_codebook(lbracket, sample_rotations(4, seed=0), EmbedderSpec(), cfg, 300.0)
        assert [r.getMessage() for r in caplog.records] == ["4 of 4 codebook entries excluded: empty render: 0, 1, 2, 3"]


class TestViewWindows:
    """A run of codebook views renders as shaded windows in one call; each holds its view rendered alone, cut to the window."""

    @pytest.mark.parametrize("case", ["plain", "near_clipped", "far_clipped", "split_groups"])
    def test_windows_equal_solo_renders(self, box, lbracket, codebook_cam, monkeypatch, case):
        groups = []
        if case == "split_groups":
            # a few thousand tested pixels a group: groups end inside windows and span windows
            monkeypatch.setattr(render, "_GROUP_PX", 5000)
            raster_group = render._raster_group
            monkeypatch.setattr(render, "_raster_group", lambda *a: groups.append(1) or raster_group(*a))
        # the box spans z 282-318 mm: near 297 mm clips most views, far 294 mm
        # (as in the CPU-count test below) leaves a few empty
        cfg = RenderConfig(codebook_cam, **{"near_clipped": {"near_mm": 297.0}, "far_clipped": {"far_mm": 294.0}}.get(case, {}))
        rotations = sample_rotations(24, seed=0)
        for mesh in (box, lbracket):
            groups.clear()
            poses = [view_pose(mesh, r, 300.0) for r in rotations]
            windows = render_windows(mesh, poses, cfg, shaded=True)
            if case == "split_groups":
                assert 1 < len(groups) < len(rotations)  # so some group spans windows
            for (depth, (row, col), gray), pose in zip(windows, poses):
                want_depth, _, want_gray = render_scene([(mesh, pose, 1)], cfg)
                cut = np.s_[row : row + depth.shape[0], col : col + depth.shape[1]]
                assert depth.dtype == np.uint16 and gray.dtype == np.float64 and gray.shape == depth.shape
                assert depth.tobytes() == want_depth[cut].tobytes() and gray.tobytes() == want_gray[cut].tobytes()
                # no drawn pixel lies outside the window
                assert np.count_nonzero(depth) == np.count_nonzero(want_depth)
                assert np.count_nonzero(gray) == np.count_nonzero(want_gray)


@st.composite
def _codebook_views(draw):
    """A mesh, a rotation and a codebook view of it: in the frame, across the
    frame edge, clipped at the near or far plane, or empty; on a camera whose
    center is a whole or a half pixel coordinate, and a crop side."""
    kind = draw(st.sampled_from(["in_frame", "edge", "near", "far", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z_ref = {"in_frame": rng.uniform(250, 600), "edge": rng.uniform(30, 100)}.get(kind, 300.0)
    planes = {"near": {"near_mm": rng.uniform(285, 315)}, "far": {"far_mm": rng.uniform(285, 315)},
              "empty": {"near_mm": 400.0, "far_mm": 500.0}}.get(kind, {})
    center = draw(st.sampled_from([80.0, 80.5, 81.0]))
    cfg = RenderConfig(CameraIntrinsics(400.0, 400.0, center, center, 160, 160), **planes)
    mesh = draw(st.sampled_from([make_box, make_lbracket]))()
    return mesh, Rotation.random(rng), z_ref, cfg, draw(st.integers(1, 200))


class TestWindowCrops:
    @settings(max_examples=150, deadline=None)
    @given(_codebook_views())
    def test_crop_from_window_equals_crop_from_frame(self, view):
        # an odd side puts the corner of a square centered on a whole pixel
        # coordinate at .5, which round() takes to the even side: the corner is
        # rounded in frame coordinates, so the window's origin must not move it
        mesh, rotation, z_ref, cfg, side = view
        k, spec = cfg.intrinsics, EmbedderSpec()
        depth, origin, gray = render_windows(mesh, [view_pose(mesh, rotation, z_ref)], cfg, shaded=True)[0]
        frame_depth, _, frame_gray = render_view(mesh, rotation, cfg, z_ref)
        crop, diag = view_crop(gray, depth > 0, (k.cx, k.cy), spec, origin)
        want, want_diag = view_crop(frame_gray, frame_depth > 0, (k.cx, k.cy), spec)
        assert diag == want_diag and (crop is None) == (want is None)
        if crop is not None:
            assert crop.tobytes() == want.tobytes()
        assert crop_square(gray, k.cx, k.cy, side, origin).tobytes() == crop_square(frame_gray, k.cx, k.cy, side).tobytes()


def cpu_count(monkeypatch, cpus: int) -> None:
    """Make build_codebook see cpus CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestBuildCodebookWorkers:
    """build_codebook forks one worker per CPU for a codebook of 2 x 64 views or more."""

    def test_same_bytes_and_warning_at_any_cpu_count(self, box, codebook_cam, monkeypatch, tmp_path, caplog):
        # a far clip 6 mm in front of the box center leaves the views whose
        # nearest face is flat-on empty, and some edge-on slivers too small to embed
        cfg = RenderConfig(codebook_cam, far_mm=294.0)
        rotations = sample_rotations(192, seed=0)
        real_fork, forks = os.fork, []

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        written, warned = {}, {}
        for cpus in (1, 2, 3):
            cpu_count(monkeypatch, cpus)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                cb = build_codebook(box, rotations, EmbedderSpec(), cfg, 300.0)
            write_codebook(tmp_path / f"{cpus}.txt", cb)
            written[cpus] = (tmp_path / f"{cpus}.txt").read_bytes()
            warned[cpus] = [r.getMessage() for r in caplog.records]
        assert len(forks) == 2 + 3  # no worker at one CPU
        assert written[1] == written[2] == written[3]
        assert warned[1] == warned[2] == warned[3] == [
            "6 of 192 codebook entries excluded: empty render: 0; degenerate crop: 11, 52, 95, 176, 182"
        ]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_view_raises(self, box, codebook_cam, monkeypatch, cpus):
        # with 2 and 3 workers, views 71 and 390 fail in the runs of different workers
        rotations = sample_rotations(400, seed=0)
        n = len(rotations)
        assert n // codebook._VIEWS_PER_WORKER >= 3
        for workers in (2, 3):
            run_of = [w for w in range(workers) for _ in range(n * w // workers, n * (w + 1) // workers)]
            assert run_of[71] != run_of[390]
        index = {id(r): i for i, r in enumerate(rotations)}
        real_render_windows = codebook.render_windows

        def failing_render_windows(mesh, poses, cfg, shaded=False):
            failing = sorted({index[id(pose.rotation)] for pose in poses} & {71, 390})
            if failing:
                raise ValueError(f"view {failing[0]} failed")
            return real_render_windows(mesh, poses, cfg, shaded)

        monkeypatch.setattr(codebook, "render_windows", failing_render_windows)
        cpu_count(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^view 71 failed$"):
            build_codebook(box, rotations, EmbedderSpec(), RenderConfig(codebook_cam), 300.0)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_codebook_bytes_pinned(self, box, codebook_cam, monkeypatch, tmp_path, cpus):
        cpu_count(monkeypatch, cpus)
        cb = build_codebook(box, sample_rotations(192, seed=0), EmbedderSpec(), RenderConfig(codebook_cam), 300.0)
        write_codebook(tmp_path / "codebook.txt", cb)
        assert sha256_file(tmp_path / "codebook.txt") == CODEBOOK_192_SHA256

    @pytest.mark.parametrize("views, cpus, runs", [(192, 2, [96, 96]), (200, 3, [66, 67, 67]), (1024, 2, [512, 512]),
                                                  (192, 1, [192])],
                             ids=["192_views_2_cpus", "200_views_3_cpus", "1024_views_2_cpus", "192_views_1_cpu"])
    def test_one_even_run_per_worker(self, box, codebook_cam, monkeypatch, tmp_path, views, cpus, runs):
        # forked workers share no memory: each appends the pid and size of its run to a file
        drawn, real_views = tmp_path / "runs.txt", codebook._views

        def logged_views(mesh, rotations, *args):
            with open(drawn, "a") as f:
                f.write(f"{os.getpid()} {len(rotations)}\n")
            return real_views(mesh, rotations, *args)

        monkeypatch.setattr(codebook, "_views", logged_views)
        cpu_count(monkeypatch, cpus)
        cb = build_codebook(box, sample_rotations(views, seed=0), EmbedderSpec(), RenderConfig(codebook_cam), 300.0)
        assert len(cb) == views
        logged = [line.split() for line in drawn.read_text().splitlines()]
        assert sorted(int(size) for _, size in logged) == runs
        pids = {int(pid) for pid, _ in logged}
        # one run a worker; at one CPU, no fork
        assert (pids == {os.getpid()}) if cpus == 1 else (len(pids) == cpus and os.getpid() not in pids)

    def test_run_rendered_in_bounded_calls(self, box, codebook_cam, monkeypatch):
        # render_windows holds every window of a call until it returns, so a
        # worker's memory stays bounded only if its calls do
        calls, real_render_windows = [], codebook.render_windows

        def logged_render_windows(mesh, poses, cfg, shaded=False):
            calls.append(len(poses))
            return real_render_windows(mesh, poses, cfg, shaded)

        monkeypatch.setattr(codebook, "render_windows", logged_render_windows)
        cpu_count(monkeypatch, 1)
        build_codebook(box, sample_rotations(200, seed=0), EmbedderSpec(), RenderConfig(codebook_cam), 300.0)
        assert calls == [64, 64, 64, 8]

    @pytest.mark.parametrize("window_px", [1, 1 << 20])
    def test_codebook_bytes_pinned_at_any_window_budget(self, box, codebook_cam, monkeypatch, tmp_path, window_px):
        # one view a render batch, or every view of the run in one
        monkeypatch.setattr(render, "_WINDOW_PX", window_px)
        cpu_count(monkeypatch, 1)
        cb = build_codebook(box, sample_rotations(192, seed=0), EmbedderSpec(), RenderConfig(codebook_cam), 300.0)
        write_codebook(tmp_path / "codebook.txt", cb)
        assert sha256_file(tmp_path / "codebook.txt") == CODEBOOK_192_SHA256



class TestKnnLookup:
    def test_identical_vector(self):
        cb = make_codebook_from_embeddings([[1.0, 0.0], [0.0, 1.0]])
        res = knn_lookup(cb, np.array([1.0, 0.0]), 1)
        assert res[0].index == 0 and res[0].similarity == 1.0

    def test_orthogonal(self):
        cb = make_codebook_from_embeddings([[1.0, 0.0], [0.0, 1.0]])
        res = knn_lookup(cb, np.array([0.0, 1.0]), 2)
        assert [r.index for r in res] == [1, 0]
        assert res[0].similarity == 1.0 and res[1].similarity == 0.0

    def test_tie_break_lower_index(self):
        cb = make_codebook_from_embeddings([[1.0, 0.0], [0.0, 1.0]])
        res = knn_lookup(cb, np.array([1.0, 1.0]) / np.sqrt(2.0), 1)
        assert res[0].index == 0
        assert res[0].similarity == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_dimension_mismatch(self):
        cb = make_codebook_from_embeddings([[1.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            knn_lookup(cb, np.array([1.0, 0.0, 0.0]), 1)

    def test_k_out_of_range(self):
        cb = make_codebook_from_embeddings([[1.0, 0.0]])
        with pytest.raises(ValueError):
            knn_lookup(cb, np.array([1.0, 0.0]), 2)

    def test_matches_brute_force(self, rng):
        # oracle: python full scan, sorted by (-cos, index)
        e = rng.normal(size=(200, 16))
        e[50] = e[10]  # force exact ties
        cb = make_codebook_from_embeddings(e)
        for _ in range(20):
            z = rng.normal(size=16)
            expect = sorted(
                range(200),
                key=lambda i: (-float(np.dot(e[i], z) / (np.linalg.norm(e[i]) * np.linalg.norm(z))), i),
            )[:7]
            got = [r.index for r in knn_lookup(cb, z, 7)]
            assert got == expect

    def test_cosines_equal_per_lookup_norms(self, rng):
        # entry norms come from Codebook, computed once, and the dot products
        # from blocks of rows; the cosines are those of one whole-matrix product
        # and norms recomputed per lookup, for one block and for several with a remainder
        for n in (64, 200):
            e = rng.normal(size=(n, 16))
            cb = make_codebook_from_embeddings(e)
            assert not cb.entry_norms.flags.writeable
            z = rng.normal(size=16)
            norms = np.sqrt((e * e).sum(axis=1))
            cos = np.clip((e * z).sum(axis=1) / (norms * float(np.sqrt((z * z).sum()))), -1.0, 1.0)
            got = knn_lookup(cb, z, len(e))
            assert all(r.similarity == cos[r.index] for r in got)

    @pytest.mark.parametrize("n, d", [(1, 1024), (64, 1024), (65, 1024), (200, 16), (1000, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_entry_norms_equal_whole_table_norms(self, rng, n, d, order):
        # Codebook sums the norms over blocks of rows: one block, one and a
        # remainder, several; bit for bit those of one whole-table product.
        # A column-major table is held row-major, so its norms are the row-major copy's
        e = rng.normal(size=(n, d))
        cb = make_codebook_from_embeddings(np.asarray(e, order=order))
        assert cb.embeddings.flags.c_contiguous and np.array_equal(cb.embeddings, e)
        assert cb.entry_norms.tobytes() == np.sqrt((e * e).sum(axis=1)).tobytes()

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(50, 8))
        cb = make_codebook_from_embeddings(e)
        z = rng.normal(size=8)
        a = [r.index for r in knn_lookup(cb, z, 10)]
        b = [r.index for r in knn_lookup(cb, z * scale, 10)]
        assert a == b


class TestRoundTrip:
    def test_codebook_round_trip(self, big_codebook, lbracket, codebook_cam, rng):
        cb, rotations, spacing = big_codebook
        cfg = RenderConfig(codebook_cam)
        spec = EmbedderSpec()
        hits = 0
        trials = 50
        for _ in range(trials):
            r = Rotation.random(rng)
            depth, _, gray = render_view(lbracket, r, cfg, 300.0)
            crop, _ = view_crop(gray, depth > 0, (codebook_cam.cx, codebook_cam.cy), spec)
            top = knn_lookup(cb, embed(crop, spec), 1)[0]
            if geodesic_distance(r, top.rotation) <= 2.5 * spacing:
                hits += 1
        assert hits / trials >= 0.90
