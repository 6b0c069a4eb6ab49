from __future__ import annotations

import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpick import select_refine
from binpick.geometry import Pose, Rotation, back_project, compose, sample_surface_points
from binpick.pipeline import PoseEstimate
from binpick.render import RenderConfig, render_single
from binpick.scenegen import SceneConfig, generate_scene, gt_detections
from binpick.select_refine import (
    IcpConfig,
    SelectionConfig,
    SelectionScore,
    depth_error,
    detection_cloud,
    icp_refine,
    icp_refine_many,
    score_depth_error,
    select_top_k,
)
from conftest import child_env, solo_frame


def est(idx, score=0.5, cosine=0.5):
    return PoseEstimate(0, idx, Pose.identity(), cosine, score, "depth_center")


def sel_score(mean_error=0.0, e_sum=0.0, coverage=1.0, disqualified=False, n_inter=10, n_rendered=10):
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
        depth, mask = solo_frame(box, pose, cfg)
        s = depth_error(depth, render_single(box, pose, cfg), mask > 0, cfg, SelectionConfig())
        assert s.e_sum == 0.0 and s.coverage == 1.0 and not s.disqualified

    def test_empty_intersection_disqualified(self, box, cam_small):
        cfg = RenderConfig(cam_small)
        pose = Pose(Rotation.identity(), [0, 0, 280.0])
        depth, _ = solo_frame(box, pose, cfg)
        det_mask = np.zeros(depth.shape, bool)  # detection elsewhere
        s = depth_error(depth, render_single(box, pose, cfg), det_mask, cfg, SelectionConfig())
        assert s.disqualified and s.n_intersection == 0

    def test_every_inlier_below_margin(self, rng):
        cfg = SelectionConfig(margin_mm=3.0)
        obs = rng.integers(1, 40, size=(16, 16)).astype(np.uint16)
        ren = rng.integers(1, 40, size=(16, 16)).astype(np.uint16)
        mask = rng.random((16, 16)) > 0.3
        s = score_depth_error(obs, ren, mask, cfg)
        assert s.e_sum < cfg.margin_mm * max(s.n_intersection, 1)


def score_depth_error_full_frame(obs, rendered, det_mask, cfg):
    """score_depth_error as computed over the whole frame, before windowing."""
    diff = np.abs(obs.astype(np.float64) - rendered.astype(np.float64))
    a2 = (obs > 0) & (rendered > 0) & (diff < cfg.margin_mm)
    a3 = rendered > 0
    inter = det_mask & a2 & a3
    n_inter = int(inter.sum())
    n_rendered = int(a3.sum())
    e_sum = float(diff[inter].sum())
    mean_error = e_sum / n_inter if n_inter > 0 else 0.0
    coverage = n_inter / n_rendered if n_rendered > 0 else 0.0
    disqualified = n_rendered == 0 or coverage < cfg.min_coverage
    return SelectionScore(e_sum, n_inter, n_rendered, mean_error, coverage, disqualified)


class TestScoreDepthErrorWindow:
    """The windowed score equals the full-frame one, bit for bit."""

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        box=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
        seed=st.integers(0, 2**32 - 1),
        margin=st.sampled_from([0.5, 3.0, 5.0, 1e9]),
        min_coverage=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_full_frame(self, shape, box, seed, margin, min_coverage):
        # the render is a rectangle with holes; its bounds reach the frame
        # edges, and it is empty when a bound pair collapses
        h, w = shape
        rng = np.random.default_rng(seed)
        r0, r1 = sorted(round(f * h) for f in box[:2])
        c0, c1 = sorted(round(f * w) for f in box[2:])
        rendered = np.zeros(shape, np.uint16)
        size = (r1 - r0, c1 - c0)
        rendered[r0:r1, c0:c1] = rng.integers(0, 60000, size=size) * (rng.random(size) > 0.2)
        obs = np.where(rng.random(shape) > 0.1, rendered + rng.integers(-8, 9, size=shape), 0)
        obs = np.clip(obs, 0, 65535).astype(np.uint16)
        mask = rng.random(shape) > 0.3
        cfg = SelectionConfig(margin_mm=margin, min_coverage=min_coverage)
        assert score_depth_error(obs, rendered, mask, cfg) == score_depth_error_full_frame(obs, rendered, mask, cfg)

    def test_frame_edges_and_corners(self, rng):
        cfg = SelectionConfig()
        obs = rng.integers(1, 500, size=(9, 7)).astype(np.uint16)
        mask = rng.random((9, 7)) > 0.2
        edges = (np.s_[:1, :], np.s_[-1:, :], np.s_[:, :1], np.s_[:, -1:])
        for win in (np.s_[:, :], *edges, np.s_[-2:, -3:], np.s_[:3, :2]):
            rendered = np.zeros_like(obs)
            rendered[win] = obs[win] + rng.integers(0, 4, size=obs[win].shape).astype(np.uint16)
            got = score_depth_error(obs, rendered, mask, cfg)
            assert got == score_depth_error_full_frame(obs, rendered, mask, cfg)
            assert got.n_rendered == rendered[win].size

    def test_empty_render(self, rng):
        obs = rng.integers(0, 500, size=(6, 5)).astype(np.uint16)
        rendered = np.zeros_like(obs)
        mask = np.ones(obs.shape, bool)
        got = score_depth_error(obs, rendered, mask, SelectionConfig())
        assert got == score_depth_error_full_frame(obs, rendered, mask, SelectionConfig())
        assert got == SelectionScore(0.0, 0, 0, 0.0, 0.0, True)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="image dimensions must match"):
            score_depth_error(np.ones((4, 4)), np.ones((4, 5)), np.ones((4, 4), bool), SelectionConfig())


class TestDepthErrorWindow:
    """depth_error scores the frame cut to render_single's window: the score
    of the full-frame render, for renders inside, across and outside the frame."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
        z=st.sampled_from([-200.0, 12.0, 30.0, 120.0, 280.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_full_frame_score(self, box, cam_small, seed, offset, z):
        rng = np.random.default_rng(seed)
        cfg = RenderConfig(cam_small)
        pose = Pose(Rotation.random(rng), [offset[0] * abs(z), offset[1] * abs(z), z])
        full, _ = solo_frame(box, pose, cfg)
        background = rng.integers(1, 400, size=full.shape)
        obs = np.where(full > 0, full + rng.integers(-6, 7, size=full.shape), background)
        obs = (obs * (rng.random(full.shape) > 0.1)).clip(0, 65535).astype(np.uint16)
        mask = rng.random(full.shape) > 0.3
        sel = SelectionConfig()
        assert depth_error(obs, render_single(box, pose, cfg), mask, cfg, sel) == score_depth_error(obs, full, mask, sel)

    @pytest.mark.parametrize("wrong", ["obs", "det_mask", "both"])
    def test_rejects_images_not_of_the_frame(self, box, cam_small, wrong):
        frame = (cam_small.height, cam_small.width)
        obs, mask = np.ones(frame, np.uint16), np.ones(frame, bool)
        if wrong in ("obs", "both"):
            obs = obs[:, :-1]
        if wrong in ("det_mask", "both"):
            mask = mask[:, :-1]
        cfg = RenderConfig(cam_small)
        window = render_single(box, Pose(Rotation.identity(), [0, 0, 280.0]), cfg)
        assert window[0].any()
        with pytest.raises(ValueError, match="image dimensions must match"):
            depth_error(obs, window, mask, cfg, SelectionConfig())


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


@pytest.mark.parametrize("build", [
    lambda x: SelectionConfig(margin_mm=x),
    lambda x: IcpConfig(tolerance_mm=x),
    lambda x: IcpConfig(max_corr_mm=x),
], ids=["margin_mm", "tolerance_mm", "max_corr_mm"])
def test_nan_is_not_positive(build):
    with pytest.raises(ValueError, match="must be positive"):
        build(float("nan"))


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
        # an empty cloud is one without correspondences, alone or in a batch
        init = Pose(Rotation.from_axis_angle([0.0, 1.0, 0.0], 0.3), [1.0, 2.0, 300.0])
        cloud = sample_surface_points(box, 500, seed=2)
        empty, other = icp_refine_many([np.zeros((0, 3)), cloud], box, [init, Pose.identity()], IcpConfig())
        assert empty == icp_refine(np.zeros((0, 3)), box, init, IcpConfig())
        assert empty.pose is init and (empty.rms_mm, empty.iterations) == (float("inf"), 0)
        assert (empty.converged, empty.message, empty.residuals) == (False, "no correspondences", ())
        alone = icp_refine(cloud, box, Pose.identity(), IcpConfig())
        assert other.residuals == alone.residuals and other.pose.translation.tobytes() == alone.pose.translation.tobytes()

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


def icp_per_estimate(obs_points, mesh, init, cfg):
    """ICP of one cloud as a loop of its own, with its own k-d tree and
    single-core query: the reference for icp_refine_many. Returns (pose,
    residuals, stop), stop naming the rule that ended the loop."""
    from scipy.spatial import cKDTree

    def rigid_align(src, dst):
        sc = src.mean(axis=0)
        dc = dst.mean(axis=0)
        h = np.einsum("ni,nj->ij", src - sc, dst - dc, optimize=False)
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        return r, dc - r @ sc

    obs = np.asarray(obs_points, dtype=np.float64).reshape(-1, 3)
    model = sample_surface_points(mesh, cfg.model_points, seed=cfg.seed)
    tree = cKDTree(model)
    r_mat = init.rotation.as_matrix()
    t_vec = init.translation.copy()
    prev = None
    residuals = []
    stop = "cap"
    for _ in range(cfg.max_iterations):
        local = np.einsum("ni,ij->nj", obs - t_vec, r_mat, optimize=False)
        dist, idx = tree.query(local, distance_upper_bound=cfg.max_corr_mm)
        valid = np.isfinite(dist)
        if int(valid.sum()) < 3:
            stop = "correspondences"
            break
        rms = float(np.sqrt(np.mean(dist[valid] ** 2)))
        if prev is not None and rms > prev[2] + 1e-12:
            r_mat, t_vec = prev[0], prev[1]
            stop = "rising"
            break
        residuals.append(rms)
        if prev is not None and prev[2] - rms < cfg.tolerance_mm:
            stop = "improvement"
            break
        src = np.einsum("ni,ji->nj", model[idx[valid]], r_mat, optimize=False) + t_vec
        dr, dt = rigid_align(src, obs[valid])
        prev = (r_mat, t_vec, rms)
        r_mat = dr @ r_mat
        t_vec = dr @ t_vec + dt
        angle = math.acos(min(1.0, max(-1.0, (np.trace(dr) - 1.0) / 2.0)))
        if float(np.linalg.norm(dt)) + angle * mesh.bounding_radius < cfg.tolerance_mm:
            stop = "step"
            break
    if not residuals:
        return init, (), stop
    return Pose(Rotation.from_matrix(r_mat), t_vec), tuple(residuals), stop


def icp_case(mesh, n, seed, angle, shift, noise, init_angle, far):
    """A cloud of n noisy surface points in a rotated, shifted frame, and a
    perturbed initial pose; far moves the cloud beyond every correspondence."""
    rng = np.random.default_rng(seed)
    rot = Rotation.from_axis_angle(rng.normal(size=3), angle)
    cloud = rot.rotate(sample_surface_points(mesh, n, seed=seed)) + np.asarray(shift)
    cloud = cloud + rng.normal(scale=noise, size=cloud.shape) + (500.0 if far else 0.0)
    init = Pose(Rotation.from_axis_angle(rng.normal(size=3), init_angle), rng.normal(scale=1.0, size=3))
    return cloud, init


def assert_same_as_per_estimate(results, cases, mesh, cfg):
    stops = []
    for res, (cloud, init) in zip(results, cases, strict=True):
        pose, residuals, stop = icp_per_estimate(cloud, mesh, init, cfg)
        assert np.array_equal(res.pose.rotation.q, pose.rotation.q)
        assert np.array_equal(res.pose.translation, pose.translation)
        assert res.residuals == residuals
        assert res.iterations == len(residuals)
        if not residuals:
            assert (res.converged, res.message, res.rms_mm) == (False, "no correspondences", float("inf"))
        elif stop == "cap":
            assert (res.converged, res.message, res.rms_mm) == (False, "iteration cap", residuals[-1])
        else:
            assert (res.converged, res.message, res.rms_mm) == (True, "ok", residuals[-1])
        stops.append(stop)
    return stops


icp_cases = st.lists(
    st.tuples(
        st.integers(1, 300),  # cloud size
        st.integers(0, 2**16),  # seed
        st.floats(0.0, 0.4),  # rotation of the cloud, rad
        st.tuples(*[st.floats(-6.0, 6.0)] * 3),  # shift, mm
        st.floats(0.0, 3.0),  # noise, mm
        st.floats(0.0, 0.2),  # initial rotation error, rad
        st.integers(0, 4).map(lambda i: i == 0),  # cloud far from the model
    ),
    min_size=1,
    max_size=6,
)


class TestIcpLockStep:
    """icp_refine_many gives every estimate the bits of its own per-estimate loop."""

    @given(
        cases=icp_cases,
        max_iterations=st.integers(1, 30),
        model_points=st.integers(20, 400),
        tolerance=st.sampled_from([1e-4, 1e-2, 0.3]),
        max_corr=st.floats(1.0, 15.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_estimate_loop(self, box, cases, max_iterations, model_points, tolerance, max_corr):
        cfg = IcpConfig(max_iterations, tolerance, max_corr, model_points, seed=0)
        built = [icp_case(box, *case) for case in cases]
        results = icp_refine_many([c for c, _ in built], box, [i for _, i in built], cfg)
        assert_same_as_per_estimate(results, built, box, cfg)

    def test_every_stop_rule(self, box):
        # one batch of clouds of different sizes whose estimates stop by every rule
        cases, cfg = stop_rule_cases(box)
        results = icp_refine_many([c for c, _ in cases], box, [i for _, i in cases], cfg)
        stops = assert_same_as_per_estimate(results, cases, box, cfg)
        assert set(stops) == {"correspondences", "rising", "improvement", "step", "cap"}

    def test_cap_stop_not_converged(self, box):
        cloud = sample_surface_points(box, 2000, seed=4) + np.array([1.0, 0.0, 0.0])
        res = icp_refine(cloud, box, Pose.identity(), IcpConfig(max_iterations=2, model_points=2000, seed=4))
        assert (res.converged, res.message, res.iterations) == (False, "iteration cap", 2)

    def test_lengths_must_match(self, box):
        with pytest.raises(ValueError, match="2 clouds but 1 initial poses"):
            icp_refine_many([np.ones((5, 3))] * 2, box, [Pose.identity()], IcpConfig())

    def test_empty_batch(self, box):
        assert icp_refine_many([], box, [], IcpConfig()) == []


def result_bits(result) -> tuple:
    """Every bit of an IcpResult, comparable with ==."""
    return (result.pose.rotation.q.tobytes(), result.pose.translation.tobytes(), result.rms_mm, result.iterations,
            result.converged, result.message, result.residuals)


def stop_rule_cases(box):
    """60 clouds of 1-400 points whose estimates stop by every rule, and their config."""
    rng = np.random.default_rng(7)
    cases = [
        icp_case(box, int(rng.integers(1, 400)), int(rng.integers(1 << 16)), rng.uniform(0, 0.4),
                 rng.uniform(-6, 6, size=3), rng.uniform(0, 3), rng.uniform(0, 0.2), rng.random() < 0.15)
        for _ in range(60)
    ]
    return cases, IcpConfig(max_iterations=12, tolerance_mm=1e-2, max_corr_mm=6.0, model_points=300)


def cpu_count(monkeypatch, cpus: int, points_per_worker: int = 1) -> None:
    """Make icp_refine_many see cpus CPUs, whatever the host has, and fork for points_per_worker points a worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(select_refine, "_POINTS_PER_WORKER", points_per_worker)


def fork_counter(monkeypatch) -> list:
    """The list that every os.fork call from now on appends to."""
    real_fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


class TestIcpWorkers:
    """icp_refine_many splits its estimates into one run a forked worker, by point count."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_same_results_at_any_cpu_count(self, box, monkeypatch, cpus):
        # the estimates of test_every_stop_rule, refined in-process and split over forked workers
        cases, cfg = stop_rule_cases(box)
        forks = fork_counter(monkeypatch)
        cpu_count(monkeypatch, 1)
        alone = icp_refine_many([c for c, _ in cases], box, [i for _, i in cases], cfg)
        assert forks == []
        cpu_count(monkeypatch, cpus)
        forked = icp_refine_many([c for c, _ in cases], box, [i for _, i in cases], cfg)
        assert len(forks) == cpus
        assert [result_bits(r) for r in forked] == [result_bits(r) for r in alone]

    @pytest.mark.parametrize("sizes, cpus, per_worker, runs", [
        ([100] * 6, 2, 1, [3, 3]),
        ([100] * 7, 3, 1, [3, 2, 2]),
        ([500, 100, 100, 100, 100, 100], 2, 1, [1, 5]),  # the first estimate holds half the points
        ([100] * 6, 2, 301, [6]),  # 600 points: one worker at 301 a worker
        ([100] * 6, 2, 300, [3, 3]),
        ([5000], 2, 1, [1]),  # one estimate runs in-process, however many points it has
        ([], 2, 1, [0]),
    ], ids=["even_2", "even_3", "uneven_points", "below_share", "at_share", "one_estimate", "none"])
    def test_one_run_of_consecutive_estimates_per_worker(self, box, monkeypatch, tmp_path, sizes, cpus, per_worker,
                                                         runs):
        # forked workers share no memory: each appends its pid and the sizes of its run's clouds to a file
        logged, real_run = tmp_path / "runs.txt", select_refine._icp_run

        def logged_run(obs, *args):
            with open(logged, "a") as f:
                f.write(f"{os.getpid()} {' '.join(str(len(o)) for o in obs)}\n")
            return real_run(obs, *args)

        monkeypatch.setattr(select_refine, "_icp_run", logged_run)
        cpu_count(monkeypatch, cpus, per_worker)
        clouds = [sample_surface_points(box, n, seed=n) for n in sizes]
        results = icp_refine_many(clouds, box, [Pose.identity()] * len(clouds), IcpConfig(max_iterations=2))
        assert len(results) == len(sizes)
        lines = [line.split() for line in logged.read_text().splitlines()]
        assert [int(size) for _, *run in lines for size in run] == sizes  # in order, each estimate once
        assert sorted(len(run) for _, *run in lines) == sorted(runs)
        pids = {int(pid) for pid, *_ in lines}
        # one run a worker; at one worker, no fork
        assert (pids == {os.getpid()}) if len(runs) == 1 else (len(pids) == len(runs) and os.getpid() not in pids)

    def test_single_estimate_does_not_fork(self, box, monkeypatch):
        forks = fork_counter(monkeypatch)
        cpu_count(monkeypatch, 4)
        cloud = sample_surface_points(box, 2000, seed=4) + np.array([1.0, 0.0, 0.0])
        res = icp_refine(cloud, box, Pose.identity(), IcpConfig(model_points=500))
        assert res.iterations > 0 and forks == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_estimate_raises(self, box, monkeypatch, cpus):
        # cloud i has 10 + i points; with 2 and 3 workers, estimates 2 and 11 fail in the runs of different workers
        real_run = select_refine._icp_run

        def failing_run(obs, *args):
            failing = sorted({len(o) - 10 for o in obs} & {2, 11})
            if failing:
                raise ValueError(f"estimate {failing[0]} failed")
            return real_run(obs, *args)

        monkeypatch.setattr(select_refine, "_icp_run", failing_run)
        cpu_count(monkeypatch, cpus)
        clouds = [sample_surface_points(box, 10 + i, seed=i) for i in range(12)]
        with pytest.raises(ValueError, match="^estimate 2 failed$"):
            icp_refine_many(clouds, box, [Pose.identity()] * len(clouds), IcpConfig())

    def test_killed_worker_is_one_error(self, box, monkeypatch):
        parent, real_run = os.getpid(), select_refine._icp_run

        def dying_run(obs, *args):
            if os.getpid() != parent and any(len(o) == 21 for o in obs):  # the worker that refines estimate 11
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(obs, *args)

        monkeypatch.setattr(select_refine, "_icp_run", dying_run)
        cpu_count(monkeypatch, 2)
        clouds = [sample_surface_points(box, 10 + i, seed=i) for i in range(12)]
        with pytest.raises(ValueError, match=r"^ICP worker \d+ exited on signal 9 without sending its results$"):
            icp_refine_many(clouds, box, [Pose.identity()] * len(clouds), IcpConfig())


class TestDetectionCloud:
    def test_backprojects_mask_pixels(self, cam_small, box):
        cfg = RenderConfig(cam_small)
        pose = Pose(Rotation.identity(), [0, 0, 290.0])
        depth, mask = solo_frame(box, pose, cfg)
        cloud = detection_cloud(depth, mask > 0, cam_small)
        assert cloud.shape[0] == int((mask > 0).sum())
        assert abs(float(np.median(cloud[:, 2])) - 286.0) <= 1.0  # top face of the 8 mm box

    def test_subsampling(self, cam_small, box):
        cfg = RenderConfig(cam_small)
        depth, mask = solo_frame(box, Pose(Rotation.identity(), [0, 0, 290.0]), cfg)
        cloud = detection_cloud(depth, mask > 0, cam_small, max_points=100)
        assert cloud.shape == (100, 3)

    @pytest.mark.parametrize("case", ["empty", "top", "bottom", "left", "right", "whole_frame", "thinned"])
    def test_equals_full_frame_scan(self, cam_small, rng, case):
        # detection_cloud scans the mask's bbox only: the same points in the
        # same order as a scan of the whole frame, thinned the same way
        h, w = cam_small.height, cam_small.width
        depth = rng.integers(250, 350, size=(h, w)).astype(np.uint16)
        depth[rng.random((h, w)) < 0.2] = 0  # holes inside the mask too
        mask = np.zeros((h, w), bool)
        rows, cols = {"top": (np.s_[0:9], np.s_[30:50]), "bottom": (np.s_[h - 7 :], np.s_[10:40]),
                      "left": (np.s_[20:45], np.s_[0:6]), "right": (np.s_[5:30], np.s_[w - 11 :]),
                      "whole_frame": (np.s_[:], np.s_[:]), "thinned": (np.s_[12:60], np.s_[25:90]),
                      "empty": (np.s_[0:0], np.s_[0:0])}[case]
        mask[rows, cols] = rng.random(mask[rows, cols].shape) < 0.7
        max_points = 100 if case == "thinned" else None

        r, c = np.nonzero(mask & (depth > 0))
        want = back_project(cam_small, c + 0.5, r + 0.5, depth[r, c].astype(np.float64))
        if max_points is not None:
            assert want.shape[0] > max_points
            want = want[np.round(np.linspace(0, want.shape[0] - 1, max_points)).astype(int)]
        got = detection_cloud(depth, mask, cam_small, max_points)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.shape[0] == (0 if case == "empty" else min(int((mask & (depth > 0)).sum()), max_points or h * w))

    def test_image_sizes_must_match(self, cam_small):
        depth = np.ones((cam_small.height, cam_small.width), np.uint16)
        with pytest.raises(ValueError, match="image dimensions must match"):
            detection_cloud(depth, np.ones((cam_small.height, cam_small.width + 1), bool), cam_small)


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
                s = depth_error(depth, render_single(box, pose, rcfg), mask, rcfg, sel_cfg)
                scored.append((est(i), s))
            picked = select_top_k(scored, "depth_error", 10, sel_cfg)
            n_clean = sum(1 for e, _ in picked if e.detection_index not in corrupted)
            if n_clean >= 8:
                ok_trials += 1
        assert ok_trials / n_trials >= 0.90


def _run_python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports binpick from src."""
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120)
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
