from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binpick import render
from binpick.geometry import CameraIntrinsics, Pose, Rotation, TriangleMesh
from binpick.render import (
    RenderConfig,
    _box_weights,
    area_resize,
    crop_square,
    mask_bbox,
    render_scene,
    render_single,
    render_windows,
    visibility_mask,
)
from binpick.shapes import make_box, make_lbracket
from conftest import solo_frame


def quad_mesh(half=400.0):
    verts = np.array([[-half, -half, 0.0], [half, -half, 0.0], [half, half, 0.0], [-half, half, 0.0]])
    return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def at_z(z):
    return Pose(Rotation.identity(), [0.0, 0.0, z])


@pytest.fixture()
def cfg(cam):
    return RenderConfig(cam)


class TestRenderScene:
    def test_full_frame_plane_depth(self, cfg):
        depth, ids, gray = render_scene([(quad_mesh(), at_z(300.0), 1)], cfg)
        assert (depth == 300).all()
        assert (ids == 1).all()
        assert (gray > 0).all()

    def test_zbuffer_ordering(self, cfg):
        depth, ids, _ = render_scene([(quad_mesh(), at_z(400.0), 2), (quad_mesh(), at_z(300.0), 1)], cfg)
        assert (depth == 300).all()
        assert (ids == 1).all()

    def test_empty_scene(self, cfg):
        depth, ids, gray = render_scene([], cfg)
        assert (depth == 0).all() and (ids == 0).all() and (gray == 0).all()

    def test_duplicate_ids_rejected(self, cfg):
        with pytest.raises(ValueError, match="duplicate"):
            render_scene([(quad_mesh(), at_z(300.0), 1), (quad_mesh(), at_z(400.0), 1)], cfg)

    def test_scene_equals_min_of_solo_renders(self, cfg, box, rng):
        instances = []
        for i in range(3):
            pose = Pose(Rotation.random(rng), [rng.uniform(-40, 40), rng.uniform(-30, 30), 300.0])
            instances.append((box, pose, i + 1))
        depth, ids, _ = render_scene(instances, cfg)
        solos = [solo_frame(m, p, cfg)[0] for m, p, _ in instances]
        stack = np.stack([np.where(d > 0, d.astype(np.int64), 1 << 30) for d in solos])
        min_depth = stack.min(axis=0)
        expect_depth = np.where(min_depth == 1 << 30, 0, min_depth)
        assert np.array_equal(depth.astype(np.int64), expect_depth)
        argmin = stack.argmin(axis=0) + 1  # ties to lower id via argmin
        expect_ids = np.where(expect_depth == 0, 0, argmin)
        assert np.array_equal(ids.astype(np.int64), expect_ids)


class TestRenderSingle:
    def test_behind_camera_empty(self, cfg, box):
        depth, mask = solo_frame(box, at_z(-500.0), cfg)
        assert (depth == 0).all() and (mask == 0).all()

    def test_no_shading(self, cfg, box, monkeypatch):
        # a solo render returns depth only, so it shades no triangle
        monkeypatch.setattr(render, "_shades", lambda *args: pytest.fail("render_single shaded its triangles"))
        window, _ = render_single(box, at_z(300.0), cfg)
        assert window.any()

    def test_deterministic(self, cfg, box, rng):
        pose = Pose(Rotation.random(rng), [10.0, -5.0, 280.0])
        a = render_single(box, pose, cfg)
        b = render_single(box, pose, cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_mask_equals_covered_pixels(self, cfg):
        depth, _ = solo_frame(quad_mesh(50.0), at_z(300.0), cfg)
        _, mask, _ = render_scene([(quad_mesh(50.0), at_z(300.0), 1)], cfg)
        assert np.array_equal(mask > 0, depth > 0)
        assert (depth[depth > 0] == 300).all()

    def test_shared_edge_no_double_cover(self, cfg):
        # two triangles sharing a diagonal tile the quad exactly once
        verts = np.array([[-50.0, -50.0, 0.0], [50.0, -50.0, 0.0], [50.0, 50.0, 0.0], [-50.0, 50.0, 0.0]])
        t1 = TriangleMesh(verts[:3], np.array([[0, 1, 2]]))
        t2 = TriangleMesh(verts[[0, 2, 3]], np.array([[0, 1, 2]]))
        _, m1 = solo_frame(t1, at_z(300.0), cfg)
        _, m2 = solo_frame(t2, at_z(300.0), cfg)
        _, mq = solo_frame(quad_mesh(50.0), at_z(300.0), cfg)
        assert ((m1 > 0) & (m2 > 0)).sum() == 0
        assert np.array_equal((m1 > 0) | (m2 > 0), mq > 0)


class TestVisibilityMask:
    def test_unoccluded_equals_solo_mask(self, cfg):
        solo, _ = solo_frame(quad_mesh(50.0), at_z(300.0), cfg)
        vis = visibility_mask(solo, solo, tol_mm=1.0)
        assert np.array_equal(vis, solo > 0)

    def test_occluder_excludes_pixels(self, cfg):
        # derived fixture: occluder quad at 200 in front of a larger quad at 300
        behind, _ = solo_frame(quad_mesh(80.0), at_z(300.0), cfg)
        occluder = Pose(Rotation.identity(), [40.0, 0.0, 200.0])
        front, _ = solo_frame(quad_mesh(30.0), occluder, cfg)
        scene = np.where((front > 0) & ((behind == 0) | (front <= behind)), front, behind)
        vis = visibility_mask(behind, scene.astype(np.uint16), tol_mm=1.0)
        # per-pixel oracle
        expect = (behind > 0) & (behind.astype(float) <= scene + 1.0)
        assert np.array_equal(vis, expect)
        assert vis.sum() < (behind > 0).sum()  # occlusion really removed pixels

    def test_tolerance_saturation(self, cfg):
        solo, _ = solo_frame(quad_mesh(50.0), at_z(300.0), cfg)
        vis = visibility_mask(solo, np.zeros_like(solo), tol_mm=np.inf)
        assert np.array_equal(vis, solo > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            visibility_mask(np.zeros((2, 2), np.uint16), np.zeros((3, 3), np.uint16), 1.0)


class TestImageOps:
    def test_crop_identity(self):
        img = np.arange(100.0).reshape(10, 10)
        out = crop_square(img, 5.0, 5.0, 10)
        assert np.array_equal(out, img)

    def test_crop_zero_padding(self):
        # window centered on the image corner: content fills the far quadrant
        img = np.ones((10, 10))
        out = crop_square(img, 0.0, 0.0, 10)
        assert (out[5:, 5:] == 1).all() and out.sum() == 25

    def test_area_resize_block_mean(self):
        img = np.arange(16.0).reshape(4, 4)
        out = area_resize(img, 2, 2)
        assert np.array_equal(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_area_resize_preserves_mean(self, rng):
        img = rng.random((13, 17))
        out = area_resize(img, 5, 7)
        assert out.mean() == pytest.approx(img.mean(), abs=1e-12)

    def test_mask_bbox(self, rng):
        assert mask_bbox(np.zeros((6, 9), bool)) is None
        for _ in range(20):
            mask = rng.random((6, 9)) < 0.1
            if not mask.any():
                continue
            rows, cols = np.nonzero(mask)
            x, y = cols.min(), rows.min()
            assert mask_bbox(mask) == (x, y, cols.max() - x + 1, rows.max() - y + 1)


# ---------------------------------------------------------------------------
# slow reference rasterizer: one triangle at a time, in mesh order

def _oracle_render_scene(instances, cfg):
    k = cfg.intrinsics
    qbuf = np.full((k.height, k.width), 65535, dtype=np.uint16)
    idbuf = np.zeros((k.height, k.width), dtype=np.uint16)
    graybuf = np.zeros((k.height, k.width), dtype=np.float64)
    for mesh, pose, iid in instances:
        verts = pose.transform(mesh.vertices)
        tris = mesh.triangles
        normals = np.cross(verts[tris[:, 1]] - verts[tris[:, 0]], verts[tris[:, 2]] - verts[tris[:, 0]])
        flip = (normals * verts[tris].mean(axis=1)).sum(axis=1) > 0
        normals[flip] = -normals[flip]
        norms = np.sqrt((normals**2).sum(axis=1))
        ok = norms > 1e-12
        shades = np.zeros(len(tris))
        shades[ok] = np.clip((normals[ok] / norms[ok, None] * cfg.light_dir).sum(axis=1), 0.0, 1.0)
        for t in range(len(tris)):
            for clipped in _oracle_clip_near(verts[tris[t]], cfg.near_mm):
                _oracle_raster_triangle(qbuf, idbuf, graybuf, clipped, k, int(iid), shades[t], cfg.far_mm)
    return np.where(idbuf > 0, qbuf, 0).astype(np.uint16), idbuf, graybuf


def _oracle_clip_near(tri, near):
    inside = tri[:, 2] >= near
    if inside.all():
        yield tri
        return
    poly = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        if inside[i]:
            poly.append(a)
        if inside[i] != inside[(i + 1) % 3]:
            s = (near - a[2]) / (b[2] - a[2])
            poly.append(a + s * (b - a))
    for j in range(1, len(poly) - 1):
        yield np.array([poly[0], poly[j], poly[j + 1]])


def _oracle_edge(a, b, c):
    return float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _oracle_raster_triangle(qbuf, idbuf, graybuf, tri, k, iid, shade, far):
    h, w = qbuf.shape
    z = tri[:, 2]
    p = np.stack([k.cx + k.fx * tri[:, 0] / z, k.cy + k.fy * tri[:, 1] / z], axis=1)
    area2 = _oracle_edge(p[0], p[1], p[2])
    if area2 == 0.0:
        return
    if area2 < 0.0:
        p, z, area2 = p[[0, 2, 1]], z[[0, 2, 1]], -area2
    c0 = max(0, math.ceil(p[:, 0].min() - 0.5))
    c1 = min(w - 1, math.floor(p[:, 0].max() - 0.5))
    r0 = max(0, math.ceil(p[:, 1].min() - 0.5))
    r1 = min(h - 1, math.floor(p[:, 1].max() - 0.5))
    if c0 > c1 or r0 > r1:
        return
    px, py = np.meshgrid(np.arange(c0, c1 + 1) + 0.5, np.arange(r0, r1 + 1) + 0.5)
    cover = np.ones(px.shape, dtype=bool)
    bary = []
    for a, b in ((1, 2), (2, 0), (0, 1)):
        e = (p[b, 0] - p[a, 0]) * (py - p[a, 1]) - (p[b, 1] - p[a, 1]) * (px - p[a, 0])
        dy = p[b, 1] - p[a, 1]
        dx = p[b, 0] - p[a, 0]
        top_left = (dy == 0.0 and dx > 0.0) or dy < 0.0
        cover &= (e > 0.0) | ((e == 0.0) & top_left)
        bary.append(e / area2)
    inv_z = bary[0] / z[0] + bary[1] / z[1] + bary[2] / z[2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        depth = 1.0 / inv_z
    cover &= np.isfinite(depth) & (depth <= far)
    q = np.rint(depth).clip(1, 65534).astype(np.uint16)
    window_q = qbuf[r0 : r1 + 1, c0 : c1 + 1]
    window_id = idbuf[r0 : r1 + 1, c0 : c1 + 1]
    win = cover & ((q < window_q) | ((q == window_q) & (iid < window_id)))
    window_q[win] = q[win]
    window_id[win] = iid
    graybuf[r0 : r1 + 1, c0 : c1 + 1][win] = shade


def _with_degenerate_triangles(mesh):
    """The mesh plus a repeated-vertex and a collinear (zero-area) triangle."""
    v = mesh.vertices
    verts = np.vstack([v, (v[0] + v[1]) / 2.0])
    extra = [[0, 0, 1], [0, len(v), 1]]
    return TriangleMesh(verts, np.vstack([mesh.triangles, extra]))


_MESHES = {
    "box": make_box(),
    "lbracket": make_lbracket(),
    "quad": quad_mesh(15.0),
    "degenerate": _with_degenerate_triangles(make_lbracket()),
}


@st.composite
def _scenes(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instances = []
    for i in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(_MESHES)))
        t = [rng.uniform(-25, 25), rng.uniform(-20, 20), rng.uniform(60, 200)]
        instances.append((_MESHES[name], Pose(Rotation.random(rng), t), i + 1))
    if draw(st.booleans()):
        # a second copy at the same pose: every covered pixel is a depth tie
        mesh, pose, _ = instances[draw(st.integers(0, len(instances) - 1))]
        instances.append((mesh, pose, len(instances) + 1))
    if draw(st.booleans()):
        # overlapping coplanar quads at one depth; the principal point sits on
        # a pixel center, so their edges along x = 0 and y = 0 cross pixel centers
        z = float(rng.uniform(60, 200))
        for offset in ([0.0, 15.0, z], [15.0, 0.0, z]):
            instances.append((_MESHES["quad"], Pose(Rotation.identity(), offset), len(instances) + 1))
    order = rng.permutation(len(instances))
    instances = [instances[j][:2] + (int(instances[order[j]][2]),) for j in range(len(instances))]
    near = draw(st.sampled_from([10.0, 55.0, 90.0, 140.0]))
    far = draw(st.sampled_from([5000.0, 150.0, 190.0]))
    return instances, near, max(far, near + 1.0)


class TestBatchedRasterizer:
    cam = CameraIntrinsics(120.0, 110.0, 32.5, 24.5, 64, 48)

    @settings(max_examples=60, deadline=None)
    @given(_scenes())
    def test_matches_per_triangle_oracle(self, scene):
        instances, near, far = scene
        cfg = RenderConfig(self.cam, near_mm=near, far_mm=far)
        got = render_scene(instances, cfg)
        want = _oracle_render_scene(instances, cfg)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_frame_filling_triangles_split_into_groups(self, cfg, monkeypatch):
        # near-plane clipping leaves triangles larger than one raster group
        groups = []
        raster_group = render._raster_group
        monkeypatch.setattr(render, "_raster_group", lambda *a: groups.append(1) or raster_group(*a))
        pose = Pose(Rotation.from_axis_angle([1.0, 0.0, 0.0], 1.2), [0.0, 0.0, 40.0])
        rcfg = RenderConfig(cfg.intrinsics, near_mm=30.0)
        instances = [(quad_mesh(2000.0), pose, 2), (make_box(), at_z(35.0), 1)]
        got = render_scene(instances, rcfg)
        want = _oracle_render_scene(instances, rcfg)
        assert len(groups) > len(instances)
        assert (got[1] == 2).any() and (got[1] == 1).any()
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@st.composite
def _solo_poses(draw):
    """A mesh and a pose in the frame, across a frame edge, crossing the near
    plane or behind the camera, and a near plane."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["in_frame", "edge", "near", "behind"]))
    z = {"in_frame": rng.uniform(60, 200), "edge": rng.uniform(60, 200),
         "near": rng.uniform(-10, 30), "behind": rng.uniform(-300, -20)}[kind]
    # the frame's half-width and half-height are about 0.27 z at this camera
    reach = 0.5 if kind == "edge" else 0.1
    t = [rng.uniform(-reach, reach) * abs(z), rng.uniform(-reach, reach) * abs(z), z]
    mesh = _MESHES[draw(st.sampled_from(sorted(_MESHES)))]
    return mesh, Pose(Rotation.random(rng), t), draw(st.sampled_from([10.0, 20.0]))


class TestRenderSingleWindow:
    cam = TestBatchedRasterizer.cam

    @settings(max_examples=150, deadline=None)
    @given(_solo_poses())
    def test_window_is_the_solo_scene_render(self, solo):
        mesh, pose, near = solo
        cfg = RenderConfig(self.cam, near_mm=near)
        window, (row, col) = render_single(mesh, pose, cfg)
        assert window.dtype == np.uint16
        assert 0 <= row and 0 <= col
        assert row + window.shape[0] <= self.cam.height and col + window.shape[1] <= self.cam.width
        if window.size == 0:
            assert window.shape == (0, 0) and (row, col) == (0, 0)
        depth, _ = solo_frame(mesh, pose, cfg)
        assert depth.tobytes() == render_scene([(mesh, pose, 1)], cfg)[0].tobytes()

    def test_window_is_the_projected_bbox(self, cfg, box):
        window, (row, col) = render_single(box, at_z(300.0), cfg)
        # 23 x 36 mm box, front face at 296 mm: u in 320 -+ 23.31 covers pixel
        # centers of columns 297..342, v in 240 -+ 36.49 those of rows 204..275
        assert (row, col) == (204, 297) and window.shape == (72, 46)
        assert (window > 0).all()


@st.composite
def _window_batches(draw):
    """A mesh, 1-40 poses of it (in the frame, across a frame edge, crossing
    the near plane, behind the camera, or in front of it but off the frame),
    a near plane, and window-pixel and raster-group budgets to batch them by."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poses = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["in_frame", "edge", "near", "behind", "empty"]))
        z = {"in_frame": rng.uniform(60, 200), "edge": rng.uniform(60, 200), "near": rng.uniform(-10, 30),
             "behind": rng.uniform(-300, -20), "empty": rng.uniform(60, 200)}[kind]
        reach = {"edge": 0.5, "empty": 2.0}.get(kind, 0.1)
        t = [rng.uniform(-reach, reach) * abs(z), rng.uniform(-reach, reach) * abs(z), z]
        if kind == "empty":
            t[0] = np.copysign(max(abs(t[0]), 1.5 * z), t[0])  # wholly left or right of the frame
        poses.append(Pose(Rotation.random(rng), t))
    mesh = _MESHES[draw(st.sampled_from(sorted(_MESHES)))]
    window_px = draw(st.sampled_from([1, 300, 2000, render._WINDOW_PX]))
    group_px = draw(st.sampled_from([40, 700, render._GROUP_PX]))
    return mesh, poses, draw(st.sampled_from([10.0, 20.0])), window_px, group_px


class TestRenderWindows:
    cam = TestBatchedRasterizer.cam

    @settings(max_examples=120, deadline=None)
    @given(_window_batches())
    def test_windows_equal_solo_windows(self, batch):
        mesh, poses, near, window_px, group_px = batch
        cfg = RenderConfig(self.cam, near_mm=near)
        want = [render_single(mesh, pose, cfg) for pose in poses]
        with mock.patch.object(render, "_WINDOW_PX", window_px), mock.patch.object(render, "_GROUP_PX", group_px):
            got = render_windows(mesh, poses, cfg)
        assert len(got) == len(poses)
        for (window, origin), (solo, solo_origin) in zip(got, want):
            assert window.dtype == np.uint16 and window.shape == solo.shape
            assert window.tobytes() == solo.tobytes() and origin == solo_origin

    def test_budget_cuts_batches(self, cfg, box, monkeypatch):
        # 102 windows of about 4500 px: batches of at most _WINDOW_PX window pixels, none empty
        rng = np.random.default_rng(0)
        poses = [Pose(Rotation.random(rng), [rng.uniform(-120, 120), rng.uniform(-90, 90), rng.uniform(250, 330)])
                 for _ in range(102)]
        sizes, zbuffer = [], render._zbuffer
        monkeypatch.setattr(render, "_zbuffer", lambda b, c, windows, **kw: sizes.append(
            int((windows[:, 2] * windows[:, 3]).sum())) or zbuffer(b, c, windows, **kw))
        got = render_windows(box, poses, cfg)
        assert sum(sizes) == sum(window.size for window, _ in got)
        assert 1 < len(sizes) < len(poses) and max(sizes) <= render._WINDOW_PX

    def test_no_poses(self, cfg, box):
        assert render_windows(box, [], cfg) == []


@st.composite
def _shaded_batches(draw):
    """A mesh, one to six poses of it (in the frame, across a frame edge,
    crossing the near plane, behind the camera or beyond the far plane), near
    and far planes, and window-pixel and raster-group budgets to batch them by."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poses = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["in_frame", "edge", "near", "behind", "far"]))
        z = {"in_frame": rng.uniform(60, 200), "edge": rng.uniform(60, 200), "near": rng.uniform(-10, 30),
             "behind": rng.uniform(-300, -20), "far": rng.uniform(150, 260)}[kind]
        reach = 0.5 if kind == "edge" else 0.1
        poses.append(Pose(Rotation.random(rng), [rng.uniform(-reach, reach) * abs(z), rng.uniform(-reach, reach) * abs(z), z]))
    mesh = _MESHES[draw(st.sampled_from(sorted(_MESHES)))]
    planes = draw(st.sampled_from([10.0, 20.0])), draw(st.sampled_from([5000.0, 190.0]))
    return mesh, poses, planes, draw(st.sampled_from([1, 2000, render._WINDOW_PX])), draw(st.sampled_from([40, render._GROUP_PX]))


class TestShadedWindows:
    cam = TestBatchedRasterizer.cam

    @settings(max_examples=80, deadline=None)
    @given(_shaded_batches())
    def test_shaded_windows_equal_scene_renders(self, batch):
        mesh, poses, (near, far), window_px, group_px = batch
        cfg = RenderConfig(self.cam, near_mm=near, far_mm=far)
        with mock.patch.object(render, "_WINDOW_PX", window_px), mock.patch.object(render, "_GROUP_PX", group_px):
            got = render_windows(mesh, poses, cfg, shaded=True)
        assert len(got) == len(poses)
        for (depth, (row, col), gray), pose in zip(got, poses):
            want_depth, _, want_gray = render_scene([(mesh, pose, 1)], cfg)
            cut = np.s_[row : row + depth.shape[0], col : col + depth.shape[1]]
            assert depth.dtype == np.uint16 and gray.dtype == np.float64 and gray.shape == depth.shape
            assert depth.tobytes() == want_depth[cut].tobytes() and gray.tobytes() == want_gray[cut].tobytes()
            # no drawn pixel lies outside the window
            assert np.count_nonzero(depth) == np.count_nonzero(want_depth)
            assert np.count_nonzero(gray) == np.count_nonzero(want_gray)


# Pixel coordinates equal camera x + 32, y + 24 at z = 100, exactly for the
# half-integer pixel centers, so edges can be placed through them.
_SOUP_CAM = CameraIntrinsics(100.0, 100.0, 32.0, 24.0, 64, 48)


def _lift(u, v, z):
    """Camera-space point at depth z that _SOUP_CAM projects to (u, v)."""
    return [(u - 32.0) * z / 100.0, (v - 24.0) * z / 100.0, z]


@st.composite
def _hard_triangles(draw):
    """A triangle soup that bounds rows awkwardly: slivers, near-horizontal
    edges down to |dy| = 1e-12 px, edges through pixel centers, or triangles
    across the near plane (20 mm). Vertices reach past every frame edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sliver", "near_horizontal", "pixel_centers", "near_plane"]))
    lo, hi = [-10.0, -10.0], [74.0, 58.0]
    verts = []
    for _ in range(draw(st.integers(1, 6))):
        a, b, c = rng.uniform(lo, hi, size=(3, 2))
        z = rng.uniform(40.0, 200.0, size=3)
        if kind == "sliver":
            normal = np.array([a[1] - b[1], b[0] - a[0]]) / max(np.hypot(*(b - a)), 1e-9)
            c = a + rng.uniform(-0.5, 1.5) * (b - a) + normal * rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-9, 0)
        elif kind == "near_horizontal":
            b = a + [rng.uniform(-70.0, 70.0), rng.choice([-1.0, 0.0, 1.0]) * 10 ** rng.uniform(-12, -1)]
            z[1] = z[0]
        elif kind == "pixel_centers":
            # a and b on a line through every few pixel centers, at whole or
            # fractional steps: the centers lie on the edge or within rounding
            center = np.floor(rng.uniform(lo, hi)) + 0.5
            step = rng.integers(-4, 5, size=2) + [0, 0.5 - 0.5 * rng.integers(2)]
            s, t = -rng.uniform(1.0, 30.0, size=2) * [1, -1]
            if rng.integers(2):
                s, t = np.ceil(s), np.floor(t)
            a, b = center + s * step, center + t * step
            c = np.floor(rng.uniform(lo, hi)) + 0.5
            z[:] = 100.0
        else:
            z = rng.uniform(-60.0, 60.0, size=3)
            z[rng.integers(3)] = rng.uniform(20.5, 200.0)
        verts += [_lift(*p, zi) for p, zi in zip((a, b, c), z)]
    return TriangleMesh(np.array(verts), np.arange(len(verts)).reshape(-1, 3))


class TestRowSpans:
    """The row-span rasterizer against the bbox-testing oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_hard_triangles(), _hard_triangles())
    def test_scene_matches_oracle(self, first, second):
        cfg = RenderConfig(_SOUP_CAM, near_mm=20.0)
        instances = [(first, Pose.identity(), 2), (second, Pose.identity(), 1)]
        got = render_scene(instances, cfg)
        want = _oracle_render_scene(instances, cfg)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_hard_triangles())
    def test_solo_window_matches_oracle(self, mesh):
        cfg = RenderConfig(_SOUP_CAM, near_mm=20.0)
        window, (row, col) = render_single(mesh, Pose.identity(), cfg)
        want = _oracle_render_scene([(mesh, Pose.identity(), 1)], cfg)[0]
        got = np.zeros_like(want)
        got[row : row + window.shape[0], col : col + window.shape[1]] = window
        assert got.tobytes() == want.tobytes()

    def test_tests_at_most_half_the_bbox_pixels(self, cam, box, monkeypatch):
        rng = np.random.default_rng(0)
        instances = [
            (box, Pose(Rotation.random(rng), [rng.uniform(-120, 120), rng.uniform(-90, 90), rng.uniform(250, 330)]), i + 1)
            for i in range(40)
        ]
        cfg = RenderConfig(cam)
        tested = []
        span_pixels = render._span_pixels

        def counted(lo, length):
            tested.append(int(length.sum()))
            return span_pixels(lo, length)

        monkeypatch.setattr(render, "_span_pixels", counted)
        depth, _, _ = render_scene(instances, cfg)
        bbox = sum(
            _oracle_bbox_pixels(clipped, cam)
            for mesh, pose, _ in instances
            for tri in pose.transform(mesh.vertices)[mesh.triangles]
            for clipped in _oracle_clip_near(tri, cfg.near_mm)
        )
        assert (depth > 0).sum() <= sum(tested) <= 0.5 * bbox


def _oracle_bbox_pixels(tri, k):
    """Pixels in the frame-clipped bbox of a triangle with nonzero area."""
    p = np.stack([k.cx + k.fx * tri[:, 0] / tri[:, 2], k.cy + k.fy * tri[:, 1] / tri[:, 2]], axis=1)
    if _oracle_edge(p[0], p[1], p[2]) == 0.0:
        return 0
    cols = min(k.width - 1, math.floor(p[:, 0].max() - 0.5)) - max(0, math.ceil(p[:, 0].min() - 0.5)) + 1
    rows = min(k.height - 1, math.floor(p[:, 1].max() - 0.5)) - max(0, math.ceil(p[:, 1].min() - 0.5)) + 1
    return max(cols, 0) * max(rows, 0)


def _oracle_area_resize(img, out_h, out_w):
    """The dense product of both axes' _box_weights rows, rows first."""
    tmp = np.einsum("oi,ij->oj", _box_weights(img.shape[0], out_h), img, optimize=False)
    return np.einsum("oj,pj->op", tmp, _box_weights(img.shape[1], out_w), optimize=False)


def _image(rng, h, w, zeros):
    """Values from 1e-6 to 1e6 of both signs, a zeros share of them 0."""
    img = rng.random((h, w)) * 10.0 ** rng.integers(-6, 7, size=(h, w)) * rng.choice([-1.0, 1.0], size=(h, w))
    img[rng.random((h, w)) < zeros] = 0.0
    return img


class TestAreaResizeTwoTaps:
    """area_resize against the dense product, bit for bit; an upsampled axis takes two taps."""

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.9]))
    def test_every_crop_side_to_128(self, seed, zeros):
        rng = np.random.default_rng(seed)
        for n_in in range(1, 129):
            img = _image(rng, n_in, n_in, zeros)
            got = area_resize(img, 128, 128)
            assert got.flags.c_contiguous
            assert got.tobytes() == _oracle_area_resize(img, 128, 128).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 160), st.integers(1, 160), st.integers(1, 160), st.integers(1, 160),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.9]))
    def test_non_square(self, h, w, out_h, out_w, seed, zeros):
        assume(h % out_h or w % out_w)  # divisible sizes take block means
        img = _image(np.random.default_rng(seed), h, w, zeros)
        got = area_resize(img, out_h, out_w)
        assert got.flags.c_contiguous
        assert got.tobytes() == _oracle_area_resize(img, out_h, out_w).tobytes()


def _oracle_box_weights(n_in, n_out):
    scale = n_in / n_out
    weights = np.zeros((n_out, n_in))
    edges = np.arange(n_in + 1, dtype=np.float64)
    for o in range(n_out):
        lo, hi = o * scale, (o + 1) * scale
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        weights[o] = np.clip(overlap, 0.0, None) / scale
    return weights


class TestBoxWeights:
    @pytest.mark.parametrize(
        "n_in,n_out", [(61, 128), (200, 128), (7, 5), (5, 7), (128, 32), (97, 128), (1, 3), (3, 1)]
    )
    def test_matches_loop_and_rows_sum_to_one(self, n_in, n_out):
        w = _box_weights(n_in, n_out)
        want = _oracle_box_weights(n_in, n_out)
        assert w.shape == (n_out, n_in) and w.dtype == np.float64
        assert w.tobytes() == want.tobytes()
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
