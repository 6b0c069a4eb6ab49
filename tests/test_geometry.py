from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpick.geometry import (
    CameraIntrinsics,
    Pose,
    Rotation,
    SymmetrySet,
    back_project,
    compose,
    geodesic_distance,
    invert,
    load_mesh,
    load_symmetries,
    project,
    sample_surface_points,
    _read_records,
)


def write_mesh_text(path, text):
    path.write_text(text)
    return path


class TestLoadMesh:
    def test_right_triangle_diameter(self, tmp_path):
        p = write_mesh_text(tmp_path / "tri.txt", "v 0 0 0\nv 3 0 0\nv 0 4 0\nf 1 2 3\n")
        mesh = load_mesh(p)
        assert mesh.diameter == 5.0

    def test_cube_diameter(self, tmp_path):
        lines = []
        for x in (0.0, 10.0):
            for y in (0.0, 10.0):
                for z in (0.0, 10.0):
                    lines.append(f"v {x} {y} {z}")
        lines += ["f 1 2 3", "f 5 6 7"]
        mesh = load_mesh(write_mesh_text(tmp_path / "cube.txt", "\n".join(lines) + "\n"))
        assert mesh.diameter == pytest.approx(10.0 * math.sqrt(3.0), abs=1e-12)

    def test_non_triangular_face(self, tmp_path):
        p = write_mesh_text(tmp_path / "quad.txt", "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ValueError, match="non-triangular face"):
            load_mesh(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mesh(tmp_path / "nope.txt")

    def test_out_of_range_index(self, tmp_path):
        p = write_mesh_text(tmp_path / "bad.txt", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(ValueError, match="out of range"):
            load_mesh(p)

    def test_empty_mesh(self, tmp_path):
        p = write_mesh_text(tmp_path / "empty.txt", "v 0 0 0\n")
        with pytest.raises(ValueError, match="empty mesh"):
            load_mesh(p)

    def test_diameter_matches_brute_force(self, rng):
        from binpick.geometry import TriangleMesh

        for _ in range(5):
            verts = rng.normal(size=(40, 3)) * 20.0
            tris = rng.integers(0, 40, size=(30, 3))
            try:
                mesh = TriangleMesh(verts, tris)
            except ValueError:
                continue
            best = 0.0
            for i in range(len(verts)):
                for j in range(len(verts)):
                    best = max(best, float(np.linalg.norm(verts[i] - verts[j])))
            assert mesh.diameter == best


class TestPose:
    def test_identity_compose(self):
        p = compose(Pose.identity(), Pose.identity())
        assert np.allclose(p.translation, 0.0)
        assert p.rotation.angle_to(Rotation.identity()) == 0.0

    def test_inverse_roundtrip(self, rng):
        p = Pose(Rotation.random(rng), rng.normal(size=3) * 50)
        r = compose(p, invert(p))
        assert np.abs(r.translation).max() < 1e-9
        assert r.rotation.angle_to(Rotation.identity()) < 1e-9

    def test_translations_commute(self):
        a = Pose(Rotation.identity(), [1.0, 0.0, 0.0])
        b = Pose(Rotation.identity(), [0.0, 2.0, 0.0])
        assert np.allclose(compose(a, b).translation, [1.0, 2.0, 0.0])

    def test_associativity(self, rng):
        for _ in range(20):
            ps = [Pose(Rotation.random(rng), rng.normal(size=3) * 10) for _ in range(3)]
            left = compose(compose(ps[0], ps[1]), ps[2])
            right = compose(ps[0], compose(ps[1], ps[2]))
            assert np.abs(left.translation - right.translation).max() < 1e-9
            assert left.rotation.angle_to(right.rotation) < 1e-9

    def test_quaternion_canonical_sign(self):
        r = Rotation.from_quat(-1.0, 0.0, 0.0, 0.0)
        assert r.q[0] == 1.0
        r = Rotation.from_quat(0.0, -1.0, 0.0, 0.0)
        assert r.q[1] == 1.0


class TestProjection:
    def test_principal_point(self, cam):
        assert tuple(project(cam, np.array([0.0, 0.0, 300.0]))) == (320.0, 240.0)

    def test_offset_point(self, cam):
        # pinhole: u = cx + fx*x/z = 320 + 600*30/300 = 380
        assert tuple(project(cam, np.array([30.0, 0.0, 300.0]))) == (380.0, 240.0)

    def test_behind_camera(self, cam):
        with pytest.raises(ValueError, match="behind camera"):
            project(cam, np.array([0.0, 0.0, -1.0]))

    def test_back_project_principal(self, cam):
        assert np.allclose(back_project(cam, 320.0, 240.0, 300.0), [0.0, 0.0, 300.0])

    def test_back_project_roundtrip(self, cam):
        p = back_project(cam, 380.0, 240.0, 300.0)
        assert np.allclose(p, [30.0, 0.0, 300.0], atol=1e-9)

    def test_back_project_zero_depth(self, cam):
        with pytest.raises(ValueError):
            back_project(cam, 10.0, 10.0, 0.0)

    @given(
        u=st.floats(0, 639),
        v=st.floats(0, 479),
        z=st.floats(1.0, 5000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_project_backproject_identity(self, u, v, z):
        cam = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
        uv = project(cam, back_project(cam, u, v, z))
        assert abs(uv[0] - u) < 1e-9 and abs(uv[1] - v) < 1e-9


class TestGeodesic:
    def test_zero_for_equal(self, rng):
        r = Rotation.random(rng)
        assert geodesic_distance(r, r) == 0.0

    def test_half_turn(self):
        r = Rotation.from_axis_angle([0, 0, 1], math.pi)
        assert geodesic_distance(Rotation.identity(), r) == pytest.approx(math.pi, abs=1e-12)

    def test_quarter_turn(self):
        r = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
        assert geodesic_distance(Rotation.identity(), r) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_metric_properties(self, rng):
        for _ in range(50):
            a, b, c = (Rotation.random(rng) for _ in range(3))
            dab = geodesic_distance(a, b)
            assert dab == pytest.approx(geodesic_distance(b, a), abs=1e-12)
            assert dab <= geodesic_distance(a, c) + geodesic_distance(c, b) + 1e-9

    def test_symmetry_aware(self):
        sym = SymmetrySet((Rotation.from_axis_angle([0, 0, 1], math.pi),))
        r = Rotation.from_axis_angle([0, 0, 1], math.pi)
        assert geodesic_distance(Rotation.identity(), r, sym) == 0.0


class TestSurfaceSampling:
    def test_empty(self, box):
        assert sample_surface_points(box, 0, seed=0).shape == (0, 3)

    def test_deterministic(self, box):
        a = sample_surface_points(box, 100, seed=7)
        b = sample_surface_points(box, 100, seed=7)
        assert np.array_equal(a, b)

    def test_area_weighting(self):
        # two coplanar triangles with area ratio 1:2, separated in x so the
        # oracle can assign samples to triangles by coordinate
        from binpick.geometry import TriangleMesh

        verts = np.array(
            [
                [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],  # area 0.5
                [10.0, 0.0, 0.0], [12.0, 0.0, 0.0], [10.0, 1.0, 0.0],  # area 1.0
            ]
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        pts = sample_surface_points(mesh, 30000, seed=3)
        n_small = int((pts[:, 0] < 5.0).sum())
        n_large = 30000 - n_small
        assert n_large / n_small == pytest.approx(2.0, rel=0.05)


class TestSymmetryIO:
    def test_identity_inserted(self):
        sym = SymmetrySet((Rotation.from_axis_angle([1, 0, 0], math.pi),))
        assert len(sym.rotations) == 2
        assert sym.rotations[0].angle_to(Rotation.identity()) < 1e-9

    def test_file_roundtrip(self, tmp_path):
        from binpick.fileio import write_symmetries
        from binpick.shapes import box_symmetries

        path = tmp_path / "sym.txt"
        write_symmetries(path, box_symmetries())
        loaded = load_symmetries(path)
        assert len(loaded.rotations) == 4

    def test_rejects_non_rotation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 2 0 0 0 1\n")
        with pytest.raises(ValueError, match="not a rotation"):
            load_symmetries(path)


class TestReadRecords:
    """The streamed record reader numbers lines as str.splitlines() numbers the whole text."""

    SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["", "  ", "# note", "a 1", "b 2 3", "c\t4", "\xe9 5"]), st.sampled_from(SEPARATORS)
            ),
            max_size=25,
        ),
        last=st.sampled_from(["", "d 6", "# end"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_line_numbers_match_splitlines(self, tmp_path_factory, lines, last):
        path = tmp_path_factory.mktemp("records") / "records.txt"
        path.write_bytes(("".join(text + sep for text, sep in lines) + last).encode())
        expected = [
            (lineno, line.split())
            for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), start=1)
            if line.split() and not line.split()[0].startswith("#")
        ]
        records = _read_records(path, "record file", {None: (0, list)})
        assert [(lineno, fields) for lineno, _, fields in records] == expected

    def test_bad_record_named_at_its_line(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_bytes(b"v 1 2 3\r\n\x0cv 4 5 6\rv 7\xc2\x858\n")
        with pytest.raises(ValueError, match=r"records\.txt:4: 'v' record needs 3 fields, got 1"):
            _read_records(path, "record file", {"v": (3, list)})
