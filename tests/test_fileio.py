from __future__ import annotations

import csv
import json
import re
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpick import fileio
from binpick.bopeval import EvalReport
from binpick.codebook import Codebook, EmbedderSpec, build_codebook, sample_rotations
from binpick.geometry import Pose, Rotation, load_mesh, load_symmetries
from binpick.pipeline import PoseEstimate
from binpick.render import RenderConfig
from binpick.scenegen import SceneConfig, generate_scene, gt_detections
from binpick.select_refine import SelectionScore
from binpick.shapes import box_symmetries


def scene_files(root, scene_id: int, *parts) -> list:
    """Paths of the named SCENE_FILES parts of one scene."""
    return [fileio.scene_dir(root, scene_id) / fileio.SCENE_FILES[part] for part in parts]


class TestPgm:
    def test_pgm16_roundtrip(self, rng, tmp_path):
        img = rng.integers(0, 65536, size=(37, 53)).astype(np.uint16)
        fileio.write_pgm16(tmp_path / "d.pgm", img)
        assert np.array_equal(fileio.read_pgm16(tmp_path / "d.pgm"), img)

    def test_pgm8_roundtrip_quantized(self, rng, tmp_path):
        img = rng.random((20, 30))
        fileio.write_pgm8(tmp_path / "g.pgm", img)
        back = fileio.read_pgm8(tmp_path / "g.pgm")
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_pgm16_deterministic_bytes(self, rng, tmp_path):
        img = rng.integers(0, 65536, size=(8, 8)).astype(np.uint16)
        fileio.write_pgm16(tmp_path / "a.pgm", img)
        fileio.write_pgm16(tmp_path / "b.pgm", img)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_missing_file_named(self, tmp_path):
        path = tmp_path / "d.pgm"
        for read in (fileio.read_pgm16, fileio.read_pgm8):
            with pytest.raises(FileNotFoundError, match=f"^missing image: {re.escape(str(path))}$"):
                read(path)


class TestMeshIO:
    def test_roundtrip(self, box, tmp_path):
        fileio.write_mesh(tmp_path / "m.txt", box)
        back = load_mesh(tmp_path / "m.txt")
        assert np.array_equal(back.vertices, box.vertices)
        assert np.array_equal(back.triangles, box.triangles)
        assert back.diameter == box.diameter


class TestRle:
    def test_known_encoding(self):
        mask = np.array([[0, 1, 1], [0, 0, 1]], bool)
        assert fileio.encode_rle(mask) == [1, 2, 2, 1]
        assert np.array_equal(fileio.decode_rle([1, 2, 2, 1], (2, 3)), mask)

    def test_leading_one(self):
        mask = np.array([[1, 0]], bool)
        runs = fileio.encode_rle(mask)
        assert runs[0] == 0
        assert np.array_equal(fileio.decode_rle(runs, (1, 2)), mask)

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, bits):
        mask = np.array(bits, bool).reshape(1, -1)
        assert np.array_equal(fileio.decode_rle(fileio.encode_rle(mask), mask.shape), mask)

    def test_bad_cover(self):
        with pytest.raises(ValueError):
            fileio.decode_rle([1, 1], (2, 3))


class TestSceneRoundTrip:
    def test_gt_poses_exact(self, box, cam_small, tmp_path):
        rcfg = RenderConfig(cam_small)
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=5, master_seed=1), rcfg)
        fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        loaded = fileio.load_gt_poses(*scene_files(tmp_path, 0, "camera", "gt"))
        assert loaded.intrinsics == gt.intrinsics
        for a, b in zip(loaded.instances, gt.instances):
            assert np.array_equal(a.pose_cam.rotation.q, b.pose_cam.rotation.q)
            assert np.array_equal(a.pose_cam.translation, b.pose_cam.translation)
            assert a.visible_fraction == b.visible_fraction

    @pytest.mark.parametrize("visible", ["nan", "-0.1", "1.7"])
    def test_gt_visible_fraction_outside_unit_interval(self, box, cam_small, tmp_path, visible):
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=2, master_seed=1), RenderConfig(cam_small))
        fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        camera, path = scene_files(tmp_path, 0, "camera", "gt")
        lines = path.read_text().splitlines()
        n = max(i for i, line in enumerate(lines, start=1) if line.startswith("inst "))
        lines[n - 1] = lines[n - 1].rsplit(" ", 1)[0] + f" {visible}"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:{n}: visible_fraction must be in [0, 1], got '{visible}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fileio.load_gt_poses(camera, path)

    def test_detections_roundtrip(self, box, cam_small, tmp_path):
        rcfg = RenderConfig(cam_small)
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=5, master_seed=2), rcfg)
        fileio.write_scene(tmp_path, 3, gt, depth, ids, gray)
        dets = gt_detections(ids, gt, image_id=3)
        fileio.write_detections(tmp_path, 3, dets)
        back = fileio.load_detections(*scene_files(tmp_path, 3, "dets"), ids.shape, 3)
        assert len(back) == len(dets)
        for a, b in zip(back, dets):
            assert a.image_id == b.image_id == 3
            assert a.bbox == b.bbox and a.score == b.score
            assert np.array_equal(a.mask, b.mask)

    def test_scene_images_named(self, box, cam_small, tmp_path):
        rcfg = RenderConfig(cam_small)
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=3, master_seed=4), rcfg)
        fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        all_three = fileio.load_scene_images(*scene_files(tmp_path, 0, "depth", "instance_map", "gray"))
        assert [a.dtype for a in all_three] == [np.uint16, np.uint16, np.float64]
        got_gray, got_depth = fileio.load_scene_images(*scene_files(tmp_path, 0, "gray", "depth"), shape=depth.shape)
        assert np.array_equal(got_gray, all_three[2]) and np.array_equal(got_depth, depth)
        assert fileio.load_scene_images(*scene_files(tmp_path, 0, "instance_map"))[0].shape == ids.shape
        with pytest.raises(ValueError, match=r"depth\.pgm: shape .*, camera\.txt says \(1, 1\)"):
            fileio.load_scene_images(*scene_files(tmp_path, 0, "depth"), shape=(1, 1))

    def test_camera_trailing_fields_not_read(self, box, cam_small, tmp_path):
        rcfg = RenderConfig(cam_small)
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=2, master_seed=5), rcfg)
        fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        path = fileio.scene_dir(tmp_path, 0) / "camera.txt"
        path.write_text("".join(f"{line} extra\n" for line in path.read_text().splitlines()))
        k, cam_from_bin = fileio.load_camera(path)
        assert k == gt.intrinsics
        assert np.array_equal(cam_from_bin.rotation.q, gt.cam_from_bin.rotation.q)
        assert np.array_equal(cam_from_bin.translation, gt.cam_from_bin.translation)

    def test_camera_key_repeats(self, box, cam_small, tmp_path):
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=2, master_seed=5), RenderConfig(cam_small))
        fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        path = fileio.scene_dir(tmp_path, 0) / "camera.txt"
        path.write_text(path.read_text() + "fx 900.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:9: fx repeats line 1$"):
            fileio.load_camera(path)

    def test_scene_files_are_the_written_files(self, box, cam_small, tmp_path):
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=2, master_seed=5), RenderConfig(cam_small))
        written = fileio.write_scene(tmp_path, 0, gt, depth, ids, gray) + fileio.write_detections(tmp_path, 0, [])
        assert written == scene_files(tmp_path, 0, *fileio.SCENE_FILES)

    def test_scene_ids(self, tmp_path):
        for name in ("scene_000002", "scene_000000", "other"):
            (tmp_path / name).mkdir()
        assert fileio.list_scene_ids(tmp_path) == [0, 2]
        assert fileio.list_scene_ids(tmp_path / "absent") == []

    @pytest.mark.parametrize("name", ["scene_000001_backup", "scene_x", "scene_1", "scene_0000001", "scene_000001"])
    def test_stray_scene_entry(self, tmp_path, name):
        (tmp_path / "scene_000000").mkdir()
        stray = tmp_path / name
        if name == "scene_000001":
            stray.write_text("")  # a file under a scene directory's name
        else:
            stray.mkdir()
        with pytest.raises(ValueError, match=f"^{re.escape(str(stray))}: not a scene directory"):
            fileio.list_scene_ids(tmp_path)


# the nine codebook header keys, in write_codebook's order
CODEBOOK_HEADER_KEYS = ("codebook", "object_id", "embedder", "embedder_fingerprint", "render_fingerprint", "z_ref_mm",
                        "fx_ref_px", "dimension", "entries")


class TestCodebookIO:
    def test_roundtrip_exact(self, lbracket, codebook_cam, tmp_path):
        cb = build_codebook(
            lbracket, sample_rotations(6, seed=0), EmbedderSpec(), RenderConfig(codebook_cam), 300.0
        )
        fileio.write_codebook(tmp_path / "cb.txt", cb)
        back = fileio.load_codebook(tmp_path / "cb.txt")
        assert np.array_equal(back.embeddings, cb.embeddings)
        assert np.array_equal(back.view_diagonals_px, cb.view_diagonals_px)
        assert all(np.array_equal(a.q, b.q) for a, b in zip(back.rotations, cb.rotations))
        assert back.z_ref_mm == cb.z_ref_mm
        assert back.render_fingerprint == cb.render_fingerprint

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing codebook"):
            fileio.load_codebook(tmp_path / "nope.txt")

    @pytest.fixture()
    def path(self, tmp_path):
        """A two-entry codebook file whose fingerprints are empty, as an external encoder may write them."""
        cb = Codebook(1, "pixel-template", "", "", 300.0, 400.0, (Rotation.identity(),) * 2, np.eye(2, 3), np.ones(2))
        fileio.write_codebook(tmp_path / "codebook.txt", cb)
        return tmp_path / "codebook.txt"

    def test_empty_fingerprints_read_back(self, path):
        back = fileio.load_codebook(path)
        assert (back.embedder_fingerprint, back.render_fingerprint, back.dimension, len(back)) == ("", "", 3, 2)

    @pytest.mark.parametrize("key", CODEBOOK_HEADER_KEYS)
    def test_every_header_key_required(self, path, key):
        path.write_text("".join(line for line in path.read_text().splitlines(keepends=True) if line.split()[0] != key))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing {key}$"):
            fileio.load_codebook(path)

    @pytest.mark.parametrize("key", CODEBOOK_HEADER_KEYS)
    def test_header_key_repeats(self, path, key):
        lines = path.read_text().splitlines()
        line = next(n for n, text in enumerate(lines, start=1) if text.split()[0] == key)
        path.write_text("\n".join(lines + [lines[line - 1]]) + "\n")
        message = f"{path}:{len(lines) + 1}: {key} repeats line {line}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fileio.load_codebook(path)


# Values that stress the codebook text path: signed zeros, subnormals, the
# 1e-5 and 1e16 edges where repr switches to exponent notation, infinities.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-05,
                9.999999999999999e-06, 1.0000000000000002e-05, 1e16, 9999999999999998.0, -1e16, 0.1, 1.0,
                np.inf, -np.inf]


@st.composite
def _codebooks(draw):
    """A small Codebook whose rows draw from a few values and their negations, so values
    repeat within and across rows and a drawn zero comes with its sign flipped."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False)),
                         min_size=1, max_size=4))
    pool += [-v for v in pool]
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from(pool), min_size=n * dim, max_size=n * dim))
    with np.errstate(all="ignore"):  # squared norms of huge or infinite values
        return Codebook(1, "pixel-template", "ab", "cd", 300.0, 400.0, (Rotation.identity(),) * n,
                        np.array(values).reshape(n, dim), np.full(n, 30.5))


def _per_value_codebook_text(cb) -> str:
    """write_codebook's bytes, formatting every value with its own repr."""
    lines = ["codebook v1", f"object_id {cb.object_id}", f"embedder {cb.embedder_id}",
             f"embedder_fingerprint {cb.embedder_fingerprint}", f"render_fingerprint {cb.render_fingerprint}",
             f"z_ref_mm {cb.z_ref_mm!r}", f"fx_ref_px {cb.fx_ref_px!r}", f"dimension {cb.dimension}",
             f"entries {len(cb)}", "# entry <index> <qw qx qy qz> <view_diag_px> <values...>"]
    for i, rot in enumerate(cb.rotations):
        values = [repr(float(x)) for x in (*rot.q, cb.view_diagonals_px[i], *cb.embeddings[i])]
        lines.append(f"entry {i} " + " ".join(values))
    return "\n".join(lines) + "\n"


class TestCodebookTextProperties:
    """write_codebook formats, and load_codebook parses, each distinct value once: same bytes, same bits."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cb") / "codebook.txt"

    @given(cb=_codebooks())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_per_value_repr(self, path, cb):
        fileio.write_codebook(path, cb)
        assert path.read_bytes() == _per_value_codebook_text(cb).encode()

    @given(cb=_codebooks())
    @settings(max_examples=150, deadline=None)
    def test_values_read_back_bit_exact(self, path, cb):
        fileio.write_codebook(path, cb)
        with np.errstate(all="ignore"):
            back = fileio.load_codebook(path)
        assert np.array_equal(back.embeddings.view(np.int64), cb.embeddings.view(np.int64))

    @given(cb=_codebooks(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_bad_token_named(self, path, cb, data):
        fileio.write_codebook(path, cb)
        lines = path.read_text().splitlines()
        row = data.draw(st.integers(0, len(cb) - 1), label="entry")
        lineno = 11 + row  # ten header lines precede the entries
        tokens = lines[lineno - 1].split()
        # any two of the quaternion, view diagonal and embedding values (tokens 2 on)
        first, second = sorted(data.draw(st.lists(st.integers(2, len(tokens) - 1), min_size=2, max_size=2,
                                                  unique=True), label="positions"))
        bad = data.draw(st.lists(st.sampled_from(["x", "1..2", "--1", "0x1p3", "1e", "nan0"]), min_size=2,
                                 max_size=2, unique=True), label="tokens")
        tokens[first], tokens[second] = bad
        lines[lineno - 1] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:{lineno}: could not convert string to float: '{bad[0]}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fileio.load_codebook(path)


class TestEstimatesIO:
    def test_roundtrip_exact(self, tmp_path, rng):
        ests = [
            PoseEstimate(4, i, Pose(Rotation.random(rng), rng.normal(size=3) * 100),
                         float(rng.random()), float(rng.random()), "depth_center", bool(i % 2))
            for i in range(5)
        ]
        fileio.write_estimates(tmp_path / "e.txt", ests)
        back = fileio.load_estimates(tmp_path / "e.txt", 4)
        assert [line for line, _ in back] == [2, 3, 4, 5, 6]  # after the comment line
        for a, b in zip((e for _, e in back), ests):
            assert a.image_id == 4
            assert a.detection_index == b.detection_index
            assert np.array_equal(a.pose.rotation.q, b.pose.rotation.q)
            assert np.array_equal(a.pose.translation, b.pose.translation)
            assert a.cosine == b.cosine and a.detector_score == b.detector_score
            assert a.refined == b.refined

    def test_repeated_detection_index(self, tmp_path):
        # out of order is fine; a second record for one detection is not
        ests = [PoseEstimate(0, i, Pose.identity(), 0.5, 0.25, "depth_center") for i in (2, 0, 3, 0)]
        path = tmp_path / "e.txt"
        fileio.write_estimates(path, ests[:3])
        assert [e.detection_index for _, e in fileio.load_estimates(path, 0)] == [2, 0, 3]
        fileio.write_estimates(path, ests)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: detection index 0 repeats line 3$"):
            fileio.load_estimates(path, 0)

    def test_detection_index_outside_the_scene(self, tmp_path):
        path = tmp_path / "e.txt"
        fileio.write_estimates(path, [PoseEstimate(0, i, Pose.identity(), 0.5, 0.25, "depth_center") for i in (0, 2)])
        assert len(fileio.load_estimates(path, 0, n_detections=3)) == 2
        message = f"{path}:3: detection index 2 is not in detections.txt (2 detections)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fileio.load_estimates(path, 0, n_detections=2)

    def test_refined_flag_other_than_0_or_1(self, tmp_path):
        path = tmp_path / "e.txt"
        fileio.write_estimates(path, [PoseEstimate(0, 0, Pose.identity(), 0.5, 0.25, "depth_center")])
        path.write_text(re.sub(r" 0\n$", " 2\n", path.read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: refined must be 0 or 1, got '2'$"):
            fileio.load_estimates(path, 0)


class TestSelectionIO:
    def test_roundtrip(self, tmp_path):
        est = PoseEstimate(0, 7, Pose.identity(), 0.5, 0.25, "depth_center")
        score = SelectionScore(3.5, 10, 20, 0.35, 0.5, False)
        fileio.write_selection(tmp_path / "s.txt", [(est, score)], {"cosine": [7], "depth_error": [7]})
        scores, topk = fileio.load_selection(tmp_path / "s.txt")
        assert scores[7] == score
        assert topk == {"cosine": [7], "depth_error": [7]}

    @pytest.mark.parametrize("line, key", [(2, "score 7"), (4, "topk depth_error")])
    def test_repeated_record(self, tmp_path, line, key):
        est = PoseEstimate(0, 7, Pose.identity(), 0.5, 0.25, "depth_center")
        path = tmp_path / "s.txt"
        fileio.write_selection(path, [(est, SelectionScore(3.5, 10, 20, 0.35, 0.5, False))],
                               {"cosine": [7], "depth_error": [7]})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[line - 1]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: {key} repeats line {line}$"):
            fileio.load_selection(path)

    def test_disqualified_flag_other_than_0_or_1(self, tmp_path):
        est = PoseEstimate(0, 7, Pose.identity(), 0.5, 0.25, "depth_center")
        path = tmp_path / "s.txt"
        fileio.write_selection(path, [(est, SelectionScore(3.5, 10, 20, 0.35, 0.5, False))], {"cosine": [7]})
        path.write_text(re.sub(r" 0\ntopk", " 7\ntopk", path.read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: disqualified must be 0 or 1, got '7'$"):
            fileio.load_selection(path)


    # per sort method, two of the three estimates that written() gives, in pick order
    PICKS = {"detector_score": [0, 2], "cosine": [2, 1], "depth_error": [1, 0]}

    def written(self, tmp_path, topk) -> list:
        """Write e.txt (estimates of detections 0-2) and s.txt scoring them with topk; return e.txt's records."""
        ests = [PoseEstimate(0, i, Pose.identity(), 0.5, 0.25, "depth_center") for i in range(3)]
        fileio.write_estimates(tmp_path / "e.txt", ests)
        fileio.write_selection(tmp_path / "s.txt", [(e, SelectionScore(3.5, 10, 20, 0.35, 0.5, False)) for e in ests],
                               topk)
        return fileio.load_estimates(tmp_path / "e.txt", 0)

    def test_picks_are_estimates_in_pick_order(self, tmp_path):
        estimates = self.written(tmp_path, self.PICKS)
        _, topk = fileio.load_selection(tmp_path / "s.txt", estimates=estimates, estimates_path=tmp_path / "e.txt",
                                        k=2)
        by_index = {e.detection_index: e for _, e in estimates}
        assert topk == {m: [by_index[i] for i in picks] for m, picks in self.PICKS.items()}

    @pytest.mark.parametrize("method, picks, message", [
        ("depth_error", None, "{sel}: no 'topk depth_error' record"),
        ("cosine", [2, 2], "{sel}: topk cosine picks detection 2 twice"),
        ("cosine", [2, 7], "{sel}: topk cosine picks detection 7, not in {est}"),
        ("cosine", [2], "{sel}: topk cosine picks 1 of 3 estimates, not min(k, estimates) for k 2"),
        ("oracle", [0, 1], "{sel}:8: unknown sort method 'oracle'"),
    ], ids=["missing_method", "repeated_pick", "pick_without_estimate", "wrong_count", "unknown_method"])
    def test_selection_contract(self, tmp_path, method, picks, message):
        topk = {**self.PICKS, method: picks}
        if picks is None:
            del topk[method]
        estimates = self.written(tmp_path, topk)
        sel, est = tmp_path / "s.txt", tmp_path / "e.txt"
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(sel=sel, est=est))}$"):
            fileio.load_selection(sel, estimates=estimates, estimates_path=est, k=2)

    def test_unknown_method_refused_when_only_parsed(self, tmp_path):
        self.written(tmp_path, {**self.PICKS, "oracle": [0, 1]})
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 's.txt'))}:8: unknown sort method 'oracle'$"):
            fileio.load_selection(tmp_path / "s.txt")


class TestEvalReportIO:
    def test_json_roundtrip(self, tmp_path):
        rep = {"cosine": EvalReport(10, 0.5, 0.25, 0.75, 0.5)}
        fileio.write_eval_json(tmp_path / "eval.json", rep, {"k": 5})
        back, protocol = fileio.load_eval_json(tmp_path / "eval.json")
        assert back["cosine"] == rep["cosine"]
        assert protocol == {"k": 5}

    @pytest.mark.parametrize("change, message", [
        ({"protocol": ["x"]}, 'protocol must be an object, not ["x"]'),
        ({"ar": "high"}, 'cosine.ar must be a number in [0, 1] or null, not "high"'),
        ({"ar": True}, "cosine.ar must be a number in [0, 1] or null, not true"),
        ({"ar": 1.5}, "cosine.ar must be a number in [0, 1] or null, not 1.5"),
        ({"n_estimates": True}, "cosine.n_estimates must be an integer >= 0, not true"),
        ({"n_estimates": -1}, "cosine.n_estimates must be an integer >= 0, not -1"),
        ({"empty": 0}, "cosine.empty must be true or false, not 0"),
    ], ids=["protocol_list", "ar_text", "ar_bool", "ar_above_1", "n_bool", "n_negative", "empty_int"])
    def test_value_types_checked(self, tmp_path, change, message):
        path = tmp_path / "eval.json"
        fileio.write_eval_json(path, {"cosine": EvalReport(10, 0.5, 0.25, 0.75, None)}, {"k": 5})
        payload = json.loads(path.read_text())
        for key, value in change.items():
            (payload if key == "protocol" else payload["methods"]["cosine"])[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            fileio.load_eval_json(path)
        assert str(err.value) == f"{path}: malformed eval report (ValueError: {message})"

    def test_emit_report_deterministic(self, tmp_path):
        rep = {"cosine": EvalReport(10, 0.5, 0.25, 0.75, 0.5),
               "depth_error": EvalReport(10, 0.9, 0.8, 0.85, 0.85)}
        paths_a = fileio.emit_report(tmp_path / "a", [("eval", rep)], {"k": 5})
        paths_b = fileio.emit_report(tmp_path / "b", [("eval", rep)], {"k": 5})
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()
        names = {p.name for p in paths_a}
        assert names == {"report.txt", "report.csv", "ar_by_method.svg"}

    def test_emit_report_empty(self, tmp_path):
        paths = fileio.emit_report(tmp_path, [], None)
        assert "no data" in (tmp_path / "report.txt").read_text()

    def test_emit_report_noise_plot(self, tmp_path):
        reps = [
            ("0", {"cosine": EvalReport(5, 1.0, 1.0, 1.0, 1.0)}),
            ("5", {"cosine": EvalReport(5, 0.5, 0.5, 0.5, 0.5)}),
        ]
        paths = fileio.emit_report(tmp_path, reps, None)
        assert (tmp_path / "ar_vs_noise.svg").exists()

    def test_labels_with_markup_and_commas(self, tmp_path):
        rep = {"cosine": EvalReport(10, 0.5, 0.25, 0.75, 0.5)}
        labels = ["a<b & c", 'x,y "z"', "eval"]
        fileio.emit_report(tmp_path, [(label, rep) for label in labels], None)

        def texts(name):
            nodes = xml.dom.minidom.parse(str(tmp_path / name)).getElementsByTagName("text")
            return {node.firstChild.data for node in nodes}

        assert f"AR by sort method ({labels[0]})" in texts("ar_by_method.svg")
        assert set(labels) <= texts("ar_vs_noise.svg")
        with open(tmp_path / "report.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [7, 7, 7, 7]
        assert [row[0] for row in rows[1:]] == labels
        # a label that needs no quotes is written bare
        assert (tmp_path / "report.csv").read_text().splitlines()[3] == "eval,cosine,10,0.5,0.25,0.75,0.5"

    def test_single_method_single_column(self, tmp_path):
        rep = {"cosine": EvalReport(10, 0.5, 0.25, 0.75, 0.5)}
        fileio.emit_report(tmp_path, [("eval", rep)], None)
        header = (tmp_path / "report.txt").read_text().splitlines()[2]
        assert header.split() == ["label", "metric", "cosine"]


class TestAtomicWrites:
    def test_each_writer_returns_the_paths_it_wrote(self, box, cam_small, tmp_path):
        scene_cfg = SceneConfig(instance_count=2, master_seed=5)
        gt, depth, ids, gray = generate_scene(box, scene_cfg, RenderConfig(cam_small))
        cb = Codebook(1, "pixel-template", "ab", "cd", 300.0, 400.0, (Rotation.identity(),), np.ones((1, 4)),
                      np.ones(1))
        est = PoseEstimate(0, 0, Pose(Rotation.identity(), np.zeros(3)), 0.5, 0.5, "depth_center")
        rep = {"cosine": EvalReport(10, 0.5, 0.25, 0.75, 0.5)}
        written = [
            fileio.write_pgm16(tmp_path / "d.pgm", depth), fileio.write_pgm8(tmp_path / "g.pgm", gray),
            fileio.write_mesh(tmp_path / "m.txt", box), fileio.write_symmetries(tmp_path / "s.txt", box_symmetries()),
            fileio.write_scene(tmp_path, 0, gt, depth, ids, gray),
            fileio.write_detections(tmp_path, 0, gt_detections(ids, gt, image_id=0)),
            fileio.write_codebook(tmp_path / "cb.txt", cb), fileio.write_estimates(tmp_path / "e.txt", [est]),
            fileio.write_selection(tmp_path / "sel.txt", [(est, SelectionScore(3.5, 10, 20, 0.35, 0.5, False))],
                                   {"cosine": [0]}),
            fileio.write_eval_json(tmp_path / "eval.json", rep, {}),
            fileio.emit_report(tmp_path / "report", [("eval", rep)], None),
            fileio.Manifest(tmp_path / "manifest").record("s", {}, [], [tmp_path / "m.txt"], tmp_path),
        ]
        assert sorted(p for paths in written for p in paths) == sorted(p for p in tmp_path.rglob("*") if p.is_file())

    def test_failed_scene_write_leaves_no_file(self, box, cam_small, monkeypatch, tmp_path):
        gt, depth, ids, gray = generate_scene(box, SceneConfig(instance_count=2, master_seed=5), RenderConfig(cam_small))

        def failing_pgm8(path, img):
            raise OSError("disk gone")

        monkeypatch.setattr(fileio, "write_pgm8", failing_pgm8)  # gray.pgm, the scene's last file
        with pytest.raises(OSError, match="disk gone"):
            fileio.write_scene(tmp_path, 0, gt, depth, ids, gray)
        assert list(fileio.scene_dir(tmp_path, 0).iterdir()) == []

    def test_failed_codebook_write_keeps_previous_file(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(0)
        cb = Codebook(1, "pixel-template", "ab", "cd", 300.0, 400.0, (Rotation.identity(),) * 5,
                      rng.normal(size=(5, 4)), np.ones(5))
        path = tmp_path / "codebook.txt"
        fileio.write_codebook(path, cb)
        previous = path.read_bytes()
        row, calls = fileio._r_row, []

        def failing_row(values):
            calls.append(values)
            if len(calls) == 3:
                raise RuntimeError("disk gone")
            return row(values)

        monkeypatch.setattr(fileio, "_r_row", failing_row)
        with pytest.raises(RuntimeError, match="disk gone"):
            fileio.write_codebook(path, cb)
        assert path.read_bytes() == previous
        assert sorted(tmp_path.iterdir()) == [path]


class TestManifest:
    def test_verify_detects_change(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("hello")
        m = fileio.Manifest(tmp_path / "manifest")
        m.record("stage1", {"a": 1}, [], [f], tmp_path)
        m2 = fileio.Manifest(tmp_path / "manifest")
        m2.verify_inputs([f], tmp_path)  # unchanged: fine
        f.write_text("tampered")
        with pytest.raises(ValueError, match="hash mismatch"):
            m2.verify_inputs([f], tmp_path)

    def test_rerecord_idempotent(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("hello")
        m = fileio.Manifest(tmp_path / "manifest")
        m.record("s", {}, [], [f], tmp_path)
        first = (tmp_path / "manifest" / "s.entry").read_bytes()
        m = fileio.Manifest(tmp_path / "manifest")
        m.record("s", {}, [], [f], tmp_path)
        assert (tmp_path / "manifest" / "s.entry").read_bytes() == first


    # each text is one stage's entry file
    @pytest.mark.parametrize("text", [
        "{}", "[]", '{"inputs": [], "outputs": {}}', "1", '{"outputs": {}}', "{ nope",
    ], ids=["no_stages", "not_an_object", "stages_not_an_object", "stage_not_an_object", "stage_without_inputs",
            "invalid_json"])
    def test_malformed_manifest_names_its_file(self, tmp_path, text):
        path = tmp_path / "manifest" / "s.entry"
        path.parent.mkdir()
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed manifest \\("):
            fileio.Manifest(path.parent)


class TestMutatedRecords:
    """Files from the writers with one line mutated: a loader returns or raises ValueError/FileNotFoundError."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory, box, cam_small):
        root = tmp_path_factory.mktemp("written")
        scene_cfg = SceneConfig(instance_count=3, master_seed=4)
        gt, depth, ids, gray = generate_scene(box, scene_cfg, RenderConfig(cam_small))
        fileio.write_scene(root, 0, gt, depth, ids, gray)
        fileio.write_detections(root, 0, gt_detections(ids, gt, image_id=0))
        rng = np.random.default_rng(0)
        cb = Codebook(1, "pixel-template", "ab", "cd", 300.0, 400.0, tuple(Rotation.random(rng) for _ in range(3)),
                      rng.normal(size=(3, 4)), rng.random(3) * 50)
        fileio.write_codebook(root / "codebook.txt", cb)
        ests = [PoseEstimate(0, i, Pose(Rotation.random(rng), rng.normal(size=3)), 0.5, 0.5, "depth_center")
                for i in range(2)]
        fileio.write_estimates(root / "estimates.txt", ests)
        fileio.write_selection(root / "selection.txt", [(ests[0], SelectionScore(3.5, 10, 20, 0.35, 0.5, False))],
                               {"cosine": [0], "depth_error": [0, 1]})
        fileio.write_mesh(root / "mesh.txt", box)
        fileio.write_symmetries(root / "sym.txt", box_symmetries())
        return root, ids.shape

    LOADERS = {
        "scene_000000/camera.txt": lambda root, shape: fileio.load_camera(*scene_files(root, 0, "camera")),
        "scene_000000/gt_poses.txt": lambda root, shape: fileio.load_gt_poses(*scene_files(root, 0, "camera", "gt")),
        "scene_000000/detections.txt": lambda root, shape: fileio.load_detections(*scene_files(root, 0, "dets"),
                                                                                  shape, 0),
        "codebook.txt": lambda root, shape: fileio.load_codebook(root / "codebook.txt"),
        "estimates.txt": lambda root, shape: fileio.load_estimates(root / "estimates.txt", 0),
        "selection.txt": lambda root, shape: fileio.load_selection(root / "selection.txt"),
        "mesh.txt": lambda root, shape: load_mesh(root / "mesh.txt"),
        "sym.txt": lambda root, shape: load_symmetries(root / "sym.txt"),
    }

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_only_value_errors(self, written, data):
        root, shape = written
        name = data.draw(st.sampled_from(sorted(self.LOADERS)), label="file")
        original = (root / name).read_text()
        lines = original.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        tokens = lines[i].split()
        kind = data.draw(st.sampled_from(["truncate", "drop", "replace"]), label="mutation")
        if kind == "truncate":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])), label="keep")]
        else:
            j = data.draw(st.integers(0, len(tokens) - 1), label="token")
            tokens[j : j + 1] = [] if kind == "drop" else ["x"]
            lines[i] = " ".join(tokens)
        (root / name).write_text("\n".join(lines) + "\n")
        try:
            self.LOADERS[name](root, shape)
        except (ValueError, FileNotFoundError):
            pass
        finally:
            (root / name).write_text(original)
