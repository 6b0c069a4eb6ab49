from __future__ import annotations

import collections
import dataclasses
import inspect
import json
import hashlib
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from binpick import bopeval, cli, fileio, select_refine
from binpick.cli import main
from binpick.codebook import EmbedderSpec
from binpick.pipeline import TranslationMode
from binpick.render import RenderConfig, render_scene
from binpick.scenegen import DetectionPerturb, SceneConfig, gt_detections
from binpick.select_refine import IcpConfig, SelectionConfig, detection_cloud
from binpick.shapes import box_symmetries, make_box

from conftest import child_env


def make_workdir(tmp_path):
    fileio.write_mesh(tmp_path / "box.txt", make_box())
    fileio.write_symmetries(tmp_path / "sym.txt", box_symmetries())
    config = {
        "mesh": str(tmp_path / "box.txt"),
        "symmetries": str(tmp_path / "sym.txt"),
        "scenes": 2,
        "scene": {"instance_count": 4},
        "camera": {"fx": 200.0, "fy": 200.0, "cx": 80.0, "cy": 60.0, "width": 160, "height": 120},
        "codebook": {
            "size": 32,
            "seed": 0,
            "z_ref_mm": 300.0,
            "camera": {"fx": 300.0, "fy": 300.0, "cx": 64.0, "cy": 64.0, "width": 128, "height": 128},
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


@pytest.fixture()
def workdir(tmp_path):
    return make_workdir(tmp_path)


def run(workdir, command, *extra):
    return main([command, "--config", str(workdir / "config.json"), "--out", str(workdir / "out"), "--seed", "3", *extra])


def live_session_processes(sid: int) -> list:
    """Pids of the processes in session sid that have not ended (a zombie has)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # ended while listed
            continue
        if int(fields[3]) == sid and fields[0] != "Z":  # fields: state, ppid, pgrp, session, ...
            live.append(int(stat.parent.name))
    return live


def manifest_entries(out) -> dict:
    """Stage name -> the JSON of its manifest entry file in run directory out."""
    return {p.name.removesuffix(".entry"): json.loads(p.read_text()) for p in (out / "manifest").glob("*.entry")}


def per_scene(*names):
    """Run-directory paths of the named files, plus camera.txt, in both scenes of the workdir config."""
    return {f"dataset/scene_00000{i}/{n}" for i in (0, 1) for n in ("camera.txt",) + names}


class TestStages:
    def test_estimate_before_codebook_fails(self, workdir, capsys):
        assert run(workdir, "genscenes") == 0
        assert run(workdir, "detect-gt") == 0
        assert run(workdir, "estimate") == 1
        assert "missing codebook" in capsys.readouterr().err

    def test_genscenes_removes_scenes_it_does_not_write(self, workdir):
        assert run(workdir, "genscenes", "--scenes", "3") == 0
        assert run(workdir, "genscenes", "--scenes", "1", "--seed", "2") == 0
        dataset = workdir / "out" / "dataset"
        assert [p.name for p in dataset.iterdir()] == ["scene_000000"]
        assert run(workdir, "detect-gt") == 0
        assert [p.parent.name for p in dataset.rglob("detections.txt")] == ["scene_000000"]

    def test_genscenes_idempotent_manifest(self, workdir):
        assert run(workdir, "genscenes") == 0
        manifest1 = manifest_entries(workdir / "out")
        assert run(workdir, "genscenes") == 0
        manifest2 = manifest_entries(workdir / "out")
        assert manifest1["genscenes"]["outputs"] == manifest2["genscenes"]["outputs"]

    def test_full_chain(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "refine", "select", "eval", "report"):
            assert run(workdir, cmd) == 0, cmd
        out = workdir / "out"
        report = (out / "report.txt").read_text()
        for method in ("cosine", "depth_error", "detector_score"):
            assert method in report
        payload = json.loads((out / "eval.json").read_text())
        assert set(payload["methods"]) == {"cosine", "depth_error", "detector_score"}
        for rep in payload["methods"].values():
            assert rep["ar"] is not None
            assert abs(rep["ar"] - (rep["ar_vsd"] + rep["ar_mssd"] + rep["ar_mspd"]) / 3.0) < 1e-12
        assert (out / "ar_by_method.svg").exists()
        assert (out / "timings.txt").exists()

    def test_icp_variant_chain(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "refine"):
            assert run(workdir, cmd) == 0
        assert run(workdir, "select", "--icp") == 0
        assert run(workdir, "eval", "--icp") == 0
        assert (workdir / "out" / "eval_icp.json").exists()
        sel = workdir / "out" / "dataset" / "scene_000000" / "selection_icp.txt"
        assert sel.exists()

    def test_report_multi_eval_labels(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select", "eval"):
            assert run(workdir, cmd) == 0
        assert run(
            workdir, "report",
            "--eval", str(workdir / "out" / "eval.json"), "--label", "0",
            "--eval", str(workdir / "out" / "eval.json"), "--label", "1",
        ) == 0
        assert (workdir / "out" / "ar_vs_noise.svg").exists()

    def test_report_refuses_surplus_labels(self, workdir, capsys):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select", "eval"):
            assert run(workdir, cmd) == 0
        path = str(workdir / "out" / "eval.json")
        assert run(workdir, "report", "--eval", path, "--label", "x", "--label", "y") == 1
        assert one_error_line(capsys) == "2 --label values for 1 eval files"
        assert not (workdir / "out" / "report.txt").exists()

    def test_report_refuses_repeated_labels(self, workdir, capsys):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select", "eval"):
            assert run(workdir, cmd) == 0
        first, second = workdir / "run1" / "eval.json", workdir / "run2" / "eval.json"
        for path in (first, second):
            path.parent.mkdir()
            shutil.copy(workdir / "out" / "eval.json", path)
        # without --label, each file's label is its stem: both are 'eval'
        for labels in ([], ["eval"]):
            flags = [flag for label in labels for flag in ("--label", label)]
            assert run(workdir, "report", "--eval", str(first), *flags, "--eval", str(second)) == 1
            assert one_error_line(capsys) == (f"label 'eval' names both {first} and {second}; "
                                              "give each --eval its own --label")
            assert not (workdir / "out" / "report.txt").exists()
        assert run(workdir, "report", "--eval", str(first), "--label", "1", "--eval", str(second)) == 0
        rows = (workdir / "out" / "report.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"1", "eval"}

    def test_single_file_manifest_refused(self, workdir, capsys):
        assert run(workdir, "genscenes") == 0
        single = workdir / "out" / "manifest.json"
        single.write_text('{"stages": {}}')
        assert run(workdir, "codebook") == 1
        assert one_error_line(capsys) == (f"{single}: single-file manifest of an earlier binpick; stages now record "
                                          f"to {workdir / 'out' / 'manifest'}/<stage>.entry, so re-run the chain "
                                          "in a new run directory")
        assert not (workdir / "out" / "codebook.txt").exists()

    @pytest.mark.parametrize("text", ['{"name": "web-app", "start_url": "/"}', '["stages"]', '"stages"', "not json"])
    def test_unrelated_manifest_json_left_alone(self, workdir, text):
        """Only the old one-object shape is refused: a run directory shared with
        another tool's manifest.json runs, and that file is not touched."""
        other = workdir / "out" / "manifest.json"
        other.parent.mkdir()
        other.write_text(text)
        assert run(workdir, "genscenes") == 0
        assert run(workdir, "codebook") == 0
        assert other.read_text() == text

    def test_missing_dataset_fails(self, workdir, capsys):
        assert run(workdir, "detect-gt") == 1
        assert "missing dataset" in capsys.readouterr().err

    def test_partial_outputs_removed_on_failure(self, workdir, capsys, monkeypatch):
        assert run(workdir, "genscenes") == 0
        assert run(workdir, "detect-gt") == 0
        # corrupt one scene's detections so estimate fails midway
        assert run(workdir, "codebook") == 0
        bad = workdir / "out" / "dataset" / "scene_000001" / "detections.txt"
        bad.write_text("det nonsense\n")
        assert run(workdir, "estimate") == 1
        assert not (workdir / "out" / "dataset" / "scene_000000" / "estimates.txt").exists()

    @pytest.mark.parametrize("how", ["record_raises", "manifest_is_a_directory"])
    def test_manifest_failure_removes_outputs(self, workdir, capsys, monkeypatch, how):
        out = workdir / "out"
        if how == "record_raises":
            def record(*args):
                raise ValueError("manifest not written")
            monkeypatch.setattr(fileio.Manifest, "record", record)
        else:
            (out / "manifest" / "genscenes.entry").mkdir(parents=True)
        assert run(workdir, "genscenes") == 1
        one_error_line(capsys)
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_out_is_a_file(self, workdir, capsys):
        taken = workdir / "taken"
        taken.write_text("")
        assert main(["report", "--config", str(workdir / "config.json"), "--out", str(taken)]) == 1
        assert one_error_line(capsys).startswith("[Errno 17] File exists")

    def test_killed_codebook_write_leaves_previous_files(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt"):
            assert run(workdir, cmd) == 0, cmd
        out = workdir / "out"
        before = {name: (out / name).read_bytes() for name in ("codebook.txt", "manifest/codebook.entry")}
        # a codebook stage that SIGKILLs itself while formatting its third entry line
        child = (
            "import os, signal, sys\n"
            "from binpick import fileio\n"
            "from binpick.cli import main\n"
            "row, calls = fileio._r_row, []\n"
            "def dying_row(values):\n"
            "    calls.append(values)\n"
            "    if len(calls) == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return row(values)\n"
            "fileio._r_row = dying_row\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, "codebook", "--config", str(workdir / "config.json"),
             "--out", str(out), "--seed", "3"],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        assert (out / "codebook.txt.tmp").is_file()  # killed mid-write
        assert {name: (out / name).read_bytes() for name in before} == before
        assert run(workdir, "estimate") == 0

    def test_killed_codebook_worker_is_one_error_line(self, workdir):
        out = workdir / "out"
        # two view workers on any host; the one rendering the run of view 77 SIGKILLs itself
        child = (
            "import os, signal, sys\n"
            "from binpick import codebook\n"
            "from binpick.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "victim = codebook.sample_rotations(128, 0)[77].q.tobytes()\n"
            "render_windows = codebook.render_windows\n"
            "def dying_render_windows(mesh, poses, cfg, shaded=False):\n"
            "    if any(pose.rotation.q.tobytes() == victim for pose in poses):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return render_windows(mesh, poses, cfg, shaded)\n"
            "codebook.render_windows = dying_render_windows\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, "codebook", "--config", str(workdir / "config.json"),
             "--out", str(out), "--seed", "3", "--codebook-size", "128"],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert re.fullmatch(
            r"error: codebook view worker \d+ exited on signal 9 without sending its views\n", done.stderr
        ), done.stderr
        assert list(out.glob("codebook.txt*")) == []

    def test_worker_killed_mid_send_is_one_error_line(self, workdir):
        out = workdir / "out"
        # two view workers on any host; each writes half of its pickled views to the parent and SIGKILLs itself
        child = (
            "import os, pickle, signal, sys\n"
            "from binpick.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def dying_dump(obj, file, protocol=None):\n"
            "    data = pickle.dumps(obj, protocol=protocol)\n"
            "    file.write(data[: len(data) // 2])\n"
            "    file.flush()\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "pickle.dump = dying_dump\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, "codebook", "--config", str(workdir / "config.json"),
             "--out", str(out), "--seed", "3", "--codebook-size", "128"],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert re.fullmatch(
            r"error: codebook view worker \d+ exited on signal 9 without sending its views\n", done.stderr
        ), done.stderr
        assert list(out.glob("codebook.txt*")) == []

    def test_killed_icp_worker_is_one_error_line(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate"):
            assert run(workdir, cmd) == 0, cmd
        # two ICP workers on any host, for any number of points; each SIGKILLs itself
        child = (
            "import os, signal, sys\n"
            "from binpick import select_refine\n"
            "from binpick.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "select_refine._POINTS_PER_WORKER = 1\n"
            "parent, icp_run = os.getpid(), select_refine._icp_run\n"
            "def dying_run(*args):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return icp_run(*args)\n"
            "select_refine._icp_run = dying_run\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, "refine", "--config", str(workdir / "config.json"),
             "--out", str(workdir / "out"), "--seed", "3"],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert re.fullmatch(
            r"error: ICP worker \d+ exited on signal 9 without sending its results\n", done.stderr
        ), done.stderr
        assert list((workdir / "out").rglob("estimates_refined.txt*")) == []

    def test_killed_codebook_stage_leaves_no_process(self, workdir):
        child = "import os, sys\nos.sched_getaffinity = lambda pid: {0, 1}\nfrom binpick.cli import main\nmain(sys.argv[1:])\n"
        stage = subprocess.Popen(
            [sys.executable, "-c", child, "codebook", "--config", str(workdir / "config.json"),
             "--out", str(workdir / "out"), "--seed", "3", "--codebook-size", "4096"],
            env=child_env(), start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while len(live_session_processes(stage.pid)) < 3:  # the stage and its two view workers
                assert stage.poll() is None and time.monotonic() < deadline, "no view worker started"
                time.sleep(0.02)
            stage.kill()
            stage.wait()
            deadline = time.monotonic() + 30
            while live_session_processes(stage.pid):
                assert time.monotonic() < deadline, live_session_processes(stage.pid)
                time.sleep(0.1)
        finally:
            stage.kill()
            stage.wait()

    def test_eval_records_translation_mode_of_estimates(self, workdir):
        # the config keeps the default depth_center; only the flag asks for rgb
        for cmd in ("genscenes", "codebook", "detect-gt"):
            assert run(workdir, cmd) == 0
        assert run(workdir, "estimate", "--mode", "rgb") == 0
        assert run(workdir, "select") == 0
        assert run(workdir, "eval") == 0
        payload = json.loads((workdir / "out" / "eval.json").read_text())
        assert payload["protocol"]["translation_mode"] == "rgb_scale"

    def test_eval_rejects_mixed_translation_modes(self, workdir, capsys):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select"):
            assert run(workdir, cmd) == 0
        est = workdir / "out" / "dataset" / "scene_000001" / "estimates.txt"
        lines = est.read_text().splitlines()
        assert lines[1].startswith("est ") and " depth_center " in lines[1]
        lines[1] = lines[1].replace(" depth_center ", " rgb_scale ")
        est.write_text("\n".join(lines) + "\n")
        shutil.rmtree(workdir / "out" / "manifest")  # no recorded hashes to object
        assert run(workdir, "eval") == 1
        err = capsys.readouterr().err
        assert f"{est}:2: translation mode rgb_scale differs from depth_center" in err
        assert "scene_000000/estimates.txt:2" in err
        assert not (workdir / "out" / "eval.json").exists()

    @pytest.mark.parametrize("embedder, message", [
        ({"grid_px": 16}, "codebook dimension 1024 does not match embedder dimension 256"),
        ({"crop_px": 64}, "does not match embedder"),
    ], ids=["grid_px", "crop_px"])
    def test_codebook_embedder_mismatch_fails_before_estimating(self, workdir, capsys, embedder, message):
        for cmd in ("genscenes", "codebook", "detect-gt"):
            assert run(workdir, cmd) == 0
        config = json.loads((workdir / "config.json").read_text())
        config["embedder"] = embedder
        (workdir / "config.json").write_text(json.dumps(config))
        assert run(workdir, "estimate") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err
        assert not list((workdir / "out" / "dataset").rglob("estimates.txt"))

    def test_unknown_config_key_fails(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["scene"] = {"instance_cout": 3}
        (workdir / "config.json").write_text(json.dumps(config))
        assert run(workdir, "genscenes") == 1
        assert "unknown config key 'scene.instance_cout'" in capsys.readouterr().err
        assert not (workdir / "out" / "dataset").exists()

    def test_config_not_json_fails(self, workdir, capsys):
        path = workdir / "config.json"
        path.write_text("{ nope")
        assert run(workdir, "genscenes") == 1
        assert one_error_line(capsys).startswith(f"{path}: invalid JSON (Expecting property name")
        assert not (workdir / "out" / "dataset").exists()

    @pytest.mark.parametrize("text, message", [
        ("[1]", "config must be a JSON object"),
        ('{"scene": {"instance_cout": 3}}', "unknown config key 'scene.instance_cout'"),
        ('{"camera": {"fx": "600"}}', "config key 'camera.fx' must be a number, not \"600\""),
        ('{"k": 5.0}', "config key 'k' must be an integer, not 5.0"),
        ('{"crop": {"mask_only": 1}}', "config key 'crop.mask_only' must be true or false, not 1"),
        ('{"render": {"light_dir": [0, "1", 0]}}', "config key 'render.light_dir[1]' must be a number, not \"1\""),
        ('{"selection": {"margin_mm": -1}}', "selection: margin must be positive"),
        ('{"render": {"far_mm": 70000}}', "render: far clip must fit 16-bit mm depth (<= 65534)"),
        ('{"mesh": 5}', "config key 'mesh' must be a string, not 5"),
        ('{"scenes": -1}', "scenes must be >= 0"),
        ('{"icp": {"max_obs_points": 0}}', "icp: max_obs_points must be >= 1"),
        ('{"detect": {"dropout_prob": 2.0}}', "detect: dropout probability must be in [0, 1]"),
        ('{"detect": {"min_visible_fraction": 2.0}}', "detect: min_visible_fraction must be in [0, 1]"),
        ('{"k": 0}', "k must be >= 1"),
        ('{"translation": {"surface_offset_mm": "5"}}',
         "config key 'translation.surface_offset_mm' must be a number, not \"5\""),
        ('{"codebook": {"size": 0}}', "codebook: size must be >= 1"),
        ('{"codebook": {"seed": -1}}', "codebook: seed must be >= 0"),
        ('{"codebook": {"z_ref_mm": -5}}', "codebook: z_ref_mm must be > 0"),
        ('{"codebook": {"z_ref_mm": 0}}', "codebook: z_ref_mm must be > 0"),
        ('{"master_seed": -1}', "master_seed must be >= 0"),
        ('{"eval": {"visib_threshold": 0.1}}', "unknown config key 'eval'"),
        ('{"translation": {"surface_offset_mm": -1000}}', "translation: surface_offset_mm must be >= 0"),
    ], ids=["not_an_object", "unknown_key", "wrong_type", "float_for_int", "int_for_bool", "list_item",
            "rejected_value", "render", "mesh", "scenes", "max_obs_points", "dropout_prob", "min_visible_fraction",
            "k", "surface_offset", "codebook_size", "codebook_seed", "z_ref_negative", "z_ref_zero", "master_seed",
            "eval_section", "surface_offset_negative"])
    def test_config_error_names_the_file(self, workdir, capsys, text, message):
        path = workdir / "config.json"
        path.write_text(text)
        assert run(workdir, "genscenes") == 1
        assert one_error_line(capsys) == f"{path}: {message}"
        assert not (workdir / "out" / "dataset").exists()

    @pytest.mark.parametrize("number, shown", [
        ("NaN", "NaN"), ("Infinity", "Infinity"), ("1e400", "Infinity"),
        pytest.param("1" + "0" * 400, "1" + "0" * 400, id="int_too_large_for_float"),
    ])
    @pytest.mark.parametrize("key, text", [
        ("icp.tolerance_mm", '{"icp": {"tolerance_mm": %s}}'),
        ("selection.margin_mm", '{"selection": {"margin_mm": %s}}'),
        ("scene.bin_extents_mm[1]", '{"scene": {"bin_extents_mm": [300, %s, 150]}}'),
    ], ids=["icp", "selection", "list_item"])
    def test_config_number_not_finite_fails(self, workdir, capsys, key, text, number, shown):
        path = workdir / "config.json"
        path.write_text(text % number)
        assert run(workdir, "genscenes") == 1
        assert one_error_line(capsys) == f"{path}: config key '{key}' must be a finite number, not {shown}"
        assert not (workdir / "out" / "dataset").exists()

    @pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1, 10**400], ids=["above", "below", "400_zeros"])
    @pytest.mark.parametrize("key, text", [
        ("codebook.size", '{"codebook": {"size": %d}}'),
        ("scene.instance_count", '{"scene": {"instance_count": %d}}'),
    ], ids=["codebook_size", "instance_count"])
    def test_config_integer_outside_int64_fails(self, workdir, capsys, key, text, value):
        # numpy takes no larger integer: such a size ended the codebook stage in numpy, naming neither key nor file
        path = workdir / "config.json"
        path.write_text(text % value)
        assert run(workdir, "codebook") == 1
        assert one_error_line(capsys) == f"{path}: config key '{key}' must be an integer within int64, not {value}"
        assert not (workdir / "out").exists()

    def test_config_int64_bounds_accepted(self):
        for value in ((1 << 63) - 1, -(1 << 63)):
            cli._check_type(value, 0, "codebook.size")

    @pytest.mark.parametrize("key, value, message", [
        ("bin_extents_mm", [300, 300], "bin_extents_mm must hold 3 values, not 2"),
        ("cam_height_range_mm", [270, 300, 330], "cam_height_range_mm must hold 2 values, not 3"),
    ], ids=["bin_extents", "cam_height_range"])
    @pytest.mark.parametrize("cmd", ["genscenes", "codebook"])
    def test_scene_list_length_fails_at_load(self, workdir, capsys, cmd, key, value, message):
        config = json.loads((workdir / "config.json").read_text())
        config.setdefault("scene", {})[key] = value
        (workdir / "config.json").write_text(json.dumps(config))
        assert run(workdir, cmd) == 1
        assert one_error_line(capsys) == f"{workdir / 'config.json'}: scene: {message}"
        assert not (workdir / "out").exists()

    def test_config_int_for_float_accepted(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["selection"] = {"margin_mm": 4}
        config["camera"]["fx"] = 200
        (workdir / "config.json").write_text(json.dumps(config))
        assert run(workdir, "genscenes") == 0

    def test_rejected_flag_value_names_no_file(self, workdir, capsys):
        assert run(workdir, "genscenes", "--instances", "-1") == 1
        assert one_error_line(capsys) == "scene: instance count must be >= 0"
        assert run(workdir, "genscenes", "--seed", "-1") == 1  # the last --seed given counts
        assert one_error_line(capsys) == "master_seed must be >= 0"
        assert not (workdir / "out" / "dataset").exists()

    @pytest.mark.parametrize("cmd, flags, key, file_value, value", [
        ("genscenes", ["--seed", "0"], "master_seed", 7, 0),
        ("genscenes", ["--scenes", "1"], "scenes", 2, 1),
        ("genscenes", ["--instances", "3"], "scene.instance_count", 4, 3),
        ("codebook", ["--codebook-size", "16"], "codebook.size", 32, 16),
        ("select", ["--k", "2"], "k", 5, 2),
        ("estimate", ["--mode", "rgb"], "translation.mode", "depth_center", "rgb_scale"),
        ("estimate", ["--mode", "depth"], "translation.mode", "rgb_scale", "depth_center"),
        ("estimate", ["--mask-only"], "crop.mask_only", False, True),
        ("estimate", [], "crop.mask_only", True, True),
        ("refine", ["--mesh", "other_box.txt"], "mesh", "box.txt", "other_box.txt"),
        ("eval", ["--symmetries", "other_sym.txt"], "symmetries", "sym.txt", "other_sym.txt"),
    ], ids=["seed_0", "scenes", "instances", "codebook_size", "k", "mode_rgb", "mode_depth", "mask_only",
            "file_mask_only_kept", "mesh", "symmetries"])
    def test_flag_overrides_its_own_key(self, workdir, monkeypatch, cmd, flags, key, file_value, value):
        # the stage itself does nothing; its manifest entry echoes the resolved config
        monkeypatch.setattr(cli, f"stage_{cmd.replace('-', '_')}", lambda cfg, stage, args: None)
        section, _, name = key.rpartition(".")
        config = json.loads((workdir / "config.json").read_text())
        (config.setdefault(section, {}) if section else config)[name] = file_value
        (workdir / "config.json").write_text(json.dumps(config))

        def echo(*argv):
            assert main([cmd, "--config", str(workdir / "config.json"), "--out", str(workdir / "out"), *argv]) == 0
            return manifest_entries(workdir / "out")[cmd]["config"]

        without, with_flags = echo(), echo(*flags)
        held = without[section] if section else without
        assert held[name] == file_value
        held[name] = value
        assert with_flags == without

    @pytest.mark.parametrize("section, value, message", [
        ("scene", 3, "config key 'scene' must be an object"),
        ("k", {"x": 1}, "config key 'k' must not be an object"),
        ("codebook", {"camera": [1, 2]}, "config key 'codebook.camera' must be an object"),
    ], ids=["scalar_for_object", "object_for_scalar", "nested"])
    def test_config_shape_mismatch_fails(self, workdir, capsys, section, value, message):
        config = json.loads((workdir / "config.json").read_text())
        config[section] = value
        (workdir / "config.json").write_text(json.dumps(config))
        assert run(workdir, "genscenes") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err
        assert not (workdir / "out" / "dataset").exists()

    def _codebook_then_config(self, workdir, **codebook):
        for cmd in ("genscenes", "codebook", "detect-gt"):
            assert run(workdir, cmd) == 0
        config = json.loads((workdir / "config.json").read_text())
        config["codebook"].update(codebook)
        (workdir / "config.json").write_text(json.dumps(config))

    def test_codebook_render_mismatch_fails_before_estimating(self, workdir, capsys):
        self._codebook_then_config(workdir, z_ref_mm=350.0)
        assert run(workdir, "estimate") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "render_fingerprint" in err and "codebook.z_ref_mm" in err
        assert not list((workdir / "out" / "dataset").rglob("estimates.txt"))

    def test_codebook_empty_render_fingerprint_accepted(self, workdir):
        self._codebook_then_config(workdir, z_ref_mm=350.0)
        shutil.rmtree(workdir / "out" / "manifest")  # no recorded hash to object to the edit
        path = workdir / "out" / "codebook.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join("render_fingerprint\n" if l.startswith("render_fingerprint ") else l
                                for l in lines))
        assert run(workdir, "estimate") == 0
        assert len(list((workdir / "out" / "dataset").rglob("estimates.txt"))) == 2

    def test_eval_renders_each_distinct_pose_once(self, workdir, monkeypatch):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select"):
            assert run(workdir, cmd) == 0
        scene, calls, batches, windows, expected, references = [None], [], [], [], {}, []

        def key(pose):
            return pose.rotation.q.tobytes(), pose.translation.tobytes()

        def load_gt_poses(camera_path, path):
            scene[0] = int(path.parent.name[len("scene_"):])
            return real_load_gt_poses(camera_path, path)

        def scene_pose_errors(selections, gt_instances, mesh, sym, depth, rcfg):
            calls.append(scene[0])
            poses = expected.setdefault(scene[0], set())
            for selected in selections:
                for est, inst in bopeval.match_estimates(selected, gt_instances, sym, mesh.vertices):
                    if inst is not None:
                        poses |= {key(est.pose), key(inst.pose_cam)}
                        references.extend([est.pose, inst.pose_cam])
            return real_scene_pose_errors(selections, gt_instances, mesh, sym, depth, rcfg)

        def render_windows(mesh, poses, cfg):
            batches.append((scene[0], [key(pose) for pose in poses]))
            drawn = real_render_windows(mesh, poses, cfg)
            windows.extend(((mesh, pose, cfg), window) for pose, window in zip(poses, drawn))
            return drawn

        real_load_gt_poses, real_scene_pose_errors = fileio.load_gt_poses, bopeval.scene_pose_errors
        real_render_windows = bopeval.render_windows
        monkeypatch.setattr(fileio, "load_gt_poses", load_gt_poses)
        monkeypatch.setattr(bopeval, "scene_pose_errors", scene_pose_errors)
        monkeypatch.setattr(bopeval, "render_windows", render_windows)
        assert run(workdir, "eval") == 0

        assert calls == [0, 1]  # one bopeval call per scene
        assert [sid for sid, _ in batches] == [0, 1]  # one batch of windows per scene
        renders = [(sid, pose) for sid, poses in batches for pose in poses]
        assert len(renders) == len(set(renders))
        assert set(renders) == {(sid, pose) for sid, poses in expected.items() for pose in poses}
        # three sort methods over the same estimates pick many poses more than once
        assert 0 < len(renders) < len(references)
        assert len(windows) == len(renders)
        for (mesh, pose, cfg), (window, (top, left)) in windows:
            depth = render_scene([(mesh, pose, 1)], cfg)[0]
            assert 0 < window.size < depth.size
            assert np.array_equal(window, depth[top : top + window.shape[0], left : left + window.shape[1]])
            assert (window > 0).sum() == (depth > 0).sum()  # no surface pixel outside the window

    def test_manifest_lists_every_input_read(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "refine", "select", "eval"):
            assert run(workdir, cmd) == 0, cmd
        stages = manifest_entries(workdir / "out")
        mesh, sym = str(workdir / "box.txt"), str(workdir / "sym.txt")

        expected = {
            "genscenes": {mesh},
            "codebook": {mesh},
            "detect-gt": per_scene("instances.pgm", "gt_poses.txt"),
            "estimate": {mesh, "codebook.txt"} | per_scene("gray.pgm", "depth.pgm", "detections.txt"),
            "refine": {mesh} | per_scene("depth.pgm", "detections.txt", "estimates.txt"),
            "select": {mesh} | per_scene("depth.pgm", "detections.txt", "estimates.txt"),
            "eval": {mesh, sym} | per_scene("depth.pgm", "gt_poses.txt", "estimates.txt", "selection.txt"),
        }
        assert {name: set(entry["inputs"]) for name, entry in stages.items()} == expected

    def test_manifest_rgb_estimate_reads_no_depth(self, workdir):
        for cmd in ("genscenes", "codebook", "detect-gt"):
            assert run(workdir, cmd) == 0, cmd
        assert run(workdir, "estimate", "--mode", "rgb") == 0
        stages = manifest_entries(workdir / "out")
        expected = {str(workdir / "box.txt"), "codebook.txt"} | per_scene("gray.pgm", "detections.txt")
        assert set(stages["estimate"]["inputs"]) == expected

    def test_camera_read_once_per_scene(self, workdir, monkeypatch):
        assert run(workdir, "genscenes") == 0
        real_load_camera, scenes_read = fileio.load_camera, []

        def load_camera(path):
            scenes_read.append(path)
            return real_load_camera(path)

        monkeypatch.setattr(fileio, "load_camera", load_camera)
        assert run(workdir, "detect-gt") == 0
        assert scenes_read == [workdir / "out" / "dataset" / f"scene_00000{i}" / "camera.txt" for i in (0, 1)]

    def test_one_scene_at_a_time(self, workdir, monkeypatch):
        """No array that genscenes made for a scene, or that a scene's image or detection load
        returned, is alive when the next scene's arrays are made or loaded."""
        assert run(workdir, "codebook") == 0
        refs = {}  # scene -> weak references to the arrays made or loaded for it
        alive = []  # (stage, scene starting, scene whose arrays are alive)

        def tracked(fn, scene_of, arrays):
            def wrapper(*args, **kwargs):
                scene = scene_of(*args, **kwargs)
                alive.extend((stage, scene, other) for other, scene_refs in refs.items()
                             if other != scene and any(ref() is not None for ref in scene_refs))
                out = fn(*args, **kwargs)
                refs.setdefault(scene, []).extend(map(weakref.ref, arrays(out)))
                return out
            return wrapper

        def scene_dir(path, *args, **kwargs):
            return Path(path).parent.name

        monkeypatch.setattr(cli, "generate_scene", tracked(cli.generate_scene, lambda *args, scene_index: scene_index,
                                                           lambda made: made[1:]))  # depth, instance map, gray
        monkeypatch.setattr(fileio, "load_scene_images", tracked(fileio.load_scene_images, scene_dir,
                                                                 lambda images: images))
        monkeypatch.setattr(fileio, "load_detections", tracked(fileio.load_detections, scene_dir,
                                                               lambda dets: [d.mask for d in dets]))
        for stage in ("genscenes", "detect-gt", "estimate", "refine", "select", "eval"):
            refs.clear()
            assert run(workdir, stage, *(["--scenes", "3"] if stage == "genscenes" else [])) == 0, stage
            assert len(refs) == 3, stage  # every scene made or loaded
        assert alive == []

    def test_timing_covers_manifest_hashing(self, workdir, monkeypatch):
        real_sha256_file = fileio.sha256_file

        def slow_sha256_file(path):
            time.sleep(0.2)
            return real_sha256_file(path)

        monkeypatch.setattr(fileio, "sha256_file", slow_sha256_file)
        assert run(workdir, "genscenes", "--scenes", "1") == 0
        name, seconds = (workdir / "out" / "timings.txt").read_text().split()
        # genscenes hashes its mesh and five files of its one scene
        assert name == "genscenes" and float(seconds) >= 6 * 0.2


# config section -> (dataclass or function its values reach, {config key: its parameter there, where the names differ})
BUILT_FROM_CONFIG = {
    "scene": [(SceneConfig, {})], "render": [(RenderConfig, {})], "embedder": [(EmbedderSpec, {})],
    "translation": [(TranslationMode, {})], "selection": [(SelectionConfig, {})],
    "detect": [(gt_detections, {}), (DetectionPerturb, {"jitter_px": "bbox_jitter_px"})],
    "icp": [(IcpConfig, {}), (detection_cloud, {"max_obs_points": "max_points"})],
}


def test_config_defaults_agree_with_what_they_build():
    """A default written both in DEFAULT_CONFIG and where its value is used must agree.
    Two differ on purpose: a null translation.surface_offset_mm is the mesh's
    default_surface_offset (TranslationMode's 0.0 is the raw depth reading), and
    icp.max_obs_points caps the observed cloud, which detection_cloud leaves uncapped."""

    def defaults(build) -> dict:
        if dataclasses.is_dataclass(build):
            return {f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
                    for f in dataclasses.fields(build)}
        return {name: param.default for name, param in inspect.signature(build).parameters.items()}

    pairs = {}  # dotted config key -> (its DEFAULT_CONFIG value, its default where it is used)
    for section, builds in BUILT_FROM_CONFIG.items():
        for build, renamed in builds:
            found = defaults(build)
            for key, value in cli.DEFAULT_CONFIG[section].items():
                if renamed.get(key, key) in found:
                    pairs[f"{section}.{key}"] = (value, found[renamed.get(key, key)])
    assert set(pairs) == {f"{section}.{key}" for section in BUILT_FROM_CONFIG for key in cli.DEFAULT_CONFIG[section]}
    differ = {key for key, (value, default) in pairs.items()
              if np.asarray(value).tolist() != np.asarray(default).tolist()}
    assert differ == {"translation.surface_offset_mm", "icp.max_obs_points"}
    assert len(pairs) - len(differ) == 22


class TestDeterminism:
    def test_two_runs_byte_identical(self, workdir):
        digests = {}
        for sub in ("outA", "outB"):
            for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select", "eval", "report"):
                assert main([cmd, "--config", str(workdir / "config.json"),
                             "--out", str(workdir / sub), "--seed", "5"]) == 0, cmd
            tree = {}
            root = workdir / sub
            for p in sorted(root.rglob("*")):
                if p.is_file() and p.name != "timings.txt":
                    tree[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
            digests[sub] = tree
        assert digests["outA"] == digests["outB"]


    def test_refine_bytes_independent_of_cpu_count(self, workdir):
        # ICP forks one worker per CPU the process may run on: a child pinned
        # to one CPU, which refines in-process, and one that forks two ICP
        # workers on any host, for any number of points, write the same refined estimates
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate"):
            assert run(workdir, cmd) == 0, cmd
        child = (
            "import os, sys\n"
            "from binpick import select_refine\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "else:\n"
            "    os.sched_getaffinity = lambda pid: {0, 1}\n"
            "    select_refine._POINTS_PER_WORKER = 1\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from binpick.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "print(len(os.sched_getaffinity(0)), len(forks))\n"
            "sys.exit(code)\n"
        )
        written = {}
        for how in ("pinned", "unpinned"):
            out = workdir / how
            shutil.copytree(workdir / "out", out)
            done = subprocess.run(
                [sys.executable, "-c", child, how, "refine", "--config", str(workdir / "config.json"),
                 "--out", str(out), "--seed", "3"],
                env=child_env(), capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            written[how] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("estimates_refined.txt"))}
            assert done.stdout.split()[-2:] == (["1", "0"] if how == "pinned" else ["2", "2"])  # CPUs, forks
        assert len(written["pinned"]) == 2
        assert written["pinned"] == written["unpinned"]

    def test_refine_summarizes_icp_stops(self, workdir, caplog):
        config = json.loads((workdir / "config.json").read_text())
        config["icp"] = {"max_iterations": 1}
        (workdir / "config.json").write_text(json.dumps(config))
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate"):
            assert run(workdir, cmd) == 0, cmd
        with caplog.at_level(logging.WARNING, logger="binpick.cli"):
            assert run(workdir, "refine") == 0
        records = [r for r in caplog.records if r.name == "binpick.cli"]
        assert len(records) == 1
        message = records[0].getMessage()
        n = sum(p.read_text().count("\nest ") for p in (workdir / "out").rglob("estimates.txt"))
        assert message.startswith(f"ICP did not converge on {n} of {n} estimates (image:detection): iteration cap: 0:")
        assert "1:" in message

    def test_refine_keeps_estimate_without_depth_pixels(self, workdir, monkeypatch, caplog):
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate"):
            assert run(workdir, cmd) == 0, cmd
        calls = []

        def cloud(depth, mask, k, max_points=None):  # the first detection refine reads has no depth pixels
            calls.append(1)
            return np.zeros((0, 3)) if len(calls) == 1 else detection_cloud(depth, mask, k, max_points)

        monkeypatch.setattr(select_refine, "detection_cloud", cloud)
        with caplog.at_level(logging.WARNING, logger="binpick.cli"):
            assert run(workdir, "refine") == 0
        scene = workdir / "out" / "dataset" / "scene_000000"
        before, after = ([line for line in (scene / name).read_text().splitlines() if line.startswith("est ")]
                         for name in ("estimates.txt", "estimates_refined.txt"))
        assert after[0] == before[0] and after[0].endswith(" 0")  # its pose, refined 0
        assert all(line.endswith(" 1") for line in after[1:])
        n = sum(p.read_text().count("\nest ") for p in (workdir / "out").rglob("estimates.txt"))
        [record] = [r for r in caplog.records if r.name == "binpick.cli"]
        message = record.getMessage()
        assert message.startswith("ICP did not converge on ") and f" of {n} estimates (image:detection): " in message
        assert f"no correspondences: 0:{before[0].split()[1]}" in message


def one_error_line(capsys) -> str:
    """The single stderr line of a failed stage, without its "error: " prefix."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0][len("error: "):]


class TestMalformedInput:
    """Input a stage reads that is malformed or inconsistent: exit 1, one error line naming the file."""

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        root = make_workdir(tmp_path_factory.mktemp("finished"))
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select", "eval"):
            assert run(root, cmd) == 0, cmd
        return root

    @pytest.fixture()
    def out(self, finished, tmp_path):
        """A copy of the finished run directory; without a manifest, no recorded hash objects to an edit."""
        shutil.copytree(finished / "out", tmp_path / "out")
        shutil.rmtree(tmp_path / "out" / "manifest")
        return tmp_path / "out"

    STAGE_OUTPUT = {"detect-gt": "detections.txt", "estimate": "estimates.txt", "refine": "estimates_refined.txt",
                    "select": "selection.txt", "eval": "eval.json", "report": "report.txt"}

    def stage(self, finished, out, cmd, *flags):
        """Run cmd on out with its earlier outputs deleted; return the exit code and what it left of them."""
        for p in out.rglob(self.STAGE_OUTPUT[cmd]):
            p.unlink()
        code = main([cmd, "--config", str(finished / "config.json"), "--out", str(out), "--seed", "3", *flags])
        return code, list(out.rglob(self.STAGE_OUTPUT[cmd]))

    # format -> (file in the run directory, the stage that reads it, 1-based line of one of its records)
    FORMATS = {
        "camera": ("dataset/scene_000001/camera.txt", "detect-gt", 7),
        "gt_poses": ("dataset/scene_000001/gt_poses.txt", "detect-gt", 2),
        "detections": ("dataset/scene_000001/detections.txt", "estimate", 2),
        "codebook": ("codebook.txt", "estimate", 11),
        "estimates": ("dataset/scene_000001/estimates.txt", "select", 2),
        "selection": ("dataset/scene_000001/selection.txt", "eval", 2),
    }
    MUTATIONS = {
        "truncated": lambda tokens: tokens[: len(tokens) // 2],
        "non_numeric": lambda tokens: tokens[:-1] + ["x"],
        "unknown_tag": lambda tokens: ["bogus"] + tokens[1:],
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_malformed_record_fails_at_its_line(self, finished, out, capsys, fmt, mutation):
        rel, cmd, lineno = self.FORMATS[fmt]
        path = out / rel
        lines = path.read_text().splitlines()
        lines[lineno - 1] = " ".join(self.MUTATIONS[mutation](lines[lineno - 1].split()))
        path.write_text("\n".join(lines) + "\n")
        assert self.stage(finished, out, cmd) == (1, [])
        assert one_error_line(capsys).startswith(f"{path}:{lineno}: ")

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_indented_comment_is_skipped(self, finished, out, fmt):
        rel, cmd, _ = self.FORMATS[fmt]
        path = out / rel
        path.write_text("   # an indented comment\n" + path.read_text())
        assert self.stage(finished, out, cmd)[0] == 0

    @pytest.mark.parametrize("cmd", ["refine", "select"])
    @pytest.mark.parametrize("index", ["999", "-1"])
    def test_estimate_of_unknown_detection(self, finished, out, capsys, cmd, index):
        path = out / "dataset/scene_000001/estimates.txt"
        lines = path.read_text().splitlines()
        tokens = lines[1].split()
        lines[1] = " ".join(["est", index] + tokens[2:])
        path.write_text("\n".join(lines) + "\n")
        assert self.stage(finished, out, cmd) == (1, [])
        assert one_error_line(capsys).startswith(f"{path}:2: detection index {index} is not in detections.txt")

    @pytest.mark.parametrize("cmd", ["select", "eval"])
    def test_estimate_detection_repeats(self, finished, out, capsys, cmd):
        path = out / "dataset/scene_000001/estimates.txt"
        lines = path.read_text().splitlines()
        first, second = lines[1].split(), lines[2].split()
        assert first[0] == second[0] == "est" and first[1] != second[1]
        lines[2] = " ".join(["est", first[1]] + second[2:])
        path.write_text("\n".join(lines) + "\n")
        assert self.stage(finished, out, cmd) == (1, [])
        assert one_error_line(capsys) == f"{path}:3: detection index {first[1]} repeats line 2"

    def test_topk_pick_repeats(self, finished, out, capsys):
        path = out / "dataset/scene_000001/selection.txt"
        text = path.read_text()
        pick = re.search(r"^topk cosine (\d+)", text, flags=re.M).group(1)
        path.write_text(re.sub(r"^topk cosine .*$", f"topk cosine {pick} {pick}", text, flags=re.M))
        assert self.stage(finished, out, "eval") == (1, [])
        assert one_error_line(capsys) == f"{path}: topk cosine picks detection {pick} twice"

    def test_topk_pick_without_estimate(self, finished, out, capsys):
        path = out / "dataset/scene_000001/selection.txt"
        text = path.read_text()
        path.write_text(re.sub(r"^topk cosine .*$", "topk cosine 77", text, flags=re.M))
        assert self.stage(finished, out, "eval") == (1, [])
        assert one_error_line(capsys).startswith(f"{path}: topk cosine picks detection 77")

    def test_missing_topk_method(self, finished, out, capsys):
        path = out / "dataset/scene_000001/selection.txt"
        path.write_text(re.sub(r"^topk cosine .*\n", "", path.read_text(), flags=re.M))
        assert self.stage(finished, out, "eval") == (1, [])
        assert one_error_line(capsys) == f"{path}: no 'topk cosine' record"

    def test_topk_picked_with_another_k(self, finished, out, capsys):
        assert self.stage(finished, out, "select", "--k", "2")[0] == 0
        path = out / "dataset/scene_000000/selection.txt"
        n = sum(line.startswith("est ") for line in (path.parent / "estimates.txt").read_text().splitlines())
        assert n > 2
        assert self.stage(finished, out, "eval") == (1, [])  # k 5 from the config
        assert one_error_line(capsys) == (f"{path}: topk detector_score picks 2 of {n} estimates, "
                                          "not min(k, estimates) for k 5")
        assert self.stage(finished, out, "eval", "--k", "2")[0] == 0
        assert json.loads((out / "eval.json").read_text())["protocol"]["k"] == 2

    @pytest.mark.parametrize("content", [
        b"P5\n160 120\n",
        b"P5\n160 120\n65535\n" + bytes(1000),
        fileio.write_pgm16,
    ], ids=["header_only", "truncated", "size_differs_from_camera"])
    def test_bad_depth_image(self, finished, out, capsys, content):
        path = out / "dataset/scene_000001/depth.pgm"
        if callable(content):
            content(path, np.zeros((60, 80)))
        else:
            path.write_bytes(content)
        assert self.stage(finished, out, "select") == (1, [])
        assert one_error_line(capsys).startswith(f"{path}: ")

    def test_malformed_manifest(self, finished, out, capsys):
        path = out / "manifest" / "estimate.entry"
        path.parent.mkdir()
        path.write_text("{}")
        assert self.stage(finished, out, "select") == (1, [])
        assert one_error_line(capsys) == (f"{path}: malformed manifest (TypeError: an entry must be an object "
                                          "with 'inputs' and 'outputs' objects)")

    def test_no_estimate_from_any_detection(self, finished, out, capsys):
        # no depth in one scene: depth_center translation skips every detection
        scene = out / "dataset" / "scene_000001"
        fileio.write_pgm16(scene / "depth.pgm", np.zeros(fileio.read_pgm16(scene / "depth.pgm").shape, np.uint16))
        assert self.stage(finished, out, "estimate") == (1, [])
        assert one_error_line(capsys).startswith(f"{scene / 'detections.txt'}: no pose estimate from any of its ")

    def test_codebook_without_fx_ref_px(self, finished, out, capsys, caplog):
        path = out / "codebook.txt"
        path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                                if not line.startswith("fx_ref_px ")))
        with caplog.at_level(logging.WARNING):
            assert self.stage(finished, out, "estimate", "--mode", "rgb") == (1, [])
        assert one_error_line(capsys) == f"{path}: missing fx_ref_px"
        assert caplog.records == []  # no detection was skipped: none was handled

    def test_rgb_scale_codebook_with_zero_view_diagonals(self, finished, out, capsys):
        path = out / "codebook.txt"
        lines = [line.split() for line in path.read_text().splitlines()]
        for tokens in lines:
            if tokens[0] == "entry" and int(tokens[1]) % 2 == 0:
                tokens[6] = "0.0"  # entry <index> <qw qx qy qz> <view_diag_px> ...
        path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
        assert self.stage(finished, out, "estimate", "--mode", "rgb") == (1, [])
        message = one_error_line(capsys)
        assert message.startswith(f"{path}: ") and "view_diag_px" in message
        assert self.stage(finished, out, "estimate")[0] == 0  # depth_center does not use them

    @pytest.mark.parametrize("name", ["scene_000001_backup", "scene_x", "scene_1"])
    def test_stray_scene_directory(self, finished, out, capsys, name):
        stray = out / "dataset" / name
        shutil.copytree(out / "dataset" / "scene_000001", stray)
        assert self.stage(finished, out, "eval") == (1, [])
        assert one_error_line(capsys).startswith(f"{stray}: not a scene directory")

    def test_eval_refuses_file_changed_since_its_stage(self, finished, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished / "out", out)  # the manifest included
        path = out / "dataset" / "scene_000001" / "selection.txt"
        text = path.read_bytes()
        assert text.startswith(b"# score ")
        path.write_bytes(b"# Score " + text[len(b"# score "):])  # one byte, in a comment: still parses
        previous = (out / "eval.json").read_bytes()
        assert main(["eval", "--config", str(finished / "config.json"), "--out", str(out), "--seed", "3"]) == 1
        assert one_error_line(capsys) == ("manifest hash mismatch for dataset/scene_000001/selection.txt: "
                                          "file changed since it was produced")
        assert (out / "eval.json").read_bytes() == previous

    def test_eval_refuses_scenes_of_two_image_widths(self, finished, out, tmp_path, capsys):
        # the MSPD thresholds scale with the image width, so a run's scenes share one
        (tmp_path / "other").mkdir()
        other = make_workdir(tmp_path / "other")
        config = json.loads((other / "config.json").read_text())
        config["camera"].update(width=200, cx=100.0)
        (other / "config.json").write_text(json.dumps(config))
        for cmd in ("genscenes", "codebook", "detect-gt", "estimate", "select"):
            assert run(other, cmd) == 0, cmd
        scene = out / "dataset" / "scene_000001"
        shutil.rmtree(scene)
        shutil.copytree(other / "out" / "dataset" / "scene_000001", scene)
        assert self.stage(finished, out, "eval") == (1, [])
        assert one_error_line(capsys) == f"{scene / 'camera.txt'}: image width 200 px differs from 160 px of the first scene"

    def test_eval_json_missing_key(self, finished, out, capsys):
        path = out / "eval.json"
        payload = json.loads(path.read_text())
        del payload["methods"]["cosine"]["n_estimates"]
        path.write_text(json.dumps(payload))
        assert self.stage(finished, out, "report") == (1, [])
        message = one_error_line(capsys)
        assert message.startswith(f"{path}: ") and "n_estimates" in message


# every stage of a full chain: its manifest entry name and its command line
CHAIN = {"genscenes": ["genscenes"], "codebook": ["codebook"], "detect-gt": ["detect-gt"],
         "estimate": ["estimate"], "refine": ["refine"], "select": ["select"], "select-icp": ["select", "--icp"],
         "eval": ["eval"], "eval-icp": ["eval", "--icp"], "report": ["report"]}


class TestManifestChecks:
    """Every stage checks each file it reads against the manifest entry of the stage that wrote it."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        root = make_workdir(tmp_path_factory.mktemp("chain"))
        for argv in CHAIN.values():
            assert run(root, *argv) == 0, argv
        return root

    @pytest.fixture()
    def out(self, chain, tmp_path):
        """A copy of the full chain's run directory, its manifest included."""
        shutil.copytree(chain / "out", tmp_path / "out")
        return tmp_path / "out"

    @staticmethod
    def stage(chain, out, *argv):
        return main([*argv, "--config", str(chain / "config.json"), "--out", str(out), "--seed", "3"])

    @staticmethod
    def snapshot(out) -> dict:
        return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def test_icp_stages_keep_their_own_entries(self, chain):
        out = chain / "out"
        assert set(manifest_entries(out)) == set(CHAIN)
        assert [line.split()[0] for line in (out / "timings.txt").read_text().splitlines()] == list(CHAIN)

    def test_fresh_chain_replaces_no_file(self, workdir, monkeypatch):
        # a rename onto an existing file can wait for the disk to write that file back
        real_replace, renamed, replaced = os.replace, [], []

        def replace(src, dst):
            (replaced if os.path.lexists(dst) else renamed).append(Path(dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        for argv in CHAIN.values():
            assert run(workdir, *argv) == 0, argv
        assert replaced == []
        assert {path.name for path in renamed} >= {f"{name}.entry" for name in CHAIN}

    @pytest.mark.parametrize("name", CHAIN)
    def test_stage_hashes_each_file_once(self, chain, out, monkeypatch, name):
        real_sha256_file, hashed = fileio.sha256_file, collections.Counter()

        def counted_sha256_file(path):
            hashed[str(path)] += 1
            return real_sha256_file(path)

        monkeypatch.setattr(fileio, "sha256_file", counted_sha256_file)
        assert self.stage(chain, out, *CHAIN[name]) == 0
        entry = manifest_entries(out)[name]
        files = {p if Path(p).is_absolute() else str(out / p) for p in [*entry["inputs"], *entry["outputs"]]}
        assert hashed == dict.fromkeys(files, 1)

    def test_eval_refuses_selection_changed_after_icp_chain(self, chain, out, capsys):
        path = out / "dataset" / "scene_000001" / "selection.txt"
        text = path.read_bytes()
        path.write_bytes(b"# Score " + text[len(b"# score "):])  # one byte, in a comment: still parses
        before = self.snapshot(out)
        assert self.stage(chain, out, "eval") == 1
        assert one_error_line(capsys) == ("manifest hash mismatch for dataset/scene_000001/selection.txt: "
                                          "file changed since it was produced")
        assert self.snapshot(out) == before  # eval.json keeps its previous bytes

    def test_estimate_refuses_codebook_changed_after_its_stage(self, chain, out, capsys):
        path = out / "codebook.txt"
        path.write_text("".join("render_fingerprint\n" if line.startswith("render_fingerprint ") else line
                                for line in path.read_text().splitlines(keepends=True)))  # still a valid codebook
        before = self.snapshot(out)
        assert self.stage(chain, out, "estimate") == 1
        assert one_error_line(capsys) == "manifest hash mismatch for codebook.txt: file changed since it was produced"
        assert self.snapshot(out) == before

    def test_estimate_refuses_unparsable_codebook_changed_after_its_stage(self, chain, out, capsys):
        # checked before it is parsed: the hash mismatch, not a parse error at codebook.txt:1
        (out / "codebook.txt").write_text("not a codebook\n")
        before = self.snapshot(out)
        assert self.stage(chain, out, "estimate") == 1
        assert one_error_line(capsys) == "manifest hash mismatch for codebook.txt: file changed since it was produced"
        assert self.snapshot(out) == before

    def test_estimate_refuses_detections_stale_after_camera_resize(self, chain, out, capsys):
        # the old run lengths do not cover the new image size, but the file is refused as stale before it is parsed
        config = json.loads((chain / "config.json").read_text())
        config["camera"].update(width=80, height=60, cx=40.0, cy=30.0)
        (out.parent / "small.json").write_text(json.dumps(config))
        assert main(["genscenes", "--config", str(out.parent / "small.json"), "--out", str(out), "--seed", "3"]) == 0
        before = self.snapshot(out)
        assert self.stage(chain, out, "estimate") == 1
        assert one_error_line(capsys) == ("stale dataset/scene_000000/detections.txt: genscenes rewrote "
                                          "dataset/scene_000000/camera.txt after detect-gt read it; re-run detect-gt")
        assert self.snapshot(out) == before

    @pytest.mark.parametrize("rel, message", [
        ("codebook.txt", "missing codebook: {}"),
        ("dataset/scene_000001/detections.txt", "missing detections: {}"),
        ("dataset/scene_000001/depth.pgm", "missing image: {}"),
    ], ids=["codebook", "detections", "image"])
    def test_deleted_input_is_its_loaders_error(self, chain, out, capsys, rel, message):
        (out / rel).unlink()
        assert self.stage(chain, out, "estimate") == 1
        assert one_error_line(capsys) == message.format(out / rel)

    def test_stages_refuse_files_stale_further_up_their_chain(self, chain, out, capsys):
        # select --icp, eval --icp and report read no file that estimate wrote,
        # but their inputs were made from estimates.txt
        assert self.stage(chain, out, "codebook", "--codebook-size", "16") == 0
        before = self.snapshot(out)
        for argv, stale in ((["select", "--icp"], "dataset/scene_000000/estimates_refined.txt"),
                            (["eval"], "dataset/scene_000000/estimates.txt"),
                            (["eval", "--icp"], "dataset/scene_000000/estimates_refined.txt"),
                            (["report"], "eval.json")):
            assert self.stage(chain, out, *argv) == 1, argv
            assert one_error_line(capsys) == (f"stale {stale}: codebook rewrote codebook.txt "
                                              "after estimate read it; re-run estimate")
            assert self.snapshot(out) == before, argv

    def test_estimates_bytes_pinned(self, chain):
        # sha256 of the chain's result files, pinned: a change to the bits of
        # the codebook, a detection crop, ICP, selection or evaluation fails here
        out = chain / "out"
        names = ("estimates.txt", "estimates_refined.txt", "selection.txt", "selection_icp.txt",
                 "eval.json", "eval_icp.json")
        digests = {str(p.relative_to(out)): fileio.sha256_file(p) for name in names for p in out.rglob(name)}
        scene0, scene1 = "dataset/scene_000000/", "dataset/scene_000001/"
        assert digests == {
            scene0 + "estimates.txt": "284f4767ee2f61891b59a28558155a4865543a8f2467fdb66cffabb59903e23a",
            scene1 + "estimates.txt": "884f3d7945af3f0f3e125ecdf170d68d925ae764e85d5dd49741a051926ff63f",
            scene0 + "estimates_refined.txt": "1addfde185238f56a5e436484a001cde7139b2a8445e192970262b93e306cc7d",
            scene1 + "estimates_refined.txt": "1983dd9fda3a59db49f28e3e6f5034e2eafe8a6ba970c93d0a0af5092a8579ba",
            scene0 + "selection.txt": "c2cb690be8abf6259ae22123d68d45a5bec5b17df241d6dae1c26118f580cfed",
            scene1 + "selection.txt": "1f0a4b6c11640d78b7d6cae5556240b12a1c5262a1fe5501370a1de898793132",
            scene0 + "selection_icp.txt": "ba6bc589b5d4ed4051289354df848a89b356aeef81053d68450e0e4ec0d1a35b",
            scene1 + "selection_icp.txt": "73d4bdfc24d79f577e98c7bfe79c6ed378cdf67b5fc005e8a4d3ce4ae5955fc5",
            "eval.json": "7a3f384b87ff2e8a4488b0993b5d7aa1d79293bca6c0a6712bd432b6cb20939a",
            "eval_icp.json": "2391695fd7499db8cc8330f5635a7d3ea39409fcb75c87c7d0b14f7781f04290",
        }

    def test_stages_refuse_inputs_stale_after_genscenes_rerun(self, chain, out, capsys):
        assert main(["genscenes", "--config", str(chain / "config.json"), "--out", str(out), "--seed", "2"]) == 0
        before = self.snapshot(out)
        camera = "dataset/scene_000000/camera.txt"
        for cmd, stale, reader in (("select", "detections.txt", "detect-gt"),
                                   ("refine", "detections.txt", "detect-gt"),
                                   ("eval", "estimates.txt", "estimate")):
            assert self.stage(chain, out, cmd) == 1, cmd
            assert one_error_line(capsys) == (f"stale dataset/scene_000000/{stale}: genscenes rewrote {camera} "
                                              f"after {reader} read it; re-run {reader}")
            assert self.snapshot(out) == before, cmd
