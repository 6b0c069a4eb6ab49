"""Command-line pipeline: scene generation through evaluation reports.

Stages (run in order; each reads its declared inputs and writes its
declared outputs under the run directory):

    genscenes   synthetic scenes: images + ground-truth poses
    codebook    rotation codebook for the object mesh
    detect-gt   ground-truth-derived detections (optional noise)
    estimate    per-detection pose estimates
    refine      ICP-refined copies of the estimates
    select      depth-error scores and top-k picks per sort method
    eval        VSD/MSSD/MSPD average recall per sort method
    report      tables, CSV, and SVG plots from eval outputs

Every stage checks each input against the manifest entry of the stage that
wrote it, ends by writing its own entry, manifest/<stage>.entry, with its
config echo and input/output content hashes, and appends to timings.txt.
Each process keeps the heap memory it frees mapped (_keep_freed_memory).
All randomness derives from the master seed, so a full run is byte-reproducible except timings.txt.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bopeval, fileio, pipeline, select_refine
from .codebook import EmbedderSpec, build_codebook, render_fingerprint, sample_rotations
from .geometry import CameraIntrinsics, SymmetrySet, load_mesh, load_symmetries
from .render import DEFAULT_LIGHT, RenderConfig, render_windows
from .scenegen import DetectionPerturb, SceneConfig, SceneGT, generate_scene, gt_detections

ENV_OUT = "BINPICK_OUT"

log = logging.getLogger(__name__)

MODE_FLAG_TO_MODE = {"rgb": pipeline.MODE_RGB_SCALE, "depth": pipeline.MODE_DEPTH_CENTER}

DEFAULT_CONFIG = {
    "object_id": 1,
    "mesh": None,
    "symmetries": None,
    "master_seed": 0,
    "k": 5,
    "scenes": 10,
    "scene": {
        "instance_count": 30,
        "bin_extents_mm": [300.0, 300.0, 150.0],
        "cam_height_range_mm": [270.0, 330.0],
        "cam_cone_half_angle_deg": 20.0,
    },
    "camera": {"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
    "render": {"near_mm": 10.0, "far_mm": 5000.0, "light_dir": list(DEFAULT_LIGHT)},
    "codebook": {
        "size": 4096,
        "seed": 0,
        "z_ref_mm": 300.0,
        "camera": {"fx": 400.0, "fy": 400.0, "cx": 80.0, "cy": 80.0, "width": 160, "height": 160},
    },
    "embedder": {"crop_px": 128, "grid_px": 32},
    "crop": {"mask_only": False},
    "translation": {"mode": "depth_center", "center_window_px": 5, "surface_offset_mm": None},
    "detect": {"min_visible_fraction": 0.10, "jitter_px": 0, "dropout_prob": 0.0},
    "selection": {"margin_mm": 5.0, "min_coverage": 0.3, "variant": "mean"},
    "icp": {"max_iterations": 30, "tolerance_mm": 1e-4, "max_corr_mm": 10.0, "model_points": 1000,
            "max_obs_points": 2000, "seed": 0},
}


def _deep_update(base: dict, extra, path: str = "") -> dict:
    """base with extra merged in; a key that base lacks, or a value whose
    shape (object or not) or type differs from base's, is an error naming
    its dotted path."""
    if not isinstance(extra, dict):
        raise ValueError(f"config key '{path}' must be an object" if path else "config must be a JSON object")
    out = dict(base)
    for key, value in extra.items():
        sub = f"{path}.{key}" if path else key
        if key not in out:
            raise ValueError(f"unknown config key '{sub}'")
        if isinstance(out[key], dict):
            out[key] = _deep_update(out[key], value, sub)
        elif isinstance(value, dict):
            raise ValueError(f"config key '{sub}' must not be an object")
        else:
            _check_type(value, out[key], sub)
            out[key] = value
    return out


# bool before int: a bool is an int to isinstance
_KINDS = ((bool, "true or false"), (int, "an integer"), (float, "a number"), (str, "a string"), (list, "a list"))


# what a key with a None default takes besides None: a value of this one's type
_NULLABLE = {"mesh": "", "symmetries": "", "translation.surface_offset_mm": 0.0}


def _check_type(value, default, key: str) -> None:
    """Reject a config value whose JSON type differs from its default's (or, for a None default,
    from its _NULLABLE entry's), a number that is not finite, or an integer outside int64. An int
    stands for a float."""
    if default is None:
        if value is None:
            return
        default = _NULLABLE[key]
    kind, name = next((kind, name) for kind, name in _KINDS if isinstance(default, kind))
    if not isinstance(value, (int, float) if kind is float else kind) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"config key '{key}' must be {name}, not {json.dumps(value)}")
    try:  # json reads NaN, Infinity and 1e400; an int too large for a float overflows
        finite = kind is not float or math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"config key '{key}' must be a finite number, not {json.dumps(value)}")
    if kind is int and not -(1 << 63) <= value < 1 << 63:  # numpy takes no larger integer
        raise ValueError(f"config key '{key}' must be an integer within int64, not {json.dumps(value)}")
    if kind is list and default:
        for i, item in enumerate(value):
            _check_type(item, default[0], f"{key}[{i}]")


def _within(name: str, value, low, high=None, above: bool = False):
    """value, if it is at least low (more than low, if above) and at most high; else an error naming it."""
    if not ((value > low if above else value >= low) and (high is None or value <= high)):
        bound = f"in [{low}, {high}]" if high is not None else f"{'>' if above else '>='} {low}"
        raise ValueError(f"{name} must be {bound}")
    return value


def _section(name: str, build, **values):
    """build(**values); a value that the typed config rejects is an error
    naming its config section."""
    try:
        return build(**values)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


# flag (argparse dest) -> the dotted config key it overrides; only --mode maps
# its value. A flag not given is None (--mask-only too) and overrides nothing.
FLAG_KEYS = {"seed": "master_seed", "scenes": "scenes", "instances": "scene.instance_count",
             "codebook_size": "codebook.size", "k": "k", "mode": "translation.mode",
             "mask_only": "crop.mask_only", "mesh": "mesh", "symmetries": "symmetries"}


class RunConfig:
    """Resolved configuration for one run; see DEFAULT_CONFIG for the schema.

    The one reader of config values: each typed config is built straight from
    its section, so the dataclasses' own checks apply, every other value is
    checked and held as an attribute, and a rejected value is an error naming
    its section. Stages read the attributes; data is only the manifest's echo.
    """

    def __init__(self, data: dict, out_dir: Path):
        self.data = data
        self.out_dir = Path(out_dir)
        seed = _within("master_seed", data["master_seed"], 0)
        self.scenes = _within("scenes", data["scenes"], 0)
        self.k = _within("k", data["k"], 1)
        self.mesh_path, self.symmetries_path = data["mesh"], data["symmetries"]
        self.mask_only = data["crop"]["mask_only"]
        self._render = data["render"]
        self.render = _section("render", self.render_at, k=_section("camera", CameraIntrinsics, **data["camera"]))
        cb = data["codebook"]
        self.codebook_size = _within("codebook: size", cb["size"], 1)
        self.codebook_seed = _within("codebook: seed", cb["seed"], 0)
        self.z_ref_mm = _within("codebook: z_ref_mm", cb["z_ref_mm"], 0, above=True)
        self.codebook_render = _section("render", self.render_at,
                                        k=_section("codebook.camera", CameraIntrinsics, **cb["camera"]))
        self.scene = _section("scene", SceneConfig, object_id=data["object_id"], master_seed=seed, **data["scene"])
        self.embedder = _section("embedder", EmbedderSpec, **data["embedder"])
        self.selection = _section("selection", select_refine.SelectionConfig, **data["selection"])
        # max_obs_points caps the observed cloud (detection_cloud), not ICP itself
        icp = dict(data["icp"])
        self.max_obs_points = _within("icp: max_obs_points", icp.pop("max_obs_points"), 1)
        self.icp = _section("icp", select_refine.IcpConfig, **icp)
        # a None surface_offset_mm is the mesh's default_surface_offset, filled in by estimate
        self.surface_offset_mm = data["translation"]["surface_offset_mm"]
        self.translation = _section("translation", pipeline.TranslationMode,
                                    **{**data["translation"], "surface_offset_mm": self.surface_offset_mm or 0.0})
        d = data["detect"]
        self.min_visible_fraction = _within("detect: min_visible_fraction", d["min_visible_fraction"], 0, 1)
        perturb = _section("detect", DetectionPerturb, seed=seed, bbox_jitter_px=d["jitter_px"],
                           dropout_prob=d["dropout_prob"])
        self.perturb = perturb if perturb.bbox_jitter_px > 0 or perturb.dropout_prob > 0 else None

    @staticmethod
    def load(args) -> "RunConfig":
        data = DEFAULT_CONFIG
        out = Path(args.out or os.environ.get(ENV_OUT) or "binpick_out")
        if args.config:
            path = Path(args.config)
            try:
                extra = json.loads(path.read_text())
            except ValueError as err:
                raise ValueError(f"{path}: invalid JSON ({err})") from None
            try:
                data = _deep_update(data, extra)
                RunConfig(data, out)  # the file's values pass the checks on their own
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
        overrides = {}
        for flag, key in FLAG_KEYS.items():
            value = getattr(args, flag, None)
            if value is not None:
                section, _, name = key.rpartition(".")
                value = MODE_FLAG_TO_MODE[value] if flag == "mode" else value
                (overrides.setdefault(section, {}) if section else overrides)[name] = value
        return RunConfig(_deep_update(data, overrides), out)

    @property
    def dataset_dir(self) -> Path:
        return self.out_dir / "dataset"

    @property
    def codebook_path(self) -> Path:
        return self.out_dir / "codebook.txt"

    def render_at(self, k: CameraIntrinsics) -> RenderConfig:
        """The render section's config for camera k. Built from the section
        itself: RenderConfig normalises its light, and must do so only once."""
        return RenderConfig(k, **self._render)


class _Scene(NamedTuple):
    """One dataset scene as a stage read it."""

    sid: int
    dir: Path
    k: CameraIntrinsics
    dets: list | None = None
    gt: SceneGT | None = None
    estimates: list | None = None  # (line, PoseEstimate) pairs
    topk: dict | None = None  # sort method -> PoseEstimates picked, in pick order
    depth: np.ndarray | None = None
    instance_map: np.ndarray | None = None
    gray: np.ndarray | None = None


def _is_single_file_manifest(path: Path) -> bool:
    """Whether path holds the one-file manifest of an earlier binpick, a JSON
    object with a "stages" key; a manifest.json of anything else is left alone."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return isinstance(doc, dict) and "stages" in doc


class _Stage:
    """Checks and records a stage's inputs, records its outputs; a failure, recording included, removes the outputs."""

    def __init__(self, cfg: RunConfig, name: str):
        self.cfg = cfg
        self.name = name
        self.inputs = []
        self.outputs = []
        # read before the stage works, so a malformed manifest leaves no outputs behind
        self.manifest = fileio.Manifest(cfg.out_dir / "manifest")
        single = cfg.out_dir / "manifest.json"
        if _is_single_file_manifest(single):
            raise ValueError(f"{single}: single-file manifest of an earlier binpick; stages now record to "
                             f"{self.manifest.path}/<stage>.entry, so re-run the chain in a new run directory")

    def run(self, fn) -> None:
        self.cfg.out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        try:
            fn(self)
            self.manifest.record(self.name, self.cfg.data, self.inputs, self.outputs, self.cfg.out_dir)
        except BaseException:
            for p in self.outputs:
                Path(p).unlink(missing_ok=True)
            raise
        elapsed = time.perf_counter() - start
        with open(self.cfg.out_dir / "timings.txt", "a") as f:
            f.write(f"{self.name} {elapsed:.3f}\n")

    def read(self, load, *paths, **kwargs):
        """load(*paths, **kwargs), once paths pass Manifest.verify_inputs and join this stage's inputs.
        Every input passes through here, so none is parsed before it is checked against the
        stage that wrote it; a missing one is left to load to report."""
        self.manifest.verify_inputs(paths, self.cfg.out_dir)
        self.inputs.extend(paths)
        return load(*paths, **kwargs)

    def mesh(self):
        path = self.cfg.mesh_path
        if not path:
            raise ValueError("config needs a mesh path (--mesh or \"mesh\" in the config file)")
        return self.read(load_mesh, path)

    def symmetries(self) -> SymmetrySet:
        path = self.cfg.symmetries_path
        return self.read(load_symmetries, path) if path else SymmetrySet.trivial()

    def scenes(self, *images: str, dets: bool = False, gt: bool = False, estimates: str | None = None,
               selection: str | None = None):
        """Yield every dataset scene: its camera, the named images (fileio.SCENE_FILES
        parts) and, if asked for, its detections, GT poses, estimates file and the
        top-k picks of a selection file, which fileio.load_selection checks against
        the estimates file and k.

        One scene at a time: a caller's loop ends its body by deleting the scene
        and whatever holds its images or masks, so that none of them is alive when
        the next scene loads, and a stage holds one scene's full frames at most."""
        root = self.cfg.dataset_dir
        ids = fileio.list_scene_ids(root)
        if not ids:
            raise FileNotFoundError(f"missing dataset: no scenes under {root}")
        for sid in ids:
            d = fileio.scene_dir(root, sid)
            files = {part: d / name for part, name in fileio.SCENE_FILES.items()}
            if gt:
                read = {"gt": self.read(fileio.load_gt_poses, files["camera"], files["gt"])}
                k = read["gt"].intrinsics
            else:
                read, k = {}, self.read(fileio.load_camera, files["camera"])[0]
            shape = (k.height, k.width)
            read.update(zip(images, self.read(fileio.load_scene_images, *map(files.__getitem__, images), shape=shape)))
            if dets:
                read["dets"] = self.read(fileio.load_detections, files["dets"], image_shape=shape, image_id=sid)
            if estimates:
                read["estimates"] = self.read(fileio.load_estimates, d / estimates, image_id=sid,
                                              n_detections=len(read["dets"]) if dets else None)
            if selection:
                read["topk"] = self.read(fileio.load_selection, d / selection, estimates=read["estimates"],
                                         estimates_path=d / estimates, k=self.cfg.k)[1]
            yield _Scene(sid, d, k, **read)


# --icp -> the (estimates, selection, eval) file names of the plain or the ICP-refined chain
CHAIN_NAMES = {False: ("estimates.txt", "selection.txt", "eval.json"),
               True: ("estimates_refined.txt", "selection_icp.txt", "eval_icp.json")}


# ---------------------------------------------------------------------------
# stage implementations

def stage_genscenes(cfg: RunConfig, stage: _Stage, args) -> None:
    mesh = stage.mesh()
    stale = [sid for sid in fileio.list_scene_ids(cfg.dataset_dir) if sid >= cfg.scenes]
    for sid in range(cfg.scenes):
        gt, depth, ids, gray = generate_scene(mesh, cfg.scene, cfg.render, scene_index=sid)
        stage.outputs += fileio.write_scene(cfg.dataset_dir, sid, gt, depth, ids, gray)
        del gt, depth, ids, gray
    for sid in stale:  # a previous run's scenes beyond this run's count
        shutil.rmtree(fileio.scene_dir(cfg.dataset_dir, sid))


def stage_codebook(cfg: RunConfig, stage: _Stage, args) -> None:
    mesh = stage.mesh()
    rotations = sample_rotations(cfg.codebook_size, cfg.codebook_seed)
    cb = build_codebook(
        mesh, rotations, cfg.embedder, cfg.codebook_render, cfg.z_ref_mm, object_id=cfg.scene.object_id
    )
    stage.outputs += fileio.write_codebook(cfg.codebook_path, cb)


def stage_detect_gt(cfg: RunConfig, stage: _Stage, args) -> None:
    for scene in stage.scenes("instance_map", gt=True):
        dets = gt_detections(
            scene.instance_map, scene.gt, image_id=scene.sid,
            min_visible_fraction=cfg.min_visible_fraction, perturb=cfg.perturb,
        )
        stage.outputs += fileio.write_detections(cfg.dataset_dir, scene.sid, dets)
        del scene, dets


def stage_estimate(cfg: RunConfig, stage: _Stage, args) -> None:
    mesh = stage.mesh()
    cb = stage.read(fileio.load_codebook, cfg.codebook_path)
    expected = render_fingerprint(cfg.codebook_render, cfg.z_ref_mm)
    if cb.render_fingerprint and cb.render_fingerprint != expected:
        raise ValueError(
            f"{cfg.codebook_path}: render_fingerprint {cb.render_fingerprint} does not match {expected} "
            "of the active codebook.camera, render and codebook.z_ref_mm config"
        )
    mode = cfg.translation
    if cfg.surface_offset_mm is None:
        mode = replace(mode, surface_offset_mm=pipeline.default_surface_offset(mesh))
    images = ("gray", "depth") if mode.mode == pipeline.MODE_DEPTH_CENTER else ("gray",)
    for scene in stage.scenes(*images, dets=True):
        try:  # estimate_poses raises only when the codebook does not fit, before its first detection
            ests = pipeline.estimate_poses(
                scene.gray, scene.depth, scene.dets, cb, scene.k, mode, embedder=cfg.embedder, mask_only=cfg.mask_only
            )
        except ValueError as err:
            raise ValueError(f"{cfg.codebook_path}: {err}") from None
        if scene.dets and not ests:
            raise ValueError(f"{scene.dir / fileio.SCENE_FILES['dets']}: no pose estimate from any of its "
                             f"{len(scene.dets)} detections (see the skipped-detections warning)")
        stage.outputs += fileio.write_estimates(scene.dir / "estimates.txt", ests)
        del scene


def _refine_inputs(stage: _Stage, max_obs: int) -> list:
    """(scene dir, estimates, detection clouds) per scene; no scene's images
    or masks outlive this call."""
    out = []
    for scene in stage.scenes("depth", dets=True, estimates="estimates.txt"):
        ests = [est for _, est in scene.estimates]
        clouds = [
            select_refine.detection_cloud(scene.depth, scene.dets[est.detection_index].mask, scene.k, max_obs)
            for est in ests
        ]
        out.append((scene.dir, ests, clouds))
        del scene
    return out


def stage_refine(cfg: RunConfig, stage: _Stage, args) -> None:
    mesh = stage.mesh()
    scenes = _refine_inputs(stage, cfg.max_obs_points)
    # one lock-step ICP call for every estimate of every scene; zip reads ests
    # first, so each scene takes just its own results
    results = iter(select_refine.icp_refine_many(
        [cloud for _, _, clouds in scenes for cloud in clouds], mesh,
        [est.pose for _, ests, _ in scenes for est in ests], cfg.icp,
    ))
    stopped = {}  # message -> "image:detection" of the estimates ICP did not converge on
    for d, ests, clouds in scenes:
        refined = []
        for est, cloud, result in zip(ests, clouds, results):
            if not result.converged:
                stopped.setdefault(result.message, []).append(f"{est.image_id}:{est.detection_index}")
            # an estimate whose detection has no depth pixels keeps its pose, unrefined
            refined.append(replace(est, pose=result.pose, refined=len(cloud) > 0))
        stage.outputs += fileio.write_estimates(d / "estimates_refined.txt", refined)
    if stopped:
        log.warning(
            "ICP did not converge on %d of %d estimates (image:detection): %s",
            sum(map(len, stopped.values())), sum(len(ests) for _, ests, _ in scenes),
            "; ".join(f"{msg}: {', '.join(group)}" for msg, group in sorted(stopped.items())),
        )


def stage_select(cfg: RunConfig, stage: _Stage, args) -> None:
    mesh = stage.mesh()
    est_name, sel_name, _ = CHAIN_NAMES[args.icp]
    for scene in stage.scenes("depth", dets=True, estimates=est_name):
        rcfg = cfg.render_at(scene.k)
        ests = [est for _, est in scene.estimates]
        windows = render_windows(mesh, [est.pose for est in ests], rcfg)
        scored = [
            (est, select_refine.depth_error(scene.depth, window, scene.dets[est.detection_index].mask,
                                            rcfg, cfg.selection))
            for est, window in zip(ests, windows)
        ]
        topk = {}
        for method in select_refine.SORT_METHODS:
            picked = select_refine.select_top_k(scored, method, cfg.k, cfg.selection)
            topk[method] = [est.detection_index for est, _ in picked]
        stage.outputs += fileio.write_selection(scene.dir / sel_name, scored, topk)
        del scene, windows


def stage_eval(cfg: RunConfig, stage: _Stage, args) -> None:
    mesh, sym = stage.mesh(), stage.symmetries()
    est_name, sel_name, eval_name = CHAIN_NAMES[args.icp]
    methods = select_refine.SORT_METHODS

    errors_by_method = {m: [] for m in methods}
    # translation mode as recorded in the estimates; the config only names it
    # when no estimate was read
    mode_seen, width = None, None
    for scene in stage.scenes("depth", gt=True, estimates=est_name, selection=sel_name):
        width = width or scene.k.width  # the MSPD thresholds scale with the run's one image width
        if scene.k.width != width:
            raise ValueError(f"{scene.dir / fileio.SCENE_FILES['camera']}: image width {scene.k.width} px "
                             f"differs from {width} px of the first scene")
        est_path = scene.dir / est_name
        for line, est in scene.estimates:
            mode_seen = mode_seen or (est.mode, f"{est_path}:{line}")
            if est.mode != mode_seen[0]:
                raise ValueError(
                    f"{est_path}:{line}: translation mode {est.mode} differs from {mode_seen[0]} at {mode_seen[1]}"
                )
        errors = bopeval.scene_pose_errors(
            [scene.topk[method] for method in methods], scene.gt.instances, mesh, sym,
            scene.depth, cfg.render_at(scene.k),
        )
        for method, method_errors in zip(methods, errors):
            errors_by_method[method].extend(method_errors)
        del scene

    per_method = {
        m: bopeval.average_recall(errs, mesh.diameter, width)
        for m, errs in errors_by_method.items()
    }
    protocol = {
        "matching": "greedy in selection order, min symmetry-aware MSSD, one-to-one",
        "k": cfg.k,
        "icp": args.icp,
        "translation_mode": mode_seen[0] if mode_seen else cfg.translation.mode,
        "translation_note": "rgb_scale depth is a bbox-diagonal scale-ratio heuristic",
    }
    stage.outputs += fileio.write_eval_json(cfg.out_dir / eval_name, per_method, protocol)


def stage_report(cfg: RunConfig, stage: _Stage, args) -> None:
    eval_paths = args.eval_paths or [cfg.out_dir / "eval.json"]
    labels = args.labels or []
    if len(labels) > len(eval_paths):
        raise ValueError(f"{len(labels)} --label values for {len(eval_paths)} eval files")
    # a file without a --label is labelled by its stem; the plot and the table tell files apart by label
    labels = labels + [Path(p).stem for p in eval_paths[len(labels):]]
    named = {}
    for label, p in zip(labels, eval_paths):
        if label in named:
            raise ValueError(f"label '{label}' names both {named[label]} and {p}; give each --eval its own --label")
        named[label] = p
    labeled = []
    for i, (label, p) in enumerate(zip(labels, eval_paths)):
        per_method, file_protocol = stage.read(fileio.load_eval_json, p)
        labeled.append((label, per_method))
        if i == 0:
            protocol = file_protocol  # the report states the first file's protocol
    stage.outputs += fileio.emit_report(cfg.out_dir, labeled, protocol)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binpick", description="synthetic bin-picking pose estimation pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file (see DEFAULT_CONFIG)")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help=f"run directory (default ${ENV_OUT} or ./binpick_out)")
        p.add_argument("--k", type=int, help="top-k for selection and eval")
        p.add_argument("--mesh", help="object mesh file (ASCII v/f, mm)")
        return p

    p = command("genscenes", stage_genscenes, "generate synthetic scenes")
    p.add_argument("--scenes", type=int, help="number of scenes")
    p.add_argument("--instances", type=int, help="instances per scene")

    p = command("codebook", stage_codebook, "build the rotation codebook")
    p.add_argument("--codebook-size", type=int, help="number of rotations")

    command("detect-gt", stage_detect_gt, "derive ground-truth detections")

    p = command("estimate", stage_estimate, "estimate poses from detections")
    p.add_argument("--mode", choices=sorted(MODE_FLAG_TO_MODE), help="translation mode")
    p.add_argument("--mask-only", action="store_true", default=None, help="zero crop pixels outside the mask")

    command("refine", stage_refine, "ICP-refine the estimates")

    p = command("select", stage_select, "score estimates and pick top-k per method")
    p.add_argument("--icp", action="store_true", help="use the refined estimates")

    p = command("eval", stage_eval, "compute average recall per sort method")
    p.add_argument("--icp", action="store_true", help="use the refined estimates")
    p.add_argument("--symmetries", help="object symmetry file")

    p = command("report", stage_report, "emit tables, CSV, and plots")
    p.add_argument("--eval", dest="eval_paths", action="append", help="eval json (repeatable)")
    p.add_argument("--label", dest="labels", action="append", help="label per --eval input")

    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Keep freed heap memory mapped for the life of the process, where libc
    has glibc's mallopt. A stage allocates and frees the same large raster
    temporaries over and over, and glibc would hand each one back to the
    system and fault it in again on the next use; the codebook and ICP
    workers fork with this setting. It costs no memory worth counting: on
    the three benchmark workloads (seed 7, medians of three chains, 2-core
    x86-64 host), no stage's peak RSS was more than 0.7 % (0.3 MB) higher
    with it than without it, and no workload's highest stage peak was higher."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        # select --icp and eval --icp record, and time, apart from the plain chain's stages
        name = args.command + ("-icp" if getattr(args, "icp", False) else "")
        _Stage(cfg, name).run(lambda stage: args.run(cfg, stage, args))
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
