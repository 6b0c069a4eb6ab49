"""Deterministic synthetic bin-scene generation and ground-truth detections.

Scenes are built by layered-jitter placement instead of physics settling:
positions are sampled uniformly in the bin, orientations uniformly over the
rotation group, and each part rests on the highest bounding sphere under its
footprint (or the current layer floor). The camera is sampled inside a cone
around the bin's vertical axis, matching a sensor mounted above the bin.

All randomness derives from a master seed via named SeedSequence streams, so
output is independent of generation order or parallel scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose, Rotation, TriangleMesh, compose
from .render import RenderConfig, mask_bbox, render_scene, render_windows

__all__ = [
    "SceneConfig",
    "GTInstance",
    "SceneGT",
    "Detection",
    "DetectionPerturb",
    "derive_rng",
    "generate_scene",
    "gt_detections",
]

# SeedSequence stream tags (documented in FORMATS.md)
STREAM_SCENE = 1
STREAM_DETECT = 2

# placement: the gap above each part's support, the least center distance in
# bounding diameters, and the draws tried in a layer before the next one opens
CLEARANCE_MM, OVERLAP_FACTOR, MAX_ATTEMPTS = 1.0, 1.0, 100


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-item generator: PCG64 seeded by (master, key...)."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


@dataclass(frozen=True)
class SceneConfig:
    object_id: int = 1
    instance_count: int = 30
    bin_extents_mm: tuple = (300.0, 300.0, 150.0)
    cam_height_range_mm: tuple = (270.0, 330.0)
    cam_cone_half_angle_deg: float = 20.0
    master_seed: int = 0

    def __post_init__(self):
        if self.instance_count < 0:
            raise ValueError("instance count must be >= 0")
        for name, n in (("bin_extents_mm", 3), ("cam_height_range_mm", 2)):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must hold {n} values, not {len(getattr(self, name))}")
        lo, hi = self.cam_height_range_mm
        if not (0 < lo <= hi):
            raise ValueError("camera height range must be positive and ordered")
        if not (0 <= self.cam_cone_half_angle_deg < 90):
            raise ValueError("cone half-angle must be in [0, 90)")
        if any(e <= 0 for e in self.bin_extents_mm):
            raise ValueError("bin extents must be positive")
        # config files give JSON lists
        object.__setattr__(self, "bin_extents_mm", tuple(self.bin_extents_mm))
        object.__setattr__(self, "cam_height_range_mm", tuple(self.cam_height_range_mm))


@dataclass(frozen=True)
class GTInstance:
    instance_id: int
    object_id: int
    pose_cam: Pose
    visible_fraction: float


@dataclass(frozen=True)
class SceneGT:
    intrinsics: CameraIntrinsics
    instances: tuple
    cam_from_bin: Pose


@dataclass(frozen=True)
class Detection:
    """2D detection: box, binary mask, and a confidence score."""

    image_id: int
    object_id: int
    score: float
    bbox: tuple  # (x, y, w, h) pixels
    mask: np.ndarray  # bool (height, width)

    def __post_init__(self):
        x, y, w, h = self.bbox
        mh, mw = self.mask.shape
        if w <= 0 or h <= 0:
            raise ValueError("bbox must have positive size")
        if x < 0 or y < 0 or x + w > mw or y + h > mh:
            raise ValueError("bbox must lie within the image")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("score must be in [0, 1]")


@dataclass(frozen=True)
class DetectionPerturb:
    seed: int = 0
    bbox_jitter_px: int = 0
    dropout_prob: float = 0.0

    def __post_init__(self):
        if self.bbox_jitter_px < 0:
            raise ValueError("bbox jitter must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout probability must be in [0, 1]")


def generate_scene(mesh: TriangleMesh, cfg: SceneConfig, render_cfg: RenderConfig, scene_index: int = 0):
    """Build one synthetic scene.

    Returns (SceneGT, depth, instance_map, gray). Ground-truth poses are
    exact by construction; everything is deterministic for a fixed
    (master seed, scene index).
    """
    rng = derive_rng(cfg.master_seed, STREAM_SCENE, scene_index)
    radius = mesh.bounding_radius
    ex, ey, ez = cfg.bin_extents_mm
    if 2 * radius > ex or 2 * radius > ey or 2 * radius > ez:
        raise ValueError("placement overflow: bin smaller than one part")

    centers = []
    rotations = []
    layer_base = 0.0
    for _ in range(cfg.instance_count):
        placed = False
        while not placed:
            for _ in range(MAX_ATTEMPTS):
                x = rng.uniform(radius, ex - radius)
                y = rng.uniform(radius, ey - radius)
                rot = Rotation.random(rng)
                support = layer_base
                for c in centers:
                    if math.hypot(x - c[0], y - c[1]) < 2 * radius:
                        support = max(support, c[2] + radius)
                z = support + CLEARANCE_MM + radius
                if z + radius > ez:
                    continue
                cand = np.array([x, y, z])
                min_sep = 2 * radius * OVERLAP_FACTOR
                if all(np.linalg.norm(cand - c) >= min_sep for c in centers):
                    centers.append(cand)
                    rotations.append(rot)
                    placed = True
                    break
            if not placed:
                layer_base += 2 * radius + CLEARANCE_MM
                if layer_base + 2 * radius > ez:
                    raise ValueError("placement overflow: bin cannot hold requested instance count")

    cam_from_bin = _sample_camera(rng, cfg)

    instances = []
    poses_cam = []
    for i, (center, rot) in enumerate(zip(centers, rotations)):
        t_bin = center - rot.rotate(mesh.centroid)
        pose_bin = Pose(rot, t_bin)
        pose_cam = compose(cam_from_bin, pose_bin)
        poses_cam.append(pose_cam)
        instances.append((mesh, pose_cam, i + 1))

    depth, ids, gray = render_scene(instances, render_cfg)

    gt = []
    for i, (pose_cam, (solo_depth, _)) in enumerate(zip(poses_cam, render_windows(mesh, poses_cam, render_cfg))):
        iid = i + 1
        solo_px = int((solo_depth > 0).sum())
        vis_px = int((ids == iid).sum())
        frac = vis_px / solo_px if solo_px > 0 else 0.0
        gt.append(GTInstance(iid, cfg.object_id, pose_cam, frac))

    return SceneGT(render_cfg.intrinsics, tuple(gt), cam_from_bin), depth, ids, gray


def _sample_camera(rng: np.random.Generator, cfg: SceneConfig) -> Pose:
    """Camera pose (bin -> camera) inside the configured cone over the bin."""
    half = math.radians(cfg.cam_cone_half_angle_deg)
    cos_t = rng.uniform(math.cos(half), 1.0)
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    up_dir = np.array([sin_t * math.cos(phi), sin_t * math.sin(phi), cos_t])
    height = rng.uniform(*cfg.cam_height_range_mm)
    ex, ey, _ = cfg.bin_extents_mm
    look_at = np.array([ex / 2.0, ey / 2.0, 0.0])
    eye = look_at + up_dir * (height / up_dir[2])

    fwd = look_at - eye
    fwd = fwd / np.linalg.norm(fwd)
    hint = np.array([0.0, 1.0, 0.0])
    y_cam = hint - np.dot(hint, fwd) * fwd
    if np.linalg.norm(y_cam) < 1e-9:
        hint = np.array([1.0, 0.0, 0.0])
        y_cam = hint - np.dot(hint, fwd) * fwd
    y_cam = y_cam / np.linalg.norm(y_cam)
    x_cam = np.cross(y_cam, fwd)
    r = Rotation.from_matrix(np.stack([x_cam, y_cam, fwd]))
    return Pose(r, -r.rotate(eye))


def gt_detections(
    instance_map: np.ndarray,
    scene: SceneGT,
    image_id: int = 0,
    min_visible_fraction: float = 0.10,
    perturb: DetectionPerturb | None = None,
) -> list:
    """Derive ground-truth detections from an instance map.

    One detection per instance whose visible fraction clears the threshold;
    the mask is exactly that instance's pixels, the bbox their tight bounds,
    and the score the visible fraction. Optional jitter/dropout emulates
    detector noise deterministically.
    """
    h, w = instance_map.shape
    dets = []
    for inst in scene.instances:
        if inst.visible_fraction < min_visible_fraction:
            continue
        mask = instance_map == inst.instance_id
        bbox = mask_bbox(mask)
        if bbox is None:
            continue
        x, y, bw, bh = bbox
        score = float(inst.visible_fraction)
        if perturb is not None:
            prng = derive_rng(perturb.seed, STREAM_DETECT, image_id, inst.instance_id)
            if prng.random() < perturb.dropout_prob:
                continue
            if perturb.bbox_jitter_px > 0:
                j = perturb.bbox_jitter_px
                x = int(np.clip(x + prng.integers(-j, j + 1), 0, w - bw))
                y = int(np.clip(y + prng.integers(-j, j + 1), 0, h - bh))
        dets.append(Detection(image_id, inst.object_id, score, (x, y, bw, bh), mask))
    return dets
