"""
Synthetic bin scenes with exact ground truth
============================================

Generates cluttered bin scenes by layered-jitter placement, derives
ground-truth detections from the instance map, and writes the dataset
directory layout that the CLI stages consume.
"""

from pathlib import Path

import numpy as np

from binpick import CameraIntrinsics, SceneConfig, generate_scene, gt_detections
from binpick.fileio import load_gt_poses, scene_dir, write_detections, write_scene
from binpick.render import RenderConfig
from binpick.scenegen import DetectionPerturb
from binpick.shapes import make_box

out = Path("demo_out/02/dataset")
cam = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
rcfg = RenderConfig(cam)
box = make_box()

# 3 scenes x 25 instances. Each scene derives its own RNG stream from
# (master seed, scene index), so scenes are independent of generation order.
cfg = SceneConfig(instance_count=25, master_seed=42)
for sid in range(3):
    gt, depth, ids, gray = generate_scene(box, cfg, rcfg, scene_index=sid)
    write_scene(out, sid, gt, depth, ids, gray)

    # Ground-truth detections: mask = the instance's pixels, score = its
    # visible fraction. Instances below 10% visibility are dropped, like the
    # BOP evaluation convention.
    dets = gt_detections(ids, gt, image_id=sid, min_visible_fraction=0.10)
    write_detections(out, sid, dets)
    vis = [round(i.visible_fraction, 2) for i in gt.instances]
    print(f"scene {sid}: {len(dets)} detections from {len(gt.instances)} instances; "
          f"visibility min/median/max = {min(vis)}/{sorted(vis)[len(vis)//2]}/{max(vis)}")

# The ground-truth file round-trips poses exactly (quaternions stored with
# full precision next to the row-major matrix).
gt_back = load_gt_poses(scene_dir(out, 0) / "camera.txt", scene_dir(out, 0) / "gt_poses.txt")
print("reloaded instances:", len(gt_back.instances), "intrinsics:", gt_back.intrinsics.width, "px wide")

# Detector-noise emulation: deterministic bbox jitter and dropout.
gt, depth, ids, gray = generate_scene(box, cfg, rcfg, scene_index=0)
noisy = gt_detections(ids, gt, image_id=0, perturb=DetectionPerturb(seed=7, bbox_jitter_px=3, dropout_prob=0.2))
print(f"with jitter+dropout: {len(noisy)} detections survive")
