"""
BOP-style evaluation: VSD, MSSD, MSPD, Average Recall, detection AP
===================================================================

Shows the pose-error metrics on controlled perturbations, aggregates them
into Average Recall over the standard threshold grids, runs a noise ladder,
and emits the report files (text table, CSV, SVG plots).
"""

from pathlib import Path

import numpy as np

from binpick import CameraIntrinsics, Pose, Rotation, SceneConfig, generate_scene, gt_detections
from binpick.bopeval import (
    average_recall,
    detection_metrics,
    mspd,
    mssd,
    pose_errors,
    vsd,
)
from binpick.fileio import emit_report
from binpick.render import RenderConfig
from binpick.shapes import box_symmetries, make_box

cam = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
rcfg = RenderConfig(cam)
box = make_box()
sym = box_symmetries()

gt, depth, ids, _ = generate_scene(box, SceneConfig(instance_count=8, master_seed=21), rcfg)
inst = max(gt.instances, key=lambda i: i.visible_fraction)
pose = inst.pose_cam

# Single-pose error anatomy: a 5 mm shift moves every vertex 5 mm (MSSD),
# projects to ~10 px at 600 px focal length and 300 mm depth (MSPD), and
# trips VSD once the shift passes the misalignment tolerance tau.
shifted = Pose(pose.rotation, pose.translation + np.array([5.0, 0.0, 0.0]))
print(f"MSSD of a 5 mm shift: {mssd(shifted, pose, sym, box.vertices):.2f} mm")
print(f"MSPD of the same:     {mspd(shifted, pose, sym, box.vertices, cam):.2f} px")
for tau in (2.0, 5.0, 10.0):
    e = vsd(shifted, pose, box, depth, rcfg, tau_mm=tau, vis_tol_mm=5.0)
    print(f"VSD at tau={tau:4.1f} mm:   {e:.3f}")

# A symmetry rotation costs nothing: the metrics are symmetry-aware.
sym_pose = Pose(pose.rotation * sym.rotations[1], pose.translation)
print(f"MSSD after a symmetry flip: {mssd(sym_pose, pose, sym, box.vertices):.2e} mm")

# Noise ladder: AR degrades monotonically with pose noise. Each level
# perturbs every visible instance and aggregates VSD/MSSD/MSPD recall over
# the BOP threshold grids.
rng = np.random.default_rng(4)
labeled = []
for level in (0.0, 2.0, 5.0, 10.0, 20.0):
    errs = []
    for i in gt.instances:
        d = rng.normal(size=3)
        noisy = Pose(i.pose_cam.rotation, i.pose_cam.translation + d / np.linalg.norm(d) * level)
        errs.append(pose_errors(noisy, i.pose_cam, box, sym, depth, rcfg))
    rep = average_recall(errs, box.diameter, cam.width)
    labeled.append((f"{level:.0f}mm", {"gt+noise": rep}))
    print(f"noise {level:4.1f} mm -> AR {rep.ar:.3f} "
          f"(VSD {rep.ar_vsd:.3f}, MSSD {rep.ar_mssd:.3f}, MSPD {rep.ar_mspd:.3f})")

# Detection metrics: ground-truth detections score perfectly against
# themselves; dropping half the boxes halves AP.
dets = gt_detections(ids, gt, image_id=0)
print("perfect detections:", detection_metrics(dets, dets))
print("half the detections:", detection_metrics(dets[: len(dets) // 2], dets))

# Report emission: deterministic text table + CSV + SVG (AR by method for
# the first entry, AR vs label across entries).
out = Path("demo_out/06")
paths = emit_report(out, labeled, {"matching": "direct (demo)", "k": len(gt.instances)})
print("wrote", [p.name for p in paths])
print()
print((out / "report.txt").read_text())
