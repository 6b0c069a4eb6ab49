"""
The CLI pipeline, end to end
============================

Drives every stage through the command-line interface on a small run:
scenes -> codebook -> detections -> estimates -> ICP -> selection -> eval
-> report, then shows the manifest hash chain and the final table.

Equivalent shell session:

    binpick genscenes --config cfg.json --out out --seed 5
    binpick codebook  --config cfg.json --out out --seed 5
    binpick detect-gt --config cfg.json --out out --seed 5
    binpick estimate  --config cfg.json --out out --seed 5
    binpick refine    --config cfg.json --out out --seed 5
    binpick select    --config cfg.json --out out --seed 5 --icp
    binpick eval      --config cfg.json --out out --seed 5 --icp
    binpick report    --config cfg.json --out out --seed 5
"""

import json
import subprocess
import sys
from pathlib import Path

from binpick.fileio import Manifest, write_mesh, write_symmetries
from binpick.shapes import box_symmetries, make_box

root = Path("demo_out/07")
root.mkdir(parents=True, exist_ok=True)
write_mesh(root / "box.txt", make_box())
write_symmetries(root / "sym.txt", box_symmetries())

config = {
    "mesh": str(root / "box.txt"),
    "symmetries": str(root / "sym.txt"),
    "scenes": 3,
    "scene": {"instance_count": 10},
    "camera": {"fx": 300.0, "fy": 300.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
    "codebook": {
        "size": 256, "seed": 0, "z_ref_mm": 300.0,
        "camera": {"fx": 300.0, "fy": 300.0, "cx": 64.0, "cy": 64.0, "width": 128, "height": 128},
    },
}
(root / "config.json").write_text(json.dumps(config, indent=2))

out = root / "out"
for cmd, extra in [
    ("genscenes", []), ("codebook", []), ("detect-gt", []), ("estimate", []),
    ("refine", []), ("select", ["--icp"]), ("eval", ["--icp"]),
    ("report", ["--eval", str(out / "eval_icp.json")]),
]:
    argv = [sys.executable, "-m", "binpick.cli", cmd,
            "--config", str(root / "config.json"), "--out", str(out), "--seed", "5", *extra]
    print("$", "binpick", cmd, *extra)
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr)
        sys.exit(proc.returncode)

stages = Manifest(out / "manifest").stages  # one entry file per stage
print("\nmanifest stages:", ", ".join(stages))
est_hash = stages["refine"]["outputs"]["dataset/scene_000000/estimates_refined.txt"]
print("refined estimates hash (scene 0):", est_hash[:16], "...")
print("\ntimings:")
print((out / "timings.txt").read_text())
print((out / "report.txt").read_text())
