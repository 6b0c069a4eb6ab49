"""Run one binpick CLI stage with a span around every call into its layers.

    python traced_cli.py SPANS_JSON STAGE <binpick.cli arguments>

Times ``import binpick.cli``, rebinds each function in ``TRACED`` wherever a
``binpick`` module holds it (modules import these names directly, so patching
only the home module would miss calls), then calls ``binpick.cli.main``. Spans
stay in memory, each with its parent, and are written to SPANS_JSON at exit
under the STAGE name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Public functions timed per layer, by module; "Class.method" is patched on the class.
TRACED = {
    "fileio": (
        "write_scene", "load_scene_images", "load_detections", "load_gt_poses", "load_camera",
        "write_detections", "write_estimates", "load_estimates", "write_selection",
        "load_selection", "write_eval_json", "emit_report", "write_codebook", "load_codebook",
        "sha256_file", "Manifest.record", "Manifest.verify_inputs",
    ),
    "geometry": ("load_mesh", "load_symmetries", "sample_surface_points"),
    "render": ("render_scene", "render_single", "area_resize", "crop_square", "visibility_mask"),
    "scenegen": ("generate_scene", "gt_detections"),
    "codebook": ("sample_rotations", "build_codebook", "embed", "knn_lookup"),
    "pipeline": ("estimate_poses", "extract_crop", "estimate_translation"),
    "select_refine": ("detection_cloud", "icp_refine", "depth_error", "score_depth_error", "select_top_k"),
    "bopeval": ("match_estimates", "mssd", "mspd", "pose_errors", "vsd_from_depths", "average_recall"),
}

# Work counts taken from a call's bound arguments and its result, summed per
# chain: name -> (quantities, function returning a value per quantity).
COUNTS = {
    "fileio.write_codebook": (("bytes",), lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    "fileio.load_codebook": (("bytes",), lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    "fileio.sha256_file": (("bytes",), lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    "render.render_scene": (("frame_px", "triangles"), lambda a, r: {
        "frame_px": r[0].size,
        "triangles": sum(len(mesh.triangles) for mesh, _, _ in a["instances"]),
    }),
    "scenegen.gt_detections": (("detections",), lambda a, r: {"detections": len(r)}),
    "codebook.build_codebook": (
        ("entries_attempted", "entries_kept"),
        lambda a, r: {"entries_attempted": len(a["rotations"]), "entries_kept": len(r)},
    ),
    "codebook.knn_lookup": (("entry_scores",), lambda a, r: {"entry_scores": len(a["cb"])}),
    "pipeline.estimate_poses": (
        ("detections_in", "estimates_out"),
        lambda a, r: {"detections_in": len(a["detections"]), "estimates_out": len(r)},
    ),
    "select_refine.icp_refine": (
        ("iterations", "converged"),
        lambda a, r: {"iterations": r.iterations, "converged": int(r.converged)},
    ),
    "select_refine.depth_error": (("disqualified",), lambda a, r: {"disqualified": int(r.disqualified)}),
    "bopeval.match_estimates": (("failures",), lambda a, r: {"failures": sum(inst is None for _, inst in r)}),
}

ROOT_SPAN = "cli.main"


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Spans as [name index, parent span index or -1, start, end] in call order."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        count = COUNTS.get(name, ((), None))[1]
        signature = inspect.signature(fn) if count else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2], span[3] = start, clock()
                stack.pop()
            if count:
                for quantity, value in count(signature.bind(*args, **kwargs).arguments, result).items():
                    self.counts[f"{name}.{quantity}"] += value
            return result

        return traced

    def dump(self, path: str, stage: str, import_s: float) -> None:
        doc = {"stage": stage, "import_s": import_s, "names": self.names, "spans": self.spans, "counts": self.counts}
        with open(path, "w") as f:
            json.dump(doc, f)


def instrument(tracer: Tracer) -> None:
    """Rebind every traced function in every loaded binpick module to its wrapper."""
    wrappers = {}
    for mod_name, fns in TRACED.items():
        module = importlib.import_module(f"binpick.{mod_name}")
        for fn in fns:
            name = f"{mod_name}.{fn}"
            if "." in fn:
                cls_name, method = fn.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, tracer.wrap(name, vars(cls)[method]))
            else:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, tracer.wrap(name, original))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "binpick" and not mod_name.startswith("binpick."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list) -> int:
    spans_path, stage, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("binpick.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    instrument(tracer)
    try:
        return tracer.wrap(ROOT_SPAN, cli.main)(cli_args)
    finally:
        tracer.dump(spans_path, stage, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
