"""File formats, dataset layout, manifests, and report emission.

Every format is plain text or binary PGM and fully documented in
FORMATS.md. Floats are written with repr() so values round-trip exactly
and output bytes are reproducible; manifests record sha256 content hashes
of each stage's inputs and outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .bopeval import EvalReport
from .codebook import Codebook
from .geometry import CameraIntrinsics, Pose, Rotation, TriangleMesh
from .pipeline import PoseEstimate
from .scenegen import Detection, GTInstance, SceneGT
from .select_refine import SelectionScore

__all__ = [
    "write_pgm16", "read_pgm16", "write_pgm8", "read_pgm8",
    "write_mesh", "write_symmetries",
    "scene_dir", "write_scene", "load_camera", "load_gt_poses", "load_scene_images",
    "write_detections", "load_detections", "list_scene_ids",
    "encode_rle", "decode_rle",
    "write_codebook", "load_codebook",
    "write_estimates", "load_estimates",
    "write_selection", "load_selection",
    "write_eval_json", "load_eval_json",
    "emit_report",
    "sha256_file", "Manifest",
]


def _r(x) -> str:
    """Exact, reproducible decimal for a float."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# portable graymaps

def write_pgm16(path, img: np.ndarray) -> None:
    """16-bit binary PGM, big-endian, maxval 65535 (depth mm / instance ids)."""
    img = np.ascontiguousarray(img, dtype=np.uint16)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode())
        f.write(img.byteswap().tobytes() if np.little_endian else img.tobytes())


def read_pgm16(path) -> np.ndarray:
    data, w, h, maxval = _read_pgm(path)
    if maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit PGM")
    img = np.frombuffer(data, dtype=">u2", count=w * h).reshape(h, w)
    return img.astype(np.uint16)


def write_pgm8(path, img: np.ndarray) -> None:
    """8-bit binary PGM from a float image in [0, 1]."""
    q = np.rint(np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(q.tobytes())


def read_pgm8(path) -> np.ndarray:
    data, w, h, maxval = _read_pgm(path)
    if maxval != 255:
        raise ValueError(f"{path}: expected 8-bit PGM")
    img = np.frombuffer(data, dtype=np.uint8, count=w * h).reshape(h, w)
    return img.astype(np.float64) / 255.0


def _read_pgm(path):
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        # token scanner: whitespace-separated header fields, '#' comments
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    return raw[pos:], w, h, maxval


# ---------------------------------------------------------------------------
# meshes and symmetries

def write_mesh(path, mesh: TriangleMesh) -> None:
    lines = ["# triangle mesh, units mm"]
    for v in mesh.vertices:
        lines.append(f"v {_r(v[0])} {_r(v[1])} {_r(v[2])}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_symmetries(path, sym) -> None:
    lines = ["# discrete symmetry rotations, row-major 3x3"]
    for r in sym.rotations:
        m = r.as_matrix().reshape(-1)
        lines.append(" ".join(_r(x) for x in m))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scene dataset layout

def scene_dir(root, scene_id: int) -> Path:
    return Path(root) / f"scene_{scene_id:06d}"


def list_scene_ids(root) -> list:
    root = Path(root)
    ids = []
    if root.is_dir():
        for p in sorted(root.iterdir()):
            if p.is_dir() and p.name.startswith("scene_"):
                ids.append(int(p.name.split("_")[1]))
    return ids


def write_scene(root, scene_id: int, gt: SceneGT, depth, instance_map, gray) -> list:
    """Write one scene folder; returns the created file paths."""
    d = scene_dir(root, scene_id)
    d.mkdir(parents=True, exist_ok=True)
    k = gt.intrinsics
    cam_lines = [
        f"fx {_r(k.fx)}", f"fy {_r(k.fy)}", f"cx {_r(k.cx)}", f"cy {_r(k.cy)}",
        f"width {k.width}", f"height {k.height}",
        "cam_from_bin_quat " + " ".join(_r(x) for x in gt.cam_from_bin.rotation.q),
        "cam_from_bin_t " + " ".join(_r(x) for x in gt.cam_from_bin.translation),
    ]
    (d / "camera.txt").write_text("\n".join(cam_lines) + "\n")

    pose_lines = ["# inst <id> <obj> <qw qx qy qz> <r11..r33 row-major> <tx ty tz mm> <visible_fraction>"]
    for inst in gt.instances:
        q = inst.pose_cam.rotation.q
        m = inst.pose_cam.rotation.as_matrix().reshape(-1)
        t = inst.pose_cam.translation
        pose_lines.append(
            f"inst {inst.instance_id} {inst.object_id} "
            + " ".join(_r(x) for x in q) + " "
            + " ".join(_r(x) for x in m) + " "
            + " ".join(_r(x) for x in t) + f" {_r(inst.visible_fraction)}"
        )
    (d / "gt_poses.txt").write_text("\n".join(pose_lines) + "\n")

    write_pgm16(d / "depth.pgm", depth)
    write_pgm16(d / "instances.pgm", instance_map)
    write_pgm8(d / "gray.pgm", gray)
    return [d / n for n in ("camera.txt", "gt_poses.txt", "depth.pgm", "instances.pgm", "gray.pgm")]


def load_camera(root, scene_id: int):
    """Returns (CameraIntrinsics, cam_from_bin Pose)."""
    text = (scene_dir(root, scene_id) / "camera.txt").read_text()
    kv = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        kv[key] = value
    k = CameraIntrinsics(
        float(kv["fx"]), float(kv["fy"]), float(kv["cx"]), float(kv["cy"]),
        int(kv["width"]), int(kv["height"]),
    )
    q = [float(x) for x in kv["cam_from_bin_quat"].split()]
    t = [float(x) for x in kv["cam_from_bin_t"].split()]
    return k, Pose(Rotation.from_quat(*q), np.array(t))


def load_gt_poses(root, scene_id: int) -> SceneGT:
    k, cam_from_bin = load_camera(root, scene_id)
    instances = []
    for line in (scene_dir(root, scene_id) / "gt_poses.txt").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] != "inst":
            raise ValueError(f"unexpected line in gt_poses.txt: {line!r}")
        iid, obj = int(tok[1]), int(tok[2])
        q = [float(x) for x in tok[3:7]]
        t = [float(x) for x in tok[16:19]]
        vis = float(tok[19])
        instances.append(GTInstance(iid, obj, Pose(Rotation.from_quat(*q), np.array(t)), vis))
    return SceneGT(k, tuple(instances), cam_from_bin)


def load_scene_images(root, scene_id: int):
    d = scene_dir(root, scene_id)
    return read_pgm16(d / "depth.pgm"), read_pgm16(d / "instances.pgm"), read_pgm8(d / "gray.pgm")


# ---------------------------------------------------------------------------
# detections with run-length masks

def encode_rle(mask: np.ndarray) -> list:
    """Row-major run lengths of alternating 0s and 1s, starting with 0s."""
    flat = np.asarray(mask, dtype=np.uint8).reshape(-1)
    if flat.size == 0:
        return []
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0] == 1:
        runs = [0] + runs
    return runs


def decode_rle(runs, shape) -> np.ndarray:
    total = int(np.prod(shape))
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    if pos != total:
        raise ValueError("run lengths do not cover the mask")
    return flat.reshape(shape)


def write_detections(root, scene_id: int, detections) -> Path:
    lines = ["# det <object_id> <score> <x> <y> <w> <h> rle <n_runs> <runs...>"]
    for det in detections:
        runs = encode_rle(det.mask)
        x, y, w, h = det.bbox
        lines.append(
            f"det {det.object_id} {_r(det.score)} {x} {y} {w} {h} rle {len(runs)} "
            + " ".join(str(r) for r in runs)
        )
    path = scene_dir(root, scene_id) / "detections.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def load_detections(root, scene_id: int, image_shape) -> list:
    path = scene_dir(root, scene_id) / "detections.txt"
    dets = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] != "det" or len(tok) < 9 or tok[7] != "rle":
            raise ValueError(f"malformed detection line: {line[:60]!r}")
        obj, score = int(tok[1]), float(tok[2])
        x, y, w, h = (int(v) for v in tok[3:7])
        n_runs = int(tok[8])
        runs = [int(v) for v in tok[9 : 9 + n_runs]]
        mask = decode_rle(runs, image_shape)
        dets.append(Detection(scene_id, obj, score, (x, y, w, h), mask))
    return dets


# ---------------------------------------------------------------------------
# codebook files

def write_codebook(path, cb: Codebook) -> None:
    lines = [
        "codebook v1",
        f"object_id {cb.object_id}",
        f"embedder {cb.embedder_id}",
        f"embedder_fingerprint {cb.embedder_fingerprint}",
        f"render_fingerprint {cb.render_fingerprint}",
        f"z_ref_mm {_r(cb.z_ref_mm)}",
        f"fx_ref_px {_r(cb.fx_ref_px)}",
        f"dimension {cb.dimension}",
        f"entries {len(cb)}",
        "# entry <index> <qw qx qy qz> <view_diag_px> <values...>",
    ]
    for i, rot in enumerate(cb.rotations):
        q = " ".join(_r(x) for x in rot.q)
        vals = " ".join(_r(x) for x in cb.embeddings[i])
        lines.append(f"entry {i} {q} {_r(cb.view_diagonals_px[i])} {vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing codebook: {path}")
    header = {}
    rotations = []
    embeddings = []
    diagonals = []
    dim = None
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "codebook":
            if tok[1] != "v1":
                raise ValueError(f"unsupported codebook version {tok[1]}")
        elif tok[0] == "entry":
            q = [float(x) for x in tok[2:6]]
            diagonals.append(float(tok[6]))
            vec = np.array([float(x) for x in tok[7:]])
            if dim is None:
                dim = int(header.get("dimension", len(vec)))
            if len(vec) != dim:
                raise ValueError("embedding dimension mismatch in codebook file")
            rotations.append(Rotation.from_quat(*q))
            embeddings.append(vec)
        else:
            header[tok[0]] = " ".join(tok[1:])
    if not embeddings:
        raise ValueError(f"{path}: codebook has no entries")
    return Codebook(
        object_id=int(header["object_id"]),
        embedder_id=header["embedder"],
        embedder_fingerprint=header.get("embedder_fingerprint", ""),
        render_fingerprint=header.get("render_fingerprint", ""),
        z_ref_mm=float(header["z_ref_mm"]),
        fx_ref_px=float(header.get("fx_ref_px", 0.0)),
        rotations=tuple(rotations),
        embeddings=np.stack(embeddings),
        view_diagonals_px=np.array(diagonals),
    )


# ---------------------------------------------------------------------------
# pose estimates

def write_estimates(path, estimates) -> None:
    lines = ["# est <det_index> <qw qx qy qz> <r11..r33> <tx ty tz> <cosine> <score> <mode> <refined>"]
    for e in estimates:
        q = " ".join(_r(x) for x in e.pose.rotation.q)
        m = " ".join(_r(x) for x in e.pose.rotation.as_matrix().reshape(-1))
        t = " ".join(_r(x) for x in e.pose.translation)
        lines.append(
            f"est {e.detection_index} {q} {m} {t} {_r(e.cosine)} {_r(e.detector_score)} "
            f"{e.mode} {int(e.refined)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_estimates(path, image_id: int) -> list:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing estimates: {path}")
    out = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] != "est":
            raise ValueError(f"malformed estimate line: {line[:60]!r}")
        det_index = int(tok[1])
        q = [float(x) for x in tok[2:6]]
        t = [float(x) for x in tok[15:18]]
        cosine, score = float(tok[18]), float(tok[19])
        mode, refined = tok[20], bool(int(tok[21]))
        out.append(
            PoseEstimate(
                image_id=image_id,
                detection_index=det_index,
                pose=Pose(Rotation.from_quat(*q), np.array(t)),
                cosine=cosine,
                detector_score=score,
                mode=mode,
                refined=refined,
            )
        )
    return out


# ---------------------------------------------------------------------------
# selection report

def write_selection(path, scored, topk: dict) -> None:
    """scored: list of (PoseEstimate, SelectionScore); topk: method -> det indices."""
    lines = [
        "# score <det_index> <detector_score> <cosine> <e_sum> <n_inter> <n_rendered>"
        " <mean_error> <coverage> <disqualified>"
    ]
    for est, s in scored:
        lines.append(
            f"score {est.detection_index} {_r(est.detector_score)} {_r(est.cosine)} "
            f"{_r(s.e_sum)} {s.n_intersection} {s.n_rendered} {_r(s.mean_error)} "
            f"{_r(s.coverage)} {int(s.disqualified)}"
        )
    for method in sorted(topk):
        lines.append(f"topk {method} " + " ".join(str(i) for i in topk[method]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_selection(path):
    """Returns (scores: det_index -> SelectionScore, topk: method -> [det indices])."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing selection report: {path}")
    scores = {}
    topk = {}
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "score":
            scores[int(tok[1])] = SelectionScore(
                e_sum=float(tok[4]),
                n_intersection=int(tok[5]),
                n_rendered=int(tok[6]),
                mean_error=float(tok[7]),
                coverage=float(tok[8]),
                disqualified=bool(int(tok[9])),
            )
        elif tok[0] == "topk":
            topk[tok[1]] = [int(i) for i in tok[2:]]
    return scores, topk


# ---------------------------------------------------------------------------
# evaluation report + renderings

def write_eval_json(path, per_method: dict, protocol: dict) -> None:
    payload = {
        "protocol": protocol,
        "methods": {
            m: {
                "n_estimates": r.n_estimates,
                "ar_vsd": r.ar_vsd,
                "ar_mssd": r.ar_mssd,
                "ar_mspd": r.ar_mspd,
                "ar": r.ar,
                "empty": r.empty,
            }
            for m, r in per_method.items()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_eval_json(path):
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing eval report: {path}")
    payload = json.loads(path.read_text())
    methods = {
        m: EvalReport(
            n_estimates=v["n_estimates"],
            ar_vsd=v["ar_vsd"],
            ar_mssd=v["ar_mssd"],
            ar_mspd=v["ar_mspd"],
            ar=v["ar"],
            empty=v["empty"],
        )
        for m, v in payload["methods"].items()
    }
    return methods, payload.get("protocol", {})


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def emit_report(out_dir, labeled_reports, protocol: dict | None = None) -> list:
    """Render evaluation results to a text table, CSV, and SVG plots.

    labeled_reports: list of (label, {method: EvalReport}). A single entry
    renders the AR-by-method comparison; multiple entries additionally
    render AR against the numeric label (e.g. a noise ladder).
    Returns the written paths. Output bytes are deterministic.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    methods = []
    for _, per_method in labeled_reports:
        for m in per_method:
            if m not in methods:
                methods.append(m)

    lines = ["pose selection evaluation (average recall, higher is better)"]
    if protocol:
        lines.append("protocol: " + ", ".join(f"{k}={v}" for k, v in sorted(protocol.items())))
    lines.append("")
    if not labeled_reports or not methods:
        lines.append("no data")
        table = "\n".join(lines) + "\n"
    else:
        header = ["label", "metric"] + methods
        rows = []
        for label, per_method in labeled_reports:
            for metric in ("ar_vsd", "ar_mssd", "ar_mspd", "ar"):
                row = [str(label), metric]
                for m in methods:
                    rep = per_method.get(m)
                    row.append(_fmt(getattr(rep, metric)) if rep is not None else "n/a")
                rows.append(row)
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        table = "\n".join(lines) + "\n"

    paths = []
    table_path = out_dir / "report.txt"
    table_path.write_text(table)
    paths.append(table_path)

    csv_lines = ["label,method,n_estimates,ar_vsd,ar_mssd,ar_mspd,ar"]
    for label, per_method in labeled_reports:
        for m in methods:
            rep = per_method.get(m)
            if rep is None:
                continue
            cells = [str(label), m, str(rep.n_estimates)] + [
                "" if v is None else _r(v) for v in (rep.ar_vsd, rep.ar_mssd, rep.ar_mspd, rep.ar)
            ]
            csv_lines.append(",".join(cells))
    csv_path = out_dir / "report.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n")
    paths.append(csv_path)

    if labeled_reports and methods:
        label0, per_method0 = labeled_reports[0]
        bars = [(m, per_method0[m].ar) for m in methods if m in per_method0 and per_method0[m].ar is not None]
        svg_path = out_dir / "ar_by_method.svg"
        svg_path.write_text(_bar_chart_svg(bars, f"AR by sort method ({label0})"))
        paths.append(svg_path)
        if len(labeled_reports) > 1:
            series = {}
            for label, per_method in labeled_reports:
                for m in methods:
                    rep = per_method.get(m)
                    if rep is not None and rep.ar is not None:
                        series.setdefault(m, []).append((str(label), rep.ar))
            noise_path = out_dir / "ar_vs_noise.svg"
            noise_path.write_text(_line_chart_svg(series, "AR vs noise level"))
            paths.append(noise_path)
    return paths


_SVG_COLORS = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")


def _svg_header(w, h, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _bar_chart_svg(bars, title) -> str:
    w, h, margin = 420, 300, 50
    parts = _svg_header(w, h, title)
    if bars:
        span = w - 2 * margin
        bw = span / len(bars) * 0.6
        for i, (name, value) in enumerate(bars):
            x = margin + span * (i + 0.5) / len(bars) - bw / 2
            bar_h = (h - 2 * margin) * max(0.0, min(1.0, value))
            y = h - margin - bar_h
            color = _SVG_COLORS[i % len(_SVG_COLORS)]
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw:.1f}" height="{bar_h:.1f}" fill="{color}"/>')
            parts.append(
                f'<text x="{x + bw / 2:.1f}" y="{h - margin + 16}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{name}</text>'
            )
            parts.append(
                f'<text x="{x + bw / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{value:.3f}</text>'
            )
    parts.append(f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _line_chart_svg(series: dict, title) -> str:
    w, h, margin = 420, 300, 50
    parts = _svg_header(w, h, title)
    labels = []
    for pts in series.values():
        for label, _ in pts:
            if label not in labels:
                labels.append(label)
    n = max(1, len(labels) - 1)
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = []
        for label, value in pts:
            x = margin + (w - 2 * margin) * (labels.index(label) / n if n else 0.5)
            y = h - margin - (h - 2 * margin) * max(0.0, min(1.0, value))
            coords.append(f"{x:.1f},{y:.1f}")
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{w - margin + 4}" y="{margin + 14 * i + 10}" font-family="sans-serif" '
            f'font-size="10" fill="{color}">{name}</text>'
        )
    for j, label in enumerate(labels):
        x = margin + (w - 2 * margin) * (j / n if n else 0.5)
        parts.append(
            f'<text x="{x:.1f}" y="{h - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# hashing + manifest

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """Append-style record of each stage's config and input/output hashes.

    Stored as sorted JSON; re-running a stage replaces its entry, so a
    deterministic pipeline yields a byte-identical manifest. Wall-clock
    timings are deliberately kept out (see timings.txt).
    """

    def __init__(self, path):
        self.path = Path(path)
        self.stages = {}
        if self.path.is_file():
            self.stages = json.loads(self.path.read_text())["stages"]

    def record(self, stage: str, config: dict, inputs, outputs, root) -> None:
        root = Path(root)
        self.stages[stage] = {
            "config": config,
            "inputs": {str(Path(p).relative_to(root)) if Path(p).is_relative_to(root) else str(p): sha256_file(p) for p in inputs},
            "outputs": {str(Path(p).relative_to(root)): sha256_file(p) for p in outputs},
        }
        self.path.write_text(json.dumps({"stages": self.stages}, indent=2, sort_keys=True) + "\n")

    def recorded_hash(self, rel_path: str):
        """Hash of a path as last produced by any stage, or None."""
        found = None
        for stage in self.stages.values():
            if rel_path in stage["outputs"]:
                found = stage["outputs"][rel_path]
        return found

    def verify_inputs(self, paths, root) -> None:
        """Raise if any input file disagrees with the hash in the manifest."""
        root = Path(root)
        for p in paths:
            p = Path(p)
            if not p.is_relative_to(root):
                continue
            rel = str(p.relative_to(root))
            recorded = self.recorded_hash(rel)
            if recorded is not None and sha256_file(p) != recorded:
                raise ValueError(f"manifest hash mismatch for {rel}: file changed since it was produced")
