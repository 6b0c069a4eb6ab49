"""File formats, dataset layout, manifests, and report emission.

Every format is plain text or binary PGM and fully documented in
FORMATS.md. Floats are written with repr() so values round-trip exactly
and output bytes are reproducible; manifests record sha256 content hashes
of each stage's inputs and outputs. Every file reaches disk through
_write, whole or not at all, and every writer returns the paths it wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

from .bopeval import EvalReport
from .codebook import Codebook
from .geometry import CameraIntrinsics, Pose, Rotation, TriangleMesh, _read_records
from .pipeline import MODE_DEPTH_CENTER, MODE_RGB_SCALE, PoseEstimate
from .scenegen import Detection, GTInstance, SceneGT
from .select_refine import SORT_METHODS, SelectionScore

__all__ = [
    "write_pgm16", "read_pgm16", "write_pgm8", "read_pgm8",
    "write_mesh", "write_symmetries",
    "SCENE_FILES", "scene_dir", "write_scene", "load_camera", "load_gt_poses", "load_scene_images",
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


def _r_row(values) -> str:
    """The _r() of each value, space-separated, with repr run once per distinct bit
    pattern; keying on the int64 view keeps -0.0 and 0.0 apart."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    words = list(map(repr, bits.view(np.float64).tolist()))
    return " ".join(map(words.__getitem__, inverse.tolist()))


# (field count, parse) of a key-value record holding one float or one int
_NUMBER = (1, lambda f: float(f[0]))
_COUNT = (1, lambda f: int(f[0]))


def _floats(fields) -> list:
    """float() of each token, parsing each distinct token once. dict.fromkeys keeps line
    order, so bad input fails on the same (first bad) token as a token-by-token parse."""
    distinct = list(dict.fromkeys(fields))
    parsed = dict(zip(distinct, map(float, distinct)))
    return list(map(parsed.__getitem__, fields))


def _pose_text(pose: Pose) -> str:
    """The 16 pose fields of a record: <qw qx qy qz> <r11 .. r33 row-major> <tx ty tz>."""
    return " ".join(_r(x) for x in (*pose.rotation.q, *pose.rotation.as_matrix().reshape(-1), *pose.translation))


def _pose(fields) -> Pose:
    """Pose from the 16 fields _pose_text writes; the quaternion is authoritative, the matrix not read."""
    return Pose(Rotation.from_quat(*_floats(fields[:4])), np.array(_floats(fields[13:16])))


def _write(path, content) -> list:
    """Write bytes, or an iterable of text lines each with its newline, to <name>.tmp
    beside path and rename it onto path; returns [path]. On any exception the temp file
    is removed and path keeps its previous bytes, so no reader sees a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    binary = isinstance(content, bytes)
    try:
        with open(tmp, "wb" if binary else "w") as f:
            f.writelines([content] if binary else (line + "\n" for line in content))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return [path]


def _unrepeated(path, keyed) -> None:
    """Check (line, key) pairs: a key on a second line is an error naming both lines."""
    first = {}  # key -> line of its first record
    for line, key in keyed:
        if first.setdefault(key, line) != line:
            raise ValueError(f"{path}:{line}: {key} repeats line {first[key]}")


def _keyed(path, records, required) -> dict:
    """tag -> value of key-value records; a repeated key, or a required key that is absent, is an error."""
    _unrepeated(path, ((line, tag) for line, tag, _ in records))
    values = {tag: value for _, tag, value in records}
    for key in required:
        if key not in values:
            raise ValueError(f"{path}: missing {key}")
    return values


# ---------------------------------------------------------------------------
# portable graymaps

def _write_pgm(path, pixels: np.ndarray, maxval: int) -> list:
    h, w = pixels.shape
    return _write(path, f"P5\n{w} {h}\n{maxval}\n".encode() + pixels.tobytes())


def write_pgm16(path, img: np.ndarray) -> list:
    """16-bit binary PGM, big-endian, maxval 65535 (depth mm / instance ids)."""
    return _write_pgm(path, np.asarray(img, dtype=">u2"), 65535)


def read_pgm16(path) -> np.ndarray:
    return _read_pgm(path, 65535, ">u2").astype(np.uint16)


def write_pgm8(path, img: np.ndarray) -> list:
    """8-bit binary PGM from a float image in [0, 1]."""
    q = np.rint(np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)
    return _write_pgm(path, q, 255)


def read_pgm8(path) -> np.ndarray:
    return _read_pgm(path, 255, np.uint8).astype(np.float64) / 255.0


# whitespace and comment lines between PGM header fields
_PGM_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5" + _PGM_SEP + rb"(\d+)" + _PGM_SEP + rb"(\d+)" + _PGM_SEP + rb"(\d+)\s")


def _read_pgm(path, maxval: int, dtype) -> np.ndarray:
    """(height, width) pixels of a binary PGM that must have the given maxval."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing image: {path}")
    raw = path.read_bytes()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM or truncated header")
    w, h, found = (int(v) for v in header.groups())
    if found != maxval:
        raise ValueError(f"{path}: expected {maxval.bit_length()}-bit PGM")
    dtype = np.dtype(dtype)
    if len(raw) - header.end() < w * h * dtype.itemsize:
        raise ValueError(f"{path}: truncated PGM: {w}x{h} pixels need {w * h * dtype.itemsize} bytes")
    return np.frombuffer(raw, dtype=dtype, count=w * h, offset=header.end()).reshape(h, w)


# ---------------------------------------------------------------------------
# meshes and symmetries

def write_mesh(path, mesh: TriangleMesh) -> list:
    return _write(path, [
        "# triangle mesh, units mm",
        *(f"v {_r(v[0])} {_r(v[1])} {_r(v[2])}" for v in mesh.vertices),
        *(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles),
    ])


def write_symmetries(path, sym) -> list:
    return _write(path, [
        "# discrete symmetry rotations, row-major 3x3",
        *(" ".join(_r(x) for x in r.as_matrix().reshape(-1)) for r in sym.rotations),
    ])


# ---------------------------------------------------------------------------
# scene dataset layout

# scene part -> its file in the scene directory; the one place these names are spelled
SCENE_FILES = {"camera": "camera.txt", "gt": "gt_poses.txt", "depth": "depth.pgm", "instance_map": "instances.pgm",
               "gray": "gray.pgm", "dets": "detections.txt"}


def scene_dir(root, scene_id: int) -> Path:
    return Path(root) / f"scene_{scene_id:06d}"


def list_scene_ids(root) -> list:
    """Ids of the scene directories under root, ascending; any other scene_* entry is an error naming it."""
    ids = []
    for p in Path(root).glob("scene_*"):
        sid = p.name[len("scene_"):]
        if not (sid.isascii() and sid.isdigit() and p == scene_dir(root, int(sid)) and p.is_dir()):
            raise ValueError(f"{p}: not a scene directory (those are named scene_000000, scene_000001, ...)")
        ids.append(int(sid))
    return sorted(ids)


def write_scene(root, scene_id: int, gt: SceneGT, depth, instance_map, gray) -> list:
    """Write one scene folder; returns the created file paths. If a file
    fails, the files this call already wrote are removed before it raises."""
    d = scene_dir(root, scene_id)
    d.mkdir(parents=True, exist_ok=True)
    k = gt.intrinsics
    camera = [
        f"fx {_r(k.fx)}", f"fy {_r(k.fy)}", f"cx {_r(k.cx)}", f"cy {_r(k.cy)}",
        f"width {k.width}", f"height {k.height}",
        "cam_from_bin_quat " + " ".join(_r(x) for x in gt.cam_from_bin.rotation.q),
        "cam_from_bin_t " + " ".join(_r(x) for x in gt.cam_from_bin.translation),
    ]
    poses = [
        "# inst <id> <obj> <qw qx qy qz> <r11..r33 row-major> <tx ty tz mm> <visible_fraction>",
        *(f"inst {inst.instance_id} {inst.object_id} {_pose_text(inst.pose_cam)} {_r(inst.visible_fraction)}"
          for inst in gt.instances),
    ]
    written = []
    try:
        for write, part, content in (
            (_write, "camera", camera), (_write, "gt", poses), (write_pgm16, "depth", depth),
            (write_pgm16, "instance_map", instance_map), (write_pgm8, "gray", gray),
        ):
            written += write(d / SCENE_FILES[part], content)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def load_camera(path):
    """(CameraIntrinsics, cam_from_bin Pose) of a scene's camera file."""
    keys = {"fx": _NUMBER, "fy": _NUMBER, "cx": _NUMBER, "cy": _NUMBER, "width": _COUNT, "height": _COUNT,
            "cam_from_bin_quat": (4, lambda f: _floats(f[:4])), "cam_from_bin_t": (3, lambda f: _floats(f[:3]))}
    kv = _keyed(path, _read_records(path, "camera", keys), keys)
    try:
        k = CameraIntrinsics(kv["fx"], kv["fy"], kv["cx"], kv["cy"], kv["width"], kv["height"])
        return k, Pose(Rotation.from_quat(*kv["cam_from_bin_quat"]), np.array(kv["cam_from_bin_t"]))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_gt_poses(camera_path, path) -> SceneGT:
    """A scene's ground truth, from its camera file and its GT poses file."""
    k, cam_from_bin = load_camera(camera_path)

    def inst(f):
        visible = float(f[18])
        if not 0.0 <= visible <= 1.0:  # NaN too
            raise ValueError(f"visible_fraction must be in [0, 1], got '{f[18]}'")
        return GTInstance(int(f[0]), int(f[1]), _pose(f[2:18]), visible)

    records = _read_records(path, "GT poses", {"inst": (19, inst)})
    return SceneGT(k, tuple(i for _, _, i in records), cam_from_bin)


def load_scene_images(*paths, shape=None) -> tuple:
    """The scene images at paths (SCENE_FILES depth, instance_map or gray), in order: gray as
    8-bit, the others as 16-bit; with a (height, width) shape given, another size is rejected."""
    images = []
    for path in map(Path, paths):
        images.append((read_pgm8 if path.name == SCENE_FILES["gray"] else read_pgm16)(path))
        if shape is not None and images[-1].shape != tuple(shape):
            raise ValueError(f"{path}: shape {images[-1].shape}, {SCENE_FILES['camera']} says {tuple(shape)}")
    return tuple(images)


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
    runs = np.asarray(runs, dtype=np.int64)
    if (runs < 0).any() or runs.sum() != np.prod(shape):
        raise ValueError(f"run lengths must be >= 0 and sum to the {shape[0]}x{shape[1]} mask, not {runs.sum()}")
    return np.repeat(np.arange(runs.size) % 2 == 1, runs).reshape(shape)


def write_detections(root, scene_id: int, detections) -> list:
    lines = ["# det <object_id> <score> <x> <y> <w> <h> rle <n_runs> <runs...>"]
    for det in detections:
        runs = encode_rle(det.mask)
        x, y, w, h = det.bbox
        lines.append(
            f"det {det.object_id} {_r(det.score)} {x} {y} {w} {h} rle {len(runs)} "
            + " ".join(str(r) for r in runs)
        )
    return _write(scene_dir(root, scene_id) / SCENE_FILES["dets"], lines)


def load_detections(path, image_shape, image_id: int) -> list:
    """The detections of image image_id; each mask must cover the (height, width) image_shape."""

    def det(f):
        if f[6] != "rle":
            raise ValueError(f"expected 'rle', got '{f[6]}'")
        runs = [int(v) for v in f[8:]]
        if len(runs) != int(f[7]):
            raise ValueError(f"{f[7]} runs announced, {len(runs)} given")
        bbox = tuple(int(v) for v in f[2:6])
        return Detection(image_id, int(f[0]), float(f[1]), bbox, decode_rle(runs, image_shape))

    records = _read_records(path, "detections", {"det": (8, det)})
    return [d for _, _, d in records]


# ---------------------------------------------------------------------------
# codebook files

def write_codebook(path, cb: Codebook) -> list:
    header = [
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
    entries = (  # formatted one line at a time as they are written: the file is tens of MB
        f"entry {i} {' '.join(_r(x) for x in rot.q)} {_r(cb.view_diagonals_px[i])} {_r_row(cb.embeddings[i])}"
        for i, rot in enumerate(cb.rotations)
    )
    return _write(path, itertools.chain(header, entries))


def load_codebook(path) -> Codebook:
    # entry <index> <qw qx qy qz> <view_diag_px> <values...>; the index is not read
    entry = (6, lambda f: (Rotation.from_quat(*_floats(f[1:5])), float(f[5]), np.array(_floats(f[6:]))))
    text = (0, " ".join)  # a fingerprint value may be empty
    formats = {
        "codebook": (1, lambda f: f[0]), "object_id": _COUNT, "embedder": text, "embedder_fingerprint": text,
        "render_fingerprint": text, "z_ref_mm": _NUMBER, "fx_ref_px": _NUMBER, "dimension": _COUNT,
        "entries": _COUNT, "entry": entry,
    }
    records = _read_records(path, "codebook", formats)
    header = _keyed(path, [r for r in records if r[1] != "entry"], [key for key in formats if key != "entry"])
    if header["codebook"] != "v1":
        raise ValueError(f"{path}: unsupported codebook version {header['codebook']}")
    entries = [(line, e) for line, tag, e in records if tag == "entry"]
    if not entries:
        raise ValueError(f"{path}: codebook has no entries")
    if header["entries"] != len(entries):
        raise ValueError(f"{path}: header announces {header['entries']} entries, the file has {len(entries)}")
    dim = header["dimension"]
    for line, (_, _, vec) in entries:
        if len(vec) != dim:
            raise ValueError(f"{path}:{line}: {len(vec)} embedding values, codebook dimension is {dim}")
    rotations, diagonals, embeddings = zip(*(e for _, e in entries))
    return Codebook(
        object_id=header["object_id"],
        embedder_id=header["embedder"],
        embedder_fingerprint=header["embedder_fingerprint"],
        render_fingerprint=header["render_fingerprint"],
        z_ref_mm=header["z_ref_mm"],
        fx_ref_px=header["fx_ref_px"],
        rotations=rotations,
        embeddings=np.stack(embeddings),
        view_diagonals_px=np.array(diagonals),
    )


def _flag(text: str, name: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got '{text}'")
    return text == "1"


# ---------------------------------------------------------------------------
# pose estimates

def write_estimates(path, estimates) -> list:
    return _write(path, [
        "# est <det_index> <qw qx qy qz> <r11..r33> <tx ty tz> <cosine> <score> <mode> <refined>",
        *(f"est {e.detection_index} {_pose_text(e.pose)} {_r(e.cosine)} {_r(e.detector_score)} "
          f"{e.mode} {int(e.refined)}" for e in estimates),
    ])


def load_estimates(path, image_id: int, n_detections: int | None = None) -> list:
    """(line number, PoseEstimate) for each record of an estimates file; a
    detection index has at most one record and, with the scene's detection
    count given, is one of its detections."""

    def est(f):
        if f[19] not in (MODE_DEPTH_CENTER, MODE_RGB_SCALE):
            raise ValueError(f"unknown translation mode '{f[19]}'")
        index = int(f[0])
        if n_detections is not None and not 0 <= index < n_detections:
            raise ValueError(f"detection index {index} is not in {SCENE_FILES['dets']} ({n_detections} detections)")
        return PoseEstimate(
            image_id=image_id,
            detection_index=index,
            pose=_pose(f[1:17]),
            cosine=float(f[17]),
            detector_score=float(f[18]),
            mode=f[19],
            refined=_flag(f[20], "refined"),
        )

    records = [(line, e) for line, _, e in _read_records(path, "estimates", {"est": (21, est)})]
    _unrepeated(path, ((line, f"detection index {e.detection_index}") for line, e in records))
    return records


# ---------------------------------------------------------------------------
# selection report

def write_selection(path, scored, topk: dict) -> list:
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
    return _write(path, lines)


def load_selection(path, *, estimates: list | None = None, estimates_path=None, k: int | None = None):
    """Returns (scores: det_index -> SelectionScore, topk: method -> picks); a repeat, or a
    topk record for a method not in SORT_METHODS, is an error.

    Alone, path is only parsed and picks are detection indices. Given the scene's
    estimates ((line, PoseEstimate) pairs of estimates_path) and k, every sort method
    needs one topk record picking min(k, estimates) distinct detections that have an
    estimate, as select writes, and picks are those PoseEstimates in pick order.
    """

    def score(f):  # f[1:3] echo the estimate's detector score and cosine
        return int(f[0]), SelectionScore(
            e_sum=float(f[3]),
            n_intersection=int(f[4]),
            n_rendered=int(f[5]),
            mean_error=float(f[6]),
            coverage=float(f[7]),
            disqualified=_flag(f[8], "disqualified"),
        )

    def topk(f):
        if f[0] not in SORT_METHODS:
            raise ValueError(f"unknown sort method '{f[0]}'")
        return f[0], [int(i) for i in f[1:]]

    records = _read_records(path, "selection report", {"score": (9, score), "topk": (1, topk)})
    _unrepeated(path, ((line, f"{tag} {v[0]}") for line, tag, v in records))
    scores, picks = (dict(v for _, tag, v in records if tag == kind) for kind in ("score", "topk"))
    if estimates is None:
        return scores, picks
    by_index = {e.detection_index: e for _, e in estimates}
    for method in SORT_METHODS:
        if method not in picks:
            raise ValueError(f"{path}: no 'topk {method}' record")
        for n, i in enumerate(picks[method]):
            if i not in by_index:
                raise ValueError(f"{path}: topk {method} picks detection {i}, not in {estimates_path}")
            if i in picks[method][:n]:
                raise ValueError(f"{path}: topk {method} picks detection {i} twice")
        # select picks min(k, estimates) per method: any other count was picked with another k
        if len(picks[method]) != min(k, len(by_index)):
            raise ValueError(f"{path}: topk {method} picks {len(picks[method])} of {len(by_index)} estimates, "
                             f"not min(k, estimates) for k {k}")
        picks[method] = [by_index[i] for i in picks[method]]
    return scores, picks


# ---------------------------------------------------------------------------
# evaluation report + renderings

# EvalReport fields as stored per method in eval.json -> (test of the JSON value,
# what it must be); types are compared because a bool is an int to isinstance
_AR = (lambda v: v is None or (type(v) in (int, float) and 0 <= v <= 1), "a number in [0, 1] or null")
_EVAL_KEYS = {"n_estimates": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
              "ar_vsd": _AR, "ar_mssd": _AR, "ar_mspd": _AR, "ar": _AR,
              "empty": (lambda v: type(v) is bool, "true or false")}


def write_eval_json(path, per_method: dict, protocol: dict) -> list:
    payload = {
        "protocol": protocol,
        "methods": {
            m: {key: getattr(r, key) for key in _EVAL_KEYS}
            for m, r in per_method.items()
        },
    }
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def load_eval_json(path):
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing eval report: {path}")
    try:
        payload = json.loads(path.read_text())
        methods = {m: EvalReport(**{key: v[key] for key in _EVAL_KEYS}) for m, v in payload["methods"].items()}
        for m, v in payload["methods"].items():
            for key, (ok, kind) in _EVAL_KEYS.items():
                if not ok(v[key]):
                    raise ValueError(f"{m}.{key} must be {kind}, not {json.dumps(v[key])}")
        protocol = payload.get("protocol", {})
        if not isinstance(protocol, dict):
            raise ValueError(f"protocol must be an object, not {json.dumps(protocol)}")
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"{path}: malformed eval report ({type(err).__name__}: {err})") from None
    return methods, protocol


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _csv_cell(text: str) -> str:
    """text as csv.writer's QUOTE_MINIMAL writes a cell."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def emit_report(out_dir, labeled_reports, protocol: dict | None = None) -> list:
    """Render evaluation results to a text table, CSV, and SVG plots.

    labeled_reports: list of (label, {method: EvalReport}). A single entry
    renders the AR-by-method comparison; multiple entries additionally
    render AR against the labels, spaced evenly in the order given (e.g. a
    noise ladder).
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
    paths = _write(out_dir / "report.txt", lines)

    csv_lines = ["label,method,n_estimates,ar_vsd,ar_mssd,ar_mspd,ar"]
    for label, per_method in labeled_reports:
        for m in methods:
            rep = per_method.get(m)
            if rep is None:
                continue
            cells = [str(label), m, str(rep.n_estimates)] + [
                "" if v is None else _r(v) for v in (rep.ar_vsd, rep.ar_mssd, rep.ar_mspd, rep.ar)
            ]
            csv_lines.append(",".join(map(_csv_cell, cells)))
    paths += _write(out_dir / "report.csv", csv_lines)

    if labeled_reports and methods:
        label0, per_method0 = labeled_reports[0]
        bars = [(m, per_method0[m].ar) for m in methods if m in per_method0 and per_method0[m].ar is not None]
        paths += _write(out_dir / "ar_by_method.svg", _bar_chart_svg(bars, f"AR by sort method ({label0})"))
        if len(labeled_reports) > 1:
            series = {}
            for label, per_method in labeled_reports:
                for m in methods:
                    rep = per_method.get(m)
                    if rep is not None and rep.ar is not None:
                        series.setdefault(m, []).append((str(label), rep.ar))
            paths += _write(out_dir / "ar_vs_noise.svg", _line_chart_svg(series, "AR vs noise level"))
    return paths


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_SVG_COLORS = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")


def _svg_header(w, h, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">'
        f'{_escape(title)}</text>',
    ]


def _bar_chart_svg(bars, title) -> list:
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
                f'font-family="sans-serif" font-size="11">{_escape(name)}</text>'
            )
            parts.append(
                f'<text x="{x + bw / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{value:.3f}</text>'
            )
    parts.append(f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>')
    parts.append("</svg>")
    return parts


def _line_chart_svg(series: dict, title) -> list:
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
            x = margin + (w - 2 * margin) * (labels.index(label) / n)
            y = h - margin - (h - 2 * margin) * max(0.0, min(1.0, value))
            coords.append(f"{x:.1f},{y:.1f}")
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{w - margin + 4}" y="{margin + 14 * i + 10}" font-family="sans-serif" '
            f'font-size="10" fill="{color}">{_escape(name)}</text>'
        )
    for j, label in enumerate(labels):
        x = margin + (w - 2 * margin) * (j / n)
        parts.append(
            f'<text x="{x:.1f}" y="{h - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )
    parts.append(f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>')
    parts.append("</svg>")
    return parts


# ---------------------------------------------------------------------------
# hashing + manifest

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """Each stage's config echo and the sha256 of every file it read and wrote.

    A directory of entry files, <stage>.entry, each holding that stage's
    sorted JSON {"config", "inputs", "outputs"}. A stage writes only its own
    entry, so a fresh run renames no file onto one that the stage before
    has just written (on ext4 such a rename waited about 40 ms a stage), and
    re-running a stage replaces its entry, so a deterministic pipeline yields
    byte-identical entries. Wall-clock timings are deliberately kept out (see timings.txt).
    A file's producer is the stage whose entry lists it as an output:
    verify_inputs checks a file against its producer's entry, and record
    reuses the hash that check computed.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.stages = {}
        self._verified = {}  # Path -> sha256 that verify_inputs computed; record reuses it
        for entry_path in sorted(p for p in self.path.glob("*.entry") if p.is_file()):
            try:
                entry = json.loads(entry_path.read_text())
                if not (isinstance(entry, dict) and isinstance(entry.get("inputs"), dict)
                        and isinstance(entry.get("outputs"), dict)):
                    raise TypeError("an entry must be an object with 'inputs' and 'outputs' objects")
            except (ValueError, TypeError) as err:
                raise ValueError(f"{entry_path}: malformed manifest ({type(err).__name__}: {err})") from None
            self.stages[entry_path.name.removesuffix(".entry")] = entry
        self.producer = {rel: name for name, entry in self.stages.items() for rel in entry["outputs"]}

    def record(self, stage: str, config: dict, inputs, outputs, root) -> list:
        root = Path(root)
        entry = self.stages[stage] = {
            "config": config,
            "inputs": {
                str(Path(p).relative_to(root)) if Path(p).is_relative_to(root) else str(p):
                self._verified.get(Path(p)) or sha256_file(p)
                for p in inputs
            },
            "outputs": {str(Path(p).relative_to(root)): sha256_file(p) for p in outputs},
        }
        self.path.mkdir(exist_ok=True)
        return _write(self.path / f"{stage}.entry", [json.dumps(entry, indent=2, sort_keys=True)])

    def verify_inputs(self, paths, root) -> None:
        """Raise if a file under root that a stage produced differs from what
        that stage recorded, or is stale: a stage on its producer chain (its
        producer, the producers of that stage's inputs, and so on) read a
        file that has been rewritten, by that file's producer, since. Files
        no stage produced pass, and so do missing files, for their loaders to
        report. The chain is read from the manifest: only these files are hashed."""
        root = Path(root)
        for p in map(Path, paths):
            rel = str(p.relative_to(root)) if p.is_relative_to(root) else None
            stage = self.producer.get(rel)
            if stage is None or not p.is_file():
                continue
            self._verified[p] = sha256_file(p)
            if self._verified[p] != self.stages[stage]["outputs"][rel]:
                raise ValueError(f"manifest hash mismatch for {rel}: file changed since it was produced")
            stale = self._stale_read(stage, set())
            if stale is not None:
                writer, read, reader = stale
                raise ValueError(f"stale {rel}: {writer} rewrote {read} after {reader} read it; re-run {reader}")

    def _stale_read(self, stage, seen):
        """(writer, file, reader) of a stale read on stage's producer chain:
        reader read file, which writer has rewritten since. The stage's own
        inputs are checked before its producers' chains; None if none is stale."""
        seen.add(stage)
        writers = []
        for read, sha in self.stages[stage]["inputs"].items():
            writer = self.producer.get(read)
            if writer is not None:
                if self.stages[writer]["outputs"][read] != sha:
                    return writer, read, stage
                writers.append(writer)
        for writer in dict.fromkeys(writers):
            if writer not in seen:
                stale = self._stale_read(writer, seen)
                if stale is not None:
                    return stale
        return None
