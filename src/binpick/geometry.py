"""Rigid-body math, triangle meshes, and pinhole camera utilities.

Conventions used throughout the package:

* all lengths are millimeters,
* the camera frame is x right, y down, z forward (image rows grow with y),
* rotations are unit quaternions (w, x, y, z) canonicalized to w >= 0,
* meshes live in a model frame; a pose maps model points into the camera
  (or bin) frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Rotation",
    "Pose",
    "CameraIntrinsics",
    "TriangleMesh",
    "SymmetrySet",
    "compose",
    "invert",
    "project",
    "back_project",
    "geodesic_distance",
    "load_mesh",
    "load_symmetries",
    "sample_surface_points",
]


def _as_unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError("zero-length vector cannot be normalized")
    return v / n


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion (w, x, y, z), canonicalized so that w >= 0.

    If w == 0 the first nonzero component of (x, y, z) is made positive,
    collapsing the q / -q ambiguity to a single representative.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64).reshape(4).copy()
        if not np.all(np.isfinite(q)):
            raise ValueError("quaternion components must be finite")
        n = float(np.linalg.norm(q))
        if n < 1e-9:
            raise ValueError("quaternion norm too small")
        if abs(n - 1.0) > 1e-12:  # keep already-unit components bit-exact
            q /= n
        if q[0] < 0.0:
            q = -q
        elif q[0] == 0.0:
            for c in q[1:]:
                if c != 0.0:
                    if c < 0.0:
                        q = -q
                    break
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_quat(w: float, x: float, y: float, z: float) -> "Rotation":
        return Rotation(np.array([w, x, y, z], dtype=np.float64))

    @staticmethod
    def from_axis_angle(axis, angle_rad: float) -> "Rotation":
        axis = _as_unit(np.asarray(axis, dtype=np.float64).reshape(3))
        half = 0.5 * float(angle_rad)
        w = math.cos(half)
        if abs(w) < 1e-15:  # exact half-turns
            w = 0.0
        return Rotation(np.concatenate([[w], math.sin(half) * axis]))

    @staticmethod
    def from_matrix(m) -> "Rotation":
        """Quaternion from a 3x3 rotation matrix (Shepperd's method)."""
        m = np.asarray(m, dtype=np.float64).reshape(3, 3)
        t = np.trace(m)
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            q = np.array(
                [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
            )
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = np.array(
                [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
            )
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = np.array(
                [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
            )
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = np.array(
                [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
            )
        return Rotation(q)

    @staticmethod
    def random(rng: np.random.Generator) -> "Rotation":
        """Uniform random rotation (Shoemake's subgroup method)."""
        u0, u1, u2 = rng.random(3)
        r1, r2 = math.sqrt(1.0 - u0), math.sqrt(u0)
        t1, t2 = 2.0 * math.pi * u1, 2.0 * math.pi * u2
        return Rotation(np.array([math.cos(t2) * r2, math.sin(t1) * r1, math.cos(t1) * r1, math.sin(t2) * r2]))

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q
        return Rotation(np.array([w, -x, -y, -z]))

    def __mul__(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.q
        w2, x2, y2, z2 = other.q
        # pairwise grouping cancels exactly for q * q^-1
        return Rotation(
            np.array(
                [
                    (w1 * w2 - x1 * x2) - (y1 * y2 + z1 * z2),
                    (w1 * x2 + x1 * w2) + (y1 * z2 - z1 * y2),
                    (w1 * y2 + y1 * w2) + (z1 * x2 - x1 * z2),
                    (w1 * z2 + z1 * w2) + (x1 * y2 - y1 * x2),
                ]
            )
        )

    def rotate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        # einsum keeps this off BLAS: bit-identical results at any thread count
        return np.einsum("...i,ji->...j", pts, self.as_matrix(), optimize=False)

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic angle in radians, in [0, pi]."""
        d = self.inverse() * other
        w = abs(float(d.q[0]))
        v = float(np.linalg.norm(d.q[1:]))
        return 2.0 * math.atan2(v, w)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_out = R p_in + t, translation in mm."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    def transform(self, points: np.ndarray) -> np.ndarray:
        return self.rotation.rotate(points) + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Pose applying b first, then a."""
    return Pose(a.rotation * b.rotation, a.rotation.rotate(b.translation) + a.translation)


def invert(p: Pose) -> Pose:
    rinv = p.rotation.inverse()
    return Pose(rinv, -rinv.rotate(p.translation))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def project(k: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixel coordinates (..., 2).

    Raises ValueError if any point has z <= 0 ("behind camera").
    """
    pts = np.asarray(points, dtype=np.float64)
    z = pts[..., 2]
    if np.any(z <= 0):
        raise ValueError("behind camera: z must be positive")
    u = k.cx + k.fx * pts[..., 0] / z
    v = k.cy + k.fy * pts[..., 1] / z
    return np.stack([u, v], axis=-1)


def back_project(k: CameraIntrinsics, u, v, z) -> np.ndarray:
    """Inverse of project: pixel (u, v) at depth z -> camera-frame point."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise ValueError("depth must be positive")
    x = (u - k.cx) * z / k.fx
    y = (v - k.cy) * z / k.fy
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


@dataclass(frozen=True)
class SymmetrySet:
    """Discrete rotational symmetry group of an object; always contains the identity."""

    rotations: tuple

    def __post_init__(self):
        rots = tuple(self.rotations)
        if not any(r.angle_to(Rotation.identity()) < 1e-9 for r in rots):
            rots = (Rotation.identity(),) + rots
        object.__setattr__(self, "rotations", rots)

    @staticmethod
    def trivial() -> "SymmetrySet":
        return SymmetrySet((Rotation.identity(),))


def geodesic_distance(r1: Rotation, r2: Rotation, symmetries: SymmetrySet | None = None) -> float:
    """Rotation-group geodesic angle in radians; min over symmetries if given."""
    if symmetries is None:
        return r1.angle_to(r2)
    return min(r1.angle_to(r2 * s) for s in symmetries.rotations)


@dataclass(frozen=True)
class TriangleMesh:
    """Triangulated surface in mm, with cached diameter / centroid / bounding radius.

    The diameter is the exact max pairwise vertex distance (meshes in this
    package are small enough for the brute-force computation).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    diameter: float = 0.0
    centroid: np.ndarray = None
    bounding_radius: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3).copy()
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3).copy()
        if v.shape[0] == 0:
            raise ValueError("empty mesh: no vertices")
        if t.shape[0] == 0:
            raise ValueError("empty mesh: no triangles")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise ValueError("vertex index out of range")
        v.setflags(write=False)
        t.setflags(write=False)
        diameter = _max_pairwise_distance(v)
        if diameter <= 0.0:
            raise ValueError("degenerate mesh: zero diameter")
        centroid = v.mean(axis=0)
        centroid.setflags(write=False)
        radius = float(np.sqrt(((v - centroid) ** 2).sum(axis=1).max()))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "centroid", centroid)
        object.__setattr__(self, "bounding_radius", radius)

    def extents(self) -> np.ndarray:
        """Axis-aligned bounding-box side lengths in the model frame."""
        return self.vertices.max(axis=0) - self.vertices.min(axis=0)


def _max_pairwise_distance(v: np.ndarray, chunk: int = 512) -> float:
    best = 0.0
    for i in range(0, v.shape[0], chunk):
        block = v[i : i + chunk]
        d2 = ((block[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def _read_records(path, what: str, formats: dict) -> list:
    """(line number, tag, value) per record of a text file; the one reader of every text format.

    Blank lines and lines whose first token starts with "#" are skipped; a
    record's first token is its tag. formats maps each allowed tag (None for
    untagged records) to (n_fields, parse): parse gets the n_fields or more
    fields after the tag. A missing file raises FileNotFoundError("missing
    <what>: <path>"). An unknown tag, a short record or a ValueError from parse
    (bytes that are not UTF-8 read as U+FFFD) raises ValueError("<path>:<line>: ...").
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing {what}: {path}")
    records = []
    with path.open(errors="replace") as f:
        # streamed, one line alive at a time; splitting each universal-newline
        # line again numbers lines exactly as str.splitlines() does (\x0c, \x85, ...)
        lines = (sub for phys in f for sub in phys.splitlines())
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            tag, fields = (None, tokens) if None in formats else (tokens[0], tokens[1:])
            try:
                if tag not in formats:
                    raise ValueError(f"unknown record '{tag}'")
                n_fields, parse = formats[tag]
                if len(fields) < n_fields:
                    raise ValueError(f"'{tag}' record needs {n_fields} fields, got {len(fields)}")
                records.append((lineno, tag, parse(fields)))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    return records


def load_mesh(path) -> TriangleMesh:
    """Read an ASCII triangle mesh: "v x y z" vertex lines, "f i j k" faces.

    Face indices are 1-based and must be plain integers; faces with more or
    fewer than 3 indices are rejected. Blank and comment lines are ignored;
    any other keyword is an error. Units are mm.
    """

    def vertex(fields):
        if len(fields) != 3:
            raise ValueError("vertex line needs exactly 3 coordinates")
        return [float(c) for c in fields]

    def face(fields):
        if len(fields) != 3:
            raise ValueError("non-triangular face")
        idx = [int(c) for c in fields]
        if min(idx) < 1:
            raise ValueError("face indices are 1-based positive integers")
        return [i - 1 for i in idx]

    records = _read_records(path, "mesh file", {"v": (0, vertex), "f": (0, face)})
    vertices = [v for _, tag, v in records if tag == "v"]
    faces = [f for _, tag, f in records if tag == "f"]
    try:
        # TriangleMesh rejects an empty mesh and out-of-range indices
        return TriangleMesh(vertices, faces)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from None


def load_symmetries(path) -> SymmetrySet:
    """Read a symmetry file: one rotation per line, 9 values row-major."""

    def rotation(fields):
        if len(fields) != 9:
            raise ValueError("expected 9 values (row-major 3x3 rotation)")
        m = np.array([float(c) for c in fields]).reshape(3, 3)
        if abs(np.linalg.det(m) - 1.0) > 1e-6 or np.abs(m @ m.T - np.eye(3)).max() > 1e-6:
            raise ValueError("not a rotation matrix")
        return Rotation.from_matrix(m)

    records = _read_records(path, "symmetry file", {None: (0, rotation)})
    return SymmetrySet(tuple(r for _, _, r in records))


def sample_surface_points(mesh: TriangleMesh, n: int, seed: int) -> np.ndarray:
    """Area-weighted uniform surface samples, (n, 3) mm; deterministic per seed."""
    if n < 0:
        raise ValueError("sample count must be >= 0")
    if n == 0:
        return np.zeros((0, 3))
    v = mesh.vertices
    tri = v[mesh.triangles]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    areas = 0.5 * np.sqrt((cross**2).sum(axis=1))
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas) / total
    idx = np.searchsorted(cum, rng.random(n), side="right").clip(0, len(areas) - 1)
    u = rng.random(n)
    w = rng.random(n)
    flip = u + w > 1.0
    u[flip] = 1.0 - u[flip]
    w[flip] = 1.0 - w[flip]
    a, b, c = tri[idx, 0], tri[idx, 1], tri[idx, 2]
    return a + u[:, None] * (b - a) + w[:, None] * (c - a)
