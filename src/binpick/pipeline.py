"""Per-detection pose estimation: crop, rotation via codebook, translation.

Rotation comes from the top-1 codebook entry for the detection's crop
embedding and is not re-estimated afterwards. Translation is decoupled:
either from the depth at the object center (plus a surface-to-center
offset) or, RGB-only, from the apparent-size ratio against the matched
codebook view.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, EmbedderSpec, embed, knn_lookup, padded_crop
from .geometry import CameraIntrinsics, Pose, TriangleMesh, back_project
from .scenegen import Detection

__all__ = [
    "TranslationMode",
    "PoseEstimate",
    "extract_crop",
    "estimate_translation",
    "estimate_poses",
    "default_surface_offset",
]

log = logging.getLogger(__name__)

MODE_DEPTH_CENTER = "depth_center"
MODE_RGB_SCALE = "rgb_scale"


@dataclass(frozen=True)
class TranslationMode:
    """Depth recovery strategy.

    surface_offset_mm (>= 0) shifts the measured front-surface depth toward
    the object center; the default for a given mesh is half its smallest
    bounding-box extent (see default_surface_offset), 0 reproduces the raw
    center-depth reading.
    """

    mode: str = MODE_DEPTH_CENTER
    center_window_px: int = 5
    surface_offset_mm: float = 0.0

    def __post_init__(self):
        if self.mode not in (MODE_DEPTH_CENTER, MODE_RGB_SCALE):
            raise ValueError(f"unknown translation mode '{self.mode}'")
        if self.center_window_px < 1 or self.center_window_px % 2 == 0:
            raise ValueError("center window must be odd and >= 1")
        if self.surface_offset_mm is None:  # estimate_poses adds it to every depth reading
            raise ValueError("surface_offset_mm must be a number, not None (see default_surface_offset)")
        if self.surface_offset_mm < 0:
            raise ValueError("surface_offset_mm must be >= 0")


def default_surface_offset(mesh: TriangleMesh) -> float:
    """Half the smallest model bounding-box extent, in mm."""
    return float(mesh.extents().min() / 2.0)


@dataclass(frozen=True)
class PoseEstimate:
    image_id: int
    detection_index: int
    pose: Pose
    cosine: float
    detector_score: float
    mode: str
    refined: bool = False


def extract_crop(gray: np.ndarray, det: Detection, spec: EmbedderSpec, mask_only: bool = False) -> np.ndarray:
    """Embedder input for a detection: padded_crop around the bbox.

    The extent is max(bbox w, h), the center the bbox center. With
    mask_only, pixels outside the detection mask are zeroed first.
    """
    x, y, w, h = det.bbox
    src = np.where(det.mask, gray, 0.0) if mask_only else gray
    return padded_crop(src, (x + w / 2.0, y + h / 2.0), max(w, h), spec)


def estimate_translation(
    det: Detection,
    depth: np.ndarray | None,
    k: CameraIntrinsics,
    mode: TranslationMode,
    cb: Codebook,
    entry_index: int | None = None,
) -> np.ndarray:
    """Object-center translation (mm) for one detection.

    depth_center: median of valid mask-interior depths inside the center
    window, plus the surface offset. rgb_scale: depth from the ratio of the
    matched codebook view's bbox diagonal (entry_index) to the detected
    bbox diagonal, scaled by the codebook distance and the focal-length
    ratio between the two cameras. Both modes place (x, y) by
    back-projecting the bbox center at the recovered depth.
    """
    x, y, w, h = det.bbox
    ucf = x + w / 2.0
    vcf = y + h / 2.0
    if mode.mode == MODE_DEPTH_CENTER:
        if depth is None:
            raise ValueError("depth_center mode requires a depth image")
        half = mode.center_window_px // 2
        uc = int(round(ucf - 0.5))
        vc = int(round(vcf - 0.5))
        r0, r1 = max(0, vc - half), min(depth.shape[0], vc + half + 1)
        c0, c1 = max(0, uc - half), min(depth.shape[1], uc + half + 1)
        window = depth[r0:r1, c0:c1]
        valid = (window > 0) & det.mask[r0:r1, c0:c1]
        if not valid.any():
            raise ValueError("no valid depth in center window")
        z = float(np.median(window[valid].astype(np.float64))) + mode.surface_offset_mm
    else:
        if entry_index is None:
            raise ValueError("rgb_scale mode requires the matched codebook entry index")
        diag_cb = float(cb.view_diagonals_px[entry_index])
        # apparent size scales with fx / z; correct for differing cameras
        z = cb.z_ref_mm * (diag_cb / float(np.hypot(w, h))) * (k.fx / cb.fx_ref_px)
    return back_project(k, ucf, vcf, z)


def estimate_poses(
    gray: np.ndarray,
    depth: np.ndarray | None,
    detections,
    cb: Codebook,
    k: CameraIntrinsics,
    mode: TranslationMode,
    embedder: EmbedderSpec = EmbedderSpec(),
    mask_only: bool = False,
) -> list:
    """Estimate one pose per detection; degenerate detections are skipped.

    Skipped detections are reported through the module logger, in one
    warning per call that groups their indices by reason; output order
    follows detection order. A codebook that does not fit is a ValueError,
    raised before any detection is handled: a dimension or a non-empty
    embedder fingerprint that differs from the embedder's, a detection of
    another object, or in rgb_scale a fx_ref_px or view_diag_px not > 0.
    """
    if cb.dimension != embedder.dimension:
        raise ValueError(
            f"codebook dimension {cb.dimension} does not match embedder dimension {embedder.dimension}"
        )
    if cb.embedder_fingerprint and cb.embedder_fingerprint != embedder.fingerprint():
        raise ValueError(
            f"codebook embedder_fingerprint {cb.embedder_fingerprint} does not match embedder "
            f"{embedder.fingerprint()} (crop_px {embedder.crop_px}, grid_px {embedder.grid_px})"
        )
    for idx, det in enumerate(detections):
        if det.object_id != cb.object_id:
            raise ValueError(f"codebook object_id {cb.object_id} does not match object id {det.object_id} "
                             f"of detection {idx} of image {det.image_id}")
    if mode.mode == MODE_RGB_SCALE and not (cb.fx_ref_px > 0 and (cb.view_diagonals_px > 0).all()):
        raise ValueError(f"rgb_scale needs fx_ref_px and every view_diag_px > 0: fx_ref_px is {cb.fx_ref_px!r}, "
                         f"{np.count_nonzero(~(cb.view_diagonals_px > 0))} of {len(cb)} view_diag_px are not")
    estimates = []
    skipped = {}  # reason -> indices of the detections skipped for it
    for idx, det in enumerate(detections):
        try:
            crop = extract_crop(gray, det, embedder, mask_only)
            z_test = embed(crop, embedder)
            top = knn_lookup(cb, z_test, 1)[0]
            t = estimate_translation(det, depth, k, mode, cb, entry_index=top.index)
        except ValueError as err:
            skipped.setdefault(str(err), []).append(idx)
            continue
        estimates.append(
            PoseEstimate(
                image_id=det.image_id,
                detection_index=idx,
                pose=Pose(top.rotation, t),
                cosine=top.similarity,
                detector_score=det.score,
                mode=mode.mode,
            )
        )
    if skipped:
        indices = [i for group in skipped.values() for i in group]
        images = sorted({detections[i].image_id for i in indices})
        log.warning(
            "skipped %d of %d detections of image %s: %s",
            len(indices), len(detections), ", ".join(map(str, images)),
            "; ".join(f"{reason}: {', '.join(map(str, group))}" for reason, group in skipped.items()),
        )
    return estimates
