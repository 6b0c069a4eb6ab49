"""Synthetic bin-picking 6D pose estimation toolkit.

Scene generation, codebook-based rotation estimation, translation from
depth, depth-error pose selection, ICP refinement, and BOP-style
evaluation, with text/PGM file interfaces so external detectors and
encoders can be swapped in.
"""

from .geometry import (
    CameraIntrinsics,
    Pose,
    Rotation,
    SymmetrySet,
    TriangleMesh,
    back_project,
    compose,
    geodesic_distance,
    invert,
    load_mesh,
    load_symmetries,
    project,
    sample_surface_points,
)
from .render import RenderConfig, render_scene, render_single, render_windows, visibility_mask
from .scenegen import (
    Detection,
    DetectionPerturb,
    GTInstance,
    SceneConfig,
    SceneGT,
    generate_scene,
    gt_detections,
)
from .codebook import (
    Codebook,
    EmbedderSpec,
    ScoredRotation,
    build_codebook,
    embed,
    knn_lookup,
    mean_nn_spacing,
    sample_rotations,
)
from .pipeline import (
    PoseEstimate,
    TranslationMode,
    default_surface_offset,
    estimate_poses,
    estimate_translation,
    extract_crop,
)
from .select_refine import (
    IcpConfig,
    IcpResult,
    SelectionConfig,
    SelectionScore,
    depth_error,
    detection_cloud,
    icp_refine,
    select_top_k,
)
from .bopeval import (
    DetectionMetrics,
    EvalReport,
    PoseError,
    average_recall,
    detection_metrics,
    match_estimates,
    mspd,
    mssd,
    vsd,
)

__version__ = "0.1.0"
