from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from binpick.codebook import EmbedderSpec, build_codebook, mean_nn_spacing, sample_rotations
from binpick.geometry import CameraIntrinsics
from binpick.render import RenderConfig, render_single
from binpick.shapes import make_box, make_lbracket


def child_env() -> dict:
    """Environment of a child Python process that imports binpick from this checkout."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def solo_frame(mesh, pose, cfg):
    """render_single's depth window pasted into a zero frame of cfg's camera,
    and that frame's surface mask (depth > 0)."""
    window, (row, col) = render_single(mesh, pose, cfg)
    k = cfg.intrinsics
    depth = np.zeros((k.height, k.width), np.uint16)
    depth[row : row + window.shape[0], col : col + window.shape[1]] = window
    return depth, depth > 0


@pytest.fixture(scope="session")
def box():
    return make_box()


@pytest.fixture(scope="session")
def lbracket():
    return make_lbracket()


@pytest.fixture(scope="session")
def cam():
    return CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


@pytest.fixture(scope="session")
def cam_small():
    return CameraIntrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)


@pytest.fixture(scope="session")
def codebook_cam():
    return CameraIntrinsics(400.0, 400.0, 80.0, 80.0, 160, 160)


@pytest.fixture(scope="session")
def big_codebook(lbracket, codebook_cam):
    """4096-entry rendered codebook shared by the acceptance suite."""
    rotations = sample_rotations(4096, seed=0)
    cb = build_codebook(lbracket, rotations, EmbedderSpec(), RenderConfig(codebook_cam), 300.0)
    return cb, rotations, mean_nn_spacing(rotations)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
