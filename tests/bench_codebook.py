"""Micro-benchmarks for the codebook: build, file write and load, k-NN.

The file name keeps it out of the default test collection. Run it with

    PYTHONPATH=src python -m pytest tests/bench_codebook.py --benchmark-only

(pytest-benchmark options such as ``--benchmark-compare`` apply as usual).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from binpick import cli, fileio
from binpick.codebook import EmbedderSpec, build_codebook, knn_lookup, sample_rotations
from binpick.geometry import CameraIntrinsics
from binpick.render import RenderConfig
from binpick.shapes import make_box

# keep freed heap memory mapped, as every stage process does, so that the
# timings measure the work and not the page faults of refetched temporaries
cli._keep_freed_memory()

CODEBOOK_CAM = CameraIntrinsics(400.0, 400.0, 80.0, 80.0, 160, 160)


# build_codebook arguments of a 256-entry box codebook (1024 values per entry)
BOX_256 = (make_box(), sample_rotations(256, seed=0), EmbedderSpec(), RenderConfig(CODEBOOK_CAM), 300.0)


@pytest.fixture(scope="module")
def codebook(tmp_path_factory):
    """The BOX_256 codebook and its file."""
    cb = build_codebook(*BOX_256)
    path = tmp_path_factory.mktemp("codebook") / "codebook.txt"
    fileio.write_codebook(path, cb)
    return cb, path


def test_write_codebook(benchmark, codebook, tmp_path):
    cb, path = codebook
    benchmark(fileio.write_codebook, tmp_path / "codebook.txt", cb)
    assert (tmp_path / "codebook.txt").read_bytes() == path.read_bytes()


def test_load_codebook(benchmark, codebook):
    cb, path = codebook
    back = benchmark(fileio.load_codebook, path)
    assert np.array_equal(back.embeddings, cb.embeddings)


def test_knn_lookup(benchmark, codebook):
    cb, _ = codebook
    z = cb.embeddings[7] + np.random.default_rng(0).normal(size=cb.dimension) * 0.01
    top = benchmark(knn_lookup, cb, z, 10)
    assert top[0].index == 7


@pytest.mark.parametrize("cpus", ["one", "all"])
def test_build_codebook(benchmark, codebook, monkeypatch, cpus):
    """BOX_256 built in-process (one CPU) and by one forked worker per CPU."""
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cb, _ = codebook
    built = benchmark(build_codebook, *BOX_256)
    assert built.embeddings.tobytes() == cb.embeddings.tobytes()
