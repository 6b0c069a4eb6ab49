"""Procedural meshes for demos and synthetic datasets.

The default dimensions mirror small gray plastic parts a few cm across;
all sizes in mm.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Rotation, SymmetrySet, TriangleMesh

__all__ = ["make_box", "make_lbracket", "box_symmetries"]


def make_box(sx: float = 23.0, sy: float = 36.0, sz: float = 8.0) -> TriangleMesh:
    """Axis-aligned box centered at the origin."""
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    verts = np.array(
        [
            [-hx, -hy, -hz],
            [hx, -hy, -hz],
            [hx, hy, -hz],
            [-hx, hy, -hz],
            [-hx, -hy, hz],
            [hx, -hy, hz],
            [hx, hy, hz],
            [-hx, hy, hz],
        ]
    )
    tris = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom
            [4, 5, 6], [4, 6, 7],  # top
            [0, 1, 5], [0, 5, 4],  # -y
            [2, 3, 7], [2, 7, 6],  # +y
            [1, 2, 6], [1, 6, 5],  # +x
            [3, 0, 4], [3, 4, 7],  # -x
        ]
    )
    return TriangleMesh(verts, tris)


def make_lbracket(
    leg_a: float = 27.0,
    leg_b: float = 15.0,
    height_a: float = 12.0,
    height_b: float = 4.0,
    thickness_a: float = 6.0,
    thickness_b: float = 10.0,
) -> TriangleMesh:
    """Stepped L-bracket: two fused boxes with no rotational symmetry.

    Leg A runs along +x, leg B along +y. The legs differ in height and
    thickness so views from opposite sides stay distinguishable, which a
    plain extruded L does not guarantee.
    """
    def box_verts(x0, x1, y0, y1, z0, z1):
        return [
            [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
            [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
        ]

    box_tris = np.array(
        [
            [0, 2, 1], [0, 3, 2],
            [4, 5, 6], [4, 6, 7],
            [0, 1, 5], [0, 5, 4],
            [2, 3, 7], [2, 7, 6],
            [1, 2, 6], [1, 6, 5],
            [3, 0, 4], [3, 4, 7],
        ]
    )
    verts = box_verts(0.0, leg_a, 0.0, thickness_a, 0.0, height_a)
    verts += box_verts(0.0, thickness_b, thickness_a, leg_b, 0.0, height_b)
    tris = np.concatenate([box_tris, box_tris + 8])
    v = np.asarray(verts, dtype=np.float64)
    v -= v.mean(axis=0)  # roughly center so poses place the part sensibly
    return TriangleMesh(v, tris)


def box_symmetries() -> SymmetrySet:
    """Proper symmetry group of a box with three distinct extents."""
    return SymmetrySet(
        (
            Rotation.identity(),
            Rotation.from_axis_angle([1, 0, 0], math.pi),
            Rotation.from_axis_angle([0, 1, 0], math.pi),
            Rotation.from_axis_angle([0, 0, 1], math.pi),
        )
    )
