"""Discretization of smooth closed planar curves with piecewise-linear bases.

A curve is sampled uniformly in its parameter, producing a closed polygonal
chain.  Nodal hat functions (linear in arclength on the two adjacent
segments) are the trial/test space for all 2D boundary-operator assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Ellipse",
    "PerturbedCircle",
    "ParametricCurve",
    "CurveMesh",
    "build_mesh",
    "basis_eval",
]

MIN_NODES = 8


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse, counterclockwise parameterization.

    Attributes
    ----------
    a, b : float
        Semi-axes in meters (a along x, b along y); both must be positive.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipse semi-axes must be positive")

    def position(self, theta):
        theta = np.asarray(theta, float)
        return np.stack([self.a * np.cos(theta), self.b * np.sin(theta)], axis=-1)

    def derivative(self, theta):
        theta = np.asarray(theta, float)
        return np.stack([-self.a * np.sin(theta), self.b * np.cos(theta)], axis=-1)


@dataclass(frozen=True)
class PerturbedCircle:
    """Closed curve r(theta) = r0 + amp*sin(lobes*theta), counterclockwise.

    Requires |amp| < r0 so the radius stays positive.
    """

    r0: float
    amp: float
    lobes: int

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("base radius must be positive")
        if abs(self.amp) >= self.r0:
            raise ValueError("perturbation amplitude must satisfy |amp| < r0")

    def _radius(self, theta):
        return self.r0 + self.amp * np.sin(self.lobes * theta)

    def position(self, theta):
        theta = np.asarray(theta, float)
        r = self._radius(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def derivative(self, theta):
        theta = np.asarray(theta, float)
        r = self._radius(theta)
        dr = self.amp * self.lobes * np.cos(self.lobes * theta)
        return np.stack(
            [dr * np.cos(theta) - r * np.sin(theta),
             dr * np.sin(theta) + r * np.cos(theta)],
            axis=-1,
        )


ParametricCurve = Union[Ellipse, PerturbedCircle]


@dataclass(frozen=True)
class CurveMesh:
    """Closed polygonal discretization of a smooth planar curve.

    For a closed curve the number of segments equals the number of nodes;
    segment p connects node p to node (p+1) mod N.  Tangents are unit
    vectors along each segment; normals are tangents rotated by -90 deg,
    which points outward for a counterclockwise parameterization.
    """

    nodes: np.ndarray            # (N, 2) meters
    node_params: np.ndarray      # (N,) parameter values in [0, 2*pi)
    segment_lengths: np.ndarray  # (N,) meters
    tangents: np.ndarray         # (N, 2) unit vectors
    normals: np.ndarray          # (N, 2) outward unit vectors
    h: float                     # mean segment length, meters
    node_arclengths: np.ndarray = field(repr=False, default=None)  # (N+1,) cumulative

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_segments(self) -> int:
        return len(self.segment_lengths)

    @property
    def perimeter(self) -> float:
        return float(self.segment_lengths.sum())

    def is_uniform(self, rel_tol: float = 1e-12) -> bool:
        ell = self.segment_lengths
        return bool(np.ptp(ell) <= rel_tol * ell.max())


def _turning_angle_sum(tangents) -> float:
    t0 = tangents
    t1 = np.roll(tangents, -1, axis=0)
    cross = t0[:, 0] * t1[:, 1] - t0[:, 1] * t1[:, 0]
    dot = np.sum(t0 * t1, axis=1)
    return float(np.arctan2(cross, dot).sum())


def build_mesh(curve: ParametricCurve, n_nodes: int) -> CurveMesh:
    """Sample a closed curve uniformly in parameter and build its mesh.

    Parameters
    ----------
    curve : ParametricCurve
    n_nodes : int
        Number of nodes (= number of segments); at least 8.

    Returns
    -------
    CurveMesh

    Raises
    ------
    ValueError
        For fewer than 8 nodes, or if the resulting chain is degenerate
        (zero-length segment, or total turning angle not +2*pi).
    """
    if n_nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = curve.position(theta)
    chords = np.roll(nodes, -1, axis=0) - nodes
    lengths = np.linalg.norm(chords, axis=1)
    if np.any(lengths <= 0.0) or not np.all(np.isfinite(lengths)):
        raise ValueError("degenerate mesh: zero-length or non-finite segment")
    tangents = chords / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

    turn = _turning_angle_sum(tangents)
    if not np.isclose(turn, 2.0 * np.pi, atol=1e-8):
        raise ValueError(
            f"total turning angle {turn:.6f} != 2*pi; "
            "curve must be a simple counterclockwise closed loop"
        )

    arcl = np.concatenate([[0.0], np.cumsum(lengths)])
    return CurveMesh(
        nodes=nodes,
        node_params=theta,
        segment_lengths=lengths,
        tangents=tangents,
        normals=normals,
        h=float(lengths.mean()),
        node_arclengths=arcl,
    )


def basis_eval(mesh: CurveMesh, i: int, s) -> np.ndarray:
    """Evaluate the hat function of node ``i`` at arclength coordinate ``s``.

    The hat is 1 at node i, falls linearly to 0 at the two neighboring
    nodes, and vanishes elsewhere; ``s`` is taken modulo the perimeter.

    Parameters
    ----------
    mesh : CurveMesh
    i : int
        Node index, 0 <= i < n_nodes.
    s : float or array_like
        Arclength coordinate(s) measured from node 0.

    Returns
    -------
    float or np.ndarray
    """
    n = mesh.n_nodes
    if not 0 <= i < n:
        raise ValueError(f"basis index {i} out of range [0, {n})")
    s = np.asarray(s, float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s) % mesh.perimeter
    cum = mesh.node_arclengths
    seg = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, n - 1)
    local = (s - cum[seg]) / mesh.segment_lengths[seg]
    out = np.zeros_like(s)
    rising = seg == (i - 1) % n   # segment ending at node i
    falling = seg == i            # segment starting at node i
    out[rising] = local[rising]
    out[falling] = 1.0 - local[falling]
    # s exactly at node i belongs to the falling segment: value 1 there
    return out[0] if scalar else out
