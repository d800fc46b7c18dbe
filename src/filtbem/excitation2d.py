"""Incident TE fields and Galerkin right-hand-side assembly.

Sources produce the out-of-plane magnetic field h_z and the in-plane
electric field E = (eta / (i k)) (grad h_z x z_hat); the tangential trace
of E and the trace of h_z are tested against the nodal hat functions on
the kernel passes' segment Gauss rules, graded by their admissibility
test (:class:`~filtbem.assembly2d.SegmentRule`): a line source at least
``far_radius`` times each segment's length from that segment's midpoint,
and a plane wave, which has no singularity, take the far order; a line
source closer to some segment keeps the near order.  On the lobed
benchmark curve (N = 502 and 1004, k = 0.4), the far-order moments of
line sources on the radius-3 circle (at least 28 h away) differ by at most
1.2e-15 relative (max norm) from an order-16 rule, those of a plane wave
by 4.4e-16; at order 4 a line source 12 h away would err 1.0e-14 and one
3 h away 3.5e-13, hence the radius.  The per-mesh part, the Gauss rules
and the test's midpoints and radii, is that segment rule, which a sweep
builds once per mesh and order
(:func:`~filtbem.assembly2d.segment_rule`), so a further source pays only
for its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .assembly2d import SegmentRule
from .special import hankel_h1_0, hankel_h1_1

__all__ = [
    "MagneticLineSource",
    "PlaneWaveTE",
    "Source2D",
    "incident_fields",
    "assemble_rhs",
]


@dataclass(frozen=True)
class MagneticLineSource:
    """Out-of-plane magnetic line source: h_z(r) = amplitude * (i/4) H0(k|r - r0|)."""

    position: tuple
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        pos = np.asarray(self.position, float)
        if pos.shape != (2,):
            raise ValueError("source position must be a 2D point")
        if not (np.all(np.isfinite(pos)) and np.isfinite(self.amplitude)):
            raise ValueError("line-source position and amplitude must be finite")


@dataclass(frozen=True)
class PlaneWaveTE:
    """Plane wave h_z(r) = amplitude * exp(i k d.r) with unit direction d."""

    direction: tuple
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        d = np.asarray(self.direction, float)
        if d.shape != (2,) or not np.isclose(np.linalg.norm(d), 1.0, atol=1e-12):
            raise ValueError("plane-wave direction must be a 2D unit vector")
        if not np.isfinite(self.amplitude):
            raise ValueError("plane-wave amplitude must be finite")


Source2D = Union[MagneticLineSource, PlaneWaveTE]


def _traces(src: Source2D, k: float, eta: float, pts: np.ndarray,
            tangents: np.ndarray, clearance: float = 0.0):
    """Tangential E and h_z at points (..., 2), each of shape pts.shape[:-1];
    ``tangents`` broadcasts against the points, x and y on its last axis.

    The one dispatch on the source kind for the fields (the Gauss order's
    test only reads a line source's position).  A line source's one array
    of distances serves the field and both rejections: points closer than
    ``clearance`` (h/2 of the curve the moments are taken on) and points
    at the source itself.  k and eta must be finite and positive.
    """
    if not (0 < k < np.inf and 0 < eta < np.inf):   # NaN fails too
        raise ValueError(f"k and eta must be finite and positive, got {k}, {eta}")
    shape, pts = pts.shape[:-1], pts.reshape(-1, 2)
    if isinstance(src, MagneticLineSource):
        diff = pts - np.asarray(src.position, float)
        dist = np.linalg.norm(diff, axis=1)
        dmin = dist.min()
        if dmin < clearance:
            raise ValueError(
                f"source distance {dmin:.3e} m from the curve is below h/2 = "
                f"{clearance:.3e} m")
        if dmin == 0.0:
            raise ValueError("field evaluated at the line-source position")
        kd = k * dist
        h = src.amplitude * 0.25j * hankel_h1_0(kd)
        # d/dx H0(kx) = -k H1(kx)
        radial = src.amplitude * (-0.25j) * k * hankel_h1_1(kd) / dist
        g_x, g_y = radial * diff[:, 0], radial * diff[:, 1]
    elif isinstance(src, PlaneWaveTE):
        d = np.asarray(src.direction, float)
        h = src.amplitude * np.exp(1j * k * (pts @ d))
        ikh = (1j * k) * h
        g_x, g_y = ikh * d[0], ikh * d[1]
    else:
        raise TypeError(f"unknown source type {type(src).__name__}")
    # E = c (g_y, -g_x) with c = eta/(i k), so E . t = c g_y t_x - c g_x t_y
    coef = eta / (1j * k)
    e_t = ((coef * g_y).reshape(shape) * tangents[..., 0]
           - (coef * g_x).reshape(shape) * tangents[..., 1])
    return e_t, h.reshape(shape)


def incident_fields(src: Source2D, k: float, eta: float, pts, tangents):
    """Tangential incident electric field and out-of-plane magnetic field.

    Parameters
    ----------
    src : Source2D
    k, eta : float
        Wavenumber (rad/m) and impedance (ohm), finite and positive.
    pts : (m, 2) or (2,) array
        Evaluation points, off the source position.
    tangents : matching array of unit tangents.

    Returns
    -------
    (e_t, h_z) : complex arrays (or scalars for a single point).
    """
    e_t, h = _traces(src, k, eta, np.asarray(pts, float),
                     np.asarray(tangents, float))
    return e_t[()], h[()]    # [()]: a 0-d result becomes a scalar


def assemble_rhs(rule: SegmentRule, src: Source2D, k: float, eta: float):
    """Galerkin moments of the incident traces against the hat functions,
    on the mesh and at the order of ``rule``, the
    :func:`~filtbem.assembly2d.segment_rule` that a sweep over sources
    builds once (the operator bundle's ``rule``).

    A line source closer than ``far_radius`` segment lengths to some
    segment midpoint takes the near order (``rule.quad_order``), with the
    bits of an order-``quad_order`` rule on every segment; a farther line
    source and a plane wave take the far order max(2, ceil(quad_order / 2)),
    within 2e-15 relative of order 16 for the benchmark's sources.  A
    source that the h/2 check rejects is always near.

    Returns
    -------
    (e_vec, h_vec) : complex arrays of length n_nodes with
        e_vec[i] = <hat_i, e_t^inc>, h_vec[i] = <hat_i, h_z^inc>.

    Raises
    ------
    ValueError
        If a line source sits closer than h/2 to the curve, or k or eta is
        not finite and positive.
    """
    mesh = rule.mesh
    pts, w, shapes = rule.far
    if isinstance(src, MagneticLineSource):   # the far test of the kernel pass
        src_x, src_y = np.asarray(src.position, float)
        dist_sq = (rule.midpoints[0] - src_x) ** 2 + (rule.midpoints[1] - src_y) ** 2
        if np.any(dist_sq < rule.reach_sq):
            pts, w, shapes = rule.near
    traces = _traces(src, k, eta, pts, mesh.tangents, 0.5 * mesh.h)
    ell = mesh.segment_lengths

    # segment i carries the hats of node i (shape 1 - x) and node i + 1
    # (shape x); node i collects its segment i moment and segment i - 1's
    def moments(trace):
        first, second = (ell * (coef[:, None] * trace).sum(axis=0)
                         for coef in w * shapes)
        return first + np.roll(second, 1)

    return tuple(moments(trace) for trace in traces)
