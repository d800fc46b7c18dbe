"""Incident TE fields and Galerkin right-hand-side assembly.

Sources produce the out-of-plane magnetic field h_z and the in-plane
electric field E = (eta / (i k)) (grad h_z x z_hat); the tangential trace
of E and the trace of h_z are tested against the nodal hat functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .assembly2d import _gauss01
from .mesh2d import CurveMesh
from .special import hankel_h1_0, hankel_h1_1

__all__ = [
    "MagneticLineSource",
    "PlaneWaveTE",
    "Source2D",
    "incident_fields",
    "incident_e_field",
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


@dataclass(frozen=True)
class PlaneWaveTE:
    """Plane wave h_z(r) = amplitude * exp(i k d.r) with unit direction d."""

    direction: tuple
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        d = np.asarray(self.direction, float)
        if d.shape != (2,) or not np.isclose(np.linalg.norm(d), 1.0, atol=1e-12):
            raise ValueError("plane-wave direction must be a 2D unit vector")


Source2D = Union[MagneticLineSource, PlaneWaveTE]


def _h_and_grad(src: Source2D, k: float, pts: np.ndarray):
    """h_z and its gradient at the given points, (m,) and (m, 2)."""
    if isinstance(src, MagneticLineSource):
        r0 = np.asarray(src.position, float)
        diff = pts - r0[None, :]
        dist = np.linalg.norm(diff, axis=1)
        if np.any(dist == 0.0):
            raise ValueError("field evaluated at the line-source position")
        h = src.amplitude * 0.25j * hankel_h1_0(k * dist)
        # d/dx H0(kx) = -k H1(kx)
        radial = src.amplitude * (-0.25j) * k * hankel_h1_1(k * dist) / dist
        grad = radial[:, None] * diff
        return h, grad
    if isinstance(src, PlaneWaveTE):
        d = np.asarray(src.direction, float)
        h = src.amplitude * np.exp(1j * k * (pts @ d))
        grad = (1j * k) * h[:, None] * d[None, :]
        return h, grad
    raise TypeError(f"unknown source type {type(src).__name__}")


def incident_e_field(src: Source2D, k: float, eta: float, pts) -> np.ndarray:
    """In-plane incident electric field E = (eta/(i k)) (grad h_z x z_hat)."""
    pts = np.atleast_2d(np.asarray(pts, float))
    _, grad = _h_and_grad(src, k, pts)
    # (gx, gy, 0) x (0, 0, 1) = (gy, -gx, 0)
    return (eta / (1j * k)) * np.column_stack([grad[:, 1], -grad[:, 0]])


def incident_fields(src: Source2D, k: float, eta: float, pts, tangents):
    """Tangential incident electric field and out-of-plane magnetic field.

    Parameters
    ----------
    src : Source2D
    k, eta : float
        Wavenumber (rad/m) and impedance (ohm).
    pts : (m, 2) or (2,) array
        Evaluation points, off the source position.
    tangents : matching array of unit tangents.

    Returns
    -------
    (e_t, h_z) : complex arrays (or scalars for a single point).
    """
    pts = np.asarray(pts, float)
    tangents = np.asarray(tangents, float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    tangents = np.atleast_2d(tangents)
    h, grad = _h_and_grad(src, k, pts)
    # E = c (g_y, -g_x) with c = eta/(i k), so E . t = c g_y t_x - c g_x t_y
    coef = eta / (1j * k)
    e_t = (coef * grad[:, 1]) * tangents[:, 0] - (coef * grad[:, 0]) * tangents[:, 1]
    if scalar:
        return e_t[0], h[0]
    return e_t, h


def assemble_rhs(mesh: CurveMesh, src: Source2D, k: float, eta: float,
                 quad_order: int = 8):
    """Galerkin moments of the incident traces against the hat functions.

    Returns
    -------
    (e_vec, h_vec) : complex arrays of length n_nodes with
        e_vec[i] = <hat_i, e_t^inc>, h_vec[i] = <hat_i, h_z^inc>.

    Raises
    ------
    ValueError
        If a line source sits closer than h/2 to the curve.
    """
    if quad_order < 2:
        raise ValueError("quadrature order must be >= 2")
    n = mesh.n_nodes
    ell = mesh.segment_lengths

    x, w = _gauss01(quad_order)
    chords = mesh.tangents * ell[:, None]
    pts = (mesh.nodes[None, :, :] + x[:, None, None] * chords[None, :, :]).reshape(-1, 2)

    if isinstance(src, MagneticLineSource):
        r0 = np.asarray(src.position, float)
        dmin = np.linalg.norm(pts - r0[None, :], axis=1).min()
        if dmin < 0.5 * mesh.h:
            raise ValueError(
                f"source distance {dmin:.3e} m from the curve is below h/2 = "
                f"{0.5 * mesh.h:.3e} m")

    tangents = np.broadcast_to(mesh.tangents[None, :, :], (len(x), n, 2)).reshape(-1, 2)
    e_t, h_z = incident_fields(src, k, eta, pts, tangents)
    e_t = e_t.reshape(len(x), n)
    h_z = h_z.reshape(len(x), n)

    # segment i carries the hats of node i (shape 1 - x) and node i + 1
    # (shape x); node i collects its segment i moment and segment i - 1's
    def moments(trace):
        first = ell * ((w * (1.0 - x))[:, None] * trace).sum(axis=0)
        second = ell * ((w * x)[:, None] * trace).sum(axis=0)
        return first + np.roll(second, 1)

    return moments(e_t), moments(h_z)
