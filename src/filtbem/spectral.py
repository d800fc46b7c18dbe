"""Symmetric eigendecompositions, matrix square roots and spectral filters.

The central object is the low-pass projector of a symmetric PSD Laplacian
(the orthonormalized variational Laplacian of a curve, or a graph
Laplacian of a triangle mesh): the orthogonal projector onto its n lowest
eigenmodes minus the nullspace (constants on a closed curve or a
connected graph).  A circulant FFT fast path applies the same projector in
O(N log N) on uniformly discretized closed curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mesh2d import CurveMesh

__all__ = [
    "LaplacianFilter",
    "sym_sqrt_and_invsqrt",
    "laplacian_modes",
    "laplacian_filter",
    "circulant_filter_apply",
]

DEFAULT_NULL_TOL = 1e-10  # relative nullspace threshold


def _check_symmetric(mat, tol=1e-12, name="matrix"):
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.iscomplexobj(mat):
        raise ValueError(f"{name} must be real symmetric")
    scale = np.abs(mat).max()
    if scale > 0 and np.abs(mat - mat.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric")


def _check_filter_index(n, size):
    if not 1 <= n <= size:
        raise ValueError(f"filter index {n} out of range [1, {size}]")


def sym_sqrt_and_invsqrt(gram: np.ndarray):
    """Symmetric square root and inverse square root of an SPD matrix.

    Parameters
    ----------
    gram : np.ndarray
        Symmetric positive definite (min eigenvalue > 1e-14 * max).

    Returns
    -------
    (sqrt, inv_sqrt) : tuple of np.ndarray
        Both symmetric, with sqrt @ sqrt = gram and
        inv_sqrt @ gram @ inv_sqrt = identity to ~1e-10 relative.
    """
    _check_symmetric(gram, name="SPD input")
    vals, vecs = scipy.linalg.eigh(gram)
    if vals[0] <= 1e-14 * vals[-1] or vals[-1] <= 0:
        raise ValueError("matrix is not positive definite to working precision")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    return root, inv_root


def laplacian_modes(lap_norm: np.ndarray):
    """Eigenpairs of an (orthonormalized) Laplacian, lowest mode first.

    Returns ``(values, vectors)`` from ``scipy.linalg.eigh``: values
    ascending, column i of ``vectors`` pairs with values[i].  On a closed
    curve column 0 is the constant (nullspace) mode.
    """
    _check_symmetric(lap_norm, name="Laplacian")
    return scipy.linalg.eigh(lap_norm)


@dataclass(frozen=True)
class LaplacianFilter:
    """Orthogonal projector onto the n lowest-frequency Laplacian modes.

    Modes whose eigenvalue falls below the nullspace threshold (the
    constant mode on a closed connected curve) are excluded, as a
    pseudo-inverse would, so the projector rank is n minus the nullity
    inside the kept window.
    """

    vectors: np.ndarray       # (N, rank) orthonormal columns spanning the range

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]

    def matrix(self) -> np.ndarray:
        return self.vectors @ self.vectors.T

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Project a vector or matrix (column-wise) in O(N^2 r) at most."""
        return self.vectors @ (self.vectors.T @ rhs)


def laplacian_filter(lap_norm: np.ndarray, n: int) -> LaplacianFilter:
    """Build the low-pass filter of a symmetric PSD Laplacian.

    Parameters
    ----------
    lap_norm : np.ndarray
        Symmetric PSD matrix: the orthonormalized curve Laplacian
        G^{-1/2} L G^{-1/2}, or a triangle-mesh graph Laplacian
        inc^T inc (``qh3d`` builds its projectors from these).
    n : int
        Number of retained lowest modes, 1 <= n <= N; of these, the modes
        with |eigenvalue| <= DEFAULT_NULL_TOL * max |eigenvalue| are dropped.

    Returns
    -------
    LaplacianFilter
    """
    _check_filter_index(n, np.asarray(lap_norm).shape[0])
    vals, vecs = laplacian_modes(lap_norm)
    sigma = np.abs(vals)
    active = sigma[:n] > DEFAULT_NULL_TOL * sigma.max()
    return LaplacianFilter(vectors=vecs[:, :n][:, active])


def circulant_filter_apply(mesh: CurveMesh, n: int, x: np.ndarray) -> np.ndarray:
    """Apply the Laplacian filter on a uniform closed mesh via the FFT.

    On equal segment lengths both the Laplacian and the Gram matrix are
    circulant, so the orthonormalized Laplacian diagonalizes in the
    discrete Fourier basis with symbol
    3 (2 - 2 cos w) / (h^2 (2 + cos w)); keeping its n smallest values
    (nullspace dropped) reproduces the dense filter in O(N log N).

    Ties inside a degenerate cosine pair are only split consistently with
    the dense path when the kept window closes the pair; windows that cut
    through a pair are basis-dependent in both paths.
    """
    if not mesh.is_uniform():
        raise ValueError("FFT filter path requires equal segment lengths")
    size = mesh.n_nodes
    _check_filter_index(n, size)
    x = np.asarray(x)
    if x.shape[0] != size:
        raise ValueError("vector length does not match mesh size")
    h = mesh.h
    w = 2.0 * np.pi * np.arange(size) / size
    symbol = 3.0 * (2.0 - 2.0 * np.cos(w)) / (h * h * (2.0 + np.cos(w)))
    order = np.argsort(symbol, kind="stable")
    keep = np.zeros(size, bool)
    keep[order[:n]] = True
    keep &= symbol > DEFAULT_NULL_TOL * symbol.max()

    spec = np.fft.fft(x, axis=0)
    spec[~keep] = 0.0
    out = np.fft.ifft(spec, axis=0)
    if np.isrealobj(x):
        return out.real
    return out
