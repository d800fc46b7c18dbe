"""Symmetric eigendecompositions, matrix square roots and spectral filters.

The central object is the low-pass projector built from the orthonormalized
variational Laplacian: keeping its n smallest singular values and forming
pinv(filtered) @ filtered yields an orthogonal projector onto the n lowest
frequency modes minus the nullspace (constants on a closed curve).  A
circulant FFT fast path applies the same projector in O(N log N) on
uniformly discretized closed curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .mesh2d import CurveMesh

__all__ = [
    "SymEigenbasis",
    "LaplacianFilter",
    "sym_sqrt_and_invsqrt",
    "filtered_matrix",
    "laplacian_filter",
    "circulant_filter_apply",
]

DEFAULT_NULL_TOL = 1e-10  # relative threshold for pseudo-inverse/nullspace


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


@dataclass(frozen=True)
class SymEigenbasis:
    """Eigendecomposition of a real symmetric matrix, eigenvalues descending.

    For symmetric matrices the singular values are the absolute eigenvalues
    and the singular vectors coincide with the eigenvectors, so this also
    encodes the SVD ordering used by the spectral filters.
    """

    eigenvalues: np.ndarray   # (n,) descending by |value|
    vectors: np.ndarray       # (n, n), column i pairs with eigenvalues[i]

    @property
    def singular_values(self) -> np.ndarray:
        return np.abs(self.eigenvalues)

    @classmethod
    def from_symmetric(cls, mat: np.ndarray, validate: bool = True) -> "SymEigenbasis":
        _check_symmetric(mat, name="eigenbasis input")
        vals, vecs = scipy.linalg.eigh(mat)
        order = np.argsort(-np.abs(vals), kind="stable")
        basis = cls(eigenvalues=vals[order], vectors=vecs[:, order])
        if validate:
            basis.validate(mat)
        return basis

    def validate(self, original: np.ndarray | None = None):
        v = self.vectors
        ortho = np.abs(v.T @ v - np.eye(v.shape[0])).max()
        if ortho > 1e-12:
            raise AssertionError(f"eigenvector orthonormality defect {ortho:.2e}")
        if original is not None:
            rec = (v * self.eigenvalues) @ v.T
            scale = max(np.abs(original).max(), 1e-300)
            err = np.abs(rec - original).max() / scale
            if err > 1e-10:
                raise AssertionError(f"eigen reconstruction defect {err:.2e}")


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


def filtered_matrix(mat: np.ndarray, n: int) -> np.ndarray:
    """Keep only the n smallest singular values of a symmetric matrix.

    With descending singular-value ordering this zeroes the leading
    N - n values and reconstructs; ties at the cut are broken by the
    stable descending sort.

    Parameters
    ----------
    mat : symmetric np.ndarray
    n : int, 0 <= n <= N

    Returns
    -------
    np.ndarray of the same shape.
    """
    _check_symmetric(mat, name="filter input")
    size = np.asarray(mat).shape[0]
    if not 0 <= n <= size:
        raise ValueError(f"filter index {n} out of range [0, {size}]")
    if n == 0:
        return np.zeros_like(np.asarray(mat, float))
    basis = SymEigenbasis.from_symmetric(mat, validate=False)
    kept = basis.eigenvalues.copy()
    kept[: size - n] = 0.0
    return (basis.vectors * kept) @ basis.vectors.T


@dataclass(frozen=True)
class LaplacianFilter:
    """Orthogonal projector onto the n lowest-frequency Laplacian modes.

    Built from the eigenbasis of the orthonormalized Laplacian; modes whose
    singular value falls below the nullspace threshold (the constant mode
    on a closed connected curve) are excluded by the pseudo-inverse, so the
    projector rank is n minus the nullity inside the kept window.
    """

    basis: SymEigenbasis
    n: int
    tau: float
    active: np.ndarray = field(repr=False, default=None)  # bool mask, descending order

    @classmethod
    def from_basis(cls, basis: SymEigenbasis, n: int, tau: float) -> "LaplacianFilter":
        """Filter at index n on a Laplacian eigenbasis with null threshold tau."""
        size = basis.vectors.shape[0]
        _check_filter_index(n, size)
        active = np.zeros(size, bool)
        active[size - n:] = True                  # n smallest in descending order
        active &= basis.singular_values > tau     # pseudo-inverse drops the nullspace
        return cls(basis=basis, n=n, tau=tau, active=active)

    @property
    def rank(self) -> int:
        return int(self.active.sum())

    @property
    def size(self) -> int:
        return self.basis.vectors.shape[0]

    def active_vectors(self) -> np.ndarray:
        """Columns spanning the projector range."""
        return self.basis.vectors[:, self.active]

    def matrix(self) -> np.ndarray:
        v = self.active_vectors()
        return v @ v.T

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Project a vector or matrix (column-wise) in O(N^2 r) at most."""
        v = self.active_vectors()
        return v @ (v.T @ rhs)

    def modes_ascending(self):
        """(frequencies, vectors) sorted by ascending singular value.

        Mode 0 is the nullspace (constant) mode; the filter keeps modes
        0..n-1 of this ordering and annihilates the rest.
        """
        vals = self.basis.singular_values[::-1].copy()
        vecs = self.basis.vectors[:, ::-1].copy()
        return vals, vecs

    def null_vectors(self) -> np.ndarray:
        """Orthonormal basis of the Laplacian nullspace (the modes the
        pseudo-inverse excludes; one constant mode on a closed curve)."""
        return self.basis.vectors[:, self.basis.singular_values <= self.tau]


def laplacian_filter(lap_norm: np.ndarray, n: int,
                     tau_rel: float = DEFAULT_NULL_TOL) -> LaplacianFilter:
    """Build the low-pass filter of an (orthonormalized) Laplacian.

    Parameters
    ----------
    lap_norm : np.ndarray
        Symmetric PSD matrix, typically G^{-1/2} L G^{-1/2}.
    n : int
        Number of retained smallest singular values, 1 <= n <= N.
    tau_rel : float
        Relative zero threshold for the pseudo-inverse.

    Returns
    -------
    LaplacianFilter
    """
    _check_filter_index(n, np.asarray(lap_norm).shape[0])
    basis = SymEigenbasis.from_symmetric(lap_norm, validate=False)
    sigma = basis.singular_values
    tau = tau_rel * sigma[0] if sigma[0] > 0 else 0.0
    return LaplacianFilter.from_basis(basis, n, tau)


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
