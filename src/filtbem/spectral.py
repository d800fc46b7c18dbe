"""Symmetric eigendecompositions, matrix square roots and spectral filters.

:func:`laplacian_filter` is the low-pass projector of a symmetric PSD
Laplacian: the orthogonal projector onto its n lowest eigenmodes minus
the nullspace (constants on a connected graph or a closed curve).  The
3D projectors apply it to graph Laplacians of triangle meshes; on
uniformly discretized closed curves :func:`circulant_filter_apply`
reproduces it by the FFT in O(N log N).  The curve pipeline's filter,
:func:`~filtbem.calderon2d.filter_modes`, keeps the constant mode and
calls neither.

The curve pipeline needs no dense eigendecomposition: the inverse square
root of a sparse, well-conditioned SPD matrix is a banded Chebyshev
polynomial in it (:func:`chebyshev_invsqrt`), stored and applied as dense
cyclic row strips (:func:`cyclic_strips`), and only the lowest modes of
the sparse Laplacian pencil are computed (:func:`pencil_modes`).  A cut
through a cluster of near-degenerate modes (:func:`cut_cluster`) is made
canonical by :func:`canonicalize_cut`, so the kept span does not depend on
the eigensolver.  :func:`sym_sqrt_and_invsqrt` and :func:`laplacian_modes`
are the dense forms, for small matrices and reference checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .mesh2d import CurveMesh

__all__ = [
    "LaplacianFilter",
    "sym_sqrt_and_invsqrt",
    "chebyshev_invsqrt",
    "CyclicStrips",
    "cyclic_strips",
    "laplacian_modes",
    "pencil_modes",
    "cut_cluster",
    "canonicalize_cut",
    "laplacian_filter",
    "circulant_filter_apply",
]

DEFAULT_NULL_TOL = 1e-10  # relative nullspace threshold
INVSQRT_TOL = 1e-15       # Chebyshev error bound of chebyshev_invsqrt, relative
STRIP = 64                # rows per strip of a CyclicStrips form
# Relative eigen-gap below which a cut splits a cluster.  Left alone, a cut
# depends on the eigensolver by about c u / gap (u the unit roundoff): over
# every cut of four curves at N = 8-101 (19,740 cuts) the ARPACK and dense
# eigh projectors differ by up to 437 u / gap for gaps of 1e-5 and more, so
# cuts at or above 1e-3 agree to 1e-10 (measured: 3.2e-11).
CUT_GAP_TOL = 1e-3


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


def _chebyshev_degree(lo: float, hi: float, tol: float) -> int:
    """Degree at which Chebyshev interpolation of x^{-1/2} on [lo, hi] errs
    by at most ``tol * hi^{-1/2}``.

    x^{-1/2} is analytic inside the Bernstein ellipse E_r of [lo, hi] for
    r < rho = (sqrt(kappa) + 1) / (sqrt(kappa) - 1), kappa = hi / lo, and
    bounded there by M(r), its value at the ellipse's left end.  The
    interpolant of degree n then errs by at most 4 M(r) r^{-n} / (r - 1)
    (Trefethen, *Approximation Theory and Approximation Practice*, SIAM
    2013, Thm 8.2); the degree is the least n over a grid of r.  Near
    kappa = 1 the computed rho loses digits and may overshoot; grid points
    whose ellipse reaches x <= 0 are skipped.
    """
    kappa = hi / lo
    rho = (np.sqrt(kappa) + 1.0) / (np.sqrt(kappa) - 1.0)
    r = np.linspace(1.0, rho, 1002)[1:-1]
    left = 0.5 * (lo + hi) - 0.25 * (hi - lo) * (r + 1.0 / r)
    r, left = r[left > 0.0], left[left > 0.0]
    degree = np.log(4.0 * left ** -0.5 / ((r - 1.0) * tol * hi ** -0.5)) / np.log(r)
    return int(np.ceil(degree.min()))


def chebyshev_invsqrt(spd) -> scipy.sparse.csr_array:
    """Inverse square root of a sparse SPD matrix as a sparse matrix.

    The Gershgorin discs of ``spd`` give an interval [lo, hi] holding its
    spectrum; the Chebyshev interpolant of x^{-1/2} on it, of the degree
    that bounds its error by ``INVSQRT_TOL * hi^{-1/2}`` (at most that
    relative to the 2-norm of the result), is evaluated in ``spd`` by
    Clenshaw's recurrence (Higham, *Functions of Matrices*, SIAM 2008).
    For a tridiagonal input the result is banded, of half-bandwidth equal
    to the degree: about 31 at condition 3.2 and 37 at 4.3.  The output
    is symmetrized.

    An interval narrower than ``INVSQRT_TOL * lo`` gives the constant
    (mid-point)^{-1/2} I, exact for an input c I.  Raises ``ValueError``
    when the discs do not lie in x > 0.
    """
    spd = scipy.sparse.csr_array(spd)
    diag = spd.diagonal()
    radius = abs(spd).sum(axis=1) - np.abs(diag)
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    if lo <= 0.0:
        raise ValueError("Gershgorin discs do not certify positive definiteness")
    eye = scipy.sparse.identity(spd.shape[0], format="csr")
    if hi - lo <= INVSQRT_TOL * lo:
        return scipy.sparse.csr_array((0.5 * (lo + hi)) ** -0.5 * eye)
    degree = _chebyshev_degree(lo, hi, INVSQRT_TOL)
    j = np.arange(degree + 1)
    theta = np.pi * (j + 0.5) / (degree + 1)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(theta)
    coef = (2.0 / (degree + 1)) * (np.cos(np.outer(j, theta)) @ nodes ** -0.5)
    coef[0] *= 0.5
    shifted = (2.0 / (hi - lo)) * spd - ((hi + lo) / (hi - lo)) * eye
    b1, b2 = coef[degree] * eye, 0.0 * eye
    for c in coef[degree - 1:0:-1]:
        b1, b2 = 2.0 * (shifted @ b1) - b2 + c * eye, b1
    root = shifted @ b1 - b2 + coef[0] * eye
    return scipy.sparse.csr_array(0.5 * (root + root.T))


@dataclass(frozen=True)
class CyclicStrips:
    """A real square matrix, banded up to cyclic wrap-around, as dense row
    strips; ``@`` applies it to vectors and (N, m) blocks, real or complex.

    Row r's nonzeros lie in the cyclic columns r - ``band`` .. r + ``band``.
    Strip i is rows i STRIP .. (i + 1) STRIP - 1 of the read-only ``rows``,
    (N, STRIP + 2 band): its row t holds the columns i STRIP + t - band ..
    i STRIP + t + band at positions t .. t + 2 band, so the product of the
    strip with X reads the STRIP + 2 band rows of X, padded cyclically by
    ``band`` rows, that start at row i STRIP.  The whole strips are one
    batched product with overlapping views of the padded X, no gathered
    copy; a last, shorter strip is one more.  Every N takes this path:
    ``band`` is at most N / 2, so the cyclic padding is a slice of X, and
    below STRIP rows there are no whole strips.
    """

    size: int
    band: int
    rows: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of ``rows``."""
        return self.rows.nbytes

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector or an (N, m) block x, as a new array.

        A complex x is taken as its interleaved real and imaginary parts,
        so the real strips are not promoted to complex."""
        if x.shape[0] != self.size:
            raise ValueError(f"operand has {x.shape[0]} rows, "
                             f"not {self.size}")
        size, band = self.size, self.band
        block = x.reshape(size, -1)
        if np.iscomplexobj(x):
            real = np.ascontiguousarray(block, np.complex128).view(np.float64)
            return (self @ real).view(np.complex128).reshape(x.shape)
        padded = np.empty((size + 2 * band, block.shape[1]))
        padded[:band] = block[size - band:]
        padded[band:size + band] = block
        padded[size + band:] = block[:band]
        whole, width = size // STRIP, STRIP + 2 * band
        # window i: rows i STRIP .. i STRIP + width - 1 of padded
        step = padded.strides[0]
        windows = np.lib.stride_tricks.as_strided(
            padded, (whole, width, block.shape[1]),
            (STRIP * step, step, padded.strides[1]), writeable=False)
        out = np.empty((size, block.shape[1]))
        split = whole * STRIP
        np.matmul(self.rows[:split].reshape(whole, STRIP, width), windows,
                  out=out[:split].reshape(whole, STRIP, block.shape[1]))
        if split < size:   # a last strip of fewer rows reads fewer columns
            np.matmul(self.rows[split:, :size - split + 2 * band],
                      padded[split:], out=out[split:])
        return out.reshape(x.shape)


def cyclic_strips(mat) -> CyclicStrips:
    """The :class:`CyclicStrips` form of a real sparse square matrix, such
    as the banded output of :func:`chebyshev_invsqrt`, in O(N band)
    memory; ``band`` is the largest cyclic distance |i - j| of a stored
    entry (i, j)."""
    mat = scipy.sparse.csr_array(mat)
    mat.sum_duplicates()   # at once for a canonical CSR input
    size = mat.shape[0]
    row = np.repeat(np.arange(size), np.diff(mat.indptr))
    offset = (mat.indices - row) % size
    band = int(np.minimum(offset, size - offset).max(initial=0))
    rows = np.zeros((size, STRIP + 2 * band))
    rows[row, row % STRIP + (offset + band) % size] = mat.data
    rows.flags.writeable = False
    return CyclicStrips(size, band, rows)


def laplacian_modes(lap_norm: np.ndarray):
    """Eigenpairs of an (orthonormalized) Laplacian, lowest mode first.

    Returns ``(values, vectors)`` from ``scipy.linalg.eigh``: values
    ascending, column i of ``vectors`` pairs with values[i].  On a closed
    curve column 0 is the constant (nullspace) mode.
    """
    _check_symmetric(lap_norm, name="Laplacian")
    return scipy.linalg.eigh(lap_norm)


def pencil_modes(stiff, mass, count: int, shift: float):
    """Lowest ``count`` eigenpairs of the sparse pencil  stiff v = lam mass v.

    Returns ``(values, vectors)``, values ascending, vectors
    mass-orthonormal.  Shift-invert Lanczos (ARPACK) about ``shift``, which
    must lie below the spectrum, runs from a fixed start vector, so the
    result is reproducible; ARPACK serves at most N - 1 pairs, so a request
    for all N takes a dense solve of the pencil.
    """
    size = stiff.shape[0]
    if count >= size:
        vals, vecs = scipy.linalg.eigh(stiff.toarray(), mass.toarray())
    else:
        start = np.random.default_rng(0).uniform(-1.0, 1.0, size)
        # count + 64 Lanczos vectors: ARPACK's default 2 count + 1 takes
        # 1.2-1.7x as long at 201 modes and N = 502-1004
        vals, vecs = scipy.sparse.linalg.eigsh(
            scipy.sparse.csc_array(stiff), k=count,
            M=scipy.sparse.csc_array(mass), sigma=shift, v0=start,
            ncv=min(size, count + 64))
    order = np.argsort(vals, kind="stable")
    return vals[order][:count], vecs[:, order][:, :count]


def cut_cluster(values: np.ndarray, n: int, size: int):
    """The relative eigen-gap at a cut after the first n of ascending
    ``values`` (of a matrix of order ``size``), and the cluster it splits.

    The gap after column j is (values[j+1] - values[j]) / |values[j+1]|;
    columns are linked when it is below ``CUT_GAP_TOL``.  Returns
    ``(gap, run)``: ``run`` is None when the cut's own gap is not below the
    tolerance, else ``(lo, hi)`` with ``values[lo:hi]`` the linked cluster
    through the cut.  ``hi`` is None when the cluster runs into the last of
    fewer than ``size`` values, so more values are needed to close it.
    """
    values = np.asarray(values)
    gaps = np.diff(values) / np.abs(values[1:])
    gap = float(gaps[n - 1])
    if gap >= CUT_GAP_TOL:
        return gap, None
    lo, hi = n - 1, n
    while lo > 0 and gaps[lo - 1] < CUT_GAP_TOL:
        lo -= 1
    while hi < gaps.size and gaps[hi] < CUT_GAP_TOL:
        hi += 1
    if hi == gaps.size and values.size < size:
        return gap, (lo, None)
    return gap, (lo, hi + 1)


def canonicalize_cut(vectors: np.ndarray, n: int, run, reference: np.ndarray):
    """Make a cut after the first n of ascending orthonormal eigenvectors
    independent of how the cluster ``run = (lo, hi)`` it splits was resolved
    (see :func:`cut_cluster`).

    Any orthonormal basis of the cluster's eigenspace is as good as another.
    Its kept columns lo..n-1 become the Gram-Schmidt orthonormalization of
    the projections of the columns of ``reference`` (at least n - lo of
    them; a vector is one column) onto that space, each signed to a
    positive projection, so they depend on the space only; columns n..hi-1
    complete the space.  Returns a new array.
    """
    lo, hi = run
    keep = n - lo
    reference = np.asarray(reference).reshape(vectors.shape[0], -1)
    if reference.shape[1] < keep:
        raise ValueError(f"the cut keeps {keep} cluster columns; "
                         f"reference has {reference.shape[1]}")
    cluster = vectors[:, lo:hi]
    q, r = np.linalg.qr(cluster.T @ reference[:, :keep], mode="complete")
    q[:, :keep] *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    vectors = vectors.copy()
    vectors[:, lo:hi] = cluster @ q
    return vectors


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
