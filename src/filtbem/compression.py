"""Tolerance-driven low-rank skeleton factorization of dense matrices.

Adaptive randomized range finding (Halko, Martinsson & Tropp, SIAM Rev. 53,
2011): Gaussian sketch blocks (with one power iteration) grow an
orthonormal range basis until a power-iteration estimate of the residual
spectral norm, inflated by a 1.2 safety factor, drops below the requested
relative tolerance.  A small SVD then re-truncates the factor to
near-minimal rank.  Fully deterministic for a fixed seed.

The input may be given as ``basis @ coeffs`` (:class:`ProjectedMatrix`)
with orthonormal basis columns: the finder then runs on the short
coefficient block B, since the basis preserves every norm it measures.
The norm estimate and the range certificates run in B's row space: one
QR factorization per call, of which only the triangle is kept, writes
B = T Q^H with an (r, r) triangle T and orthonormal Q, so ||P B|| =
||P T|| for every left projector P and each power step after the first
costs (r, r) products instead of (r, n) ones.  The final certificate
multiplies by B and the returned factors themselves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LowRankFactor", "ProjectedMatrix", "lowrank_factor"]

DEFAULT_BLOCK = 8
DEFAULT_POWER_ITERS = 1
NORM_EST_ITERS = 20
SAFETY = 1.2
CAPTURE_SLACK = 0.25  # capture the range below the final truncation cut


@dataclass(frozen=True)
class LowRankFactor:
    """Skeleton M ~= left @ right.T with certified relative spectral error.

    ``achieved_error`` is the safety-inflated power-iteration estimate of
    ||M - left right^T||_2 / ||M||_2; it is at most the requested
    tolerance whenever ``converged`` is set.
    """

    left: np.ndarray       # (n, r)
    right: np.ndarray      # (n, r); approximation is left @ right.T
    achieved_error: float
    norm_estimate: float
    converged: bool = True

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.left @ self.right.T


@dataclass(frozen=True)
class ProjectedMatrix:
    """The matrix ``basis @ coeffs``, kept as its two factors.

    ``basis`` (n, r) has orthonormal columns; None stands for the identity,
    so ``coeffs`` is then the matrix itself.  ``np.asarray`` forms the
    product.
    """

    basis: Optional[np.ndarray]   # (n, r), orthonormal columns, or None
    coeffs: np.ndarray            # (r, m)

    @property
    def shape(self) -> tuple:
        rows = self.coeffs if self.basis is None else self.basis
        return (rows.shape[0], self.coeffs.shape[1])

    def __array__(self, dtype=None, copy=None):
        out = np.asarray(self.coeffs if self.basis is None
                         else self.basis @ self.coeffs, dtype=dtype)
        return out.copy() if copy and out is self.coeffs else out


def _adjoint_times(mat, y):
    """mat^H @ y without forming (copying) mat^H; y is a vector or a block."""
    return (y.conj().T @ mat).conj().T


def _power_norm(matvec, rmatvec, n, iters, rng, first=None):
    """Power-iteration estimate of the largest singular value of the
    operator A = ``matvec``, whose adjoint is ``rmatvec``.

    The start vector is Gaussian of length n.  ``first``, if given, is the
    operator on that vector: ``matvec`` and ``rmatvec`` then act in a
    factor space of A's row space (see :func:`_row_space_norm`).
    """
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    apply = matvec if first is None else first
    est = 0.0
    for _ in range(iters):
        y = apply(x)
        est = np.linalg.norm(y)
        if est == 0.0:
            return 0.0
        z = rmatvec(y)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return est
        x = z / nz
        apply = matvec
    return est


def _row_space_factor(mat):
    """``rt`` with mat = rt Q^H for some Q with orthonormal columns: a
    triangle when ``mat`` is short, else ``mat`` itself (a square block has
    no shorter side, so Q = I).

    The triangle is R^T for the QR factorization mat^T = Q' R, so that
    Q = conj(Q').  Factoring mat^T, not its conjugate mat^H, needs no
    conjugate copy, and neither Q' nor a full-height R is formed.
    """
    rows, n = mat.shape
    if rows == n:
        return mat
    return np.linalg.qr(mat.T, mode="r").T


def _row_space_norm(mat, rt, iters, rng, q=None):
    """Estimate ||(I - q q^H) mat||_2, or ||mat||_2 when q is None.

    With mat = rt Q^H (:func:`_row_space_factor`) the norm is that of
    (I - q q^H) rt, as Q has orthonormal columns.  The start vector is
    drawn at length n and takes the first step through ``mat``; every
    later step runs on the (rows, rows) ``rt``.  Iterating on the Gram
    mat mat^H instead would square the condition number and floor every
    estimate at about 1e-8 of the norm.
    """
    if q is None:
        def project(y):
            return y
    else:
        qh = q.conj().T

        def project(y):
            return y - q @ (qh @ y)

    return _power_norm(lambda x: project(rt @ x),
                       lambda y: _adjoint_times(rt, project(y)),
                       mat.shape[1], iters, rng,
                       first=lambda x: project(mat @ x))


def _factor_residual_norm(mat, left, right, iters, rng):
    """Estimate ||mat - left @ right.T||_2, two-sided on the full block."""
    lh, rc = left.conj().T, right.conj()
    return _power_norm(
        lambda x: mat @ x - left @ (right.T @ x),
        lambda y: _adjoint_times(mat, y) - rc @ (lh @ y),
        mat.shape[1], iters, rng,
    )


def _orthonormalize_against(q, block):
    """Orthogonalize ``block`` against q (twice) and itself; drop null columns.

    Column acceptance is judged against the pre-projection block scale:
    once the captured range is exhausted, the projected block is pure
    rounding noise and must yield no new columns (normalizing noise would
    silently destroy the orthonormality of q).  Normalizing a column barely
    above that cut amplifies the QR's rounding inside span(q), so accepted
    columns are projected once more and those losing half their norm are
    dropped ("twice is enough": Parlett, The Symmetric Eigenvalue Problem).
    """
    scale = np.linalg.norm(block, axis=0).max() if block.size else 0.0
    if scale == 0.0:
        return block[:, :0]
    qh = q.conj().T
    for _ in range(2):
        if q.shape[1]:
            block = block - q @ (qh @ block)
    qb, rb = np.linalg.qr(block)
    qb = qb[:, np.abs(np.diag(rb)) > 1e-12 * scale]
    if q.shape[1]:
        qb = qb - q @ (qh @ qb)
        qb = np.linalg.qr(qb[:, np.linalg.norm(qb, axis=0) >= 0.5])[0]
    return qb


def lowrank_factor(mat, epsilon: float, seed: int = 0) -> LowRankFactor:
    """Factor a square matrix to relative spectral tolerance ``epsilon``.

    Parameters
    ----------
    mat : (n, n) array (real or complex), or ProjectedMatrix
        A :class:`ProjectedMatrix` ``basis @ coeffs`` is factored through
        its (r, n) coefficient block: the range finder, its certifier and
        the SVD re-truncation all run on ``coeffs``, and ``left`` is
        ``basis @`` the coefficient factor.  The basis has orthonormal
        columns, so every norm the certifier estimates, and hence
        ``achieved_error`` and ``norm_estimate``, is that of the full
        matrix.  Sketches keep length n, so a seed draws the same numbers
        for either form; the rank cannot exceed min(r, n).  A plain array
        is ``ProjectedMatrix(None, mat)``.
    epsilon : float
        Requested relative spectral-norm tolerance, 0 < epsilon < 1.
    seed : int
        Seed of the Gaussian sketches; the output is bit-reproducible for
        a fixed seed.

    Returns
    -------
    LowRankFactor
        With ``converged`` false (and the captured-range rank) only if the
        tolerance is unreachable below full rank; that case also emits a
        ``RuntimeWarning``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not isinstance(mat, ProjectedMatrix):
        mat = ProjectedMatrix(None, np.asarray(mat))
    n, m = mat.shape
    if n != m:
        raise ValueError("expected a square matrix")
    basis, mat = mat.basis, mat.coeffs
    rows = mat.shape[0]
    full = min(rows, n)   # the largest rank the block can have
    rng = np.random.default_rng(seed)
    rt = _row_space_factor(mat)

    norm_est = _row_space_norm(mat, rt, NORM_EST_ITERS, rng)
    if norm_est == 0.0:
        empty = np.zeros((n, 0), np.complex128)
        return LowRankFactor(left=empty, right=empty.copy(),
                             achieved_error=0.0, norm_estimate=0.0)

    target = epsilon * norm_est
    q = np.zeros((rows, 0), np.complex128)
    while True:
        width = min(DEFAULT_BLOCK, full - q.shape[1])
        omega = (rng.standard_normal((n, width))
                 + 1j * rng.standard_normal((n, width))) / np.sqrt(2.0)
        y = mat @ omega
        for _ in range(DEFAULT_POWER_ITERS):
            # renormalize between applications: an unnormalized power pass
            # raises the singular-value spread to the third power and buries
            # small genuine directions in the noise threshold
            y = np.linalg.qr(y)[0]
            y = mat @ _adjoint_times(mat, y)
        q_new = _orthonormalize_against(q, y)
        if q_new.shape[1] == 0 and width:
            # powered sketches see sigma^2-weighted directions; retry once
            # with a plain sketch (linear weighting) before giving up
            q_new = _orthonormalize_against(q, mat @ omega)
        exhausted = q_new.shape[1] == 0 or q.shape[1] + q_new.shape[1] >= full
        if q_new.shape[1]:
            q = np.hstack([q, q_new])
        resid = SAFETY * _row_space_norm(mat, rt, NORM_EST_ITERS, rng, q)
        # capture somewhat past the tolerance so the retained spectrum (and
        # hence the reported rank) is set by the SVD cut, not by where the
        # random capture happened to stop
        if resid <= CAPTURE_SLACK * target or exhausted:
            break

    # re-truncate inside the captured range; half the budget is left for
    # the range-capture residual
    small = q.conj().T @ mat
    u_s, sing, vh_s = np.linalg.svd(small, full_matrices=False)
    # certify the SVD cut, then each larger rank until one holds
    for rank in range(int(np.sum(sing > 0.5 * target)), sing.size + 1):
        left = (q @ u_s[:, :rank]) * sing[:rank]
        right = vh_s[:rank, :].T.copy()  # so left @ right.T = q u_s sing vh_s
        achieved = SAFETY * _factor_residual_norm(mat, left, right,
                                                  NORM_EST_ITERS, rng)
        converged = achieved <= target
        if converged:
            break
    if not converged:
        warnings.warn(f"low-rank factor not converged: error {achieved / norm_est:.3e} "
                      f"at rank {rank} exceeds epsilon {epsilon:.1e}",
                      RuntimeWarning, stacklevel=2)
    if basis is not None:
        left = basis @ left
    return LowRankFactor(left=np.ascontiguousarray(left),
                         right=np.ascontiguousarray(right),
                         achieved_error=float(achieved / norm_est),
                         norm_estimate=float(norm_est),
                         converged=bool(converged))
