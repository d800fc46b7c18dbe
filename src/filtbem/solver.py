"""Direct solvers: structured inverse of beta*I + U V^T and a dense reference.

The structured inverse uses the rank-r update identity

    (beta I + U V^T)^{-1} = beta^{-1} I - beta^{-2} U (I_r + beta^{-1} V^T U)^{-1} V^T,

so factorization costs O(n r^2 + r^3) and each application O(n r): linear
in n at fixed rank, which is what makes the filtered-and-compressed
systems cheap for many right-hand sides.  The core enters only through
the gain beta^{-2} (I_r + beta^{-1} V^T U)^{-1} V^T, an (r, n) array solved
from the core's LU once at factorization (Hager, SIAM Rev. 31, 1989), so
an application is two thin matvecs and no triangular solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .compression import LowRankFactor

__all__ = [
    "WoodburyInverse",
    "woodbury_factorize",
    "dense_solve",
    "MemoryReport",
    "memory_report",
]

CORE_COND_WARN = 1e8
CORE_COND_LIMIT = 1e12
DENSE_RESIDUAL_TOL = 1e-10
MEGABYTE = 1e6


@dataclass(frozen=True)
class WoodburyInverse:
    """Factorized inverse of beta*I + U V^T, kept as ``left`` = U and
    ``gain`` = beta^{-2} core^{-1} V^T with core = I_r + beta^{-1} V^T U."""

    beta: float
    left: np.ndarray     # (n, r)
    gain: np.ndarray     # (r, n), row-major
    core_cond: float

    @property
    def n(self) -> int:
        return self.left.shape[0]

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (beta I + left right^T) x = rhs for one vector or a block.

        Block input of shape (n, m) is processed column by column through
        the single-vector path, so a block solve is bitwise identical to m
        individual solves.
        """
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ValueError(f"right-hand side length {rhs.shape[0]} != {self.n}")
        if rhs.ndim == 1:
            return self._apply_one(rhs)
        if rhs.ndim == 2:
            out = np.empty(rhs.shape, np.complex128)
            for j in range(rhs.shape[1]):
                out[:, j] = self._apply_one(rhs[:, j])
            return out
        raise ValueError("right-hand side must be a vector or a 2D block")

    def _apply_one(self, rhs):
        x = rhs / self.beta
        if self.rank == 0:
            return x.astype(np.complex128, copy=False)
        return x - self.left @ (self.gain @ rhs)


def woodbury_factorize(beta: float,
                       skeleton: Union[LowRankFactor, tuple]) -> WoodburyInverse:
    """Factorize beta*I + U V^T for repeated application.

    Parameters
    ----------
    beta : float, nonzero
    skeleton : LowRankFactor or (U, V) tuple
        Low-rank factors; the represented matrix is U @ V.T.

    Raises
    ------
    ValueError
        For beta = 0, and as its subclass ``np.linalg.LinAlgError`` for a
        numerically singular core (condition number above 1e12), which
        signals -beta is an eigenvalue of U V^T.

    Warns
    -----
    RuntimeWarning
        For a near-singular core (condition number above 1e8): the solve
        still runs, but may lose up to log10(condition number) digits.
    """
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    if isinstance(skeleton, LowRankFactor):
        left, right = skeleton.left, skeleton.right
    else:
        left, right = skeleton
    left = np.asarray(left, np.complex128)
    right = np.asarray(right, np.complex128)
    if left.shape != right.shape:
        raise ValueError("skeleton factors must have matching shapes")
    rank = left.shape[1]
    core = np.eye(rank, dtype=np.complex128) + (right.T @ left) / beta
    cond = np.linalg.cond(core) if rank else 1.0
    if not np.isfinite(cond) or cond > CORE_COND_LIMIT:
        raise np.linalg.LinAlgError(f"singular core: condition number {cond:.3e}")
    if cond > CORE_COND_WARN:
        warnings.warn(f"near-singular core: condition number {cond:.3e}",
                      RuntimeWarning, stacklevel=2)
    if rank:
        # row-major: a product with the (r, n) gain runs about twice as
        # fast as with its column-major transpose view
        gain = np.ascontiguousarray(
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(core), right.T))
        gain /= beta * beta
    else:
        gain = right.T   # (0, n), never read: apply returns rhs / beta
    return WoodburyInverse(beta=float(beta), left=left, gain=gain,
                           core_cond=float(cond))


def dense_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with partial pivoting, residual-checked.

    Raises
    ------
    np.linalg.LinAlgError
        If the matrix is singular to working precision or the relative
        residual exceeds 1e-10.
    """
    mat = np.asarray(mat)
    rhs = np.asarray(rhs)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        # an exactly zero pivot warns and yields non-finite values; the
        # residual check below turns both into the hard error the caller
        # actually wants
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(mat)
        sol = scipy.linalg.lu_solve(lu, rhs)
        resid = np.linalg.norm(mat @ sol - rhs) / max(
            np.linalg.norm(mat, ord="fro") * np.linalg.norm(sol)
            + np.linalg.norm(rhs), 1e-300)
    if not np.isfinite(resid) or resid > DENSE_RESIDUAL_TOL:
        raise np.linalg.LinAlgError(
            f"dense solve residual {resid:.3e} exceeds {DENSE_RESIDUAL_TOL:.1e}")
    return sol


@dataclass(frozen=True)
class MemoryReport:
    """Storage accounting in complex-double entries (16 bytes each)."""

    n: int
    rank: int
    skeleton_bytes: int
    dense_bytes: int

    @property
    def skeleton_megabytes(self) -> float:
        return self.skeleton_bytes / MEGABYTE

    @property
    def dense_megabytes(self) -> float:
        return self.dense_bytes / MEGABYTE


def memory_report(inv: WoodburyInverse) -> MemoryReport:
    """Bytes held by the skeleton factors plus core, and the dense equivalent.

    skeleton = 16 (2 n r + r^2), dense equivalent = 16 n^2.  The inverse
    keeps U and the (r, n) gain in place of the two factors; the r^2 term
    counts the core, which is used only at factorization.
    """
    return MemoryReport(
        n=inv.n,
        rank=inv.rank,
        skeleton_bytes=16 * (2 * inv.n * inv.rank + inv.rank * inv.rank),
        dense_bytes=16 * inv.n * inv.n,
    )
