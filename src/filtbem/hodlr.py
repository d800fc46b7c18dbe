"""Hierarchical off-diagonal low-rank (HODLR) form of a dense square matrix.

The index range is bisected L times, down to leaves of at most LEAF rows
(Martinsson & Rokhlin, J. Comput. Phys. 205, 2005): on a curve whose
nodes are ordered along it, the block that couples one half of a range
with the other half is a far interaction and low-rank.  Leaves of
n = ceil(N / 2^L) rows pad N to n 2^L, fewer than 2^L rows more, so every
level splits evenly.  The leaves keep their dense n x n diagonal blocks;
every other block is a product U V^H truncated at TOLERANCE ||A||_2,
found by a seeded Gaussian range finder and a small SVD (Halko,
Martinsson & Tropp, SIAM Rev. 53, 2011).  Each level is stored as stacked
arrays, its ranks padded with zero columns to the level's largest, so a
product with a vector or an (N, m) block is one batched leaf product plus
two batched products per level, and the transpose is a view of the same
arrays.  The form of S G^{-1} is the operator bundle's only copy of it
(:class:`~filtbem.calderon2d.Operators2D`): every reader of S G^{-1}, the
right-hand sides, the filtered block and the dense routes, goes through
these products.

The error is certified after the fact, block by block, with fresh
Gaussian probes (:func:`_compress_block`).  The off-diagonal blocks of one
level are a permuted block diagonal, so that level's error is its largest
block's, and the levels' errors add up; relative to a power-iteration
estimate of ||A||_2, a lower bound, the sum bounds ||A - H||_2 / ||A||_2.
Each block draws its sketches from a generator seeded by (level, block),
so its bits do not depend on the blocks compressed before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .compression import _adjoint_times, _power_norm

__all__ = ["HodlrMatrix", "hodlr_compress"]

LEAF = 64            # most rows of a leaf
TOLERANCE = 1e-13    # truncation of every off-diagonal block, times ||A||_2
SKETCH = 64          # sketch width of the top level's blocks
OVERSAMPLE = 8       # sketch columns past the kept rank
PROBES = 10          # fresh probes of each block's certificate
PROBE_FACTOR = 10.0 * math.sqrt(2.0 / math.pi)
NORM_ITERS = 3       # power iterations of the norm estimate


@dataclass(frozen=True)
class HodlrMatrix:
    """A square matrix in HODLR form, applied by ``@`` to vectors and to
    (N, m) blocks, with its transpose ``T``.

    ``diagonal`` holds the (2^L, n, n) leaf blocks, n <= LEAF, zero-padded
    past the matrix's ``size``; ``levels`` holds per level, top first, the
    pair ``(u, vh)`` of shapes (2^(l+1), m, r) and (2^(l+1), r, m), m =
    n 2^(L-l-1) (viewed as (2^l, 2, m, r) and (2^l, 2, r, m) in ``T``):
    block b of the level couples its rows b with its columns b xor 1 as
    ``u[b] @ vh[b]``, complex as the sketches that found it (a real
    matrix gets a complex form).  The arrays are read-only.  Below two
    leaves ``levels`` is empty and ``diagonal`` is the matrix itself, not
    a copy.  The form has no ``__array__``: numpy would turn it into a
    dense N x N array in any product.  ``error`` is the certified
    ||A - H||_2 / ||A||_2 (0 for the matrix itself), ``norm_estimate`` the
    power-iteration estimate of ||A||_2 it is relative to.  ``build_s``
    and ``build_cpu_s`` are the build's wall and process CPU times.
    """

    size: int
    diagonal: np.ndarray
    levels: tuple
    error: float
    norm_estimate: float
    build_s: float
    build_cpu_s: float

    @property
    def ranks(self) -> list:
        """The padded rank of each level, top first."""
        return [u.shape[-1] for u, _ in self.levels]

    @property
    def nbytes(self) -> int:
        """Bytes of the form's arrays, the matrix's below two leaves."""
        return self.diagonal.nbytes + sum(u.nbytes + vh.nbytes
                                          for u, vh in self.levels)

    @property
    def T(self) -> "HodlrMatrix":
        """The transposed form, made of views of this form's arrays.

        The leaf blocks are transposed; block b of a level, which couples
        rows b with columns b xor 1, becomes block b xor 1 of the
        transpose as (vh[b]^T, u[b]^T), so each level's pairs are swapped
        into sibling order, viewed as (2^l, 2, ...) arrays.
        """
        def swapped(arr):
            return _pairs(arr)[:, ::-1].swapaxes(-1, -2)

        return replace(self, diagonal=self.diagonal.swapaxes(-1, -2),
                       levels=tuple((swapped(vh), swapped(u))
                                    for u, vh in self.levels))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for a vector or an (N, m) block x of ``size`` rows, as a new
        array; ``ValueError`` for any other number of rows."""
        if x.shape[0] != self.size:
            raise ValueError(f"operand has {x.shape[0]} rows, "
                             f"not {self.size}")
        if not self.levels:
            return self.diagonal @ x
        block = x.reshape(self.size, -1)
        leaves, leaf = self.diagonal.shape[:2]
        padded = np.zeros((leaves * leaf, block.shape[1]), np.result_type(
            x, self.diagonal, self.levels[0][0]))
        padded[:self.size] = block
        out = self.diagonal @ padded.reshape(leaves, leaf, -1)
        for u, vh in self.levels:
            # block b reads the rows of x at its sibling b xor 1
            halves = out.reshape(-1, 2, u.shape[-2], block.shape[1])
            halves += _pairs(u) @ (
                _pairs(vh) @ padded.reshape(halves.shape)[:, ::-1])
        return out.reshape(-1, block.shape[1])[:self.size].reshape(x.shape)


def _pairs(arr: np.ndarray) -> np.ndarray:
    """The stacked blocks of ``arr`` viewed as (2^l, 2, ...) sibling pairs."""
    return arr.reshape(-1, 2, *arr.shape[-2:])


def _depth(size: int) -> int:
    """Levels L of the bisection: 0 below two leaves, else the least L
    with LEAF 2^L >= size, so that leaves hold at most LEAF rows."""
    return 0 if size < 2 * LEAF else ((size - 1) // LEAF).bit_length()


def _compress_block(block: np.ndarray, tol: float, width: int, rng):
    """``(left, right, error)``: block ~= left @ right truncated at the
    absolute tolerance ``tol``, and a bound on ||block - left @ right||_2.

    A sketch of ``width`` Gaussian columns gives the range basis q; the
    left singular vectors u of q^H block are the right singular vectors of
    the triangle of a QR factorization of its transpose, conjugated, so
    ``left = q u_r`` has orthonormal columns and ``right = u_r^H q^H
    block``.  A sketch that does not leave OVERSAMPLE singular values
    below ``tol`` is redrawn wider.  The bound is the first dropped
    singular value of q^H block plus PROBE_FACTOR times the largest
    residual (I - q q^H) block w over PROBES fresh Gaussian w (Halko,
    Martinsson & Tropp, Lemma 4.1, for the real form of the block): it
    holds but with probability 10^-PROBES.
    """
    rows, cols = block.shape
    full = min(rows, cols)
    if full == 0:   # a block of padding rows or columns
        return (np.zeros((rows, 0), block.dtype),
                np.zeros((0, cols), block.dtype), 0.0)
    width = min(width, full)
    while True:
        # complex Gaussian columns, standard normal real and imaginary
        # parts; the last PROBES are the certificate's fresh probes
        sketch = block @ rng.standard_normal(
            (cols, 2 * (width + PROBES))).view(np.complex128)
        probes = sketch[:, width:].copy()
        q = np.linalg.qr(sketch[:, :width])[0]
        del sketch
        small = q.conj().T @ block
        _, sing, vh_tri = np.linalg.svd(np.linalg.qr(small.T, mode="r"))
        rank = int(np.sum(sing > tol))
        if rank + OVERSAMPLE <= width or width == full:
            break
        width = min(rank + 2 * OVERSAMPLE, full)
    basis = vh_tri[:rank].T           # left singular vectors of small
    probes -= q @ (q.conj().T @ probes)
    error = (sing[rank] if rank < sing.size else 0.0) + PROBE_FACTOR * max(
        np.linalg.norm(probes, axis=0))
    return q @ basis, basis.conj().T @ small, float(error)


def hodlr_compress(mat: np.ndarray) -> HodlrMatrix:
    """The HODLR form of the square ``mat``, certified at about TOLERANCE
    times the number of levels, relative to ||mat||_2.

    Block b of level l draws from the generator seeded by (l, b).
    ``mat`` is read through views, not copied.
    """
    t0, cpu0 = time.perf_counter(), time.process_time()
    size = mat.shape[0]
    depth = _depth(size)
    if depth == 0:
        return HodlrMatrix(size, mat, (), 0.0, 0.0,
                           time.perf_counter() - t0, time.process_time() - cpu0)
    norm = _power_norm(mat.__matmul__, lambda y: _adjoint_times(mat, y), size,
                       NORM_ITERS, np.random.default_rng(0))
    tol = TOLERANCE * norm
    leaf = -(-size >> depth)   # ceil(size / 2^L)

    def span(index, width):
        return slice(min(index * width, size), min((index + 1) * width, size))

    diagonal = np.zeros((1 << depth, leaf, leaf), mat.dtype)
    for index in range(1 << depth):
        block = mat[span(index, leaf), span(index, leaf)]
        diagonal[index, :block.shape[0], :block.shape[1]] = block
    diagonal.flags.writeable = False
    levels, error, sketch = [], 0.0, SKETCH
    for level in range(depth):
        width = leaf << (depth - level - 1)
        blocks = [_compress_block(mat[span(b, width), span(b ^ 1, width)], tol,
                                  sketch, np.random.default_rng([level, b]))
                  for b in range(2 << level)]
        rank = max(left.shape[1] for left, _, _ in blocks)
        u = np.zeros((len(blocks), width, rank), np.complex128)
        vh = np.zeros((len(blocks), rank, width), np.complex128)
        for b, (left, right, _) in enumerate(blocks):
            u[b, :left.shape[0], :left.shape[1]] = left
            vh[b, :right.shape[0], :right.shape[1]] = right
        u.flags.writeable = vh.flags.writeable = False
        levels.append((u, vh))
        sketch = rank + OVERSAMPLE   # ranks fall level by level
        error += max(err for _, _, err in blocks)
    return HodlrMatrix(size, diagonal, tuple(levels),
                       float(error / norm) if norm else 0.0, float(norm),
                       time.perf_counter() - t0, time.process_time() - cpu0)
