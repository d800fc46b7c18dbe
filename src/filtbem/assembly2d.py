"""Galerkin assembly of 2D Helmholtz boundary operators on closed curves.

Assembles the single-layer, double-layer and (regularized) hypersingular
operator matrices, the piecewise-linear Gram (mass) matrix and the
variational Laplacian over a :class:`~filtbem.mesh2d.CurveMesh`.

Quadrature strategy
-------------------
One routine integrates every kernel, a block of hat rows at a time (see
``_row_block_pass``).  For hat rows [s, e) it forms the tensor-Gauss
shape-function blocks of the test segments s-1 .. e-1 that feed them,
against every source segment, and folds them straight into those rows of
each output matrix; no N x N shape accumulator exists.  The hypersingular
operator reuses the single-layer blocks of the same rows through its
per-pair transform.  A symmetric kernel (S, N) visits half of the pairs;
the pass then adds the transpose in place, tile by tile, so S and N come
out exactly symmetric.  No two row blocks write the same hat row, so the
blocks, and then the transpose tiles, run on a thread pool with one worker
per CPU of the process's affinity mask, fewer on meshes too small to give
each worker eight row blocks (scipy's Bessel functions release the GIL).
The pool lives only as long as the pass, and the result does not depend
on its size.  The symmetry and finiteness checks read the
matrices in strips, adding no N x N temporary.

Pairs that do not touch take tensor Gauss-Legendre, graded by
admissibility (Sauter & Schwab, *Boundary Element Methods*, Springer 2011,
ch. 5), see ``quadrature_rule``:

* far pairs, whose midpoints are at least FAR_RADIUS = 20 times the longer
  segment apart, take order max(2, ceil(q/2)) on the full grid of the
  row block; their integrand is nearly polynomial;
* the other non-touching pairs are near.  They are found from midpoint
  distances, not from index distance, so a curve that folds back on
  itself keeps order q where it comes close.
  They are integrated at order q on gathered index arrays, 38 to 46
  ordered pairs per segment on the two benchmark curves.

Against order q everywhere, S, N and D move by <= 3e-14 relative (max
norm) at q = 8 while k times the longest segment stays <= 0.2.  The far
error grows about as (k h)^8 (1e-12 at k h = 0.38), still far below the
O((k h)^2) discretization error of linear elements.  On touching pairs
the kernel's singular part is integrated analytically for the whole mesh
when the rule is built; the bounded remainder is integrated by the near
pairs' routine at the touching order, with no distance floor, for the
test segments of each row block inside the pass (``_touching_blocks``):

* same segment: the single layer's log part has a closed form for linear
  shape functions; the double layer vanishes (flat segments).
* adjacent segments: the square is split along the diagonal through the
  shared node (Duffy), where log|r-r'| = log(radial) + log(angular factor);
  the radial moments of the log part and of the double layer's static
  part wdot / (2 pi d^2) are exact and the angular factor is smooth.

The hypersingular operator uses the integration-by-parts representation
(arclength derivatives and normal-weighted single layers), scaled by ik so
that the normalized composition with the single layer is second kind; see
``assemble_hypersingular``.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

from .mesh2d import CurveMesh
from .special import EULER_GAMMA, hankel_h1_0, hankel_h1_1

__all__ = [
    "assemble_gram",
    "assemble_laplacian",
    "sparse_gram",
    "sparse_laplacian",
    "assemble_single_layer",
    "assemble_double_layer",
    "assemble_hypersingular",
    "assemble_helmholtz_pair",
    "assert_symmetric",
    "quadrature_rule",
]

LOG_COEF = -1.0 / (2.0 * np.pi)  # strength of the ln|r-r'| part of the kernel
SYMMETRY_TOL = 1e-12
FAR_RADIUS = 20.0  # admissibility radius of the far rule, in segment lengths
ROW_BLOCK = 1 << 14  # entries per row block of the kernel pass ...
MIN_ROWS = 16        # ... which holds at least this many hat rows
BLOCKS_PER_WORKER = 8  # fewest row blocks per worker thread of the pass
TILE = 128           # rows per tile of the in-place transpose and the checks
PAIR_CHUNK = 1 << 13  # kernel entries per chunk of gathered pairs
TOUCH_SHIFTS = (0, 1, -1)  # touching pairs (p, p + shift): same, next, previous

# Exact moments over the unit square: integral of n_a(x) n_b(y) ln|x-y|
# for linear shape functions n_0 = 1-x, n_1 = x (same-segment log part).
_SELF_LOG_MOMENTS = np.array([[-7.0 / 16.0, -5.0 / 16.0],
                              [-5.0 / 16.0, -7.0 / 16.0]])

# Adjacent-pair radial log moments on the two Duffy triangles, indexed
# [a, b] with a, b the global local node indices (0 = segment start).
# T1: integral of psi_a psi_b * x * ln x over the triangle y <= x;
# T2: the mirrored triangle.  Derived by expanding the shape products in
# monomials and using  iint x^m t^n ln x = -1/((m+1)^2 (n+1)).
_ADJ_LOG_M1 = np.array([[-23.0 / 288.0, -1.0 / 32.0],
                        [-11.0 / 96.0, -7.0 / 288.0]])
_ADJ_LOG_M2 = np.array([[-7.0 / 288.0, -1.0 / 32.0],
                        [-11.0 / 96.0, -23.0 / 288.0]])
# Coefficients of the angular-factor integrals: entry [a][b] multiplies
# T_0 = int ln(rho) dt  and  T_1 = int t ln(rho) dt  on each triangle.
_ADJ_GAMMA_T1 = {
    "g0": np.array([[1.0 / 3.0, 0.0], [1.0 / 6.0, 0.0]]),
    "g1": np.array([[-1.0 / 4.0, 1.0 / 4.0], [-1.0 / 12.0, 1.0 / 12.0]]),
}
_ADJ_GAMMA_T2 = {
    "g0": np.array([[0.0, 0.0], [1.0 / 6.0, 1.0 / 3.0]]),
    "g1": np.array([[1.0 / 12.0, 1.0 / 4.0], [-1.0 / 12.0, -1.0 / 4.0]]),
}


def assert_symmetric(mat: np.ndarray, rel_tol: float = SYMMETRY_TOL, name: str = "matrix"):
    """Raise if ``mat`` deviates from its transpose beyond ``rel_tol`` (max norm).

    Reads ``mat`` in strips of TILE rows, so it makes no N x N temporary.
    """
    scale = asym = 0.0
    for start in range(0, mat.shape[0], TILE):
        rows = slice(start, start + TILE)
        scale = max(scale, np.abs(mat[rows]).max())
        asym = max(asym, np.abs(mat[rows] - mat[:, rows].T).max())
    if scale == 0.0:
        return
    asym /= scale
    if asym > rel_tol:
        raise AssertionError(f"{name} asymmetry {asym:.3e} exceeds {rel_tol:.1e}")


def _check_assembled(mat: np.ndarray, name: str, symmetric: bool):
    """Symmetry (when expected) and finiteness of an assembled matrix, by strips."""
    if symmetric:
        assert_symmetric(mat, name=name)
    for start in range(0, mat.shape[0], TILE):
        if not np.all(np.isfinite(mat[start:start + TILE])):
            raise FloatingPointError(f"{name} contains non-finite entries")


@functools.lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre nodes/weights on [0, 1] (cached, read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _check_order(quad_order: int):
    if quad_order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {quad_order}")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
def _kernel_full(k: float, d: np.ndarray, kind: str) -> np.ndarray:
    """Single-layer kernel at distance d (> 0)."""
    if kind == "helmholtz":
        return 0.25j * hankel_h1_0(k * d)
    if kind == "yukawa":
        from scipy.special import k0
        return (0.5 / np.pi) * k0(k * d) + 0.0j
    raise ValueError(f"unknown kernel kind {kind!r}")


def _kernel_smooth(k: float, d: np.ndarray, kind: str) -> np.ndarray:
    """Single-layer kernel plus ln(d)/(2 pi): bounded as d -> 0, and equal
    to its limit (:func:`_kernel_smooth_limit`) where d = 0."""
    d = np.asarray(d, dtype=np.float64)
    out = np.full(d.shape, _kernel_smooth_limit(k, kind), np.complex128)
    pos = d > 0.0
    out[pos] = _kernel_full(k, d[pos], kind) - LOG_COEF * np.log(d[pos])
    return out


def _kernel_smooth_limit(k: float, kind: str) -> complex:
    """d -> 0 limit of the smooth kernel remainder."""
    if kind == "helmholtz":
        return 0.25j - (np.log(0.5 * k) + EULER_GAMMA) / (2.0 * np.pi)
    return -(np.log(0.5 * k) + EULER_GAMMA) / (2.0 * np.pi) + 0.0j


# ---------------------------------------------------------------------------
# Shared machinery: the row-block kernel pass
# ---------------------------------------------------------------------------
def quadrature_rule(quad_order: int = 8) -> dict:
    """Gauss orders and admissibility radius used at ``quad_order``.

    ``near_order`` (= quad_order) covers non-touching pairs closer than
    ``far_radius`` segment lengths, ``far_order`` the rest, and
    ``touching_order`` the split singular scheme on touching pairs.
    """
    _check_order(quad_order)
    return {"near_order": quad_order,
            "far_order": max(2, -(-quad_order // 2)),
            "far_radius": FAR_RADIUS,
            "touching_order": max(3 * quad_order, 24)}


def _near_pairs(mesh, segs):
    """Near, non-touching pairs of the test segments ``segs``: local rows
    r and source segments q, sorted.

    A pair is near when its midpoints are closer than FAR_RADIUS times the
    longer of the two segments.  The test is geometric, so a curve that
    folds back on itself gets its close but index-distant pairs.
    """
    n = mesh.n_nodes
    ell = mesh.segment_lengths
    mid_x, mid_y = (mesh.nodes + 0.5 * mesh.tangents * ell[:, None]).T
    reach_sq = (FAR_RADIUS * ell) ** 2
    dist_sq = (mid_x[segs, None] - mid_x) ** 2 + (mid_y[segs, None] - mid_y) ** 2
    rows, q = np.nonzero(dist_sq < np.maximum(reach_sq[segs, None], reach_sq))
    gap = (q - segs[rows]) % n
    keep = (gap > 1) & (gap < n - 1)
    return rows[keep], q[keep]


def _gauss_points(mesh, order):
    """Gauss rule on [0, 1], its points on every segment, (g, n, 2), and
    the shape functions at the nodes, shapes[a][g]."""
    x, w = _gauss01(order)
    chords = mesh.tangents * mesh.segment_lengths[:, None]
    pts = mesh.nodes[None, :, :] + x[:, None, None] * chords[None, :, :]
    return pts, w, np.stack([1.0 - x, x])


def _kernel_at(kernel, test, source, src, floor):
    """Kernel values between test and source points (last axis: x, y)."""
    dx = test[..., 0] - source[..., 0]
    dy = test[..., 1] - source[..., 1]
    d = np.sqrt(dx * dx + dy * dy)
    np.maximum(d, floor, out=d)
    return kernel(dx, dy, d, src)


def _near_pair_blocks(mesh, gauss, kernel, p, q, floor):
    """Tensor-Gauss blocks [a][b] of the gathered pairs (p[i], q[i]), each (M,).

    ``gauss`` is a :func:`_gauss_points` rule.  The kernel is taken at all
    g x g Gauss pairs of a chunk of pairs at once, on (g, g, chunk) arrays
    of at most PAIR_CHUNK entries.  Each block entry sums over the source
    points, then over the test points, in order, whatever the chunk's
    size.  The sums avoid BLAS, which would contend with itself when the
    pass's threads call it at once.
    """
    pts, w, shapes = gauss
    coef = (w * shapes).astype(np.complex128)   # [a][g], [b][h]
    jac = mesh.segment_lengths[p] * mesh.segment_lengths[q]
    blocks = [[np.empty(len(p), np.complex128) for _ in range(2)] for _ in range(2)]
    chunk = max(1, PAIR_CHUNK // len(w) ** 2)
    for start in range(0, len(p), chunk):
        pairs = slice(start, start + chunk)
        kern = _kernel_at(kernel, pts[:, None, p[pairs]], pts[None, :, q[pairs]],
                          q[pairs], floor)
        for b in range(2):
            row = np.einsum("h,ghm->gm", coef[b], kern)
            for a in range(2):
                np.multiply(np.einsum("g,gm->m", coef[a], row), jac[pairs],
                            out=blocks[a][b][pairs])
    return blocks


@dataclass(frozen=True)
class _PairRule:
    """One kernel's graded quadrature over every segment pair of a mesh.

    ``kernel(dx, dy, d, src)`` maps test-minus-source offsets and distances
    to kernel values; ``src`` indexes the source segments along the last
    axis of the offsets (``slice(None)`` on the far grid, the gathered
    source indices on near pairs).  ``far``, ``near`` and ``touch`` are
    :func:`_gauss_points` rules, ``touch`` at the touching order.
    ``singular`` holds, for the touching pairs (p, p), (p, p + 1) and
    (p, p - 1), the analytic blocks[a][b] of the kernel's singular part,
    each (n,) and indexed by p, or None where a shift has no pair;
    ``remainder`` is the bounded rest of the kernel, which
    :func:`_touching_blocks` integrates for the test segments of a row
    block.
    """

    mesh: CurveMesh
    kernel: Callable
    symmetric: bool
    far: tuple
    near: tuple
    touch: tuple
    remainder: Callable
    singular: tuple


def _graded_rules(mesh, k, quad_order):
    """Far, near and touching Gauss rules and the touching order, arguments
    checked."""
    rule = quadrature_rule(quad_order)
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    touch_order = rule["touching_order"]
    return (_gauss_points(mesh, rule["far_order"]),
            _gauss_points(mesh, rule["near_order"]),
            _gauss_points(mesh, touch_order), touch_order)


def _shape_blocks(rule: _PairRule, segs: np.ndarray):
    """Shape-function blocks ``blk[a][b][r, q]`` of the test segments
    ``segs[r]`` against every source segment q, each (len(segs), n).

    Far pairs take the far rule on the full grid, near pairs
    (:func:`_near_pairs`) the near rule on gathered index arrays, and
    touching pairs :func:`_touching_blocks`.  For a symmetric kernel the
    blocks are halves, so that the whole block of pair (p, q) is
    blk[a][b][p, q] + blk[b][a][q, p]: the far grid takes Gauss pairs
    gi <= hi (gi = hi at half weight), near pairs p < q carry their block
    and p > q zero, and touching pairs carry the half-weighted same-segment
    block and the adjacent block at (p, p + 1) only.
    """
    mesh = rule.mesh
    n = mesh.n_nodes
    ell = mesh.segment_lengths
    floor = 1e-12 * mesh.h
    pts, w, shapes = rule.far
    g = len(w)
    blocks = [[np.zeros((len(segs), n), np.complex128) for _ in range(2)]
              for _ in range(2)]
    for gi in range(g):
        for hi in range(gi if rule.symmetric else 0, g):
            kern = _kernel_at(rule.kernel, pts[gi, segs, None, :], pts[hi, None, :, :],
                              slice(None), floor)
            ww = w[gi] * w[hi] * (0.5 if rule.symmetric and hi == gi else 1.0)
            for a in range(2):
                for b in range(2):
                    blocks[a][b] += (ww * shapes[a, gi] * shapes[b, hi]) * kern
    rows, q = _near_pairs(mesh, segs)
    mirrored = q < segs[rows] if rule.symmetric else np.zeros(len(q), bool)
    near_rows, near_q = rows[~mirrored], q[~mirrored]
    near = _near_pair_blocks(mesh, rule.near, rule.kernel, segs[near_rows], near_q, floor)
    touching = _touching_blocks(rule, segs)
    local = np.arange(len(segs))
    jac = np.outer(ell[segs], ell)
    for a in range(2):
        for b in range(2):
            blk = blocks[a][b]
            blk *= jac
            blk[near_rows, near_q] = near[a][b]
            blk[rows[mirrored], q[mirrored]] = 0.0
            for shift, touch in zip(TOUCH_SHIFTS, touching):
                blk[local, (segs + shift) % n] = touch[a][b]
    return blocks


def _fold(blocks, dst: np.ndarray):
    """Sum the blocks of test segments s-1 .. e-1 onto hat rows [s, e), ``dst``.

    Local shape a on segment p is the hat of node p + a, and shape b on
    segment q that of node q + b (cyclic).
    """
    np.add(blocks[0][0][1:], blocks[1][0][:-1], out=dst)
    shifted = blocks[0][1][1:] + blocks[1][1][:-1]
    dst[:, 1:] += shifted[:, :-1]
    dst[:, 0] += shifted[:, -1]


def _add_transpose(mat: np.ndarray, start: int):
    """Set the tiles (I, J) and (J, I), J >= I, of row tile
    I = [start, start + TILE) to those of mat + mat.T."""
    rows = slice(start, start + TILE)
    for col in range(start, mat.shape[0], TILE):
        cols = slice(col, col + TILE)
        tile = mat[rows, cols] + mat[cols, rows].T
        mat[rows, cols] = tile
        mat[cols, rows] = tile.T


def _pool_size() -> int:
    """Worker threads of the kernel pass: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _row_block_pass(rule: _PairRule, outputs):
    """The hat matrices of ``rule``, one per ``(name, transform)`` of ``outputs``.

    Works one block of hat rows at a time (see the module docstring), on
    one worker thread per CPU of :func:`_pool_size`, but with at least
    BLOCKS_PER_WORKER blocks per worker: that keeps the workers evenly
    loaded, and their temporaries, about ten blocks' worth each, below
    1.5 N x N arrays in all whatever the CPU count.
    ``transform(blocks, segs)``, if not None, maps the blocks of the test
    segments ``segs`` in place before they are folded into its matrix; the
    outputs are formed in order from the same blocks.  Each matrix is
    checked (:func:`_check_assembled`) under its name.
    """
    n = rule.mesh.n_nodes
    mats = [np.empty((n, n), np.complex128) for _ in outputs]
    step = max(MIN_ROWS, ROW_BLOCK // n)
    starts = range(0, n, step)
    workers = min(_pool_size(), max(1, len(starts) // BLOCKS_PER_WORKER))

    def row_block(start):
        stop = min(start + step, n)
        segs = np.arange(start - 1, stop) % n
        blocks = _shape_blocks(rule, segs)
        for mat, (_, transform) in zip(mats, outputs):
            if transform is not None:
                transform(blocks, segs)
            _fold(blocks, mat[start:stop])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(row_block, starts))
        if rule.symmetric:
            for mat in mats:
                list(pool.map(functools.partial(_add_transpose, mat), range(0, n, TILE)))
    for mat, (name, _) in zip(mats, outputs):
        _check_assembled(mat, name, rule.symmetric)
    return mats


def _duffy_geometry(lt, ls, cc, touch_order):
    """Gauss rule and angular factors for every adjacent segment pair.

    Both local coordinates run away from the shared node v: test point
    r = v + u lt e_T, source r' = v + s ls e_S, ``cc = e_T . e_S``, so
    |r - r'|^2 = (u lt)^2 + (s ls)^2 - 2 u s lt ls cc.  Returns the rule
    (tg, tw) and the angular factors ``rho1_sq`` (u = 1, s = t) and
    ``rho2_sq`` (s = 1, u = t) of the two Duffy triangles, each (n, g).
    """
    tg, tw = _gauss01(touch_order)
    cross = 2.0 * (lt * ls)[:, None] * tg * cc[:, None]
    rho1_sq = lt[:, None] ** 2 + (ls[:, None] * tg) ** 2 - cross
    rho2_sq = ls[:, None] ** 2 + (lt[:, None] * tg) ** 2 - cross
    return tg, tw, rho1_sq, rho2_sq


def _touching_blocks(rule: _PairRule, segs: np.ndarray):
    """Blocks[a][b], each (len(segs),), of the pairs (p, p + shift), p in
    ``segs``, for the shifts TOUCH_SHIFTS: the analytic singular part
    (``rule.singular``) plus the tensor-Gauss integral of the bounded
    remainder at the touching order (:func:`_near_pair_blocks`, no distance
    floor), one call for all shifts.  A shift without a singular part has
    no pair and stays zero.  For a symmetric kernel the same-segment block
    is halved, as :func:`_shape_blocks` describes.
    """
    n = rule.mesh.n_nodes
    shifts = [shift for shift, part in zip(TOUCH_SHIFTS, rule.singular)
              if part is not None]
    rem = _near_pair_blocks(rule.mesh, rule.touch, rule.remainder,
                            np.tile(segs, len(shifts)),
                            np.concatenate([(segs + shift) % n for shift in shifts]),
                            0.0)
    zero = np.zeros(len(segs))
    touching, start = [], 0
    for shift, part in zip(TOUCH_SHIFTS, rule.singular):
        if part is None:
            touching.append([[zero, zero], [zero, zero]])
            continue
        taken = slice(start, start + len(segs))
        start += len(segs)
        touch = [[part[a][b][segs] + rem[a][b][taken] for b in range(2)]
                 for a in range(2)]
        if rule.symmetric and shift == 0:
            touch = [[0.5 * blk for blk in row] for row in touch]
        touching.append(touch)
    return touching


def _single_layer_rule(mesh, k, quad_order, kind="helmholtz") -> _PairRule:
    """Pair rule of the single-layer kernel, A[a][b][p, q] = iint psi_a psi_b g.

    The log part -ln|r - r'| / (2 pi) of the touching blocks is analytic.
    On the adjacent pairs (p, p + 1) the local variable runs from the
    shared node: backward on segment p (so shape a = 1, the shared node,
    is 1 - x) and forward on segment p + 1.
    """
    far, near, touch, touch_order = _graded_rules(mesh, k, quad_order)
    lp = mesh.segment_lengths
    lq = np.roll(lp, -1)
    cc = -np.sum(mesh.tangents * np.roll(mesh.tangents, -1, axis=0), axis=1)
    tg, tw, rho1_sq, rho2_sq = _duffy_geometry(lp, lq, cc, touch_order)
    t0_1 = 0.5 * (np.log(rho1_sq) @ tw)
    t1_1 = 0.5 * (np.log(rho1_sq) @ (tw * tg))
    t0_2 = 0.5 * (np.log(rho2_sq) @ tw)
    t1_2 = 0.5 * (np.log(rho2_sq) @ (tw * tg))
    same = [[LOG_COEF * lp * lp * (0.25 * np.log(lp) + _SELF_LOG_MOMENTS[a, b])
             for b in range(2)] for a in range(2)]
    adjacent = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            logpart = _ADJ_LOG_M1[a, b] + _ADJ_LOG_M2[a, b] \
                + _ADJ_GAMMA_T1["g0"][a, b] * t0_1 + _ADJ_GAMMA_T1["g1"][a, b] * t1_1 \
                + _ADJ_GAMMA_T2["g0"][a, b] * t0_2 + _ADJ_GAMMA_T2["g1"][a, b] * t1_2
            adjacent[a][b] = lp * lq * (LOG_COEF * logpart)
    return _PairRule(mesh, lambda dx, dy, d, src: _kernel_full(k, d, kind),
                     True, far, near, touch,
                     lambda dx, dy, d, src: _kernel_smooth(k, d, kind),
                     (same, adjacent, None))


def _hypersingular_transform(mesh, k):
    """In-place map of single-layer blocks onto hypersingular blocks.

    The arclength derivative of local shape a on segment p is
    (2a - 1) / l_p, so the derivative part of block [a][b] is
    +-(sum of the four blocks) / (l_p l_q), positive where a == b.  The
    map is linear and commutes with the pair transposition, so it applies
    to the half-weighted blocks of :func:`_shape_blocks` as they are.
    """
    ell = mesh.segment_lengths

    def transform(blocks, segs):
        winv = blocks[0][0] + blocks[0][1] + blocks[1][0] + blocks[1][1]
        winv *= np.outer(1.0 / ell[segs], 1.0 / ell)
        nx, ny = mesh.normals.T
        normal_dot = nx[segs, None] * nx + ny[segs, None] * ny
        for a in range(2):
            for b in range(2):
                blk = blocks[a][b]
                blk *= normal_dot
                blk *= -k * k
                (np.add if a == b else np.subtract)(blk, winv, out=blk)
                blk *= 1j * k
    return transform


# ---------------------------------------------------------------------------
# Public assembly routines
# ---------------------------------------------------------------------------
def _cyclic_tridiagonal(diag: np.ndarray,
                        off: np.ndarray) -> scipy.sparse.csr_array:
    """Symmetric cyclic tridiagonal matrix: ``diag`` on the diagonal and
    ``off[i]`` at (i, i+1) and (i+1, i), indices modulo N (N >= 3)."""
    n = diag.size
    idx = np.arange(n)
    nxt = (idx + 1) % n
    return scipy.sparse.csr_array(
        (np.concatenate([diag, off, off]),
         (np.concatenate([idx, idx, nxt]), np.concatenate([idx, nxt, idx]))),
        shape=(n, n))


def sparse_gram(mesh: CurveMesh) -> scipy.sparse.csr_array:
    """Piecewise-linear mass matrix (analytic per-segment integrals), sparse.

    Uniform mesh of segment length h: diagonal 2h/3, neighbors h/6.
    Row sums equal the nodal arclength weights (l_left + l_right)/2.
    """
    ell = mesh.segment_lengths
    return _cyclic_tridiagonal((np.roll(ell, 1) + ell) / 3.0, ell / 6.0)


def sparse_laplacian(mesh: CurveMesh) -> scipy.sparse.csr_array:
    """Variational Laplacian (stiffness of arclength derivatives of hats), sparse.

    Positive semidefinite with the constant vector in its nullspace.
    """
    inv = 1.0 / mesh.segment_lengths
    return _cyclic_tridiagonal(np.roll(inv, 1) + inv, -inv)


def assemble_gram(mesh: CurveMesh) -> np.ndarray:
    """:func:`sparse_gram` as a dense array."""
    return sparse_gram(mesh).toarray()


def assemble_laplacian(mesh: CurveMesh) -> np.ndarray:
    """:func:`sparse_laplacian` as a dense array."""
    return sparse_laplacian(mesh).toarray()


def assemble_single_layer(mesh: CurveMesh, k: float, quad_order: int = 8,
                          kind: str = "helmholtz") -> np.ndarray:
    """Galerkin single-layer matrix, hat functions against hat functions.

    Parameters
    ----------
    mesh : CurveMesh
    k : float
        Wavenumber (rad/m), > 0.
    quad_order : int
        Gauss-Legendre order per direction on non-touching pairs closer
        than 20 segment lengths (>= 2); pairs farther apart use order
        max(2, ceil(quad_order/2)) and touching pairs the split singular
        scheme at order max(3*quad_order, 24) (:func:`quadrature_rule`).
        Doubling ``quad_order`` doubles the near and far orders, so it
        probes non-touching convergence without moving the (already
        tighter) touching treatment.
    kind : {"helmholtz", "yukawa"}
        Oscillatory kernel (first-kind Hankel) or the exponentially
        decaying one on an imaginary wavenumber of the same magnitude.

    Returns
    -------
    np.ndarray, complex128, (n, n), symmetric.
    """
    [slayer] = _row_block_pass(_single_layer_rule(mesh, k, quad_order, kind),
                               [("single-layer matrix", None)])
    return slayer


def assemble_hypersingular(mesh: CurveMesh, k: float, quad_order: int = 8) -> np.ndarray:
    """Hypersingular operator via integration by parts, scaled by ik.

    The bilinear form is  ik * [ <psi', S phi'> - k^2 <psi n, S(phi n)> ]
    with arclength derivatives; the ik scaling makes the normalized
    composition (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} cluster at +1/4
    (the second-kind identity used throughout this package).
    """
    [hyper] = _row_block_pass(_single_layer_rule(mesh, k, quad_order),
                              [("hypersingular matrix", _hypersingular_transform(mesh, k))])
    return hyper


def assemble_helmholtz_pair(mesh: CurveMesh, k: float, quad_order: int = 8):
    """Assemble the single-layer and hypersingular matrices in one kernel pass.

    Returns
    -------
    (slayer, hyper) : tuple of np.ndarray
    """
    slayer, hyper = _row_block_pass(
        _single_layer_rule(mesh, k, quad_order),
        [("single-layer matrix", None),
         ("hypersingular matrix", _hypersingular_transform(mesh, k))])
    return slayer, hyper


# ---------------------------------------------------------------------------
# Double layer
# ---------------------------------------------------------------------------
def _dlayer_static_blocks(lt, ls, cc, wc, touch_order):
    """Static part wdot / (2 pi d^2) of the double-layer blocks for ordered
    adjacent pairs sharing a node.

    Geometry as in :func:`_duffy_geometry`, with ``wc = e_T . n_S``
    (source normal).  Then (r - r').n_S = u lt wc, so after the Duffy
    split the static part is a polynomial over an angular factor,
    integrated exactly in the radial direction.

    Shape functions are in shared-node convention: index 0 is the hat of
    the shared node (1 - coordinate), index 1 the far one.  Returns
    blocks[a_hat][b_hat], each of shape (n,).
    """
    tg, tw, rho1_sq, rho2_sq = _duffy_geometry(lt, ls, cc, touch_order)

    # int psi_a(x) psi_b(x t) dx on the first triangle and
    # int psi_a(y t) psi_b(y) dy on the second, as polynomials in t
    p1 = {(0, 0): 0.5 - tg / 6.0, (0, 1): tg / 6.0,
          (1, 0): 0.5 - tg / 3.0, (1, 1): tg / 3.0}
    p2 = {(0, 0): 0.5 - tg / 6.0, (0, 1): 0.5 - tg / 3.0,
          (1, 0): tg / 6.0, (1, 1): tg / 3.0}
    static_scale = (lt * lt * ls * wc) / (2.0 * np.pi)
    return [[static_scale * ((p1[a, b] / rho1_sq) @ tw + ((tg * p2[a, b]) / rho2_sq) @ tw)
             for b in range(2)] for a in range(2)]


def _double_layer_rule(mesh, k, quad_order) -> _PairRule:
    """Pair rule of the double-layer kernel (all pairs, not symmetric)."""
    far, near, touch, touch_order = _graded_rules(mesh, k, quad_order)
    nx = mesh.normals[:, 0]
    ny = mesh.normals[:, 1]

    def kernel(dx, dy, d, src):
        wdot = dx * nx[src] + dy * ny[src]
        return (0.25j * k) * hankel_h1_1(k * d) * (wdot / d)

    def remainder(dx, dy, d, src):
        return kernel(dx, dy, d, src) - (dx * nx[src] + dy * ny[src]) / (2.0 * np.pi * d * d)

    ell = mesh.segment_lengths
    tang = mesh.tangents
    nrm = mesh.normals
    ell_next = np.roll(ell, -1)
    cc = -np.sum(tang * np.roll(tang, -1, axis=0), axis=1)  # away-from-node dirs

    # ordered pair (p, p+1): test = p (shared node local 1), source = p+1
    fwd = _dlayer_static_blocks(
        ell, ell_next, cc, -np.sum(tang * np.roll(nrm, -1, axis=0), axis=1), touch_order)
    # ordered pair (p+1, p): test = p+1 (shared local 0), source = p
    bwd = _dlayer_static_blocks(
        ell_next, ell, cc, np.sum(np.roll(tang, -1, axis=0) * nrm, axis=1), touch_order)
    singular = (None, [[fwd[1 - a][b] for b in range(2)] for a in range(2)],
                [[np.roll(bwd[a][1 - b], 1) for b in range(2)] for a in range(2)])
    return _PairRule(mesh, kernel, False, far, near, touch, remainder, singular)


def assemble_double_layer(mesh: CurveMesh, k: float, quad_order: int = 8) -> np.ndarray:
    """Galerkin double-layer matrix (normal derivative at the source point).

    The kernel is bounded on smooth curves; on the polygonal chain it
    vanishes identically on same-segment pairs (flat-segment limit), so
    self-pair blocks are zero and adjacent pairs carry the near-singular
    static part, integrated by the Duffy split.
    """
    [dlayer] = _row_block_pass(_double_layer_rule(mesh, k, quad_order),
                               [("double-layer matrix", None)])
    return dlayer
