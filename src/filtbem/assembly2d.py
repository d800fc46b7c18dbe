"""Galerkin assembly of 2D Helmholtz boundary operators on closed curves.

Assembles the single-layer, double-layer and (regularized) hypersingular
operator matrices, the piecewise-linear Gram (mass) matrix and the
variational Laplacian over a :class:`~filtbem.mesh2d.CurveMesh`.

Quadrature strategy
-------------------
One routine integrates every kernel, a block of hat rows at a time (see
``_row_block_pass``).  For hat rows [s, e) it forms the tensor-Gauss
shape-function blocks of the test segments s-1 .. e-1 that feed them,
against a window of about N/2 source segments, and writes them straight
into the output matrices; no N x N shape accumulator exists.  The
hypersingular operator reuses the single-layer blocks of the same rows
through its per-pair transform.  Every kernel takes one pair order:
segment p takes the pairs (p, p + d), 2 <= d <= n/2 + 1, cyclic, so each
unordered non-touching pair comes once (O(N) near d = n/2 twice), and
the touching pairs (p, p) and (p, p + 1).  One evaluation serves both
directions of a pair.  For a symmetric kernel (S, N) the block of (q, p)
is that of (p, q) with its shape indices swapped.  The double layer is
not symmetric, but one Hankel value per Gauss pair serves both
directions: the pair (q, p) has the negated offset, so the same
distance, and the other normal.  A row block writes the first n/2 + 1
cells of its hat rows from the diagonal on, and the other cells of its
hat columns, below the diagonal: a symmetric kernel copies each row
cell into its mirror cell, and the double layer folds its backward
blocks there, so each cell has one writer.  For even n the pair
(i, i + n/2) lies in both rows' windows, so the cells (i, i + n/2) and
(i + n/2, i) come from two evaluations; for S and N the pass then copies
the upper into the lower, so S and N come out exactly symmetric.  The
blocks run on a thread pool with one worker per CPU of the process's
affinity mask, fewer on meshes too small to give each worker eight row
blocks (scipy's Bessel functions release the GIL).  The pool lives only
as long as the pass, and the result depends neither on its size nor on
the block size.  The symmetry and finiteness checks read the matrices in
strips, adding no N x N temporary.

Every segment pair goes through one routine, ``_gathered_pair_blocks``:
tensor Gauss-Legendre on gathered index arrays, at the order of the pair's
class, in one loop over a table of classes per row block
(``_pair_classes``).  The Gauss rules of every class and the midpoints and
radii of the far test are built once per mesh and order, as a
``SegmentRule``, which the right-hand sides' moments use too.  Each
non-touching pair of a row block is classified once by its midpoint
distance, graded by admissibility (Sauter & Schwab, *Boundary Element
Methods*, Springer 2011, ch. 5), see ``quadrature_rule``:

* far pairs, whose midpoints are at least FAR_RADIUS = 20 times the longer
  segment apart, take order max(2, ceil(q/2)); their integrand is nearly
  polynomial;
* the other non-touching pairs are near and take order q, 38 to 46
  ordered pairs per segment on the two benchmark curves.  The class comes
  from midpoint distances, not from index distance, so a curve that folds
  back on itself keeps order q where it comes close.

Against order q everywhere, S, N and D move by <= 3e-14 relative (max
norm) at q = 8 while k times the longest segment stays <= 0.2.  The far
error grows about as (k h)^8 (1e-12 at k h = 0.38), still far below the
O((k h)^2) discretization error of linear elements.  On touching pairs
the kernel's singular part is integrated analytically for the whole mesh
when the rule is built; the bounded remainder is integrated in the same
loop, as two more classes, the adjacent and the same-segment pairs of a
row block's test segments, at the touching order with no distance floor,
and the singular part is added after it (``_shape_blocks``):

* same segment: the single layer's log part has a closed form for linear
  shape functions, and its remainder is symmetric in the two Gauss points,
  so it is taken at the pairs g <= h and mirrored; the double layer
  vanishes (flat segments).
* adjacent segments: the square is split along the diagonal through the
  shared node (Duffy), where log|r-r'| = log(radial) + log(angular factor);
  the radial moments of the log part and of the double layer's static
  part wdot / (2 pi d^2) are exact and the angular factor is smooth.

The hypersingular operator uses the integration-by-parts representation
(arclength derivatives and normal-weighted single layers).  It comes only
with the Helmholtz single layer, from their shared kernel pass; see
``assemble_helmholtz_pair`` for it and its ik scaling.
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
    "assemble_helmholtz_pair",
    "assert_symmetric",
    "quadrature_rule",
    "gauss_points",
    "SegmentRule",
    "segment_rule",
]

LOG_COEF = -1.0 / (2.0 * np.pi)  # strength of the ln|r-r'| part of the kernel
SYMMETRY_TOL = 1e-12
FAR_RADIUS = 20.0  # admissibility radius of the far rule, in segment lengths
KERNEL_KINDS = ("helmholtz", "yukawa")  # single-layer kernels of _kernel_full
ROW_BLOCK = 1 << 14  # entries per row block of the kernel pass ...
MIN_ROWS = 16        # ... which holds at least this many hat rows
BLOCKS_PER_WORKER = 8  # fewest row blocks per worker thread of the pass
TILE = 128           # rows per strip of the symmetry and finiteness checks
PAIR_CHUNK = 1 << 13  # kernel entries per chunk of gathered pairs

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


def gauss_points(mesh: CurveMesh, order: int):
    """Segment rule of every integral over the curve: the Gauss points on
    every segment, (g, n, 2), the weights on [0, 1] and the hat shapes at
    the points, shapes[a][g] (a = 0: 1 - x; a = 1: x).  Order >= 2."""
    _check_order(order)
    x, w = _gauss01(order)
    chords = mesh.tangents * mesh.segment_lengths[:, None]
    pts = mesh.nodes[None, :, :] + x[:, None, None] * chords[None, :, :]
    return pts, w, np.stack([1.0 - x, x])


@dataclass(frozen=True)
class SegmentRule:
    """Every Gauss rule over the segments of ``mesh`` at ``quad_order``, and
    the far test, for the kernel passes and the right-hand sides alike.

    ``far``, ``near`` and ``touch`` are the :func:`gauss_points` rules at
    the far, near and touching orders of :func:`quadrature_rule`.
    ``midpoints`` (x and y rows) and ``reach_sq`` = (FAR_RADIUS ell)^2 are
    the segment midpoints and squared radii of the far test: a segment
    pair, or a segment and a line source, is far when the midpoints, or
    the midpoint and the source, lie at least FAR_RADIUS times the longer
    segment apart.  Built by :func:`segment_rule`; every array is
    read-only.
    """

    mesh: CurveMesh
    quad_order: int
    far: tuple
    near: tuple
    touch: tuple
    midpoints: np.ndarray
    reach_sq: np.ndarray


def segment_rule(mesh: CurveMesh, quad_order: int = 8) -> SegmentRule:
    """The :class:`SegmentRule` of ``mesh`` at ``quad_order`` (>= 2)."""
    orders = quadrature_rule(quad_order)
    far, near, touch = (gauss_points(mesh, orders[key]) for key in
                        ("far_order", "near_order", "touching_order"))
    ell = mesh.segment_lengths
    midpoints = (mesh.nodes + 0.5 * mesh.tangents * ell[:, None]).T
    reach_sq = (FAR_RADIUS * ell) ** 2
    for arr in (*far, *near, *touch, midpoints, reach_sq):
        arr.flags.writeable = False
    return SegmentRule(mesh, quad_order, far, near, touch, midpoints, reach_sq)


def _kernel_at(kernel, test, source, p, q, floor, mirror=False):
    """Kernel values kern[g, h, m] between the Gauss points test[g, m] and
    source[h, m] (last axis: x, y) of the test segments p and source
    segments q.

    ``mirror`` marks same-segment pairs of a symmetric kernel: the kernel
    is taken at g <= h only and mirrored, since (h, g) has the negated
    offset, hence the same distance bits.
    """
    order = len(test)
    if mirror:
        g, h = np.triu_indices(order)
        test, source = test[g], source[h]
    else:
        test, source = test[:, None], source[None]
    dx = test[..., 0] - source[..., 0]
    dy = test[..., 1] - source[..., 1]
    d = np.sqrt(dx * dx + dy * dy)
    np.maximum(d, floor, out=d)
    kern = kernel(dx, dy, d, p, q)
    if not mirror:
        return kern
    full = np.empty((order, order) + kern.shape[1:], kern.dtype)
    full[g, h] = kern
    full[h, g] = kern
    return full


def _integrated(coef, kern, scale):
    """Blocks [a, b, m] of the kernel values kern[g, h, m] (test point g,
    source point h, pair m): sums over h, then over g, times ``scale``.

    A two-way ``kern`` (forward, backward), both on the forward offsets,
    gives a pair of blocks; the backward values are first laid out as
    (test, source, pair), contiguous, so they round as the ordered pair
    (source, test) taken on its own would.
    """
    if isinstance(kern, tuple):
        ahead, behind = kern
        return (_integrated(coef, ahead, scale),
                _integrated(coef, np.ascontiguousarray(behind.transpose(1, 0, 2)), scale))
    vals = np.einsum("ag,bgm->abm", coef,
                     np.einsum("bh,ghm->bgm", coef, kern.view(np.float64)))
    vals = vals.view(np.complex128)
    vals *= scale
    return vals


def _gathered_pair_blocks(mesh, gauss, kernel, floor, tests, sources, pairs,
                          mirror=False):
    """Yield ``(sl, vals)``, the tensor-Gauss blocks vals[a, b, m] of the
    segment pairs (tests[rows[m]], sources[cols[m]]) of the chunk ``sl``
    of the gathered pairs ``(rows, cols) = pairs``, a chunk at a time.

    ``gauss`` is a :func:`gauss_points` rule.  The kernel is taken at all
    g x g Gauss pairs of a chunk at once (:func:`_kernel_at`, ``mirror``
    passed on), on (g, g, chunk) arrays of at most PAIR_CHUNK entries.
    Each block entry sums over the source points, then over the test
    points, in order, whatever the chunk's size.  The sums read the complex
    kernel values as pairs of reals, so the real shape weights scale them
    with no complex product, and they avoid BLAS, which would contend with
    itself when the pass's threads call it at once.  For a two-way kernel
    ``vals`` is a pair (forward, backward), the backward block that of the
    pair (q, p), test shape a on q (:func:`_integrated`).
    """
    pts, w, shapes = gauss
    coef = w * shapes   # [a][g], [b][h]
    ell = mesh.segment_lengths
    chunk = max(1, PAIR_CHUNK // len(w) ** 2)
    for start in range(0, len(pairs[0]), chunk):
        sl = slice(start, start + chunk)
        p, q = tests[pairs[0][sl]], sources[pairs[1][sl]]
        yield sl, _integrated(coef, _kernel_at(kernel, np.take(pts, p, axis=1),
                                               np.take(pts, q, axis=1), p, q, floor, mirror),
                              ell[p] * ell[q])


@dataclass(frozen=True)
class _PairRule:
    """One kernel's graded quadrature over every segment pair of a mesh.

    ``kernel(dx, dy, d, test, src)`` maps test-minus-source offsets and
    distances to kernel values; ``test`` and ``src`` hold the gathered
    test and source segments along the last axis of the offsets.  One
    evaluation serves both directions of an unordered pair: a
    ``symmetric`` kernel (S, N) returns one value, the block of (q, p)
    being that of (p, q) with its shape indices swapped; otherwise the
    kernel is two-way (D) and returns the values (test -> src,
    src -> test).  ``seg_rule`` is the mesh's :class:`SegmentRule`, whose
    far, near and touching Gauss rules serve the pair classes of
    :func:`_pair_classes`.  ``singular`` holds, for the touching pairs
    (p, p), (p, p + 1) and (p, p - 1), the analytic blocks [a, b, p] of
    the kernel's singular part, each (2, 2, n), or None where a shift has
    no pair or, for a symmetric kernel, mirrors (p, p + 1); ``remainder``
    (same signature as ``kernel``) is the bounded rest of the kernel,
    which the touching classes integrate.
    """

    seg_rule: SegmentRule
    kernel: Callable
    symmetric: bool
    remainder: Callable
    singular: tuple


def _pair_classes(rule: _PairRule, segs):
    """``(cols, table)``: the source window ``cols`` of the consecutive
    test segments ``segs`` and the table of their pair classes, each a row
    ``(gauss, kernel, floor, mirror, pairs)`` of :func:`_gathered_pair_blocks`
    arguments, ``pairs`` an index pair (r, c) of local rows r and columns c.

    The window holds the len(segs) + n // 2 + 2 segments from segs[0] - 1
    on, cyclic, so column r + 1 + d holds segs[r] + d, and segment p takes
    the pairs (p, p + d), 0 <= d <= n // 2 + 1: the same segment (d = 0),
    the adjacent pair (d = 1) and the rest, so that each unordered pair
    comes once, or twice for the O(N) with d near n / 2, in one direction
    or the other; a mesh has at least 8 segments, so d = n // 2 + 1 never
    reaches the touching pair (p, p - 1).  A non-touching pair is near when its midpoints are
    closer than FAR_RADIUS times the longer of the two segments, far
    otherwise (:class:`SegmentRule`); the test is geometric, so a curve
    that folds back on itself gets its close but index-distant pairs.
    Near and far pairs take the kernel at the near and the far order, with
    a distance floor; the touching pairs take the remainder at the
    touching order, with none.  The same-segment class, mirrored, comes
    only for a kernel with a same-segment singular part.
    """
    seg_rule = rule.seg_rule
    n = seg_rule.mesh.n_nodes
    cols = (segs[0] - 1 + np.arange(len(segs) + n // 2 + 2)) % n
    ahead = np.arange(len(cols)) - np.arange(len(segs))[:, None] - 1
    taken = (ahead >= 2) & (ahead <= n // 2 + 1)
    (mid_x, mid_y), reach_sq = seg_rule.midpoints, seg_rule.reach_sq
    dist_sq = (mid_x[segs, None] - mid_x[cols]) ** 2 + (mid_y[segs, None] - mid_y[cols]) ** 2
    near = dist_sq < np.maximum(reach_sq[segs, None], reach_sq[cols])
    floor = 1e-12 * seg_rule.mesh.h
    local = np.arange(len(segs))
    table = [(seg_rule.near, rule.kernel, floor, False, np.nonzero(taken & near)),
             (seg_rule.far, rule.kernel, floor, False, np.nonzero(taken & ~near)),
             (seg_rule.touch, rule.remainder, 0.0, False, (local, local + 2))]
    if rule.singular[0] is not None:
        table.append((seg_rule.touch, rule.remainder, 0.0, True, (local, local + 1)))
    return cols, table


def _shape_blocks(rule: _PairRule, segs: np.ndarray):
    """``(cols, blocks, back)``: the source window ``cols`` of
    :func:`_pair_classes` and the shape-function blocks ``blocks[a, b, r, c]``
    of the consecutive test segments ``segs[r]`` against ``cols[c]``,
    (2, 2, len(segs), len(cols)), zero outside the pairs taken.

    Every class of the table goes through :func:`_gathered_pair_blocks`
    in one loop.  The touching blocks then take the analytic singular part
    (``rule.singular``) on top of their remainder, and each (p, p - 1)
    block, for all p but segs[0], is copied from the backward block of
    (p - 1, p), or for a symmetric kernel from its (p - 1, p) block with
    the shape indices swapped.  ``back`` is None for a symmetric kernel;
    for a two-way kernel it is shaped as ``blocks``, ``back[a, b, r, c]``
    the block of the pair (cols[c], segs[r]), test shape a on cols[c].
    Both hold the touching pairs of every segment of ``segs`` in both
    directions, which is all that :func:`_write_cells` reads of them.
    """
    seg_rule = rule.seg_rule
    cols, table = _pair_classes(rule, segs)
    shape = (2, 2, len(segs), len(cols))
    blocks = np.zeros(shape, np.complex128)
    back = None if rule.symmetric else np.zeros(shape, np.complex128)
    for gauss, kernel, floor, mirror, (rows, c) in table:
        for sl, vals in _gathered_pair_blocks(seg_rule.mesh, gauss, kernel, floor,
                                              segs, cols, (rows, c), mirror):
            if back is None:
                blocks[:, :, rows[sl], c[sl]] = vals
            else:
                blocks[:, :, rows[sl], c[sl]], back[:, :, rows[sl], c[sl]] = vals
    same, next_part, prev_part = rule.singular
    local = np.arange(len(segs))
    if same is not None:
        blocks[:, :, local, local + 1] += same[:, :, segs]
    blocks[:, :, local, local + 2] += next_part[:, :, segs]
    if back is None:
        behind = blocks.swapaxes(0, 1)
    else:
        back[:, :, local, local + 2] += prev_part[:, :, (segs + 1) % seg_rule.mesh.n_nodes]
        behind = back
    # segs[r] - 1 is column r, segs[r] + 1 column r + 2
    blocks[:, :, local[1:], local[1:]] = behind[:, :, local[:-1], local[:-1] + 2]
    return cols, blocks, back


def _fold(blocks):
    """Hat values ``out[x, y]`` of the blocks [a, b, x, y] of test segment x
    against source segment y: the cell of the hats at the starts of test
    segment x + 1 and source segment y + 1, (B00[x + 1, y + 1] +
    B10[x, y + 1]) + (B01[x + 1, y] + B11[x, y]).

    Local shape a on segment p is the hat of node p + a, and shape b on
    segment q that of node q + b.
    """
    out = blocks[0, 0, 1:, 1:] + blocks[1, 0, :-1, 1:]
    out += blocks[0, 1, 1:, :-1] + blocks[1, 1, :-1, :-1]
    return out


def _write_cells(blocks, back, mat: np.ndarray, start: int):
    """Write the cells of ``mat`` that the row block of hat rows from
    ``start`` on owns, from its :func:`_shape_blocks`.

    Hat row i takes the cells (i, i + delta), delta = 0 .. n // 2, and hat
    column j the cells (j + eps, j), eps = 1 .. (n - 1) // 2, indices
    cyclic, so each cell has one writer.  For even n the antipodal cells
    (i, i + n / 2) and (i + n / 2, i) are both row cells, each written from
    its own row's evaluation of the pair.  A symmetric kernel's column cell
    takes the value of its mirror row cell; a two-way kernel's is folded
    from ``back`` by the same sums.  Each side is one flat scatter.
    """
    n = len(mat)
    flat = mat.reshape(-1)
    c = np.arange(blocks.shape[2] - 1)[:, None]
    i = start + c
    ahead = np.arange(n // 2 + 1)
    below = ahead[1:(n + 1) // 2]
    vals = _fold(blocks)[c, c + 1 + ahead]   # _fold's [x, y]: cell (start + x, start - 1 + y)
    flat[i * n + (i + ahead) % n] = vals
    if back is None:
        vals = vals[:, below]
    else:
        vals = _fold(back.transpose(0, 1, 3, 2))[c + 1 + below, c]
    flat[(i + below) % n * n + i] = vals


def _pool_size() -> int:
    """Worker threads of the kernel pass: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _row_block_pass(rule: _PairRule, outputs):
    """The hat matrices of ``rule``, one per ``(name, transform)`` of ``outputs``.

    Works one block of hat rows at a time (see the module docstring), on
    one worker thread per CPU of :func:`_pool_size`, but with at least
    BLOCKS_PER_WORKER blocks per worker: that keeps the workers evenly
    loaded, and their temporaries, at most about eleven blocks' worth each
    (7 to 11.3 shape-block arrays of one worker, S+N and D, N = 502 to
    2008), below 1.5 N x N arrays in all whatever the CPU count.
    ``transform(blocks, segs, cols)``, if not None, maps the blocks of the
    test segments ``segs`` against the source window ``cols`` in place
    before its matrix's cells are written; the outputs are formed in order
    from the same blocks.  Each block writes part of its hat rows and the
    rest of its hat columns (:func:`_write_cells`).  For even n a symmetric
    kernel's antipodal cells are then set to their upper ones.  Each
    matrix is checked (:func:`_check_assembled`) under its name.
    """
    n = rule.seg_rule.mesh.n_nodes
    mats = [np.empty((n, n), np.complex128) for _ in outputs]
    step = max(MIN_ROWS, ROW_BLOCK // n)
    starts = range(0, n, step)
    workers = min(_pool_size(), max(1, len(starts) // BLOCKS_PER_WORKER))

    def row_block(start):
        segs = np.arange(start - 1, min(start + step, n)) % n
        cols, blocks, back = _shape_blocks(rule, segs)
        for mat, (_, transform) in zip(mats, outputs):
            if transform is not None:
                transform(blocks, segs, cols)
            _write_cells(blocks, back, mat, start)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(row_block, starts))
    for mat, (name, _) in zip(mats, outputs):
        if rule.symmetric and n % 2 == 0:   # antipodal cells: two evaluations of one pair
            half = np.arange(n // 2)
            mat[half + n // 2, half] = mat[half, half + n // 2]
        _check_assembled(mat, name, rule.symmetric)
    return mats


def _duffy_geometry(lt, ls, cc, touch):
    """Gauss rule and angular factors for every adjacent segment pair.

    Both local coordinates run away from the shared node v: test point
    r = v + u lt e_T, source r' = v + s ls e_S, ``cc = e_T . e_S``, so
    |r - r'|^2 = (u lt)^2 + (s ls)^2 - 2 u s lt ls cc.  Returns the nodes
    and weights (tg, tw) on [0, 1] of ``touch``, the touching
    :func:`gauss_points` rule, and the angular factors ``rho1_sq``
    (u = 1, s = t) and ``rho2_sq`` (s = 1, u = t) of the two Duffy
    triangles, each (n, g).
    """
    _, tw, (_, tg) = touch
    cross = 2.0 * (lt * ls)[:, None] * tg * cc[:, None]
    rho1_sq = lt[:, None] ** 2 + (ls[:, None] * tg) ** 2 - cross
    rho2_sq = ls[:, None] ** 2 + (lt[:, None] * tg) ** 2 - cross
    return tg, tw, rho1_sq, rho2_sq


def _single_layer_rule(mesh, k, quad_order, kind="helmholtz") -> _PairRule:
    """Pair rule of the single-layer kernel, A[a][b][p, q] = iint psi_a psi_b g.

    The log part -ln|r - r'| / (2 pi) of the touching blocks is analytic.
    On the adjacent pairs (p, p + 1) the local variable runs from the
    shared node: backward on segment p (so shape a = 1, the shared node,
    is 1 - x) and forward on segment p + 1.
    """
    seg_rule = segment_rule(mesh, quad_order)
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    lp = mesh.segment_lengths
    lq = np.roll(lp, -1)
    cc = -np.sum(mesh.tangents * np.roll(mesh.tangents, -1, axis=0), axis=1)
    tg, tw, rho1_sq, rho2_sq = _duffy_geometry(lp, lq, cc, seg_rule.touch)
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
    return _PairRule(seg_rule, lambda dx, dy, d, test, src: _kernel_full(k, d, kind),
                     True, lambda dx, dy, d, test, src: _kernel_smooth(k, d, kind),
                     (np.array(same), np.array(adjacent), None))


def _hypersingular_transform(mesh, k):
    """In-place map of single-layer blocks onto hypersingular blocks.

    The arclength derivative of local shape a on segment p is
    (2a - 1) / l_p, so the derivative part of block [a][b] is
    +-(sum of the four blocks) / (l_p l_q), positive where a == b.  The
    map is linear and commutes with the pair transposition, so the mirror
    of a hypersingular block is the map of the single layer's mirror.
    """
    ell = mesh.segment_lengths
    nx, ny = mesh.normals.T

    def transform(blocks, segs, cols):
        winv = blocks[0, 0] + blocks[0, 1] + blocks[1, 0] + blocks[1, 1]
        winv *= np.outer(1.0 / ell[segs], 1.0 / ell[cols])
        normal_dot = nx[segs, None] * nx[cols] + ny[segs, None] * ny[cols]
        for a in range(2):
            for b in range(2):
                blk = blocks[a, b]
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


def assemble_helmholtz_pair(mesh: CurveMesh, k: float, quad_order: int = 8):
    """Assemble the single-layer and hypersingular matrices in one kernel pass.

    The hypersingular matrix is formed from the same single-layer blocks,
    by integration by parts with arclength derivatives, and scaled by ik:
    its bilinear form is  ik * [ <psi', S phi'> - k^2 <psi n, S(phi n)> ].
    The ik scaling makes the normalized composition
    (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} cluster at +1/4 (the
    second-kind identity used throughout this package).

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
def _dlayer_static_blocks(lt, ls, cc, wc, touch):
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
    tg, tw, rho1_sq, rho2_sq = _duffy_geometry(lt, ls, cc, touch)

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
    """Pair rule of the double-layer kernel: not symmetric, two-way.

    The kernel of the pair (q, p) is that of (p, q) with the offset negated
    and the normal of p: one Hankel value per Gauss pair serves both, and
    each direction's values carry the bits the pair alone would give,
    since the distance of the negated offset is the same.
    """
    seg_rule = segment_rule(mesh, quad_order)
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    nx = mesh.normals[:, 0]
    ny = mesh.normals[:, 1]

    def wdot(dx, dy, seg):
        """(r - r') . n_seg"""
        return dx * nx[seg] + dy * ny[seg]

    def kernel(dx, dy, d, test, src):
        radial = (0.25j * k) * hankel_h1_1(k * d)
        return radial * (wdot(dx, dy, src) / d), radial * (-wdot(dx, dy, test) / d)

    def remainder(dx, dy, d, test, src):
        static = 2.0 * np.pi * d * d
        ahead, behind = kernel(dx, dy, d, test, src)
        return (ahead - wdot(dx, dy, src) / static,
                behind - (-wdot(dx, dy, test)) / static)

    ell = mesh.segment_lengths
    tang = mesh.tangents
    nrm = mesh.normals
    ell_next = np.roll(ell, -1)
    cc = -np.sum(tang * np.roll(tang, -1, axis=0), axis=1)  # away-from-node dirs

    # ordered pair (p, p+1): test = p (shared node local 1), source = p+1
    fwd = _dlayer_static_blocks(
        ell, ell_next, cc, -np.sum(tang * np.roll(nrm, -1, axis=0), axis=1), seg_rule.touch)
    # ordered pair (p+1, p): test = p+1 (shared local 0), source = p
    bwd = _dlayer_static_blocks(
        ell_next, ell, cc, np.sum(np.roll(tang, -1, axis=0) * nrm, axis=1), seg_rule.touch)
    singular = (None, np.array([[fwd[1 - a][b] for b in range(2)] for a in range(2)]),
                np.array([[np.roll(bwd[a][1 - b], 1) for b in range(2)] for a in range(2)]))
    return _PairRule(seg_rule, kernel, False, remainder, singular)


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
