"""Galerkin assembly of 2D Helmholtz boundary operators on closed curves.

Assembles the single-layer, double-layer and (regularized) hypersingular
operator matrices, the piecewise-linear Gram (mass) matrix and the
variational Laplacian over a :class:`~filtbem.mesh2d.CurveMesh`.

Quadrature strategy
-------------------
Segment pairs that do not touch are integrated with tensor Gauss-Legendre,
in one routine that the single and double layers call with their kernels
(the hypersingular operator reuses the single-layer blocks).  The rule is
graded by admissibility (Sauter & Schwab, *Boundary Element Methods*,
Springer 2011, ch. 5), see ``quadrature_rule``:

* far pairs, whose midpoints are at least FAR_RADIUS = 20 times the longer
  segment apart, take order max(2, ceil(q/2)) on the full (n, n) grid;
  their integrand is nearly polynomial;
* the other non-touching pairs are near.  They are found from midpoint
  distances, not from index distance, so a curve that folds back on
  itself keeps order q where it comes close.
  They are integrated at order q on gathered index arrays of 38 N to
  46 N ordered pairs on the two benchmark curves.

Against order q everywhere, S, N and D move by <= 3e-14 relative (max
norm) at q = 8 while k times the longest segment stays <= 0.2.  The far
error grows about as (k h)^8 (1e-12 at k h = 0.38), still far below the
O((k h)^2) discretization error of linear elements.  The kernel log
singularity on touching pairs is split off analytically:

* same segment: the log part of the double integral has a closed form for
  linear shape functions; the remainder is smooth up to d^2 log d terms.
* adjacent segments: the square is split along the diagonal through the
  shared node (Duffy), where log|r-r'| = log(radial) + log(angular factor);
  the radial log moments are exact and the angular factor is smooth.

The hypersingular operator uses the integration-by-parts representation
(arclength derivatives and normal-weighted single layers), scaled by ik so
that the normalized composition with the single layer is second kind; see
``assemble_hypersingular``.
"""

from __future__ import annotations

import functools

import numpy as np

from .mesh2d import CurveMesh
from .special import EULER_GAMMA, hankel_h1_0, hankel_h1_1

__all__ = [
    "assemble_gram",
    "assemble_laplacian",
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
FAR_BLOCK = 1 << 14  # entries per row block of the far sweep and the near search

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
    """Raise if ``mat`` deviates from its transpose beyond ``rel_tol`` (max norm)."""
    scale = np.abs(mat).max()
    if scale == 0.0:
        return
    asym = np.abs(mat - mat.T).max() / scale
    if asym > rel_tol:
        raise AssertionError(f"{name} asymmetry {asym:.3e} exceeds {rel_tol:.1e}")


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
    """Single-layer kernel plus ln(d)/(2 pi): bounded as d -> 0."""
    out = _kernel_full(k, d, kind) - LOG_COEF * np.log(d)
    return out


def _kernel_smooth_limit(k: float, kind: str) -> complex:
    """d -> 0 limit of the smooth kernel remainder."""
    if kind == "helmholtz":
        return 0.25j - (np.log(0.5 * k) + EULER_GAMMA) / (2.0 * np.pi)
    return -(np.log(0.5 * k) + EULER_GAMMA) / (2.0 * np.pi) + 0.0j


# ---------------------------------------------------------------------------
# Shared machinery: per-pair shape-function blocks
# ---------------------------------------------------------------------------
def _rolled_add(dst: np.ndarray, src: np.ndarray, a: int, b: int):
    """dst[i, j] += src[i-a, j-b] with cyclic wrap, without temporaries."""
    n = dst.shape[0]
    ra, rb = a % n, b % n
    dst[ra:, rb:] += src[: n - ra, : n - rb]
    dst[:ra, rb:] += src[n - ra:, : n - rb]
    dst[ra:, :rb] += src[: n - ra, n - rb:]
    dst[:ra, :rb] += src[n - ra:, n - rb:]


def _blocks_to_matrix(blocks, name: str, symmetric: bool = True) -> np.ndarray:
    """Sum shape-function blocks onto hat functions and check the result.

    ``blocks[a][b][p, q]`` pairs local shape a on segment p with local
    shape b on segment q, i.e. the hats of nodes p + a and q + b (cyclic).
    """
    n = blocks[0][0].shape[0]
    out = np.zeros((n, n), np.complex128)
    for a in range(2):
        for b in range(2):
            _rolled_add(out, blocks[a][b], a, b)
    if symmetric:
        assert_symmetric(out, name=name)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"{name} contains non-finite entries")
    return out


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


def _near_pairs(mesh, symmetric):
    """Index arrays (p, q) of the non-touching near segment pairs, sorted.

    A pair is near when its midpoints are closer than FAR_RADIUS times the
    longer of the two segments.  The test is geometric, so a curve that
    folds back on itself gets its close but index-distant pairs.  Only
    p < q is returned for a symmetric kernel, both orders otherwise.
    Distances are formed one block of rows at a time.
    """
    n = mesh.n_nodes
    ell = mesh.segment_lengths
    mid_x, mid_y = (mesh.nodes + 0.5 * mesh.tangents * ell[:, None]).T
    reach_sq = (FAR_RADIUS * ell) ** 2
    step = max(1, FAR_BLOCK // n)
    found_p, found_q = [], []
    for start in range(0, n, step):
        rows = slice(start, start + step)
        dist_sq = (mid_x[rows, None] - mid_x) ** 2 + (mid_y[rows, None] - mid_y) ** 2
        p, q = np.nonzero(dist_sq < np.maximum(reach_sq[rows, None], reach_sq))
        found_p.append(p + start)
        found_q.append(q)
    p, q = np.concatenate(found_p), np.concatenate(found_q)
    gap = (q - p) % n
    keep = (gap > 1) & (gap < n - 1)
    if symmetric:
        keep &= q > p
    return p[keep], q[keep]


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


def _near_pair_blocks(mesh, order, kernel, p, q, floor):
    """Tensor-Gauss blocks [a][b] of the gathered pairs (p[i], q[i]), each (M,).

    All g x g Gauss pairs are taken, one test point against every source
    point per step, on (g, M) arrays.
    """
    pts, w, shapes = _gauss_points(mesh, order)
    src_pts = pts[:, q]
    src_coef = w * shapes                   # [b][h]
    blocks = [[np.zeros(len(p), np.complex128) for _ in range(2)] for _ in range(2)]
    for gi in range(len(w)):
        kern = _kernel_at(kernel, pts[gi, p], src_pts, q, floor)
        for b in range(2):
            row = src_coef[b] @ kern
            for a in range(2):
                blocks[a][b] += (w[gi] * shapes[a, gi]) * row
    jac = mesh.segment_lengths[p] * mesh.segment_lengths[q]
    for a in range(2):
        for b in range(2):
            blocks[a][b] *= jac
    return blocks


def _gauss_pair_blocks(mesh, k, quad_order, kernel, symmetric):
    """Tensor-Gauss blocks ``accum[a][b]`` of every segment pair, graded.

    Far pairs take ``quadrature_rule(quad_order)``'s far order on the full
    (n, n) grid, swept in blocks of test rows so every temporary stays
    small.  The near pairs (:func:`_near_pairs`) take ``quad_order`` on
    gathered index arrays, computed before the (n, n) accumulators exist,
    and overwrite their far values.  ``kernel(dx, dy, d, src)`` maps test-
    minus-source offsets and distances to kernel values; ``src`` indexes
    the source segments along the last axis of the offsets (``slice(None)``
    on the full grid, the gathered source indices on the near pairs).  A
    symmetric kernel visits only Gauss pairs gi <= hi of the full grid
    (gi = hi at half weight) and adds the transposed sums at the end, and
    evaluates near pairs p < q only, mirroring them as
    accum[a][b][q, p] = accum[b][a][p, q].
    Touching-pair entries are filled with garbage and must be overwritten
    by the caller.
    """
    rule = quadrature_rule(quad_order)
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    n = mesh.n_nodes
    ell = mesh.segment_lengths
    floor = 1e-12 * mesh.h
    p, q = _near_pairs(mesh, symmetric)
    near = _near_pair_blocks(mesh, rule["near_order"], kernel, p, q, floor)

    pts, w, shapes = _gauss_points(mesh, rule["far_order"])
    g = len(w)
    accum = [[np.zeros((n, n), np.complex128) for _ in range(2)] for _ in range(2)]
    step = max(1, FAR_BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        for gi in range(g):
            for hi in range(gi if symmetric else 0, g):
                kern = _kernel_at(kernel, pts[gi, rows, None, :], pts[hi, None, :, :],
                                  slice(None), floor)
                ww = w[gi] * w[hi] * (0.5 if symmetric and hi == gi else 1.0)
                for a in range(2):
                    for b in range(2):
                        accum[a][b][rows] += (ww * shapes[a, gi] * shapes[b, hi]) * kern
    if symmetric:   # block [a][b] = half sum [a][b] + (half sum [b][a])^T
        accum[0][0] += accum[0][0].T
        accum[1][1] += accum[1][1].T
        upper = accum[0][1].copy()
        accum[0][1] += accum[1][0].T
        accum[1][0] += upper.T
        del upper
    jac = np.outer(ell, ell)
    for a in range(2):
        for b in range(2):
            accum[a][b] *= jac
            accum[a][b][p, q] = near[a][b]
            if symmetric:
                accum[a][b][q, p] = near[b][a]
    return accum


def _duffy_geometry(lt, ls, cc, touch_order):
    """Gauss rule and squared distances for every adjacent segment pair.

    Both local coordinates run away from the shared node v: test point
    r = v + u lt e_T, source r' = v + s ls e_S, ``cc = e_T . e_S``, so
    |r - r'|^2 = (u lt)^2 + (s ls)^2 - 2 u s lt ls cc.  Returns the rule
    (tg, tw), the angular factors ``rho1_sq`` (u = 1, s = t) and
    ``rho2_sq`` (s = 1, u = t) of the two Duffy triangles, each (n, g),
    and ``d_sq`` on the tensor grid, (n, g, g).
    """
    tg, tw = _gauss01(touch_order)
    cross = 2.0 * (lt * ls)[:, None] * tg * cc[:, None]
    rho1_sq = lt[:, None] ** 2 + (ls[:, None] * tg) ** 2 - cross
    rho2_sq = ls[:, None] ** 2 + (lt[:, None] * tg) ** 2 - cross
    d_sq = (lt[:, None, None] * tg[None, :, None]) ** 2 \
        + (ls[:, None, None] * tg[None, None, :]) ** 2 \
        - 2.0 * (lt * ls * cc)[:, None, None] * tg[None, :, None] * tg[None, None, :]
    return tg, tw, rho1_sq, rho2_sq, d_sq


def _self_pair_blocks(mesh, k, touch_order, kind):
    """Exact-log + smooth-remainder blocks for every same-segment pair.

    Returns blocks[a][b] of shape (n,).
    """
    ell = mesh.segment_lengths
    x, w = _gauss01(touch_order)
    diff = np.abs(x[:, None] - x[None, :])
    d = ell[:, None, None] * diff[None, :, :]
    sm = np.empty(d.shape, np.complex128)
    mask = d > 0.0
    sm[mask] = _kernel_smooth(k, d[mask], kind)
    sm[~mask] = _kernel_smooth_limit(k, kind)

    shapes = np.stack([1.0 - x, x])
    blocks = [[None, None], [None, None]]
    log_scale = LOG_COEF * ell * ell
    for a in range(2):
        for b in range(2):
            coef = np.outer(w * shapes[a], w * shapes[b])
            smooth = ell * ell * np.einsum("pgh,gh->p", sm, coef)
            blocks[a][b] = log_scale * (0.25 * np.log(ell) + _SELF_LOG_MOMENTS[a, b]) + smooth
    return blocks


def _adjacent_pair_blocks(mesh, k, touch_order, kind):
    """Blocks for every adjacent ordered pair (p, p+1).

    Coordinates are measured from the shared node: on segment p the local
    variable runs backward (so shape a=1, the shared node, is 1-x) and on
    segment p+1 forward.  Returns blocks[a][b] of shape (n,).
    """
    lp = mesh.segment_lengths
    lq = np.roll(lp, -1)
    cc = -np.sum(mesh.tangents * np.roll(mesh.tangents, -1, axis=0), axis=1)
    tg, tw, rho1_sq, rho2_sq, d_sq = _duffy_geometry(lp, lq, cc, touch_order)
    t0_1 = 0.5 * (np.log(rho1_sq) @ tw)
    t1_1 = 0.5 * (np.log(rho1_sq) @ (tw * tg))
    t0_2 = 0.5 * (np.log(rho2_sq) @ tw)
    t1_2 = 0.5 * (np.log(rho2_sq) @ (tw * tg))
    # smooth remainder over the full square
    sm = _kernel_smooth(k, np.sqrt(d_sq), kind)

    shp_p = np.stack([tg, 1.0 - tg])       # psi_a on segment p vs from-node coord
    shp_q = np.stack([1.0 - tg, tg])       # psi_b on segment q
    blocks = [[None, None], [None, None]]
    scale = lp * lq
    for a in range(2):
        for b in range(2):
            logpart = _ADJ_LOG_M1[a, b] + _ADJ_LOG_M2[a, b] \
                + _ADJ_GAMMA_T1["g0"][a, b] * t0_1 + _ADJ_GAMMA_T1["g1"][a, b] * t1_1 \
                + _ADJ_GAMMA_T2["g0"][a, b] * t0_2 + _ADJ_GAMMA_T2["g1"][a, b] * t1_2
            coef = np.outer(tw * shp_p[a], tw * shp_q[b])
            smooth = np.einsum("pgh,gh->p", sm, coef)
            blocks[a][b] = scale * (LOG_COEF * logpart + smooth)
    return blocks


def _single_layer_blocks(mesh, k, quad_order, kind="helmholtz"):
    """Shape-function blocks A[a][b][p, q] = iint psi_a psi_b g over pair (p, q)."""
    accum = _gauss_pair_blocks(mesh, k, quad_order,
                               lambda dx, dy, d, src: _kernel_full(k, d, kind),
                               symmetric=True)
    n = mesh.n_nodes
    touch_order = quadrature_rule(quad_order)["touching_order"]
    idx = np.arange(n)
    nxt = (idx + 1) % n
    self_blocks = _self_pair_blocks(mesh, k, touch_order, kind)
    adj_blocks = _adjacent_pair_blocks(mesh, k, touch_order, kind)
    for a in range(2):
        for b in range(2):
            accum[a][b][idx, idx] = self_blocks[a][b]
            accum[a][b][idx, nxt] = adj_blocks[a][b]
            accum[a][b][nxt, idx] = adj_blocks[b][a]
    return accum


# ---------------------------------------------------------------------------
# Public assembly routines
# ---------------------------------------------------------------------------
def assemble_gram(mesh: CurveMesh) -> np.ndarray:
    """Piecewise-linear mass matrix (analytic per-segment integrals).

    Uniform mesh of segment length h: diagonal 2h/3, neighbors h/6.
    Row sums equal the nodal arclength weights (l_left + l_right)/2.
    """
    n = mesh.n_nodes
    ell = mesh.segment_lengths
    gram = np.zeros((n, n))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    gram[idx, idx] = (np.roll(ell, 1) + ell) / 3.0
    gram[idx, nxt] = ell / 6.0
    gram[nxt, idx] = ell / 6.0
    return gram


def assemble_laplacian(mesh: CurveMesh) -> np.ndarray:
    """Variational Laplacian: stiffness of arclength derivatives of hats.

    Positive semidefinite with the constant vector in its nullspace.
    """
    n = mesh.n_nodes
    inv = 1.0 / mesh.segment_lengths
    lap = np.zeros((n, n))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    lap[idx, idx] = np.roll(inv, 1) + inv
    lap[idx, nxt] = -inv
    lap[nxt, idx] = -inv
    return lap


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
    blocks = _single_layer_blocks(mesh, k, quad_order, kind)
    return _blocks_to_matrix(blocks, "single-layer matrix")


def assemble_hypersingular(mesh: CurveMesh, k: float, quad_order: int = 8) -> np.ndarray:
    """Hypersingular operator via integration by parts, scaled by ik.

    The bilinear form is  ik * [ <psi', S phi'> - k^2 <psi n, S(phi n)> ]
    with arclength derivatives; the ik scaling makes the normalized
    composition (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} cluster at +1/4
    (the second-kind identity used throughout this package).
    """
    blocks = _single_layer_blocks(mesh, k, quad_order)
    return _hypersingular_from_blocks(mesh, k, blocks)


def _hypersingular_from_blocks(mesh, k, blocks):
    """Hypersingular matrix from single-layer blocks, which it overwrites.

    The arclength derivative of local shape a on segment p is
    (2a - 1) / l_p, so the derivative part of block [a][b] is
    +-(sum of the four blocks) / (l_p l_q), positive where a == b.
    """
    ell = mesh.segment_lengths
    winv = blocks[0][0] + blocks[0][1] + blocks[1][0] + blocks[1][1]
    winv *= np.outer(1.0 / ell, 1.0 / ell)
    normal_dot = mesh.normals @ mesh.normals.T
    for a in range(2):
        for b in range(2):
            blk = blocks[a][b]
            blk *= normal_dot
            blk *= -k * k
            (np.add if a == b else np.subtract)(blk, winv, out=blk)
            blk *= 1j * k
    return _blocks_to_matrix(blocks, "hypersingular matrix")


def assemble_helmholtz_pair(mesh: CurveMesh, k: float, quad_order: int = 8):
    """Assemble the single-layer and hypersingular matrices in one kernel pass.

    Returns
    -------
    (slayer, hyper) : tuple of np.ndarray
    """
    blocks = _single_layer_blocks(mesh, k, quad_order)
    slayer = _blocks_to_matrix(blocks, "single-layer matrix")
    return slayer, _hypersingular_from_blocks(mesh, k, blocks)


# ---------------------------------------------------------------------------
# Double layer
# ---------------------------------------------------------------------------
def _dlayer_adjacent_generic(k, lt, ls, cc, wc, touch_order):
    """Double-layer blocks for ordered adjacent pairs sharing a node.

    Geometry as in :func:`_duffy_geometry`, with ``wc = e_T . n_S``
    (source normal).  Then (r - r').n_S = u lt wc, so after the Duffy
    split the static inverse-square part of the kernel is a polynomial
    over an angular factor, integrated exactly in the radial direction.

    Shape functions are in shared-node convention: index 0 is the hat of
    the shared node (1 - coordinate), index 1 the far one.  Returns
    blocks[a_hat][b_hat], each of shape (n,).
    """
    tg, tw, rho1_sq, rho2_sq, d_sq = _duffy_geometry(lt, ls, cc, touch_order)

    # int psi_a(x) psi_b(x t) dx on the first triangle and
    # int psi_a(y t) psi_b(y) dy on the second, as polynomials in t
    p1 = {(0, 0): 0.5 - tg / 6.0, (0, 1): tg / 6.0,
          (1, 0): 0.5 - tg / 3.0, (1, 1): tg / 3.0}
    p2 = {(0, 0): 0.5 - tg / 6.0, (0, 1): 0.5 - tg / 3.0,
          (1, 0): tg / 6.0, (1, 1): tg / 3.0}

    static_scale = (lt * lt * ls * wc) / (2.0 * np.pi)

    # remainder (full kernel minus static part) over the full square
    d = np.sqrt(d_sq)
    wdot = (lt * wc)[:, None, None] * tg[None, :, None]
    rem = wdot * ((0.25j * k) * hankel_h1_1(k * d) / d - 1.0 / (2.0 * np.pi * d_sq))

    hat = np.stack([1.0 - tg, tg])
    blocks = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            stat = static_scale * (
                (p1[a, b] / rho1_sq) @ tw + ((tg * p2[a, b]) / rho2_sq) @ tw
            )
            coef = np.outer(tw * hat[a], tw * hat[b])
            smooth = (lt * ls) * np.einsum("pgh,gh->p", rem, coef)
            blocks[a][b] = stat + smooth
    return blocks


def assemble_double_layer(mesh: CurveMesh, k: float, quad_order: int = 8) -> np.ndarray:
    """Galerkin double-layer matrix (normal derivative at the source point).

    The kernel is bounded on smooth curves; on the polygonal chain it
    vanishes identically on same-segment pairs (flat-segment limit), so
    self-pair blocks are zero and adjacent pairs carry the near-singular
    static part, integrated by the Duffy split.
    """
    nx = mesh.normals[:, 0]
    ny = mesh.normals[:, 1]

    def kernel(dx, dy, d, src):
        wdot = dx * nx[src] + dy * ny[src]
        return (0.25j * k) * hankel_h1_1(k * d) * (wdot / d)

    accum = _gauss_pair_blocks(mesh, k, quad_order, kernel, symmetric=False)
    n = mesh.n_nodes
    touch_order = quadrature_rule(quad_order)["touching_order"]
    idx = np.arange(n)
    nxt = (idx + 1) % n
    ell = mesh.segment_lengths
    tang = mesh.tangents
    nrm = mesh.normals
    ell_next = np.roll(ell, -1)
    cc = -np.sum(tang * np.roll(tang, -1, axis=0), axis=1)  # away-from-node dirs

    # ordered pair (p, p+1): test = p (shared node local 1), source = p+1
    fwd = _dlayer_adjacent_generic(
        k, ell, ell_next, cc, -np.sum(tang * np.roll(nrm, -1, axis=0), axis=1),
        touch_order)
    # ordered pair (p+1, p): test = p+1 (shared local 0), source = p
    bwd = _dlayer_adjacent_generic(
        k, ell_next, ell, cc, np.sum(np.roll(tang, -1, axis=0) * nrm, axis=1),
        touch_order)

    for a in range(2):
        for b in range(2):
            accum[a][b][idx, idx] = 0.0
            accum[a][b][idx, nxt] = fwd[1 - a][b]
            accum[a][b][nxt, idx] = bwd[a][1 - b]
    return _blocks_to_matrix(accum, "double-layer matrix", symmetric=False)
