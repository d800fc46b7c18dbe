"""Normalized second-kind systems on closed curves and their filtered forms.

Every system acts on Gram-normalized coefficients (G^{1/2} times the nodal
values), so identity blocks are meaningful, and all three formulations
share one unknown, -h_tot, the total field's nodal values so normalized:

* preconditioned first kind:  Z x = v_e   with Z clustering at 1/4,
* second kind:  (I/2 - Dn) x = v_h   with the normalized double layer Dn,
* combined:     their alpha-weighted sum.

Each is  first Z + second (I/2 - Dn)  with right-hand side
first v_e + second v_h, for the weights (1, 0), (0, 1) and (1, alpha).
Writing it as  beta I + C  (:func:`second_kind_split`) and low-pass
filtering the compact block C yields the structured form consumed by the
compression and Woodbury solver modules.

No Gram-normalized operator is stored.  The bundle keeps N and D raw,
S G^{-1} only in its hierarchical (HODLR) form, certified at 1e-12 of its
norm, the banded Chebyshev G^{-1/2} of the tridiagonal G as dense cyclic
row strips, and the segment rule of the right-hand sides' moments
(:func:`assemble_operators`).  Each right-hand side is its moments, one
matvec with the form and one batched product with the strips
(:func:`normalized_rhs`).  One routine reads the form, N and D: it forms
w.T (first Z - second Dn) as one weighted sum of thin products with
u = G^{-1/2} w, for the filter's modes w, and applies G^{-1/2} on the
right once.  The dense Z, Dn and C are the same routine with the identity
as basis, made one block of columns at a time.  No dense
eigendecomposition runs here: the filter's modes are the lowest ones of
the sparse pencil (L, G), computed when a filter index is first known
(:func:`filter_modes`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from .assembly2d import (
    KERNEL_KINDS,
    SegmentRule,
    assemble_double_layer,
    assemble_helmholtz_pair,
    assemble_single_layer,
    segment_rule,
    sparse_gram,
    sparse_laplacian,
)
from .compression import ProjectedMatrix
from .excitation2d import Source2D, assemble_rhs
from .hodlr import HodlrMatrix, hodlr_compress
from .mesh2d import CurveMesh
from .spectral import (CyclicStrips, _check_filter_index, canonicalize_cut,
                       chebyshev_invsqrt, cut_cluster, cyclic_strips,
                       pencil_modes)

__all__ = [
    "Operators2D",
    "FilterModes",
    "FilteredSystem",
    "assemble_operators",
    "filter_modes",
    "lowest_modes",
    "canonical_modes",
    "build_calderon_matrix",
    "normalized_double_layer",
    "normalized_rhs",
    "second_kind_split",
    "formulation_weights",
    "build_filtered_system",
    "FORMULATIONS",
]

FORMULATIONS = ("efie", "mfie", "cfie")
_BLOCK = 64   # rows of a right-factor block, columns of a dense-route block


@dataclass(frozen=True)
class Operators2D:
    """Operator bundle over one mesh and wavenumber, fixed once assembled.

    ``slayer_ginv_hodlr`` is the one copy of P = S G^{-1}: its HODLR form
    (:func:`~filtbem.hodlr.hodlr_compress`), one uncompressed leaf up to
    64 nodes (``hodlr.LEAF``), through which the right-hand sides, the
    filtered system and the dense routes read P.  ``hyper`` holds the
    hypersingular N of the Helmholtz kernel pass and ``dlayer`` the
    double layer D (None unless :func:`assemble_operators` was asked for
    it), both raw and N x N; ``gram_invsqrt`` is the banded G^{-1/2} as
    dense cyclic row strips (:func:`~filtbem.spectral.cyclic_strips`),
    its only form, and
    ``rule`` the :func:`~filtbem.assembly2d.segment_rule` of the mesh at
    the operators' quadrature order (``rule.quad_order``), the per-mesh
    part of every right-hand side.  Every stored array, the form's, the
    strips' and the rule's included, is read-only.  No
    Gram-normalized operator is kept: one weighted product reads the form,
    N and D for the filtered system and the dense routes alike.  No
    Laplacian basis is kept either: :func:`filter_modes` computes the modes
    a filter index needs.
    """

    mesh: CurveMesh
    k: float
    gram_invsqrt: CyclicStrips
    slayer_ginv_hodlr: HodlrMatrix
    hyper: np.ndarray
    rule: SegmentRule
    dlayer: Optional[np.ndarray] = None   # only with need_double_layer

    @property
    def nbytes(self) -> int:
        """Bytes held by N, D, the HODLR form of P and the strips of
        G^{-1/2}; the segment rule's O(N quad_order) are not counted."""
        return sum(arr.nbytes for arr in (self.slayer_ginv_hodlr, self.hyper,
                                          self.dlayer, self.gram_invsqrt)
                   if arr is not None)


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def _times_right(apply, mat: np.ndarray) -> np.ndarray:
    """mat A in place, for a complex ``mat`` and a real symmetric A given as
    ``apply(x) = A x`` on real (N, m) arrays.

    A acts on blocks of rows of mat, transposed and viewed as interleaved
    real and imaginary parts, so no complex product runs and no temporary
    larger than one block is made.
    """
    for start in range(0, mat.shape[0], _BLOCK):
        rows = np.ascontiguousarray(mat[start:start + _BLOCK].T)
        mat[start:start + _BLOCK] = np.ascontiguousarray(
            apply(rows.view(np.float64))).view(np.complex128).T
    return mat


def assemble_operators(mesh: CurveMesh, k: float, quad_order: int = 8,
                       need_double_layer: bool = False,
                       slayer_kind: str = "helmholtz") -> Operators2D:
    """Assemble every operator a filtered system may need.

    N always comes from the Helmholtz single-layer/hypersingular kernel
    pass; for another ``slayer_kind`` that pass's S is dropped before the
    single layer of that kernel is assembled, and a kind outside
    ``KERNEL_KINDS`` raises ``ValueError`` before any pass.  S becomes S G^{-1} in
    place, one block of rows at a time, through one
    sparse LU factorization of the tridiagonal G.  The double layer is
    assembled only when ``need_double_layer`` asks for it; a bundle without
    it serves the efie alone.  G^{-1/2} is the banded
    :func:`~filtbem.spectral.chebyshev_invsqrt` of G, kept as its cyclic
    row strips, and the segment rule of the right-hand sides is built
    here at ``quad_order`` (:func:`~filtbem.assembly2d.segment_rule`).
    The HODLR form of S G^{-1} is built last, after the kernel passes, so
    their peak does not grow, and the dense S G^{-1} is dropped on return:
    only the form holds P.
    """
    if slayer_kind not in KERNEL_KINDS:   # before the S+N pass, not after
        raise ValueError(f"slayer_kind must be one of {KERNEL_KINDS}")
    slayer, hyper = assemble_helmholtz_pair(mesh, k, quad_order)
    if slayer_kind != "helmholtz":
        del slayer   # the pass's Helmholtz S, before the other kernel's pass
        slayer = assemble_single_layer(mesh, k, quad_order, kind=slayer_kind)
    gram = sparse_gram(mesh)
    # G is symmetric, so a row block of S G^{-1} is (G^{-1} block^T)^T
    slayer_ginv = _read_only(_times_right(
        scipy.sparse.linalg.splu(gram.tocsc()).solve, slayer))
    dlayer = (_read_only(assemble_double_layer(mesh, k, quad_order))
              if need_double_layer else None)
    return Operators2D(mesh=mesh, k=k,
                       gram_invsqrt=cyclic_strips(chebyshev_invsqrt(gram)),
                       slayer_ginv_hodlr=hodlr_compress(slayer_ginv),
                       hyper=_read_only(hyper),
                       rule=segment_rule(mesh, quad_order), dlayer=dlayer)


@dataclass(frozen=True)
class FilterModes:
    """The orthonormal modes a low-pass filter keeps, and its cut.

    ``vectors`` (read-only) holds the lowest eigenvectors of
    G^{-1/2} L G^{-1/2}, ascending, the constant mode first.  ``cut_gap``
    is the relative eigen-gap between the last kept mode and the next
    (None when every mode is kept); ``cut_canonicalized`` tells whether
    the cut split a cluster of near-degenerate modes and was made canonical
    (see :func:`~filtbem.spectral.canonicalize_cut`).
    """

    vectors: np.ndarray
    cut_gap: Optional[float]
    cut_canonicalized: bool


def _gram_root_apply(ops: Operators2D, x: np.ndarray) -> np.ndarray:
    """G^{1/2} x, evaluated as G (G^{-1/2} x) with the sparse G and the
    strips of the root."""
    return sparse_gram(ops.mesh) @ (ops.gram_invsqrt @ x)


def canonical_modes(ops: Operators2D, values: np.ndarray,
                    vectors: np.ndarray, filter_n: int) -> FilterModes:
    """Fix the choices an eigensolver leaves open in ``vectors``, ascending
    orthonormal eigenvectors of G^{-1/2} L G^{-1/2} with eigenvalues
    ``values``, for a filter that keeps the first ``filter_n``.

    * A cut after ``filter_n`` columns that splits a cluster of
      near-degenerate modes (:func:`~filtbem.spectral.cut_cluster`) is made
      canonical with the Gram-normalized nodal references
      cos(2 pi m s / P) + z_j, in arclength s, m = ceil(filter_n / 2), z_j
      fixed pseudo-random vectors, one per kept cluster column.  A split
      pair's continuum modes are cos and sin of 2 pi m s / P, so the kept
      column is close to the cos-like member; z_j keeps the projections
      independent where modes are not near Fourier modes (high modes of a
      coarse mesh of an elongated curve localize on its flat sides).
    * Column 0 becomes the closed-form constant mode G^{1/2} 1, normalized;
      the other columns are orthogonalized against it once.

    ``vectors`` must hold more than ``filter_n`` columns for a cut to
    exist, and, if the cut splits a cluster, all of its columns.
    """
    mesh = ops.mesh
    vectors = np.array(vectors, dtype=np.float64)
    gap, fired = None, False
    if filter_n < vectors.shape[1]:
        gap, run = cut_cluster(values, filter_n, mesh.n_nodes)
        if run is not None:
            if run[1] is None:
                raise ValueError("the cluster at the cut runs past the "
                                 "given modes")
            arclength = mesh.node_arclengths[:-1] / mesh.perimeter
            wave = np.cos(2.0 * np.pi * ((filter_n + 1) // 2) * arclength)
            nodal = wave[:, None] + np.random.default_rng(0).uniform(
                -1.0, 1.0, (mesh.n_nodes, filter_n - run[0]))
            vectors = canonicalize_cut(vectors, filter_n, run,
                                       _gram_root_apply(ops, nodal))
            fired = True
    const = _gram_root_apply(ops, np.ones(mesh.n_nodes))
    const /= np.linalg.norm(const)
    vectors[:, 0] = const
    vectors[:, 1:] -= np.outer(const, const @ vectors[:, 1:])
    vectors.flags.writeable = False
    return FilterModes(vectors=vectors, cut_gap=gap, cut_canonicalized=fired)


def lowest_modes(ops: Operators2D, count: int):
    """``(values, vectors)``: the ``count`` lowest eigenpairs of
    G^{-1/2} L G^{-1/2}, ascending, as G^{1/2} v for L v = lam G v solved on
    the sparse pencil (:func:`~filtbem.spectral.pencil_modes`, shifted by
    minus the first nonzero continuum eigenvalue (2 pi / P)^2).  No N x N
    array is formed unless ``count`` is N."""
    mesh = ops.mesh
    shift = -(2.0 * np.pi / mesh.perimeter) ** 2
    values, vectors = pencil_modes(sparse_laplacian(mesh), sparse_gram(mesh),
                                   count, shift)
    return values, _gram_root_apply(ops, vectors)


def filter_modes(ops: Operators2D, filter_n: int) -> FilterModes:
    """The ``filter_n`` lowest Laplacian modes, Gram-normalized, and the cut.

    Takes the lowest ``filter_n + 1`` modes (:func:`lowest_modes`) for
    odd ``filter_n`` and ``filter_n + 2`` for even: past the constant mode
    a closed curve's modes come in near-degenerate pairs, and an even cut
    splits the pair (filter_n - 1, filter_n), so the gap after that pair
    is needed too.  A cut through a wider cluster that runs past them takes
    more, and the modes are made canonical (:func:`canonical_modes`).  On
    the benchmark curves that is one eigensolve per cut.
    """
    size = ops.mesh.n_nodes
    _check_filter_index(filter_n, size)
    count = min(filter_n + 2 - filter_n % 2, size)
    values, vectors = lowest_modes(ops, count)
    while count < size:
        run = cut_cluster(values, filter_n, size)[1]
        if run is None or run[1] is not None:
            break
        count = min(size, 2 * count - filter_n)   # twice as many past the cut
        values, vectors = lowest_modes(ops, count)
    modes = canonical_modes(ops, values, vectors, filter_n)
    kept = np.ascontiguousarray(modes.vectors[:, :filter_n])
    kept.flags.writeable = False
    return dataclasses.replace(modes, vectors=kept)


def _operators_for(mesh: CurveMesh, k: float, ops: Optional[Operators2D],
                   need_double_layer: bool = False) -> Operators2D:
    """The given bundle, checked against mesh and k, or a new one."""
    if ops is None:
        return assemble_operators(mesh, k,
                                  need_double_layer=need_double_layer)
    if ops.mesh is not mesh or ops.k != k:
        raise ValueError("ops was assembled for another mesh or wavenumber")
    return ops


def _left_rows(ops: Operators2D, u: Optional[np.ndarray],
               mat: np.ndarray) -> np.ndarray:
    """u.T mat as a new array, or G^{-1/2} mat when ``u`` is None.  The
    real left factor acts on mat viewed as interleaved real and imaginary
    parts, so no complex product runs."""
    left = ops.gram_invsqrt if u is None else u.T
    return (left @ mat.view(np.float64)).view(np.complex128)


def _weighted_rows(ops: Operators2D, first: float, second: float,
                   u: Optional[np.ndarray], cols: slice) -> np.ndarray:
    """The columns ``cols`` of u.T (first P N / (ik) - second D), or of
    G^{-1/2} (first P N / (ik) - second D) when ``u`` is None, as a new
    array; P = S G^{-1} is read through its HODLR form alone, u.T P as
    (P^T u)^T with the form's transpose.  A zero weight skips its
    operator."""
    rows = 0.0
    if first:
        form, hyper = ops.slayer_ginv_hodlr, ops.hyper[:, cols]
        rows = (_left_rows(ops, None, form @ hyper) if u is None
                else (form.T @ u).T @ hyper)
        rows /= 1j * ops.k / first
    if second:
        term = _left_rows(ops, u, ops.dlayer[:, cols])
        term *= -second
        rows = np.add(rows, term, out=term) if first else term
    return rows


def _operator_rows(ops: Operators2D, first: float, second: float,
                  w: Optional[np.ndarray]) -> np.ndarray:
    """w.T (first Z - second Dn) as a new array, or first Z - second Dn
    when ``w`` is None (w = I), for Z = G^{-1/2} (S G^{-1}) N G^{-1/2} / (ik)
    and Dn = G^{-1/2} D G^{-1/2}.

    Evaluated as (first ((u.T P) N) / (ik) - second (u.T D)) G^{-1/2} with
    u = G^{-1/2} w and P = S G^{-1} (:func:`_weighted_rows`), so G^{-1/2}
    acts on the right once; O(N^2 r) work for r columns of w.  When ``w``
    is None the left factor is G^{-1/2} itself, and the rows are made one
    block of columns at a time, G^{-1/2} (P N) included, so no N x N
    array is held besides the result.
    The one reader of N and D: a nonzero ``second`` on a bundle without D
    raises ``ValueError`` before any product runs.
    """
    if second and ops.dlayer is None:
        raise ValueError("the operator bundle holds no double layer: "
                         "assemble it with need_double_layer=True")
    if w is None:
        size = ops.mesh.n_nodes
        rows = np.empty((size, size), np.complex128)
        for start in range(0, size, _BLOCK):
            cols = slice(start, start + _BLOCK)
            rows[:, cols] = _weighted_rows(ops, first, second, None, cols)
    else:
        rows = _weighted_rows(ops, first, second, ops.gram_invsqrt @ w,
                              slice(None))
    return _times_right(ops.gram_invsqrt.__matmul__, rows)


def build_calderon_matrix(mesh: CurveMesh, k: float,
                          ops: Optional[Operators2D] = None) -> np.ndarray:
    """Normalized preconditioned first-kind matrix (eigenvalues near 1/4).

    Computes (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} over the given mesh as
    a new array, by the products the filtered system uses with the
    identity as basis; pass ``ops`` (assembled on this mesh at this k) to
    reuse operators.  The quadrature order is that of ``ops`` (the default
    of :func:`assemble_operators` without it).
    """
    return _operator_rows(_operators_for(mesh, k, ops), 1.0, 0.0, None)


def normalized_double_layer(ops: Operators2D) -> np.ndarray:
    """Gram-normalized double layer G^{-1/2} D G^{-1/2}, as a new array;
    ``ops`` must hold D (``need_double_layer``)."""
    return _operator_rows(ops, 0.0, -1.0, None)


def normalized_rhs(ops: Operators2D, src: Source2D, eta: float):
    """Normalized electric and magnetic right-hand sides.

    v_e = (ik / eta) G^{-1/2} S G^{-1} e  and  v_h = -G^{-1/2} h, where e,
    h are the Galerkin moments of the incident traces, taken on the
    bundle's segment rule (``rule``), whose order is the near order: a
    plane wave, or a line source at least the far radius from the curve,
    takes the kernel pass's far order
    (:func:`~filtbem.excitation2d.assemble_rhs`).  The factor -ik against
    the plain -eta^{-1} G^{-1/2} S G^{-1} e gives every formulation the
    same unknown: -h_tot, the total field's nodal values, in
    Gram-normalized coefficients.  The moments read the bundle's rule, so
    no per-mesh work runs per source.  S G^{-1} e is one matvec with its
    HODLR form (``slayer_ginv_hodlr``, the bundle's only copy of
    S G^{-1}), certified within 1e-12 ||P|| ||e|| of the dense product
    and reading about a quarter of its bytes at N = 1004; the strips of
    the banded G^{-1/2} then multiply the real and imaginary parts of both
    vectors in one (N, 4) batched product, O(N) work.
    """
    e_vec, h_vec = assemble_rhs(ops.rule, src, ops.k, eta)
    p_vec = ops.slayer_ginv_hodlr @ e_vec
    y = ops.gram_invsqrt @ np.column_stack(
        [p_vec.real, p_vec.imag, h_vec.real, h_vec.imag])
    v_e = (1j * ops.k / eta) * (y[:, 0] + 1j * y[:, 1])
    v_h = -(y[:, 2] + 1j * y[:, 3])
    return v_e, v_h


def formulation_weights(formulation: str, alpha: float):
    """``(first, second)``: the formulation's system is
    first Z + second (I/2 - Dn).  Raises ``ValueError`` for an unknown
    formulation or a combined-field coupling alpha that is not a finite
    positive number."""
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if formulation == "cfie" and not 0 < alpha < np.inf:   # NaN fails too
        raise ValueError("coupling alpha must be finite and positive")
    return {"efie": (1.0, 0.0), "mfie": (0.0, 1.0),
            "cfie": (1.0, alpha)}[formulation]


def _compact_block(ops: Operators2D, first: float, second: float,
                   w: Optional[np.ndarray]):
    """``(beta, w.T @ C)`` for the system beta I + C with beta = first/4 +
    second/2 and the compact block C = first (Z - I/4) - second Dn; C
    itself when ``w`` is None.  Both routes run the products of
    :func:`_operator_rows`, the dense one with w = I; with a basis they
    cost O(N^2 r) for r columns of w and form no N x N array."""
    block = _operator_rows(ops, first, second, w)
    if first:
        if w is None:
            block[np.diag_indices_from(block)] -= 0.25 * first
        else:
            block -= 0.25 * first * w.T
    return first / 4 + second / 2, block


def second_kind_split(ops: Operators2D, formulation: str, alpha: float = 0.5):
    """Split a formulation's unfiltered system into ``(beta, C)``, system beta I + C.

    With the formulation's weights (first, second), (1, 0) for efie,
    (0, 1) for mfie and (1, alpha) for cfie (alpha > 0), the system
    first Z + second (I/2 - Dn) has beta = first/4 + second/2 and
    C = first (Z - I/4) - second Dn, with Z from
    :func:`build_calderon_matrix` and the normalized double layer Dn.

    C is returned as a new array.  A formulation that weighs Dn needs a
    bundle assembled with ``need_double_layer``.
    """
    first, second = formulation_weights(formulation, alpha)
    return _compact_block(ops, first, second, None)


@dataclass(frozen=True)
class FilteredSystem:
    """Structured system  (beta I + compact) x = rhs  with filtered compact block.

    beta, the compact block C and rhs = first v_e + second v_h follow the
    formulation's weights (first, second) (see :func:`second_kind_split`).
    ``compact`` is C low-pass filtered, before any compression, in filter
    coordinates as a :class:`~filtbem.compression.ProjectedMatrix`
    ``w @ B``: ``w`` holds the ``filter_n`` kept modes
    (:func:`filter_modes`) and ``B = w.T @ C`` is the ``filter_n x N``
    coefficient block; when every mode is kept the basis is None and ``B``
    is C itself.  ``np.asarray(compact)`` forms the N x N block;
    :func:`lowrank_factor` compresses ``B`` without it.  ``cut_gap`` and
    ``cut_canonicalized`` report the filter cut as :class:`FilterModes`
    does.
    """

    beta: float
    compact: ProjectedMatrix
    rhs: np.ndarray
    cut_gap: Optional[float] = None
    cut_canonicalized: bool = False


def build_filtered_system(mesh: CurveMesh, k: float, eta: float, src: Source2D,
                          formulation: str, filter_n: int, alpha: float = 0.5,
                          ops: Optional[Operators2D] = None) -> FilteredSystem:
    """Assemble one of the three filtered formulations.

    Below ``filter_n = N`` the compact block is projected before it is
    multiplied out, so no N x N array is formed here: the work after the
    filter's modes is O(N^2 filter_n).

    Parameters
    ----------
    formulation : {"efie", "mfie", "cfie"}
        Preconditioned first-kind, second-kind, or combined system (see
        :func:`second_kind_split`).
    filter_n : int
        Low-pass filter index (number of retained Laplacian modes, see
        :func:`filter_modes`; at N the filter is the identity).
    alpha : float
        Combined-field coupling, > 0 (combined formulation only).
    ops : Operators2D, optional
        Reuse operators previously assembled on this mesh at this k; they
        fix the quadrature order, and mfie and cfie need their double
        layer.  Without them the operators the formulation weighs are
        assembled.

    Returns
    -------
    FilteredSystem
    """
    first, second = formulation_weights(formulation, alpha)
    ops = _operators_for(mesh, k, ops, need_double_layer=bool(second))
    _check_filter_index(filter_n, mesh.n_nodes)
    v_e, v_h = normalized_rhs(ops, src, eta)
    rhs = sum(weight * vec for weight, vec in ((first, v_e), (second, v_h))
              if weight)
    # the projection keeps the constant (nullspace) mode: on a closed curve
    # it carries the net-loop current, whose coupling in the compact block
    # is order one, so dropping it would perturb the solution at order one
    # instead of at the band-limit tail
    w, gap, fired = None, None, False      # every mode kept: no basis
    if filter_n < mesh.n_nodes:
        modes = filter_modes(ops, filter_n)
        w, gap, fired = modes.vectors, modes.cut_gap, modes.cut_canonicalized
    beta, block = _compact_block(ops, first, second, w)
    return FilteredSystem(beta=beta, compact=ProjectedMatrix(w, block),
                          rhs=rhs, cut_gap=gap, cut_canonicalized=fired)
