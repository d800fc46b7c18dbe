"""Normalized second-kind systems on closed curves and their filtered forms.

All systems act on Gram-normalized coefficients (G^{1/2} times the nodal
values), so identity blocks are meaningful and the three formulations
share one unknown:

* preconditioned first kind:  Z x = v_e   with Z clustering at 1/4,
* second kind:  (I/2 - Dn) x = v_h   with the normalized double layer Dn,
* combined:     their alpha-weighted sum.

Each is  first Z + second (I/2 - Dn)  with right-hand side
first v_e + second v_h, for the weights (1, 0), (0, 1) and (1, alpha).
Writing it as  beta I + C  (:func:`second_kind_split`) and low-pass
filtering the compact block C yields the structured form consumed by the
compression and Woodbury solver modules.

No dense eigendecomposition runs here.  G^{-1/2} is a sparse banded
Chebyshev polynomial in the tridiagonal G (:func:`assemble_operators`);
the filter's modes are the lowest ones of the sparse pencil (L, G),
computed when a filter index is first known (:func:`filter_modes`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse

from .assembly2d import (
    assemble_double_layer,
    assemble_helmholtz_pair,
    assemble_hypersingular,
    assemble_single_layer,
    sparse_gram,
    sparse_laplacian,
)
from .compression import ProjectedMatrix
from .excitation2d import Source2D, assemble_rhs
from .mesh2d import CurveMesh
from .spectral import (_check_filter_index, canonicalize_cut,
                       chebyshev_invsqrt, cut_cluster, pencil_modes)

__all__ = [
    "Operators2D",
    "FilterModes",
    "FilteredSystem",
    "assemble_operators",
    "filter_modes",
    "canonical_modes",
    "build_calderon_matrix",
    "normalized_double_layer",
    "normalized_rhs",
    "second_kind_split",
    "build_filtered_system",
    "FORMULATIONS",
]

FORMULATIONS = ("efie", "mfie", "cfie")
_ROW_BLOCK = 64   # rows per block of the in-place right Gram factor


@dataclass
class Operators2D:
    """Operator bundle over one mesh and wavenumber.

    ``slayer``, ``hyper`` and ``dlayer`` hold the read-only Gram-normalized
    G^{-1/2} X G^{-1/2} of S, N and D; the raw matrices are not kept.
    ``gram_invsqrt`` is the sparse banded G^{-1/2}.  No Laplacian basis is
    kept: :func:`filter_modes` computes the modes a filter index needs.
    """

    mesh: CurveMesh
    k: float
    gram_invsqrt: scipy.sparse.csr_array
    slayer: np.ndarray
    hyper: np.ndarray
    dlayer: Optional[np.ndarray] = None   # assembled on first use
    quad_order: int = 8


def _gram_normalized(gm, raw: np.ndarray) -> np.ndarray:
    """Read-only G^{-1/2} X G^{-1/2} for the sparse symmetric root ``gm``.

    The real root acts on X viewed as interleaved real and imaginary
    parts, so no complex product runs.  The right factor is applied in
    place to blocks of rows of gm @ X (gm is symmetric), so the result is
    the only N x N array made.
    """
    out = (gm @ np.ascontiguousarray(raw, np.complex128).view(np.float64)
           ).view(np.complex128)
    for start in range(0, out.shape[0], _ROW_BLOCK):
        rows = np.ascontiguousarray(out[start:start + _ROW_BLOCK].T)
        out[start:start + _ROW_BLOCK] = (
            gm @ rows.view(np.float64)).view(np.complex128).T
    out.flags.writeable = False
    return out


def assemble_operators(mesh: CurveMesh, k: float, quad_order: int = 8,
                       need_double_layer: bool = False,
                       slayer_kind: str = "helmholtz") -> Operators2D:
    """Assemble and Gram-normalize every operator a filtered system may need.

    The single-layer/hypersingular pair shares one kernel pass; the double
    layer is assembled here only when requested, otherwise on first use by
    :func:`normalized_double_layer`.  G^{-1/2} is the banded
    :func:`~filtbem.spectral.chebyshev_invsqrt` of the sparse Gram matrix.
    """
    if slayer_kind == "helmholtz":
        slayer, hyper = assemble_helmholtz_pair(mesh, k, quad_order)
    else:
        slayer = assemble_single_layer(mesh, k, quad_order, kind=slayer_kind)
        hyper = assemble_hypersingular(mesh, k, quad_order)
    gm = chebyshev_invsqrt(sparse_gram(mesh))
    slayer = _gram_normalized(gm, slayer)   # rebinding frees each raw matrix
    hyper = _gram_normalized(gm, hyper)
    dlayer = (_gram_normalized(gm, assemble_double_layer(mesh, k, quad_order))
              if need_double_layer else None)
    return Operators2D(mesh=mesh, k=k, gram_invsqrt=gm, slayer=slayer,
                       hyper=hyper, dlayer=dlayer, quad_order=quad_order)


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
    """G^{1/2} x, evaluated as G (G^{-1/2} x) with the sparse G and root."""
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


def _lowest_modes(ops: Operators2D, count: int):
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

    Takes the lowest ``filter_n + 1`` modes (:func:`_lowest_modes`),
    or more when the cut splits a cluster that runs past them, and makes
    them canonical (:func:`canonical_modes`).
    """
    size = ops.mesh.n_nodes
    _check_filter_index(filter_n, size)
    count = min(filter_n + 1, size)
    values, vectors = _lowest_modes(ops, count)
    while count < size:
        run = cut_cluster(values, filter_n, size)[1]
        if run is None or run[1] is not None:
            break
        count = min(size, 2 * count - filter_n)   # twice as many past the cut
        values, vectors = _lowest_modes(ops, count)
    modes = canonical_modes(ops, values, vectors, filter_n)
    kept = np.ascontiguousarray(modes.vectors[:, :filter_n])
    kept.flags.writeable = False
    return dataclasses.replace(modes, vectors=kept)


def _operators_for(mesh: CurveMesh, k: float,
                   ops: Optional[Operators2D]) -> Operators2D:
    """The given bundle, checked against mesh and k, or a new one."""
    if ops is None:
        return assemble_operators(mesh, k)
    if ops.mesh is not mesh or ops.k != k:
        raise ValueError("ops was assembled for another mesh or wavenumber")
    return ops


def build_calderon_matrix(mesh: CurveMesh, k: float,
                          ops: Optional[Operators2D] = None) -> np.ndarray:
    """Normalized preconditioned first-kind matrix (eigenvalues near 1/4).

    Computes (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} over the given mesh;
    pass ``ops`` (assembled on this mesh at this k) to reuse operators.
    The quadrature order is that of ``ops`` (the default of
    :func:`assemble_operators` without it).
    """
    ops = _operators_for(mesh, k, ops)
    return (ops.slayer @ ops.hyper) / (1j * ops.k)


def normalized_double_layer(ops: Operators2D) -> np.ndarray:
    """Gram-normalized double layer G^{-1/2} D G^{-1/2} (read-only)."""
    if ops.dlayer is None:
        ops.dlayer = _gram_normalized(
            ops.gram_invsqrt, assemble_double_layer(ops.mesh, ops.k, ops.quad_order))
    return ops.dlayer


def normalized_rhs(ops: Operators2D, src: Source2D, eta: float):
    """Normalized electric and magnetic right-hand sides.

    v_e = -eta^{-1} G^{-1/2} S G^{-1} e  and  v_h = -G^{-1/2} h, where e, h
    are the Galerkin moments of the incident traces.  The sparse banded
    G^{-1/2} multiplies the real and imaginary parts of both moments in one
    (N, 4) product, O(N) work; the normalized S then takes one complex
    matvec.
    """
    e_vec, h_vec = assemble_rhs(ops.mesh, src, ops.k, eta, ops.quad_order)
    y = ops.gram_invsqrt @ np.column_stack(
        [e_vec.real, e_vec.imag, h_vec.real, h_vec.imag])
    v_e = -(1.0 / eta) * (ops.slayer @ (y[:, 0] + 1j * y[:, 1]))
    v_h = -(y[:, 2] + 1j * y[:, 3])
    return v_e, v_h


def _weights(formulation: str, alpha: float):
    """``(first, second)``: the formulation's system is
    first Z + second (I/2 - Dn).  Raises ``ValueError`` for an unknown
    formulation or a combined-field coupling alpha <= 0."""
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if formulation == "cfie" and alpha <= 0:
        raise ValueError("combined-field coupling alpha must be positive")
    return {"efie": (1.0, 0.0), "mfie": (0.0, 1.0),
            "cfie": (1.0, alpha)}[formulation]


def _real_times(real: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """real @ mat for a real matrix and a complex one, as one real product
    with mat viewed as interleaved real and imaginary parts."""
    mat = np.ascontiguousarray(mat)
    return (real @ mat.view(np.float64)).view(np.complex128)


def _compact_block(ops: Operators2D, first: float, second: float,
                   w: Optional[np.ndarray]) -> np.ndarray:
    """w.T @ C for the compact block C = first (Z - I/4) - second Dn, as a
    new array, or C itself when ``w`` is None (Z then comes from
    :func:`build_calderon_matrix`).  With a basis each operator is
    projected before it is multiplied, ((w.T Sn) Nn) / (ik) and w.T Dn:
    O(N^2 r) work for r columns of w and no N x N array.  A zero weight
    skips its operator."""
    block = 0.0
    if first:
        if w is None:
            block = build_calderon_matrix(ops.mesh, ops.k, ops=ops)
            block[np.diag_indices_from(block)] -= 0.25
        else:
            block = _real_times(w.T, ops.slayer) @ ops.hyper
            block /= 1j * ops.k
            block -= 0.25 * w.T
        block *= first
    if second:
        dn = normalized_double_layer(ops)
        term = second * (dn if w is None else _real_times(w.T, dn))
        block = np.subtract(block, term, out=term)
    return block


def second_kind_split(ops: Operators2D, formulation: str, alpha: float = 0.5):
    """Split a formulation's unfiltered system into ``(beta, C)``, system beta I + C.

    With the formulation's weights (first, second), (1, 0) for efie,
    (0, 1) for mfie and (1, alpha) for cfie (alpha > 0), the system
    first Z + second (I/2 - Dn) has beta = first/4 + second/2 and
    C = first (Z - I/4) - second Dn, with Z from
    :func:`build_calderon_matrix` and the normalized double layer Dn.

    C is returned as a new array.
    """
    first, second = _weights(formulation, alpha)
    return first / 4 + second / 2, _compact_block(ops, first, second, None)


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
    :func:`lowrank_factor` compresses ``B`` without it.  ``alpha`` is the
    combined-field coupling, 0 unless both weights are nonzero.
    ``cut_gap`` and ``cut_canonicalized`` report the filter cut as
    :class:`FilterModes` does.
    """

    beta: float
    compact: ProjectedMatrix
    rhs: np.ndarray
    formulation: str
    filter_n: int
    alpha: float = 0.0
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
        fix the quadrature order.

    Returns
    -------
    FilteredSystem
    """
    formulation = formulation.lower()
    first, second = _weights(formulation, alpha)
    ops = _operators_for(mesh, k, ops)
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
    return FilteredSystem(
        beta=first / 4 + second / 2,
        compact=ProjectedMatrix(w, _compact_block(ops, first, second, w)),
        rhs=rhs, formulation=formulation, filter_n=filter_n,
        alpha=second if first else 0.0, cut_gap=gap, cut_canonicalized=fired)
