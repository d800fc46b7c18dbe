"""Normalized second-kind systems on closed curves and their filtered forms.

All systems act on Gram-normalized coefficients (G^{1/2} times the nodal
values), so identity blocks are meaningful and the three formulations
share one unknown:

* preconditioned first kind:  Z x = v_e   with Z clustering at 1/4,
* second kind:  (I/2 - Dn) x = v_h   with the normalized double layer Dn,
* combined:     their alpha-weighted sum.

Writing each system as  beta I + C  and low-pass filtering the compact
block C yields the structured form consumed by the compression and
Woodbury solver modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly2d import (
    assemble_double_layer,
    assemble_gram,
    assemble_helmholtz_pair,
    assemble_hypersingular,
    assemble_laplacian,
    assemble_single_layer,
)
from .excitation2d import Source2D, assemble_rhs
from .mesh2d import CurveMesh
from .spectral import _check_filter_index, laplacian_modes, sym_sqrt_and_invsqrt

__all__ = [
    "Operators2D",
    "FilteredSystem",
    "assemble_operators",
    "build_calderon_matrix",
    "build_compact_part",
    "normalized_double_layer",
    "normalized_rhs",
    "second_kind_split",
    "build_filtered_system",
    "FORMULATIONS",
]

FORMULATIONS = ("efie", "mfie", "cfie")


@dataclass
class Operators2D:
    """Operator bundle over one mesh and wavenumber.

    ``slayer``, ``hyper`` and ``dlayer`` hold the read-only Gram-normalized
    G^{-1/2} X G^{-1/2} of S, N and D; the raw matrices are not kept.
    ``modes`` holds the read-only eigenvectors of G^{-1/2} L G^{-1/2},
    lowest mode (the constant) first; a filter at index n keeps the
    first n columns.
    """

    mesh: CurveMesh
    k: float
    gram_invsqrt: np.ndarray
    modes: np.ndarray
    slayer: np.ndarray
    hyper: np.ndarray
    dlayer: Optional[np.ndarray] = None   # assembled on first use
    quad_order: int = 8


def _gram_normalized(gm: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Read-only G^{-1/2} X G^{-1/2}, evaluated as (gm @ X) @ gm."""
    out = gm @ raw @ gm
    out.flags.writeable = False
    return out


def assemble_operators(mesh: CurveMesh, k: float, quad_order: int = 8,
                       need_double_layer: bool = False,
                       slayer_kind: str = "helmholtz") -> Operators2D:
    """Assemble and Gram-normalize every operator a filtered system may need.

    The single-layer/hypersingular pair shares one kernel pass; the double
    layer is assembled here only when requested, otherwise on first use by
    :func:`normalized_double_layer`.  The kernel pass, which sets the peak
    memory, runs before the Gram root and the Laplacian eigenbasis exist.
    """
    if slayer_kind == "helmholtz":
        slayer, hyper = assemble_helmholtz_pair(mesh, k, quad_order)
    else:
        slayer = assemble_single_layer(mesh, k, quad_order, kind=slayer_kind)
        hyper = assemble_hypersingular(mesh, k, quad_order)
    gm = sym_sqrt_and_invsqrt(assemble_gram(mesh))[1]
    slayer = _gram_normalized(gm, slayer)   # rebinding frees each raw matrix
    hyper = _gram_normalized(gm, hyper)
    dlayer = (_gram_normalized(gm, assemble_double_layer(mesh, k, quad_order))
              if need_double_layer else None)
    lap_norm = gm @ assemble_laplacian(mesh) @ gm
    lap_norm = 0.5 * (lap_norm + lap_norm.T)
    modes = laplacian_modes(lap_norm)[1]
    del lap_norm
    modes.flags.writeable = False
    return Operators2D(mesh=mesh, k=k, gram_invsqrt=gm, modes=modes,
                       slayer=slayer, hyper=hyper, dlayer=dlayer,
                       quad_order=quad_order)


def _operators_for(mesh: CurveMesh, k: float, ops: Optional[Operators2D],
                   quad_order: Optional[int]) -> Operators2D:
    """The given bundle, checked against mesh, k and quad_order, or a new one.

    A ``quad_order`` of None means the bundle's order, or 8 for a new bundle.
    """
    if ops is None:
        return assemble_operators(mesh, k, 8 if quad_order is None else quad_order)
    if ops.mesh is not mesh or ops.k != k:
        raise ValueError("ops was assembled for another mesh or wavenumber")
    if quad_order is not None and quad_order != ops.quad_order:
        raise ValueError(f"quad_order {quad_order} differs from the order "
                         f"{ops.quad_order} ops was assembled at")
    return ops


def build_calderon_matrix(mesh: CurveMesh, k: float,
                          ops: Optional[Operators2D] = None,
                          quad_order: Optional[int] = None) -> np.ndarray:
    """Normalized preconditioned first-kind matrix (eigenvalues near 1/4).

    Computes (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} over the given mesh;
    pass ``ops`` (assembled on this mesh at this k) to reuse operators.
    ``quad_order`` defaults to that of ``ops`` (8 without ``ops``); an
    order that differs from it raises ``ValueError``.
    """
    ops = _operators_for(mesh, k, ops, quad_order)
    return (ops.slayer @ ops.hyper) / (1j * ops.k)


def build_compact_part(calderon: np.ndarray) -> np.ndarray:
    """Subtract the second-kind identity: C = Z - I/4."""
    out = calderon.copy()
    idx = np.arange(out.shape[0])
    out[idx, idx] -= 0.25
    return out


def normalized_double_layer(ops: Operators2D) -> np.ndarray:
    """Gram-normalized double layer G^{-1/2} D G^{-1/2} (read-only)."""
    if ops.dlayer is None:
        ops.dlayer = _gram_normalized(
            ops.gram_invsqrt, assemble_double_layer(ops.mesh, ops.k, ops.quad_order))
    return ops.dlayer


def normalized_rhs(ops: Operators2D, src: Source2D, eta: float):
    """Normalized electric and magnetic right-hand sides.

    v_e = -eta^{-1} G^{-1/2} S G^{-1} e  and  v_h = -G^{-1/2} h, where e, h
    are the Galerkin moments of the incident traces.  The real G^{-1/2}
    multiplies the real and imaginary parts of both moments in one (N, 4)
    product, so no complex copy of it is made; the normalized S then takes
    one complex matvec.
    """
    e_vec, h_vec = assemble_rhs(ops.mesh, src, ops.k, eta, ops.quad_order)
    y = ops.gram_invsqrt @ np.column_stack(
        [e_vec.real, e_vec.imag, h_vec.real, h_vec.imag])
    v_e = -(1.0 / eta) * (ops.slayer @ (y[:, 0] + 1j * y[:, 1]))
    v_h = -(y[:, 2] + 1j * y[:, 3])
    return v_e, v_h


def second_kind_split(ops: Operators2D, formulation: str, alpha: float = 0.5):
    """Split a formulation's unfiltered system into ``(beta, C)``, system beta I + C.

    * efie: beta = 1/4, C = Z - I/4 with Z from :func:`build_calderon_matrix`;
    * mfie: beta = 1/2, C = -Dn with the normalized double layer Dn;
    * cfie: beta = (1 + 2 alpha)/4, C = Z - I/4 - alpha Dn, alpha > 0.

    C is returned as a new array.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if formulation == "cfie" and alpha <= 0:
        raise ValueError("combined-field coupling alpha must be positive")
    if formulation == "mfie":
        return 0.5, -normalized_double_layer(ops)
    compact = build_compact_part(build_calderon_matrix(ops.mesh, ops.k, ops=ops))
    if formulation == "efie":
        return 0.25, compact
    compact -= alpha * normalized_double_layer(ops)
    return (1.0 + 2.0 * alpha) / 4.0, compact


@dataclass(frozen=True)
class FilteredSystem:
    """Structured system  (beta I + compact) x = rhs  with filtered compact block.

    ``compact`` is the low-pass filtered compact operator before any
    compression; beta is 1/4, 1/2 or (1 + 2 alpha)/4 depending on the
    formulation.
    """

    beta: float
    compact: np.ndarray
    rhs: np.ndarray
    formulation: str
    filter_n: int
    alpha: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        out = self.compact.copy()
        idx = np.arange(out.shape[0])
        out[idx, idx] += self.beta
        return out


def build_filtered_system(mesh: CurveMesh, k: float, eta: float, src: Source2D,
                          formulation: str, filter_n: int, alpha: float = 0.5,
                          ops: Optional[Operators2D] = None,
                          quad_order: Optional[int] = None) -> FilteredSystem:
    """Assemble one of the three filtered formulations.

    Parameters
    ----------
    formulation : {"efie", "mfie", "cfie"}
        Preconditioned first-kind, second-kind, or combined system (see
        :func:`second_kind_split`).
    filter_n : int
        Low-pass filter index (number of retained Laplacian modes).
    alpha : float
        Combined-field coupling, > 0 (combined formulation only).
    ops : Operators2D, optional
        Reuse operators previously assembled on this mesh at this k.
    quad_order : int, optional
        Defaults to that of ``ops`` (8 without ``ops``); an order that
        differs from it raises ``ValueError``.

    Returns
    -------
    FilteredSystem
    """
    formulation = formulation.lower()
    ops = _operators_for(mesh, k, ops, quad_order)
    _check_filter_index(filter_n, mesh.n_nodes)   # before the dense product
    beta, compact_raw = second_kind_split(ops, formulation, alpha)
    return _filtered_system(ops, src, eta, formulation, filter_n, alpha,
                            beta, compact_raw)


def _filtered_system(ops: Operators2D, src: Source2D, eta: float,
                     formulation: str, filter_n: int, alpha: float,
                     beta: float, compact_raw: np.ndarray) -> FilteredSystem:
    """The filtered system of an unfiltered split ``(beta, compact_raw)``.

    ``compact_raw`` is left unchanged, so a caller that formed the split
    itself can reuse it, for instance for a dense reference.
    """
    v_e, v_h = normalized_rhs(ops, src, eta)
    if formulation == "efie":
        rhs = v_e
    elif formulation == "mfie":
        rhs = v_h
    else:
        rhs = v_e + alpha * v_h
    # the projection keeps the constant (nullspace) mode: on a closed curve
    # it carries the net-loop current, whose coupling in the compact block
    # is order one, so dropping it would perturb the solution at order one
    # instead of at the band-limit tail
    w = ops.modes[:, :filter_n]
    compact = w @ (w.T @ compact_raw)
    return FilteredSystem(beta=beta, compact=compact, rhs=rhs,
                          formulation=formulation, filter_n=filter_n,
                          alpha=alpha if formulation == "cfie" else 0.0)
