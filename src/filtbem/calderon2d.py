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

from dataclasses import dataclass, field
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
from .spectral import LaplacianFilter, laplacian_filter, sym_sqrt_and_invsqrt

__all__ = [
    "Operators2D",
    "FilteredSystem",
    "assemble_operators",
    "build_calderon_matrix",
    "build_compact_part",
    "normalized_double_layer",
    "normalized_rhs",
    "build_filtered_system",
    "FORMULATIONS",
]

FORMULATIONS = ("efie", "mfie", "cfie")


@dataclass
class Operators2D:
    """Dense operator bundle over one mesh and wavenumber."""

    mesh: CurveMesh
    k: float
    gram: np.ndarray
    gram_sqrt: np.ndarray
    gram_invsqrt: np.ndarray
    laplacian: np.ndarray
    lap_norm: np.ndarray            # G^{-1/2} L G^{-1/2}
    slayer: np.ndarray
    hyper: np.ndarray
    dlayer: Optional[np.ndarray] = None
    quad_order: int = 8
    _filters: dict = field(default_factory=dict, repr=False)

    def filter(self, n: int) -> LaplacianFilter:
        """Laplacian filter at index n (cached; the eigenbasis is shared)."""
        if n not in self._filters:
            if self._filters:
                base = next(iter(self._filters.values()))
                filt = LaplacianFilter.from_basis(base.basis, n, base.tau)
            else:
                filt = laplacian_filter(self.lap_norm, n)
            self._filters[n] = filt
        return self._filters[n]


def assemble_operators(mesh: CurveMesh, k: float, quad_order: int = 8,
                       need_double_layer: bool = False,
                       slayer_kind: str = "helmholtz") -> Operators2D:
    """Assemble every dense operator a filtered system may need.

    The single-layer/hypersingular pair shares one kernel pass; the double
    layer is only assembled when requested (second-kind and combined
    formulations).
    """
    gram = assemble_gram(mesh)
    lap = assemble_laplacian(mesh)
    groot, ginvroot = sym_sqrt_and_invsqrt(gram)
    lap_norm = ginvroot @ lap @ ginvroot
    lap_norm = 0.5 * (lap_norm + lap_norm.T)
    if slayer_kind == "helmholtz":
        slayer, hyper = assemble_helmholtz_pair(mesh, k, quad_order)
    else:
        slayer = assemble_single_layer(mesh, k, quad_order, kind=slayer_kind)
        hyper = assemble_hypersingular(mesh, k, quad_order)
    dlayer = assemble_double_layer(mesh, k, quad_order) if need_double_layer else None
    return Operators2D(
        mesh=mesh, k=k, gram=gram, gram_sqrt=groot, gram_invsqrt=ginvroot,
        laplacian=lap, lap_norm=lap_norm, slayer=slayer, hyper=hyper,
        dlayer=dlayer, quad_order=quad_order,
    )


def build_calderon_matrix(mesh: CurveMesh, k: float,
                          ops: Optional[Operators2D] = None,
                          quad_order: int = 8) -> np.ndarray:
    """Normalized preconditioned first-kind matrix (eigenvalues near 1/4).

    Computes (ik)^{-1} G^{-1/2} S G^{-1} N G^{-1/2} over the given mesh;
    pass ``ops`` to reuse assembled operators.
    """
    if ops is None:
        ops = assemble_operators(mesh, k, quad_order)
    gm = ops.gram_invsqrt
    left = gm @ ops.slayer @ gm
    right = gm @ ops.hyper @ gm
    return (left @ right) / (1j * ops.k)


def build_compact_part(calderon: np.ndarray) -> np.ndarray:
    """Subtract the second-kind identity: C = Z - I/4."""
    out = calderon.copy()
    idx = np.arange(out.shape[0])
    out[idx, idx] -= 0.25
    return out


def normalized_double_layer(ops: Operators2D) -> np.ndarray:
    """Gram-normalized double layer G^{-1/2} D G^{-1/2}."""
    if ops.dlayer is None:
        ops.dlayer = assemble_double_layer(ops.mesh, ops.k, ops.quad_order)
    gm = ops.gram_invsqrt
    return gm @ ops.dlayer @ gm


def normalized_rhs(ops: Operators2D, src: Source2D, eta: float):
    """Normalized electric and magnetic right-hand sides.

    v_e = -eta^{-1} G^{-1/2} S G^{-1} e  and  v_h = -G^{-1/2} h, where e, h
    are the Galerkin moments of the incident traces.
    """
    e_vec, h_vec = assemble_rhs(ops.mesh, src, ops.k, eta, ops.quad_order)
    gm = ops.gram_invsqrt
    v_e = -(1.0 / eta) * (gm @ (ops.slayer @ (gm @ (gm @ e_vec))))
    v_h = -(gm @ h_vec)
    return v_e, v_h


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
    mfie_sign: float = -1.0

    @property
    def matrix(self) -> np.ndarray:
        out = self.compact.copy()
        idx = np.arange(out.shape[0])
        out[idx, idx] += self.beta
        return out


def _filter_with_passthrough(filt, compact_raw, null_passthrough):
    """Low-pass the compact block, optionally keeping its nullspace-mode rows.

    The projector excludes the Laplacian nullspace (the mean mode), but on
    a closed curve that mode carries the dominant net-loop current and its
    coupling in the compact block is order one; dropping it would perturb
    the solution at order one instead of at the band-limit tail.  Passing
    the nullspace rows through keeps the system exact on that mode while
    the filtering still annihilates everything above the cutoff.
    """
    out = filt.apply(compact_raw)
    if null_passthrough:
        nullv = filt.null_vectors()
        if nullv.shape[1]:
            out += nullv @ (nullv.T @ compact_raw)
    return out


def build_filtered_system(mesh: CurveMesh, k: float, eta: float, src: Source2D,
                          formulation: str, filter_n: int, alpha: float = 0.5,
                          mfie_sign: float = -1.0, null_passthrough: bool = True,
                          ops: Optional[Operators2D] = None,
                          quad_order: int = 8) -> FilteredSystem:
    """Assemble one of the three filtered formulations.

    Parameters
    ----------
    formulation : {"efie", "mfie", "cfie"}
        Preconditioned first-kind, second-kind, or combined system.
    filter_n : int
        Low-pass filter index (number of retained Laplacian modes).
    alpha : float
        Combined-field coupling, > 0 (combined formulation only).
    mfie_sign : float
        Sign convention of the normalized double layer in the second-kind
        system; -1 matches the well-posed static limit and is the default.
    null_passthrough : bool
        Keep the compact block exact on the Laplacian nullspace mode (see
        :func:`_filter_with_passthrough`); on by default.
    ops : Operators2D, optional
        Reuse previously assembled operators.

    Returns
    -------
    FilteredSystem
    """
    formulation = formulation.lower()
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if mfie_sign not in (-1.0, 1.0):
        raise ValueError("mfie_sign must be +-1")
    if formulation == "cfie" and alpha <= 0:
        raise ValueError("combined-field coupling alpha must be positive")
    need_d = formulation in ("mfie", "cfie")
    if ops is None:
        ops = assemble_operators(mesh, k, quad_order, need_double_layer=need_d)
    filt = ops.filter(filter_n)
    v_e, v_h = normalized_rhs(ops, src, eta)

    if formulation == "efie":
        compact_raw = build_compact_part(build_calderon_matrix(mesh, k, ops=ops))
        compact = _filter_with_passthrough(filt, compact_raw, null_passthrough)
        return FilteredSystem(beta=0.25, compact=compact, rhs=v_e,
                              formulation=formulation, filter_n=filter_n,
                              mfie_sign=mfie_sign)
    dn = normalized_double_layer(ops)
    if formulation == "mfie":
        compact = _filter_with_passthrough(filt, mfie_sign * dn, null_passthrough)
        return FilteredSystem(beta=0.5, compact=compact, rhs=v_h,
                              formulation=formulation, filter_n=filter_n,
                              mfie_sign=mfie_sign)
    compact_raw = build_compact_part(build_calderon_matrix(mesh, k, ops=ops))
    compact_raw += alpha * mfie_sign * dn
    beta = (1.0 + 2.0 * alpha) / 4.0
    compact = _filter_with_passthrough(filt, compact_raw, null_passthrough)
    return FilteredSystem(beta=beta, compact=compact,
                          rhs=v_e + alpha * v_h, formulation=formulation,
                          filter_n=filter_n, alpha=alpha, mfie_sign=mfie_sign)
