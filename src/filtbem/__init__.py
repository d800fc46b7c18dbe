"""Spectrally filtered boundary-element operators with fast direct solvers.

The package assembles Galerkin boundary operators for 2D scattering from
closed curves, regularizes their preconditioned second-kind combinations
with a low-pass filter built from the variational Laplacian, compresses
the filtered compact block to a low-rank skeleton, and inverts the
resulting identity-plus-low-rank system directly in linear time per
right-hand side.  A companion toolkit provides the loop/star splitting
and filtered projectors on closed triangle meshes in 3D.
"""

from .assembly2d import (ScatteringParams, assemble_double_layer,
                         assemble_gram, assemble_helmholtz_pair,
                         assemble_hypersingular, assemble_laplacian,
                         assemble_single_layer)
from .calderon2d import (FilteredSystem, Operators2D, assemble_operators,
                         build_calderon_matrix, build_compact_part,
                         build_filtered_system, normalized_double_layer,
                         normalized_rhs)
from .compression import LowRankFactor, lowrank_factor
from .excitation2d import (MagneticLineSource, PlaneWaveTE, Source2D,
                           assemble_rhs, incident_e_field, incident_fields)
from .mesh2d import (CurveMesh, Ellipse, ParametricCurve, PerturbedCircle,
                     basis_eval, build_mesh)
from .qh3d import (FilteredProjectors, Grams, IncidenceMatrices,
                   TriangleMesh, build_grams, build_incidence,
                   filtered_projectors, icosphere, octahedron,
                   orthonormalize_incidence, projectors, read_off,
                   tetrahedron, torus_mesh, write_off)
from .solver import (MemoryReport, WoodburyInverse, dense_solve,
                     memory_report, woodbury_factorize)
from .special import hankel_h1_0, hankel_h1_1
from .spectral import (LaplacianFilter, SymEigenbasis, circulant_filter_apply,
                       filtered_matrix, laplacian_filter, sym_sqrt_and_invsqrt)

__version__ = "0.1.0"

__all__ = [
    "ScatteringParams", "assemble_double_layer", "assemble_gram",
    "assemble_helmholtz_pair", "assemble_hypersingular",
    "assemble_laplacian", "assemble_single_layer",
    "FilteredSystem", "Operators2D", "assemble_operators",
    "build_calderon_matrix", "build_compact_part", "build_filtered_system",
    "normalized_double_layer", "normalized_rhs",
    "LowRankFactor", "lowrank_factor",
    "MagneticLineSource", "PlaneWaveTE", "Source2D", "assemble_rhs",
    "incident_e_field", "incident_fields",
    "CurveMesh", "Ellipse", "ParametricCurve", "PerturbedCircle",
    "basis_eval", "build_mesh",
    "FilteredProjectors", "Grams", "IncidenceMatrices", "TriangleMesh",
    "build_grams", "build_incidence", "filtered_projectors", "icosphere",
    "octahedron", "orthonormalize_incidence", "projectors", "read_off",
    "tetrahedron", "torus_mesh", "write_off",
    "MemoryReport", "WoodburyInverse", "dense_solve",
    "memory_report", "woodbury_factorize",
    "hankel_h1_0", "hankel_h1_1",
    "LaplacianFilter", "SymEigenbasis", "circulant_filter_apply",
    "filtered_matrix", "laplacian_filter", "sym_sqrt_and_invsqrt",
    "__version__",
]
