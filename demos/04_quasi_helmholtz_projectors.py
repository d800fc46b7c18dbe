"""Loop/star splitting and filtered projectors on triangle meshes.

Edge-function coefficients on a closed surface split into non-solenoidal
(star), solenoidal (loop) and harmonic parts; the harmonic dimension
counts handles.  The filtered variants keep only the lowest modes of the
two graph Laplacians (the same rule as the 2D Laplacian filter).

Run:  python demos/04_quasi_helmholtz_projectors.py
"""

import numpy as np

from filtbem import (build_grams, build_incidence, filtered_projectors,
                     icosphere, orthonormalize_incidence, projectors,
                     torus_mesh)

for name, mesh in [("icosphere", icosphere(2)), ("torus", torus_mesh(12, 8))]:
    print(f"== {name}: V={mesh.n_vertices} E={mesh.n_edges} "
          f"F={mesh.n_triangles} genus={mesh.genus} ==")
    inc = build_incidence(mesh)
    print(f"loop^T star is exactly zero: {np.abs(inc.loop.T @ inc.star).max() == 0}")

    p_star, p_loop, p_harm = projectors(inc)
    ident = np.abs(p_star + p_loop + p_harm - np.eye(mesh.n_edges)).max()
    print(f"star + loop + harmonic = identity to {ident:.1e}")
    print(f"harmonic rank: {round(np.trace(p_harm))} (= 2 * genus)")

    grams = build_grams(mesh)
    tilde = orthonormalize_incidence(inc, grams)
    print("Gram-weighted maps stay orthogonal: "
          f"{np.abs(tilde.loop.T @ tilde.star).max():.1e}")

    fp = filtered_projectors(inc, n_star=mesh.n_triangles // 2,
                             n_loop=mesh.n_vertices // 2)
    ps = fp.primal_star
    print(f"half-index filtered star projector: rank {round(np.trace(ps))}, "
          f"idempotency defect {np.abs(ps @ ps - ps).max():.1e}")
    full = filtered_projectors(inc, mesh.n_triangles, mesh.n_vertices)
    print("full-index reduction to the unfiltered family: "
          f"{np.abs(full.primal_star - p_star).max():.1e}\n")
