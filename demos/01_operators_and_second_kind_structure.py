"""Assemble the 2D boundary operators and see the second-kind structure.

Walk-through: build a discretized ellipse, assemble the single-layer,
hypersingular and Gram matrices, form the normalized preconditioned system
and watch its eigenvalues pile up at 1/4 -- the property everything else
in this package exploits.

Run:  python demos/01_operators_and_second_kind_structure.py
"""

import numpy as np

from filtbem import (Ellipse, assemble_gram, assemble_helmholtz_pair,
                     build_calderon_matrix, build_mesh)

k = 0.4  # rad/m

print("== mesh ==")
mesh = build_mesh(Ellipse(1.42, 1.32), 256)
print(f"nodes: {mesh.n_nodes}, mean segment length h = {mesh.h:.4f} m, "
      f"perimeter = {mesh.perimeter:.4f} m")

print("\n== operators ==")
slayer, hyper = assemble_helmholtz_pair(mesh, k)
gram = assemble_gram(mesh)
print(f"single layer: symmetric to "
      f"{np.abs(slayer - slayer.T).max() / np.abs(slayer).max():.1e}")
print(f"hypersingular: symmetric to "
      f"{np.abs(hyper - hyper.T).max() / np.abs(hyper).max():.1e}")
print(f"Gram condition number: {np.linalg.cond(gram):.2f}")

print("\n== normalized preconditioned system ==")
zmat = build_calderon_matrix(mesh, k)
vals = np.linalg.eigvals(zmat)
frac = np.mean(np.abs(vals - 0.25) <= 0.1)
print(f"eigenvalues within 0.1 of 1/4: {100 * frac:.1f}%")
print(f"median |eigenvalue - 1/4|: {np.median(np.abs(vals - 0.25)):.2e}")

cmat = zmat - 0.25 * np.eye(mesh.n_nodes)   # the compact block C = Z - I/4
sv = np.linalg.svd(cmat, compute_uv=False)
print(f"\ncompact block: ||C||_2 = {sv[0]:.3f}; singular values decay to "
      f"{sv[-1] / sv[0]:.1e} of the top -- but slowly: rank at 1e-3 is "
      f"{int((sv > 1e-3 * sv[0]).sum())} of {mesh.n_nodes}")
print("(the raw compact block is polluted at high frequencies; "
      "demo 02 shows how filtering fixes that)")
