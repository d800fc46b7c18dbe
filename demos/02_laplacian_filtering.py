"""Low-pass filter the compact block and watch it become compressible.

The variational Laplacian's eigenbasis orders mesh functions by
smoothness.  Projecting the compact block onto its lowest modes removes
the discretization pollution that sits at high frequencies, after which a
small number of singular values carries everything -- while a smooth
right-hand side loses (almost) nothing.

Run:  python demos/02_laplacian_filtering.py
"""

import numpy as np

from filtbem import (Ellipse, MagneticLineSource, assemble_operators,
                     build_mesh, circulant_filter_apply, filter_modes,
                     normalized_rhs, second_kind_split)

k, eta = 0.4, 1.0
mesh = build_mesh(Ellipse(1.42, 1.32), 502)
ops = assemble_operators(mesh, k)
_, cmat = second_kind_split(ops, "efie")   # the compact block C = Z - I/4

print("== filter construction ==")
modes = filter_modes(ops, 21)
w = modes.vectors
print(f"filter index 21 -> projection onto {w.shape[1]} modes "
      "(the constant mode, which carries the net-loop current, and 20 above it)")
print(f"relative eigen-gap at the cut {modes.cut_gap:.2f}: no pair is split")

print("\n== effect on the compact block ==")
filtered = w @ (w.T @ cmat)
sv_raw = np.linalg.svd(cmat, compute_uv=False)
sv_fil = np.linalg.svd(filtered, compute_uv=False)
for eps in (1e-3, 1e-5, 6e-6):
    r_raw = int((sv_raw > eps * sv_raw[0]).sum())
    r_fil = int((sv_fil > eps * sv_fil[0]).sum())
    print(f"rank at tolerance {eps:.0e}: raw {r_raw:4d}   filtered {r_fil:3d}")

print("\n== the right-hand side is band-limited ==")
v_e, _ = normalized_rhs(ops, MagneticLineSource((3.0, 0.0)), eta)
proj = np.abs(filter_modes(ops, 60).vectors.T @ v_e)
print(f"projection peak at mode {np.argmax(proj)}; "
      f"content in modes 21-59: {proj[21:].max() / proj.max():.1e} of peak")

print("\n== the nullspace-free filter by FFT on a uniform circle ==")
circle = build_mesh(Ellipse(1.0, 1.0), 1024)
circle_ops = assemble_operators(circle, k)
x = np.random.default_rng(0).standard_normal(1024)
# circulant_filter_apply reproduces laplacian_filter, which drops the
# constant mode; the pipeline above keeps it and does not use the FFT form
w = filter_modes(circle_ops, 41).vectors[:, 1:]
dense = w @ (w.T @ x)
fast = circulant_filter_apply(circle, 41, x)
print(f"modes 1-40, dense vs O(N log N) FFT: max gap {np.abs(dense - fast).max():.1e}")
