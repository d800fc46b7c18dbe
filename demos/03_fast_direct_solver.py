"""End to end: filter, compress, invert directly, compare with dense.

The filtered system is (1/4) I + low-rank, so its inverse is one small
core solve away.  This script builds it on the lobed test scatterer,
checks the solution against a dense reference, and prices the memory.

Run:  python demos/03_fast_direct_solver.py
"""

import time

import numpy as np

from filtbem import (MagneticLineSource, PerturbedCircle, assemble_operators,
                     build_calderon_matrix, build_filtered_system, build_mesh,
                     dense_solve, lowrank_factor, memory_report,
                     normalized_rhs, woodbury_factorize)

k, eta = 0.4, 1.0
src = MagneticLineSource((3.0, 0.0))
mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), 1004)
print(f"scatterer: lobed circle, {mesh.n_nodes} unknowns, k = {k} rad/m")

ops = assemble_operators(mesh, k)
system = build_filtered_system(mesh, k, eta, src, "efie", 200, ops=ops)

t0 = time.perf_counter()
skeleton = lowrank_factor(system.compact, 1e-3, seed=0)
print(f"\ncompression at 1e-3: rank {skeleton.rank} "
      f"(certified error {skeleton.achieved_error:.1e}) "
      f"in {time.perf_counter() - t0:.2f} s")

inverse = woodbury_factorize(system.beta, skeleton)
t0 = time.perf_counter()
solution = inverse.apply(system.rhs)
t_apply = time.perf_counter() - t0

t0 = time.perf_counter()
reference = dense_solve(build_calderon_matrix(mesh, k, ops=ops), system.rhs)
t_dense = time.perf_counter() - t0

rel = np.linalg.norm(solution - reference) / np.linalg.norm(reference)
print(f"solution vs dense reference: {rel:.2e} relative")
print(f"structured apply: {1e3 * t_apply:.2f} ms   "
      f"dense factor+solve: {1e3 * t_dense:.0f} ms")

report = memory_report(inverse)
print(f"\nmemory: skeleton {report.skeleton_megabytes:.2f} MB   "
      f"dense equivalent {report.dense_megabytes:.1f} MB   "
      f"({report.dense_bytes / max(report.skeleton_bytes, 1):.0f}x smaller)")

print("\nmulti-source pricing: each extra source costs its normalized "
      "right-hand side plus one apply")
t0 = time.perf_counter()
v_e, _ = normalized_rhs(ops, MagneticLineSource((0.0, 3.0)), eta)
t_rhs = time.perf_counter() - t0
t0 = time.perf_counter()
inverse.apply(v_e)
t_apply = time.perf_counter() - t0
print(f"second source: right-hand side {1e3 * t_rhs:.2f} ms + "
      f"apply {1e3 * t_apply:.2f} ms")
