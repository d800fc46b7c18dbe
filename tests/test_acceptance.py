"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them
inline).  The heavy pipeline criteria run the same code paths as the
command-line driver."""

import gc
import time

import numpy as np
import scipy.linalg
import scipy.special

from filtbem.assembly2d import (assemble_gram, assemble_helmholtz_pair,
                                assemble_laplacian)
from filtbem.cli import resolve_config, run_refinement, run_spectra, run_table
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh
from filtbem.qh3d import (build_incidence, filtered_projectors, icosphere,
                          octahedron, projectors, tetrahedron, torus_mesh)
from filtbem.solver import woodbury_factorize
from filtbem.special import EULER_GAMMA, hankel_h1_0
from filtbem.spectral import (circulant_filter_apply, laplacian_filter,
                              sym_sqrt_and_invsqrt)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_1_woodbury_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 101))
        r = int(rng.integers(0, min(21, n)))
        beta = float(rng.uniform(0.25, 1.0))
        u = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(n)
        v = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(n)
        inv = woodbury_factorize(beta, (u, v))
        full = beta * np.eye(n) + u @ v.T
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x_ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(full), b)
        err = np.linalg.norm(inv.apply(b) - x_ref) / np.linalg.norm(x_ref)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-11
    assert elapsed < 10.0
    report(1, f"max rel err {worst:.2e} over 200 draws, {elapsed:.1f}s")


def test_criterion_2_calderon_clustering():
    start = time.perf_counter()
    from filtbem.calderon2d import build_calderon_matrix

    fractions = []
    for n in (128, 256):
        mesh = build_mesh(Ellipse(1.0, 1.0), n)
        zmat = build_calderon_matrix(mesh, 0.4)
        vals = np.linalg.eigvals(zmat)
        fractions.append(float(np.mean(np.abs(vals - 0.25) <= 0.1)))
    elapsed = time.perf_counter() - start
    assert fractions[0] >= 0.8
    assert fractions[1] >= fractions[0]
    assert elapsed < 60.0
    report(2, f"clustering fractions {fractions[0]:.3f} -> {fractions[1]:.3f}, "
              f"{elapsed:.0f}s")


def test_criterion_3_memory_accuracy_table(tmp_path):
    start = time.perf_counter()
    cfg = resolve_config("table", {}, {
        "sizes": "1004,2008,4016", "max_n": 4016, "out": str(tmp_path / "table"),
        "seed": 0,
    })
    assert cfg.geometry == "perturbed_circle"
    assert cfg.epsilon == 1e-3 and cfg.filter_n == 200
    rows = run_table(cfg)
    gc.collect()
    elapsed = time.perf_counter() - start

    expected_mb = {1004: 16.0, 2008: 64.0, 4016: 258.0}
    skeleton = {}
    for n, rel_error, dense_bytes, skeleton_bytes, rank, status in rows:
        assert status == "ok"
        assert rel_error <= 1.0e-3
        assert abs(dense_bytes / 1e6 - expected_mb[n]) <= 0.02 * expected_mb[n]
        skeleton[n] = skeleton_bytes
    ratio = skeleton[4016] / skeleton[2008]
    assert 1.7 <= ratio <= 2.3
    assert elapsed < 1800.0
    report(3, "rel errors " + ", ".join(f"{r[1]:.2e}" for r in rows)
              + f"; skeleton growth 2008->4016 = {ratio:.2f}; {elapsed:.0f}s")


def test_criterion_4_rank_saturation_and_error_decrease(tmp_path):
    start = time.perf_counter()
    cfg = resolve_config("refine", {}, {
        "out": str(tmp_path / "refine"), "seed": 0,
    })
    assert cfg.epsilon == 6e-6 and cfg.filter_n == 21
    assert cfg.geometry == "ellipse" and (cfg.a, cfg.b) == (1.42, 1.32)
    rows = run_refinement(cfg)
    gc.collect()
    elapsed = time.perf_counter() - start

    assert len(rows) == 4 and all(r[-1] == "ok" for r in rows)
    ranks = [r[3] for r in rows]
    errors = [r[2] for r in rows]
    assert abs(ranks[-1] - ranks[-2]) <= 2
    assert errors[-3] >= errors[-2] >= errors[-1]
    assert elapsed < 900.0
    report(4, f"ranks {ranks}, errors " + ", ".join(f"{e:.2e}" for e in errors)
              + f"; {elapsed:.0f}s")


def test_criterion_5_spectra_properties(tmp_path):
    start = time.perf_counter()
    cfg = resolve_config("spectra", {}, {
        "n": 1004, "out": str(tmp_path / "spectra"), "seed": 0,
    })
    assert cfg.filter_n == 200 and cfg.geometry == "ellipse"
    rows = run_spectra(cfg)
    gc.collect()
    elapsed = time.perf_counter() - start

    proj_raw = np.array([r[1] for r in rows])
    proj_filtered = np.array([r[2] for r in rows])
    proj_rhs = np.array([r[4] for r in rows])
    cut = cfg.filter_n
    assert proj_filtered[cut:].max() <= 1e-12 * proj_filtered.max()
    assert proj_raw[-len(proj_raw) // 10:].max() > np.median(proj_raw[:200])
    assert proj_rhs[cut:].max() <= 1e-6 * proj_rhs.max()
    assert elapsed < 300.0
    report(5, f"filtered tail {proj_filtered[cut:].max() / proj_filtered.max():.1e}, "
              f"rhs tail {proj_rhs[cut:].max() / proj_rhs.max():.1e}; {elapsed:.0f}s")


def test_criterion_6_laplacian_filter_suite():
    worst_proj = 0.0
    for curve, n_nodes in ((Ellipse(1.42, 1.32), 128),
                           (PerturbedCircle(2.0, 0.2, 8), 96)):
        mesh = build_mesh(curve, n_nodes)
        gram = assemble_gram(mesh)
        lap = assemble_laplacian(mesh)
        _, gm = sym_sqrt_and_invsqrt(gram)
        lap_norm = gm @ lap @ gm
        lap_norm = 0.5 * (lap_norm + lap_norm.T)
        for n in (1, 13, 64, n_nodes):
            filt = laplacian_filter(lap_norm, n)
            proj = filt.matrix()
            worst_proj = max(worst_proj,
                             np.abs(proj @ proj - proj).max(),
                             np.abs(proj - proj.T).max())
            assert filt.rank == n - 1
    circle = build_mesh(Ellipse(1.0, 1.0), 256)
    gram = assemble_gram(circle)
    lap = assemble_laplacian(circle)
    _, gm = sym_sqrt_and_invsqrt(gram)
    lap_norm = gm @ lap @ gm
    lap_norm = 0.5 * (lap_norm + lap_norm.T)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256)
    fft_gap = 0.0
    for n in (21, 101, 256):
        dense = laplacian_filter(lap_norm, n).apply(x)
        fast = circulant_filter_apply(circle, n, x)
        fft_gap = max(fft_gap, np.abs(fast - dense).max())
    assert worst_proj <= 1e-10
    assert fft_gap <= 1e-10
    report(6, f"projector defect {worst_proj:.1e}, FFT-vs-dense gap {fft_gap:.1e}")


def test_criterion_7_quasi_helmholtz_suite():
    start = time.perf_counter()
    cases = [(tetrahedron(), 0), (octahedron(), 0), (icosphere(2), 0),
             (torus_mesh(12, 8), 2)]
    worst_ident = 0.0
    worst_reduction = 0.0
    for mesh, harmonic_rank in cases:
        inc = build_incidence(mesh)
        assert np.abs(inc.loop.T @ inc.star).max() == 0  # exact integers
        p_star, p_loop, p_harm = projectors(inc)
        worst_ident = max(worst_ident, np.abs(
            p_star + p_loop + p_harm - np.eye(mesh.n_edges)).max())
        assert round(np.trace(p_harm)) == harmonic_rank
        fp = filtered_projectors(inc, mesh.n_triangles, mesh.n_vertices)
        worst_reduction = max(
            worst_reduction,
            np.abs(fp.primal_star - p_star).max(),
            np.abs(fp.primal_loop_harmonic - (p_loop + p_harm)).max(),
            np.abs(fp.dual_loop - p_loop).max(),
            np.abs(fp.dual_star_harmonic - (p_star + p_harm)).max())
    elapsed = time.perf_counter() - start
    assert worst_ident <= 1e-10
    assert worst_reduction <= 1e-10
    assert elapsed < 60.0
    report(7, f"identity defect {worst_ident:.1e}, full-index reduction "
              f"{worst_reduction:.1e}, {elapsed:.0f}s")


def test_criterion_8_assembly_oracles():
    # single-layer circle symbols
    mesh = build_mesh(Ellipse(1.0, 1.0), 256)
    k = 0.4
    slayer, _ = assemble_helmholtz_pair(mesh, k)
    gram = assemble_gram(mesh)
    worst_symbol = 0.0
    for m in range(7):
        v = np.exp(1j * m * mesh.node_params)
        disc = (v.conj() @ (slayer @ v)) / (v.conj() @ (gram @ v))
        sym = 0.5j * np.pi * scipy.special.jv(m, k) * scipy.special.hankel1(m, k)
        worst_symbol = max(worst_symbol, abs(disc - sym) / abs(sym))
    assert worst_symbol <= 1e-3

    # Hankel values against the ascending-series oracle
    def series_h0(x, terms=40):
        w = (0.5 * x) ** 2
        j0 = ysum = harm = 0.0
        fact = 1.0
        for m in range(terms):
            if m:
                fact *= m
                harm += 1.0 / m
            term = (-w) ** m / (fact * fact)
            j0 += term
            ysum -= harm * term
        return j0 + 1j * (2 / np.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * j0 + ysum)

    worst_hankel = max(
        abs(hankel_h1_0(x) - series_h0(x)) / abs(series_h0(x))
        for x in (0.25, 0.5, 1.0, 2.0, 4.0))
    assert worst_hankel <= 1e-12

    # analytic stencils
    circle = build_mesh(Ellipse(1.0, 1.0), 64)
    h = circle.segment_lengths[0]
    gram_c = assemble_gram(circle)
    lap_c = assemble_laplacian(circle)
    worst_stencil = max(
        np.abs(np.diag(gram_c) - 2 * h / 3).max() / h,
        abs(gram_c[10, 11] - h / 6) / h,
        np.abs(np.diag(lap_c) - 2 / h).max() * h,
        abs(lap_c[10, 11] + 1 / h) * h)
    assert worst_stencil <= 1e-13
    report(8, f"symbol err {worst_symbol:.1e}, hankel err {worst_hankel:.1e}, "
              f"stencil err {worst_stencil:.1e}")


def test_criterion_9_linear_time_application():
    rng = np.random.default_rng(7)
    rank = 60
    # evict the skeleton factors between repetitions so every size is
    # measured in the same streaming regime (small sizes otherwise sit in
    # cache and make the apparent scaling superlinear)
    evict = np.zeros(6_000_000)
    times = {}
    for n in (1004, 2008, 4016):
        u = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
        v = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
        inv = woodbury_factorize(0.25, (u / np.sqrt(n), v / np.sqrt(n)))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        inv.apply(b)  # warm up
        best = np.inf
        for _ in range(60):
            evict.sum()
            t0 = time.perf_counter()
            inv.apply(b)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    scale_ok = (times[4016] <= 1.3 * 4.0 * times[1004]
                and times[2008] <= 1.3 * 2.0 * times[1004])
    assert scale_ok

    n = 4016
    mat = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           + 10 * np.sqrt(n) * np.eye(n))
    lu = scipy.linalg.lu_factor(mat)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scipy.linalg.lu_solve(lu, b)  # warm up
    t_dense = min(
        (lambda t0: (scipy.linalg.lu_solve(lu, b), time.perf_counter() - t0)[1])(
            time.perf_counter())
        for _ in range(30))
    speedup = t_dense / times[4016]
    assert speedup >= 10.0
    report(9, f"apply times us {1e6 * times[1004]:.0f}/{1e6 * times[2008]:.0f}/"
              f"{1e6 * times[4016]:.0f}, dense-solve speedup {speedup:.0f}x")
