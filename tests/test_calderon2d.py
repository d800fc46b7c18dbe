import tracemalloc

import numpy as np
import pytest

from filtbem.assembly2d import (assemble_double_layer, assemble_gram,
                                assemble_helmholtz_pair, assemble_laplacian)
from filtbem.calderon2d import (assemble_operators, build_calderon_matrix,
                                build_compact_part, build_filtered_system,
                                normalized_double_layer, normalized_rhs,
                                second_kind_split)
from filtbem.excitation2d import MagneticLineSource, assemble_rhs
from filtbem.mesh2d import Ellipse, build_mesh
from filtbem.solver import dense_solve
from filtbem.spectral import laplacian_filter, sym_sqrt_and_invsqrt

K = 0.4
ETA = 1.0
SRC = MagneticLineSource((3.0, 0.0))


@pytest.fixture(scope="module")
def circle_ops():
    mesh = build_mesh(Ellipse(1.0, 1.0), 256)
    return mesh, assemble_operators(mesh, K, need_double_layer=True)


def gram_root_and_laplacian(mesh):
    """G^{1/2} and the symmetrized G^{-1/2} L G^{-1/2}."""
    root, gm = sym_sqrt_and_invsqrt(assemble_gram(mesh))
    lap_norm = gm @ assemble_laplacian(mesh) @ gm
    return root, 0.5 * (lap_norm + lap_norm.T)


class TestCalderonMatrix:
    def test_eigenvalue_clustering(self, circle_ops):
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        vals = np.linalg.eigvals(zmat)
        assert np.mean(np.abs(vals - 0.25) <= 0.1) >= 0.8

    def test_quadrature_consistency(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        z8 = build_calderon_matrix(mesh, K, quad_order=8)
        z16 = build_calderon_matrix(mesh, K, quad_order=16)
        assert np.abs(z16 - z8).max() / np.abs(z8).max() <= 1e-8
        assert np.array_equal(build_calderon_matrix(mesh, K), z8)

    def test_quad_order_follows_the_bundle(self):
        # an explicit order must match the one ops was assembled at
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        ops = assemble_operators(mesh, K, quad_order=12)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        assert np.array_equal(build_calderon_matrix(mesh, K, ops=ops,
                                                    quad_order=12), zmat)
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        assert system.compact.shape == zmat.shape
        with pytest.raises(ValueError, match="quad_order"):
            build_calderon_matrix(mesh, K, ops=ops, quad_order=8)
        with pytest.raises(ValueError, match="quad_order"):
            build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops,
                                  quad_order=8)

    def test_rotation_invariance_on_circle(self, circle_ops):
        # uniform circle assembly is shift-equivariant: entries equal after
        # index rotation
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        rolled = np.roll(zmat, (1, 1), axis=(0, 1))
        assert np.abs(zmat - rolled).max() <= 1e-10 * np.abs(zmat).max()


class TestOperatorBundle:
    def test_operators_stored_gram_normalized_and_read_only(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        ops = assemble_operators(mesh, K)
        gm = ops.gram_invsqrt
        slayer, hyper = assemble_helmholtz_pair(mesh, K)
        dlayer = assemble_double_layer(mesh, K)
        assert ops.dlayer is None
        dn = normalized_double_layer(ops)
        assert normalized_double_layer(ops) is dn is ops.dlayer
        for stored, raw in ((ops.slayer, slayer), (ops.hyper, hyper), (dn, dlayer)):
            assert not stored.flags.writeable
            assert np.array_equal(stored, gm @ raw @ gm)

    def test_modes_are_read_only_orthonormal_and_ascending(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        ops = assemble_operators(mesh, K)
        root, lap_norm = gram_root_and_laplacian(mesh)
        w = ops.modes
        assert not w.flags.writeable
        assert np.abs(w.T @ w - np.eye(96)).max() <= 1e-12
        rayleigh = np.einsum("ij,ij->j", w, lap_norm @ w)
        assert np.all(np.diff(rayleigh) >= -1e-12 * rayleigh.max())
        u = root @ np.ones(96)       # the constant mode, Gram-normalized
        assert abs(u @ w[:, 0]) == pytest.approx(np.linalg.norm(u), rel=1e-12)

    @pytest.mark.parametrize("need_double_layer", [False, True])
    def test_assembly_peak_memory(self, need_double_layer):
        # the kernel pass runs before the Gram root and the Laplacian
        # eigenbasis exist, so fewer N x N arrays are live at the peak
        mesh = build_mesh(Ellipse(1.0, 1.0), 256)
        n = mesh.n_nodes
        tracemalloc.start()
        try:
            assemble_operators(mesh, K, need_double_layer=need_double_layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 16 * n * n

    def test_rhs_matches_unnormalized_formula(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        ops = assemble_operators(mesh, K)
        gm = ops.gram_invsqrt
        slayer, _ = assemble_helmholtz_pair(mesh, K)
        e_vec, h_vec = assemble_rhs(mesh, SRC, K, ETA)
        v_e, v_h = normalized_rhs(ops, SRC, ETA)
        ref = -(1.0 / ETA) * (gm @ (slayer @ (gm @ (gm @ e_vec))))
        assert np.abs(v_e - ref).max() <= 1e-13 * np.abs(ref).max()
        ref_h = -(gm @ h_vec)
        assert np.abs(v_h - ref_h).max() <= 1e-14 * np.abs(ref_h).max()

    def test_rhs_allocates_no_dense_temporary(self, circle_ops):
        # G^{-1/2} is real: promoting it to complex would allocate 16 N^2 bytes
        mesh, ops = circle_ops
        n = mesh.n_nodes
        normalized_rhs(ops, SRC, ETA)
        tracemalloc.start()
        try:
            normalized_rhs(ops, SRC, ETA)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_mismatched_bundle_rejected(self, circle_ops):
        mesh, ops = circle_ops
        other = build_mesh(Ellipse(1.0, 1.0), mesh.n_nodes)
        with pytest.raises(ValueError):
            build_calderon_matrix(mesh, 2.0, ops=ops)
        with pytest.raises(ValueError):
            build_calderon_matrix(other, K, ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(mesh, 2.0, ETA, SRC, "efie", 21, ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(other, K, ETA, SRC, "efie", 21, ops=ops)

    def test_second_kind_split(self, circle_ops):
        mesh, ops = circle_ops
        eye = np.eye(mesh.n_nodes)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        dn = normalized_double_layer(ops)
        beta, compact = second_kind_split(ops, "efie")
        assert beta == 0.25
        assert np.array_equal(compact, build_compact_part(zmat))
        beta, compact = second_kind_split(ops, "mfie")
        assert beta == 0.5
        assert np.array_equal(compact, -dn)
        beta, compact = second_kind_split(ops, "cfie", alpha=0.3)
        assert beta == pytest.approx(0.4)
        expected = zmat + 0.3 * (0.5 * eye - dn)
        assert np.abs(compact + beta * eye - expected).max() <= 1e-14
        with pytest.raises(ValueError):
            second_kind_split(ops, "EFIE")
        with pytest.raises(ValueError):
            second_kind_split(ops, "cfie", alpha=0.0)


class TestCompactPart:
    def test_identity_shift(self):
        zmat = 0.25 * np.eye(5, dtype=complex)
        assert np.abs(build_compact_part(zmat)).max() == 0.0

    def test_diagonal_difference_is_exact_quarter(self, circle_ops):
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        cmat = build_compact_part(zmat)
        assert np.allclose(np.diag(zmat) - np.diag(cmat), 0.25)

    def test_filtered_compact_is_low_rank(self, circle_ops):
        # singular values of the filtered block drop below 6e-6 * max well
        # before rank 40
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        cmat = build_compact_part(zmat)
        w = ops.modes[:, 1:21]      # filter index 21 without the constant mode
        filtered = w @ (w.T @ cmat)
        sv = np.linalg.svd(filtered, compute_uv=False)
        rank_at_tol = int(np.sum(sv > 6e-6 * sv[0]))
        assert rank_at_tol <= 40
        assert np.linalg.norm(filtered, 2) <= np.linalg.norm(cmat, 2)


class TestFilteredSystem:
    def test_cfie_beta(self, circle_ops):
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "cfie", 21,
                                       alpha=0.5, ops=ops)
        assert system.beta == pytest.approx(0.5)
        system = build_filtered_system(mesh, K, ETA, SRC, "cfie", 21,
                                       alpha=0.25, ops=ops)
        assert system.beta == pytest.approx(0.375)

    def test_efie_beta_is_quarter(self, circle_ops):
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        assert system.beta == 0.25

    def test_full_filter_reproduces_dense_solution(self, circle_ops):
        # n = N: solution equals the unfiltered one up to (and here
        # including) the constant-mode component
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "efie",
                                       mesh.n_nodes, ops=ops)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        x_dense = dense_solve(zmat, system.rhs)
        x_filt = np.linalg.solve(system.matrix, system.rhs)
        w = ops.modes[:, 1:]        # every mode but the constant one
        proj = w @ w.T
        num = np.linalg.norm(proj @ (x_filt - x_dense))
        assert num / np.linalg.norm(proj @ x_dense) <= 1e-8

    def test_filtered_efie_tracks_dense_solution(self, circle_ops):
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 64, ops=ops)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        x_dense = dense_solve(zmat, system.rhs)
        x_filt = np.linalg.solve(system.matrix, system.rhs)
        assert (np.linalg.norm(x_filt - x_dense)
                / np.linalg.norm(x_dense)) <= 1e-5

    def test_filtered_mfie_tracks_unfiltered(self, circle_ops):
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "mfie", 64, ops=ops)
        assert system.beta == 0.5
        unfiltered = 0.5 * np.eye(mesh.n_nodes) - normalized_double_layer(ops)
        x_ref = dense_solve(unfiltered, system.rhs)
        x_filt = np.linalg.solve(system.matrix, system.rhs)
        assert (np.linalg.norm(x_filt - x_ref)
                / np.linalg.norm(x_ref)) <= 1e-3

    def test_efie_and_mfie_solutions_proportional(self, circle_ops):
        # under the literal system definitions the two formulations carry
        # the same current scaled by -ik; the clean proportionality jointly
        # validates every kernel sign and normalization
        mesh, ops = circle_ops
        efie = build_filtered_system(mesh, K, ETA, SRC, "efie",
                                     mesh.n_nodes, ops=ops)
        mfie = build_filtered_system(mesh, K, ETA, SRC, "mfie",
                                     mesh.n_nodes, ops=ops)
        x_e = np.linalg.solve(efie.matrix, efie.rhs)
        x_m = np.linalg.solve(mfie.matrix, mfie.rhs)
        assert (np.linalg.norm(x_m - (-1j * K) * x_e)
                / np.linalg.norm(x_m)) <= 5e-2

    def test_yukawa_preconditioning_pipeline(self):
        # imaginary-wavenumber preconditioning kernel: still second kind,
        # and the filtered solve still tracks its dense reference
        from filtbem.compression import lowrank_factor
        from filtbem.solver import woodbury_factorize

        mesh = build_mesh(Ellipse(1.0, 1.0), 96)
        ops = assemble_operators(mesh, K, slayer_kind="yukawa")
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        skel = lowrank_factor(system.compact, 1e-4, seed=0)
        x = woodbury_factorize(system.beta, skel).apply(system.rhs)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        x_ref = dense_solve(zmat, system.rhs)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-4
        vals = np.linalg.eigvals(zmat)
        assert np.mean(np.abs(vals - 0.25) <= 0.1) >= 0.8

    @pytest.mark.parametrize("formulation", ["efie", "cfie"])
    def test_projection_matches_filter_plus_constant_mode(self, circle_ops,
                                                          formulation):
        # one projection onto the first filter_n modes equals the
        # nullspace-free Laplacian filter plus the constant mode passed
        # through; eigh resolves the constant mode to about
        # eps ||L|| / gap (4e-13 here), which bounds the gap to this oracle
        mesh, ops = circle_ops
        root, lap_norm = gram_root_and_laplacian(mesh)
        u = root @ np.ones(mesh.n_nodes)
        u /= np.linalg.norm(u)
        _, compact_raw = second_kind_split(ops, formulation)
        for filter_n in (1, 21, mesh.n_nodes):
            system = build_filtered_system(mesh, K, ETA, SRC, formulation,
                                           filter_n, ops=ops)
            expected = (laplacian_filter(lap_norm, filter_n).apply(compact_raw)
                        + np.outer(u, u @ compact_raw))
            assert (np.abs(system.compact - expected).max()
                    <= 1e-12 * np.abs(compact_raw).max())

    def test_validation(self, circle_ops):
        mesh, ops = circle_ops
        with pytest.raises(ValueError):
            build_filtered_system(mesh, K, ETA, SRC, "bad", 21, ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(mesh, K, ETA, SRC, "cfie", 21, alpha=-1.0,
                                  ops=ops)
        for filter_n in (0, mesh.n_nodes + 1):
            with pytest.raises(ValueError):
                build_filtered_system(mesh, K, ETA, SRC, "efie", filter_n,
                                      ops=ops)

    def test_spectral_deviation_profile(self, circle_ops):
        # raw compact block grows toward high modes; filtered one is dead
        # above the cutoff
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        cmat = build_compact_part(zmat)
        modes = ops.modes
        raw_rows = np.linalg.norm(modes.T @ cmat @ modes, axis=1)
        assert raw_rows[-26:].max() > np.median(raw_rows[:200])
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        filt_rows = np.linalg.norm(modes.T @ system.compact @ modes, axis=1)
        assert filt_rows[21:].max() <= 1e-12 * filt_rows.max()


class TestConditioning:
    def test_filtered_system_condition_stable_under_refinement(self):
        conds = []
        for n in (128, 256, 512):
            mesh = build_mesh(Ellipse(1.42, 1.32), n)
            system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21)
            conds.append(np.linalg.cond(system.matrix))
        assert conds[2] <= 1.10 * conds[0]
        assert conds[1] <= 1.10 * conds[0]
