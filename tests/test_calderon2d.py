import numpy as np
import pytest

from filtbem.calderon2d import (assemble_operators, build_calderon_matrix,
                                build_compact_part, build_filtered_system,
                                normalized_double_layer)
from filtbem.excitation2d import MagneticLineSource
from filtbem.mesh2d import Ellipse, build_mesh
from filtbem.solver import dense_solve
from filtbem.spectral import laplacian_filter

K = 0.4
ETA = 1.0
SRC = MagneticLineSource((3.0, 0.0))


@pytest.fixture(scope="module")
def circle_ops():
    mesh = build_mesh(Ellipse(1.0, 1.0), 256)
    return mesh, assemble_operators(mesh, K, need_double_layer=True)


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

    def test_rotation_invariance_on_circle(self, circle_ops):
        # uniform circle assembly is shift-equivariant: entries equal after
        # index rotation
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        rolled = np.roll(zmat, (1, 1), axis=(0, 1))
        assert np.abs(zmat - rolled).max() <= 1e-10 * np.abs(zmat).max()


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
        filt = ops.filter(21)
        sv = np.linalg.svd(filt.apply(cmat), compute_uv=False)
        rank_at_tol = int(np.sum(sv > 6e-6 * sv[0]))
        assert rank_at_tol <= 40
        assert np.linalg.norm(filt.apply(cmat), 2) <= np.linalg.norm(cmat, 2)


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
        filt = ops.filter(mesh.n_nodes)
        proj = filt.matrix()
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

    def test_validation(self, circle_ops):
        mesh, ops = circle_ops
        with pytest.raises(ValueError):
            build_filtered_system(mesh, K, ETA, SRC, "bad", 21, ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(mesh, K, ETA, SRC, "cfie", 21, alpha=-1.0,
                                  ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(mesh, K, ETA, SRC, "efie", 0, ops=ops)

    def test_spectral_deviation_profile(self, circle_ops):
        # raw compact block grows toward high modes; filtered one is dead
        # above the cutoff
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        cmat = build_compact_part(zmat)
        filt = ops.filter(21)
        _, modes = filt.modes_ascending()
        raw_rows = np.linalg.norm(modes.T @ cmat @ modes, axis=1)
        assert raw_rows[-26:].max() > np.median(raw_rows[:200])
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        filt_rows = np.linalg.norm(modes.T @ system.compact @ modes, axis=1)
        assert filt_rows[21:].max() <= 1e-12 * filt_rows.max()


def test_cached_basis_filter_matches_fresh_filter():
    # the second index reuses the eigenbasis computed for the first
    mesh = build_mesh(Ellipse(1.42, 1.32), 256)
    ops = assemble_operators(mesh, K)
    first = ops.filter(21)
    second = ops.filter(200)
    assert second.basis is first.basis
    fresh = laplacian_filter(ops.lap_norm, 200)
    assert second.n == 200
    assert second.tau == fresh.tau
    assert np.array_equal(second.active, fresh.active)
    assert np.abs(second.matrix() - fresh.matrix()).max() <= 1e-14
    with pytest.raises(ValueError):
        ops.filter(257)


class TestConditioning:
    def test_filtered_system_condition_stable_under_refinement(self):
        conds = []
        for n in (128, 256, 512):
            mesh = build_mesh(Ellipse(1.42, 1.32), n)
            system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21)
            conds.append(np.linalg.cond(system.matrix))
        assert conds[2] <= 1.10 * conds[0]
        assert conds[1] <= 1.10 * conds[0]
