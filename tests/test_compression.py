import numpy as np
import pytest

from filtbem.compression import (LowRankFactor, _orthonormalize_against,
                                 lowrank_factor)


def spectral_norm(mat):
    return np.linalg.norm(mat, 2)


class TestLowRankFactor:
    def test_zero_matrix(self):
        skel = lowrank_factor(np.zeros((20, 20)), 1e-3)
        assert skel.rank == 0
        assert skel.achieved_error == 0.0
        assert skel.left.shape == (20, 0)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        mat = np.outer(a, b)
        skel = lowrank_factor(mat, 1e-10, seed=2)
        assert skel.rank == 1
        assert spectral_norm(mat - skel.reconstruct()) <= 1e-12 * spectral_norm(mat)

    def test_geometric_diagonal_matches_svd_oracle(self):
        mat = np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8]).astype(complex)
        skel = lowrank_factor(mat, 1e-3, seed=1)
        assert skel.rank == 2  # keeps 1 and 1e-2, like exact SVD truncation
        assert spectral_norm(mat - skel.reconstruct()) <= 1e-3

    def test_certified_error_bound_holds(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((80, 25)) + 1j * rng.standard_normal((80, 25))
        c = rng.standard_normal((25, 80)) + 1j * rng.standard_normal((25, 80))
        mat = b @ np.diag(np.logspace(0, -8, 25)) @ c
        for eps in (1e-2, 1e-4, 1e-6):
            skel = lowrank_factor(mat, eps, seed=4)
            assert skel.converged
            assert skel.achieved_error <= eps
            true = spectral_norm(mat - skel.reconstruct()) / spectral_norm(mat)
            assert true <= eps

    def test_near_minimal_rank(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((60, 30))
        c = rng.standard_normal((30, 60))
        mat = (b @ np.diag(np.logspace(0, -9, 30)) @ c).astype(complex)
        sv = np.linalg.svd(mat, compute_uv=False)
        for eps in (1e-3, 1e-5, 1e-7):
            optimal = int(np.sum(sv > eps * sv[0]))
            skel = lowrank_factor(mat, eps, seed=6)
            assert optimal <= skel.rank <= optimal + 10

    def test_monotone_rank_in_epsilon(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((70, 35)) + 1j * rng.standard_normal((70, 35))
        c = rng.standard_normal((35, 70)) + 1j * rng.standard_normal((35, 70))
        mat = b @ np.diag(np.logspace(0, -7, 35)) @ c
        ranks = [lowrank_factor(mat, eps, seed=8).rank
                 for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))

    def test_seeded_determinism_is_bitwise(self):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        mat = mat @ np.diag(np.logspace(0, -6, 50))
        s1 = lowrank_factor(mat, 1e-4, seed=123)
        s2 = lowrank_factor(mat, 1e-4, seed=123)
        assert np.array_equal(s1.left, s2.left)
        assert np.array_equal(s1.right, s2.right)
        assert s1.achieved_error == s2.achieved_error

    def test_full_rank_fallback_flag(self):
        # a well-conditioned unitary-like matrix has no low-rank structure:
        # the factorization must run to full rank and stay honest about it
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((24, 24))
                            + 1j * rng.standard_normal((24, 24)))
        skel = lowrank_factor(q, 1e-6, seed=12)
        assert skel.rank == 24
        assert skel.converged  # full rank reproduces the matrix exactly
        assert spectral_norm(q - skel.reconstruct()) <= 1e-10

    def test_unconverged_factor_warns(self):
        # below rounding the tolerance is unreachable even at full rank
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((24, 24))
        with pytest.warns(RuntimeWarning, match="not converged"):
            skel = lowrank_factor(mat, 1e-17)
        assert skel.rank == 24
        assert not skel.converged

    def test_new_columns_keep_the_basis_orthonormal(self):
        # a block mostly inside span(q) plus two new directions and noise
        # just above the acceptance cut: the QR normalizes that noise, and
        # its rounding inside span(q) must not survive into the new columns
        rng = np.random.default_rng(0)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        basis = np.linalg.qr(gaussian(200, 52))[0]
        q, u = basis[:, :50], basis[:, 50:]
        block = q @ gaussian(50, 8) + u @ gaussian(2, 8) + 1e-11 * gaussian(200, 8)
        full = np.hstack([q, _orthonormalize_against(q, block)])
        gram = full.conj().T @ full
        assert full.shape[1] >= 52  # the two new directions are kept
        assert np.abs(gram - np.eye(full.shape[1])).max() <= 1e-12

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            lowrank_factor(np.eye(4), 0.0)
        with pytest.raises(ValueError):
            lowrank_factor(np.eye(4), 1.5)
        with pytest.raises(ValueError):
            lowrank_factor(np.ones((3, 4)), 1e-3)
