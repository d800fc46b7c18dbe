import numpy as np
import pytest
import scipy.linalg

from filtbem.compression import lowrank_factor
from filtbem.solver import (dense_solve, memory_report, woodbury_factorize)


def random_skeleton(rng, n, r, scale=1.0):
    u = scale * (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    v = scale * (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    return u, v


class TestWoodbury:
    def test_rank_zero_is_scaling(self):
        inv = woodbury_factorize(0.25, (np.zeros((10, 0)), np.zeros((10, 0))))
        x = inv.apply(np.arange(10.0) + 0j)
        assert np.allclose(x, 4.0 * np.arange(10.0))

    def test_matches_dense_lu(self):
        rng = np.random.default_rng(0)
        u, v = random_skeleton(rng, 50, 5, scale=1.0 / np.sqrt(50))
        inv = woodbury_factorize(0.25, (u, v))
        full = 0.25 * np.eye(50) + u @ v.T
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert (np.linalg.norm(inv.apply(b) - np.linalg.solve(full, b))
                / np.linalg.norm(b)) <= 1e-12

    def test_residual_small(self):
        rng = np.random.default_rng(1)
        u, v = random_skeleton(rng, 256, 12, scale=1.0 / np.sqrt(256))
        inv = woodbury_factorize(0.5, (u, v))
        b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        x = inv.apply(b)
        resid = 0.5 * x + u @ (v.T @ x) - b
        assert np.linalg.norm(resid) / np.linalg.norm(b) <= 1e-12

    def test_zero_rhs(self):
        rng = np.random.default_rng(2)
        u, v = random_skeleton(rng, 30, 4)
        inv = woodbury_factorize(0.25, (u / 10, v / 10))
        assert np.abs(inv.apply(np.zeros(30, complex))).max() == 0.0

    def test_block_apply_bitwise_equals_columnwise(self):
        rng = np.random.default_rng(3)
        u, v = random_skeleton(rng, 40, 6, scale=0.1)
        inv = woodbury_factorize(0.25, (u, v))
        block = rng.standard_normal((40, 10)) + 1j * rng.standard_normal((40, 10))
        out = inv.apply(block)
        for j in range(10):
            assert np.array_equal(out[:, j], inv.apply(block[:, j]))

    def test_exactness_over_200_random_draws(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(5, 101))
            r = int(rng.integers(0, min(21, n)))
            beta = float(rng.uniform(0.25, 1.0))
            u, v = random_skeleton(rng, n, r, scale=1.0 / np.sqrt(n))
            inv = woodbury_factorize(beta, (u, v))
            full = beta * np.eye(n) + u @ v.T
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x_ref = np.linalg.solve(full, b)
            err = np.linalg.norm(inv.apply(b) - x_ref) / np.linalg.norm(x_ref)
            worst = max(worst, err)
        assert worst <= 1e-11

    @pytest.mark.parametrize("rank", [0, 6])
    def test_apply_solves_nothing(self, monkeypatch, rank):
        # the core is solved once, at factorization, for the whole gain
        rng = np.random.default_rng(9)
        u, v = random_skeleton(rng, 40, rank, scale=0.1)
        inv = woodbury_factorize(0.25, (u, v))
        assert inv.gain.shape == (rank, 40)

        def refuse(*args, **kwargs):
            raise AssertionError("core solved per right-hand side")

        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
        b = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        x = inv.apply(b)
        resid = 0.25 * x + u @ (v.T @ x) - b
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)

    def test_accepts_lowrank_factor(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        skel = lowrank_factor(np.outer(a, a) / 40.0, 1e-10, seed=0)
        inv = woodbury_factorize(0.25, skel)
        assert inv.rank == skel.rank

    def test_singular_core_rejected(self):
        # beta I + U V^T singular: U V^T = -beta on a subspace
        u = np.eye(5)[:, :1] + 0j
        v = -0.25 * np.eye(5)[:, :1] + 0j
        with pytest.raises(ValueError):
            woodbury_factorize(0.25, (u, v))
        with pytest.raises(ValueError):
            woodbury_factorize(0.0, (u, v))

    def test_near_singular_core_warns(self):
        # core diag(1e-10, 2): condition 2e10, between the warning (1e8)
        # and the rejection (1e12) thresholds
        eye = np.eye(6) + 0j
        u = np.stack([-(1.0 - 1e-10) * eye[:, 0], eye[:, 1]], axis=1)
        v = eye[:, :2]
        with pytest.warns(RuntimeWarning, match="near-singular core"):
            inv = woodbury_factorize(1.0, (u, v))
        assert 1e8 < inv.core_cond < 1e12
        rhs = np.arange(1.0, 7.0) + 0j
        mat = np.eye(6) + u @ v.T
        assert np.allclose(mat @ inv.apply(rhs), rhs, rtol=1e-5)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        u, v = random_skeleton(rng, 20, 3, scale=0.1)
        inv = woodbury_factorize(0.25, (u, v))
        with pytest.raises(ValueError):
            inv.apply(np.zeros(21, complex))


class TestDenseSolve:
    def test_identity(self):
        rhs = np.arange(6.0) + 0j
        assert np.array_equal(dense_solve(np.eye(6), rhs), rhs)

    def test_hilbert_against_exact_inverse(self):
        # analytically known integer inverse entries of the 8x8 Hilbert matrix
        h = scipy.linalg.hilbert(8)
        hinv = scipy.linalg.invhilbert(8)
        for j in (0, 3, 7):
            x = dense_solve(h, np.eye(8)[:, j])
            scale = np.abs(hinv[:, j]).max()
            assert np.abs(x - hinv[:, j]).max() / scale <= 1e-4

    def test_residual_checked(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        b = rng.standard_normal(64) + 0j
        x = dense_solve(mat, b)
        assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_singular_rejected(self):
        sing = np.zeros((4, 4))
        with pytest.raises(np.linalg.LinAlgError):
            dense_solve(sing, np.ones(4))


class TestMemoryReport:
    def _inverse(self, n, r):
        rng = np.random.default_rng(8)
        u, v = random_skeleton(rng, n, r, scale=1.0 / np.sqrt(n))
        return woodbury_factorize(0.25, (u, v))

    def test_dense_equivalent_values(self):
        report = memory_report(self._inverse(1004, 10))
        assert report.dense_megabytes == pytest.approx(16.13, abs=0.005)
        report = memory_report(self._inverse(8032, 10))
        assert report.dense_megabytes == pytest.approx(1032.2, abs=0.1)

    def test_skeleton_formula(self):
        report = memory_report(self._inverse(500, 20))
        assert report.skeleton_bytes == 16 * (2 * 500 * 20 + 400)

    def test_rank_zero(self):
        inv = woodbury_factorize(0.5, (np.zeros((100, 0)), np.zeros((100, 0))))
        assert memory_report(inv).skeleton_bytes == 0

    def test_affine_in_n_at_fixed_rank(self):
        vals = [memory_report(self._inverse(n, 15)).skeleton_bytes
                for n in (100, 200, 300)]
        assert vals[2] - vals[1] == vals[1] - vals[0]
