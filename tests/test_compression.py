import hashlib

import numpy as np
import pytest

from filtbem.calderon2d import assemble_operators, build_filtered_system
from filtbem.compression import (NORM_EST_ITERS, SAFETY, LowRankFactor,
                                 ProjectedMatrix, _orthonormalize_against,
                                 _row_space_factor, _row_space_norm,
                                 lowrank_factor)
from filtbem.excitation2d import MagneticLineSource
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh


def spectral_norm(mat):
    return np.linalg.norm(mat, 2)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def factor_digest(skel):
    """sha256 prefix of the factors alone."""
    h = hashlib.sha256()
    for arr in (skel.left, skel.right):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def digest(skel):
    """sha256 prefix of the factors, the achieved error and the norm estimate."""
    h = hashlib.sha256()
    for arr in (skel.left, skel.right,
                np.array([skel.achieved_error, skel.norm_estimate])):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module", params=["refine", "table"])
def filtered_block(request):
    """The filtered compact block of the refine or table config at N=502,
    in filter coordinates, with the config's tolerance."""
    curve, filter_n, eps = {"refine": (Ellipse(1.42, 1.32), 21, 6e-6),
                            "table": (PerturbedCircle(2.0, 0.2, 8), 200, 1e-3)
                            }[request.param]
    mesh = build_mesh(curve, 502)
    ops = assemble_operators(mesh, 0.4)
    system = build_filtered_system(mesh, 0.4, 1.0, MagneticLineSource((3.0, 0.0)),
                                   "efie", filter_n, ops=ops)
    return request.param, system.compact, eps


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

    def test_ndarray_input_factors_unchanged(self):
        # digests of what the square-only implementation returned before
        # ProjectedMatrix input existed, the same at one and two BLAS threads
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        mat = mat @ np.diag(np.logspace(0, -6, 50))
        skel = lowrank_factor(mat, 1e-4, seed=123)
        assert skel.rank == 33 and digest(skel) == "08bb69527a69a732"
        q = np.linalg.qr(np.random.default_rng(11).standard_normal((24, 24)))[0]
        skel = lowrank_factor(q, 1e-6, seed=12)
        assert skel.rank == 24 and digest(skel) == "3e0ab966492cf7a7"
        # a plain array is the projected form with the identity basis
        assert digest(lowrank_factor(ProjectedMatrix(None, q), 1e-6, seed=12)) \
            == "3e0ab966492cf7a7"

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            lowrank_factor(np.eye(4), 0.0)
        with pytest.raises(ValueError):
            lowrank_factor(np.eye(4), 1.5)
        with pytest.raises(ValueError):
            lowrank_factor(np.ones((3, 4)), 1e-3)


class TestProjectedInput:
    def test_array_and_shape(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        coeffs = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
        pm = ProjectedMatrix(basis, coeffs)
        assert pm.shape == (30, 30)
        assert np.array_equal(np.asarray(pm), basis @ coeffs)
        ident = ProjectedMatrix(None, coeffs)
        assert ident.shape == (4, 30)
        assert np.asarray(ident) is coeffs
        assert np.array(ident) is not coeffs    # a copy when one is asked for
        with pytest.raises(ValueError, match="square"):
            lowrank_factor(ident, 1e-3)

    def test_rank_capped_by_the_coefficient_rows(self):
        # a full-rank 5 x 60 block: the finder exhausts its range at rank 5
        # and reproduces basis @ coeffs exactly
        rng = np.random.default_rng(2)
        basis = np.linalg.qr(rng.standard_normal((60, 5)))[0]
        coeffs = rng.standard_normal((5, 60)) + 1j * rng.standard_normal((5, 60))
        skel = lowrank_factor(ProjectedMatrix(basis, coeffs), 1e-10, seed=3)
        assert skel.rank == 5 and skel.converged
        assert skel.left.shape == (60, 5) and skel.right.shape == (60, 5)
        dense = basis @ coeffs
        # the same draws on the dense product: the same power iteration
        assert skel.norm_estimate == pytest.approx(
            lowrank_factor(dense, 1e-10, seed=3).norm_estimate, rel=1e-12)
        assert spectral_norm(dense - skel.reconstruct()) <= 1e-12 * spectral_norm(dense)

    @pytest.mark.parametrize("seed", range(4))
    def test_factored_input_agrees_with_dense_input(self, filtered_block, seed):
        # same seed, same draws: the same rank and verdict either way.  On
        # the table block both factors agree to 1e-8.  On the refine block
        # (rank 17 of at most 21) the factored finder exhausts the 21-row
        # range and returns the truncated SVD to rounding, while the dense
        # finder stops once its residual is below a quarter of the target:
        # its factor differs from the SVD by 1e-7 to 4e-7 of the norm, within
        # its certified error.  The two factors' error estimates then differ
        # as their factors do (by 1.7e-3 at seed 2 with one BLAS thread,
        # 2.6e-4 with two), so each is checked against what its certificate
        # promises: its own factor's exact residual, inflated by at most
        # the safety factor (measured: 1.1977 to 1.2000 times it)
        config, block, eps = filtered_block
        dense = np.asarray(block)
        projected = lowrank_factor(block, eps, seed=seed)
        plain = lowrank_factor(dense, eps, seed=seed)
        assert projected.rank == plain.rank
        assert projected.converged and plain.converged
        norm = spectral_norm(dense)
        for skel in (projected, plain):
            exact = spectral_norm(dense - skel.reconstruct()) / norm
            assert exact <= skel.achieved_error <= SAFETY * exact
        gap = spectral_norm(projected.reconstruct() - plain.reconstruct()) / norm
        if config == "table":
            assert projected.achieved_error == pytest.approx(plain.achieved_error,
                                                             rel=1e-8)
            assert gap <= 1e-8
        else:
            u, sing, vh = np.linalg.svd(dense)
            rank = projected.rank
            truncated = (u[:, :rank] * sing[:rank]) @ vh[:rank]
            assert spectral_norm(projected.reconstruct() - truncated) <= 1e-12 * norm
            assert gap <= plain.achieved_error


class TestRowSpaceCertifier:
    @staticmethod
    def two_sided_norm(mat, q, rng):
        """Power iteration on (I - q q^H) mat itself, every step of length n."""
        x = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
        x /= np.linalg.norm(x)
        for _ in range(NORM_EST_ITERS):
            y = mat @ x
            y -= q @ (q.conj().T @ y)
            est = np.linalg.norm(y)
            z = mat.conj().T @ (y - q @ (q.conj().T @ y))
            x = z / np.linalg.norm(z)
        return est

    @pytest.mark.parametrize("seed", range(3))
    def test_estimates_match_a_two_sided_reference(self, seed):
        # a 30 x 200 block of exact rank 10 plus noise at 1e-13 of its norm;
        # q spans its 10 leading left singular vectors.  Iterating on the
        # Gram B B^H instead reads the residual as about 9e-9 of the norm.
        rng = np.random.default_rng(seed)
        block = gaussian(rng, 30, 10) @ gaussian(rng, 10, 200)
        noise = gaussian(rng, 30, 200)
        norm = spectral_norm(block)
        block += (1e-13 * norm / spectral_norm(noise)) * noise
        lead = np.linalg.svd(block)[0][:, :10]
        rt = _row_space_factor(block)
        assert rt.shape == (30, 30)
        for q in (np.zeros((30, 0), complex), lead):
            est = _row_space_norm(block, rt, NORM_EST_ITERS,
                                  np.random.default_rng(7), q)
            ref = self.two_sided_norm(block, q, np.random.default_rng(7))
            assert abs(est - ref) <= 1e-10 * norm
            # the same iterates: at the residual's own scale they differ
            # by the rounding of the projection, measured below 7e-5
            assert est == pytest.approx(ref, rel=1e-3)
        assert est <= 1e-12 * norm

    def test_square_block_keeps_the_identity_factor(self):
        mat = gaussian(np.random.default_rng(0), 12, 12)
        assert _row_space_factor(mat) is mat

    # sha256 prefixes of left and right, taken when G^{-1/2} became dense
    # cyclic strips (relative, max norm: B moved by 7.7e-14 on refine and
    # 3.3e-14 on table, the basis by 1.1e-15 and 8.3e-16, the skeletons'
    # products by at most 1.4e-13 and 1.7e-10, the ranks not at all and
    # the achieved errors by about 1e-11 of themselves); the filtered block
    # rounds differently at one and at two BLAS threads, so each case
    # lists both digests
    FACTOR_DIGESTS = {
        ("refine", 0): {"dbc76c99cf966557", "b6a5d1febdaebb2f"},
        ("refine", 1): {"6c709e53a31e3c99", "8798e4f22fdb0c59"},
        ("refine", 2): {"6d88be837ee047ab", "29ae9da0c198ee53"},
        ("refine", 3): {"ee2de9aef4e45e10", "481365c8571793d8"},
        ("table", 0): {"3072ef33010e7a4e", "610f3368d09ae564"},
        ("table", 1): {"ed73653f346f3e42", "cde8398c0b292664"},
        ("table", 2): {"79c5a110337b101e", "17436a4edc63b9d6"},
        ("table", 3): {"1a90db2946dbfc95", "71eb8a0abf204025"},
    }

    @pytest.mark.parametrize("seed", range(4))
    def test_filtered_block_factors_unchanged(self, filtered_block, seed):
        config, block, eps = filtered_block
        skel = lowrank_factor(block, eps, seed=seed)
        assert factor_digest(skel) in self.FACTOR_DIGESTS[config, seed]
