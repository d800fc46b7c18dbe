import numpy as np
import pytest

from filtbem.assembly2d import assemble_gram, assemble_laplacian
from filtbem.mesh2d import Ellipse, build_mesh
from filtbem.spectral import (canonicalize_cut, circulant_filter_apply,
                              cut_cluster, laplacian_filter, laplacian_modes,
                              sym_sqrt_and_invsqrt)


def normalized_laplacian(mesh):
    gram = assemble_gram(mesh)
    lap = assemble_laplacian(mesh)
    _, gm = sym_sqrt_and_invsqrt(gram)
    out = gm @ lap @ gm
    return 0.5 * (out + out.T), gram


class TestSymSqrt:
    def test_identity(self):
        root, inv_root = sym_sqrt_and_invsqrt(np.eye(5))
        assert np.allclose(root, np.eye(5))
        assert np.allclose(inv_root, np.eye(5))

    def test_diagonal(self):
        root, inv_root = sym_sqrt_and_invsqrt(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]))
        assert np.allclose(inv_root, np.diag([0.5, 1.0 / 3.0]))

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((50, 50))
        spd = a @ a.T + 50.0 * np.eye(50)
        root, inv_root = sym_sqrt_and_invsqrt(spd)
        assert np.abs(root @ root - spd).max() <= 1e-10 * np.abs(spd).max()
        assert np.abs(inv_root @ spd @ inv_root - np.eye(50)).max() <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            sym_sqrt_and_invsqrt(np.diag([1.0, -1.0]))


class TestLaplacianFilter:
    def setup_method(self):
        self.mesh = build_mesh(Ellipse(1.3, 0.9), 48)
        self.lap_norm, self.gram = normalized_laplacian(self.mesh)

    def test_rank_formula(self):
        for n in (1, 2, 10, 48):
            filt = laplacian_filter(self.lap_norm, n)
            assert filt.rank == n - 1  # nullspace excluded
            proj = filt.matrix()
            assert np.trace(proj) == pytest.approx(n - 1, abs=1e-8)

    def test_projector_properties(self):
        filt = laplacian_filter(self.lap_norm, 13)
        proj = filt.matrix()
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert np.abs(proj - proj.T).max() <= 1e-12

    def test_n_equal_one_is_zero(self):
        assert np.abs(laplacian_filter(self.lap_norm, 1).matrix()).max() <= 1e-12

    def test_full_filter_is_identity_minus_constant_mode(self):
        filt = laplacian_filter(self.lap_norm, 48)
        root, _ = sym_sqrt_and_invsqrt(self.gram)
        w = root @ np.ones(48)
        expected = np.eye(48) - np.outer(w, w) / (w @ w)
        assert np.abs(filt.matrix() - expected).max() <= 1e-10

    def test_annihilates_weighted_constants(self):
        root, _ = sym_sqrt_and_invsqrt(self.gram)
        w = root @ np.ones(48)
        for n in (1, 7, 30, 48):
            filt = laplacian_filter(self.lap_norm, n)
            assert np.linalg.norm(filt.apply(w)) <= 1e-10 * np.linalg.norm(w)

    def test_commutes_with_laplacian(self):
        filt = laplacian_filter(self.lap_norm, 20)
        proj = filt.matrix()
        comm = proj @ self.lap_norm - self.lap_norm @ proj
        assert np.abs(comm).max() <= 1e-10 * np.abs(self.lap_norm).max()

    def test_rank_monotone_and_unit_steps(self):
        # ellipse spectrum is simple: rank increments by exactly one
        ranks = [laplacian_filter(self.lap_norm, n).rank for n in range(1, 49)]
        assert ranks == list(range(48))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            laplacian_filter(self.lap_norm, 0)
        with pytest.raises(ValueError):
            laplacian_filter(self.lap_norm, 49)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            laplacian_modes(np.arange(9.0).reshape(3, 3))


class TestCanonicalCut:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.basis = np.linalg.qr(rng.standard_normal((12, 5)))[0]
        self.reference = rng.standard_normal(12)

    def test_split_pair_resolved_independently_of_its_basis(self):
        values = np.array([0.0, 1.0, 2.0, 2.0 + 1e-12, 3.0])
        gap, run = cut_cluster(values, 3, 5)
        assert gap == pytest.approx(5e-13, rel=1e-3) and run == (2, 4)
        kept = []
        for angle in (0.0, 0.3, 2.0):
            c, s = np.cos(angle), np.sin(angle)
            vecs = self.basis.copy()
            vecs[:, 2:4] = self.basis[:, 2:4] @ np.array([[c, -s], [s, c]])
            out = canonicalize_cut(vecs, 3, run, self.reference)
            assert np.abs(out.T @ out - np.eye(5)).max() <= 1e-14
            kept.append(out[:, :3] @ out[:, :3].T)
        assert np.abs(kept[1] - kept[0]).max() <= 1e-14
        assert np.abs(kept[2] - kept[0]).max() <= 1e-14

    def test_split_cluster_resolved_independently_of_its_basis(self):
        # a cut through a triple keeps two of its columns; each kept column
        # is canonical, not only their span
        values = np.array([0.0, 1.0, 2.0, 2.0 + 1e-9, 2.0 + 2e-9])
        _, run = cut_cluster(values, 4, 5)
        assert run == (2, 5)
        reference = np.random.default_rng(5).standard_normal((12, 2))
        kept = []
        for seed in (0, 1):
            rot = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
            vecs = self.basis.copy()
            vecs[:, 2:5] = self.basis[:, 2:5] @ rot
            out = canonicalize_cut(vecs, 4, run, reference)
            assert np.abs(out.T @ out - np.eye(5)).max() <= 1e-14
            kept.append(out[:, :4])
        assert np.abs(kept[1] - kept[0]).max() <= 1e-14
        with pytest.raises(ValueError, match="reference"):
            canonicalize_cut(self.basis, 4, (2, 5), reference[:, :1])

    def test_cluster_open_at_the_last_of_too_few_values(self):
        values = np.array([0.0, 1.0, 2.0, 2.0 + 1e-9])
        assert cut_cluster(values, 3, 10) == (pytest.approx(5e-10, rel=1e-3),
                                              (2, None))
        assert cut_cluster(values, 3, 4)[1] == (2, 4)

    def test_wide_gap_left_alone(self):
        values = np.array([0.0, 1.0, 2.0, 2.5, 3.0])
        gap, run = cut_cluster(values, 3, 5)
        assert run is None
        assert gap == pytest.approx(0.2)


class TestCirculantFilter:
    def setup_method(self):
        self.mesh = build_mesh(Ellipse(1.0, 1.0), 256)
        self.lap_norm, self.gram = normalized_laplacian(self.mesh)

    def test_constant_vector_annihilated(self):
        out = circulant_filter_apply(self.mesh, 21, np.ones(256))
        assert np.abs(out).max() <= 1e-12

    def test_matches_dense_filter(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(256)
        filt = laplacian_filter(self.lap_norm, 21)
        dense = filt.apply(x)
        fast = circulant_filter_apply(self.mesh, 21, x)
        assert np.abs(fast - dense).max() <= 1e-10

    def test_full_filter_removes_mean_mode(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(256)
        out = circulant_filter_apply(self.mesh, 256, x)
        assert np.allclose(out, x - x.mean(), atol=1e-12)

    def test_complex_input(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        filt = laplacian_filter(self.lap_norm, 33)
        assert np.abs(circulant_filter_apply(self.mesh, 33, x)
                      - filt.apply(x)).max() <= 1e-10

    def test_rejects_nonuniform_mesh(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 64)
        with pytest.raises(ValueError):
            circulant_filter_apply(mesh, 5, np.ones(64))
