import numpy as np
import pytest

from filtbem import spectral
from filtbem.qh3d import (build_grams, build_incidence, filtered_projectors,
                          icosphere, make_mesh, octahedron,
                          orthonormalize_incidence, projectors, read_off,
                          tetrahedron, torus_mesh, write_off)


@pytest.fixture(scope="module")
def meshes():
    return {
        "tetra": tetrahedron(),
        "octa": octahedron(),
        "ico": icosphere(1),
        "torus": torus_mesh(10, 6),
    }


class TestTriangleMesh:
    def test_euler_characteristic(self, meshes):
        for name, mesh in meshes.items():
            chi = mesh.n_vertices - mesh.n_edges + mesh.n_triangles
            assert chi == (0 if name == "torus" else 2)
        assert meshes["torus"].genus == 1
        assert meshes["tetra"].genus == 0

    def test_octahedron_counts(self, meshes):
        octa = meshes["octa"]
        assert (octa.n_vertices, octa.n_edges, octa.n_triangles) == (6, 12, 8)
        # edge count = triangles + vertices - 2 on genus 0
        assert octa.n_edges == octa.n_triangles + octa.n_vertices - 2

    def test_outward_orientation_positive_volume(self, meshes):
        for mesh in meshes.values():
            v = mesh.vertices
            t = mesh.triangles
            vol = np.einsum("ij,ij->i", v[t[:, 0]],
                            np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0
            assert vol > 0

    def test_rejects_open_mesh(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float)
        with pytest.raises(ValueError):
            make_mesh(verts, np.array([[0, 1, 2]]))

    def test_rejects_inconsistent_orientation(self):
        tet = tetrahedron()
        bad = tet.triangles.copy()
        bad[0] = bad[0][::-1]
        with pytest.raises(ValueError):
            make_mesh(tet.vertices, bad)


class TestIncidence:
    def test_tetrahedron_structure(self, meshes):
        inc = build_incidence(meshes["tetra"])
        assert inc.star.shape == (6, 4)
        assert inc.loop.shape == (6, 4)
        # each edge row: exactly one +1 and one -1
        for mat in (inc.star, inc.loop):
            assert np.all(np.sort(mat, axis=1)[:, 0] == -1)
            assert np.all(np.sort(mat, axis=1)[:, -1] == 1)
            assert np.all(np.count_nonzero(mat, axis=1) == 2)
        # star normal matrix is the dual-graph Laplacian: 3 I - adjacency
        gram = inc.star.T @ inc.star
        assert np.all(np.diag(gram) == 3)
        assert np.linalg.matrix_rank(inc.star) == 3
        assert np.linalg.matrix_rank(inc.loop) == 3

    def test_loop_star_orthogonality_exact(self, meshes):
        for mesh in meshes.values():
            inc = build_incidence(mesh)
            assert np.abs(inc.loop.T @ inc.star).max() == 0

    def test_torus_rank_count(self, meshes):
        torus = meshes["torus"]
        inc = build_incidence(torus)
        rank_sum = (np.linalg.matrix_rank(inc.star)
                    + np.linalg.matrix_rank(inc.loop))
        assert rank_sum == torus.n_edges - 2  # harmonic dimension 2g = 2


class TestGrams:
    def test_patch_gram_is_area_diagonal(self, meshes):
        mesh = meshes["ico"]
        grams = build_grams(mesh)
        assert np.allclose(grams.patch, np.diag(mesh.triangle_areas()))

    def test_pyramid_gram_against_quadrature_oracle(self, meshes):
        # collapsed tensor Gauss of order 10 on each triangle
        mesh = meshes["tetra"]
        grams = build_grams(mesh)
        x, w = np.polynomial.legendre.leggauss(10)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        oracle = np.zeros_like(grams.pyramid)
        for tri, area in zip(mesh.triangles, mesh.triangle_areas()):
            for gi, wi in zip(x, w):
                for gj, wj in zip(x, w):
                    lam1 = gi * (1 - gj)      # collapsed square -> triangle
                    lam2 = gi * gj
                    lam0 = 1.0 - gi
                    bary = np.array([lam0, lam1, lam2])
                    weight = 2.0 * area * wi * wj * gi  # jacobian gi
                    for a in range(3):
                        for b in range(3):
                            oracle[tri[a], tri[b]] += weight * bary[a] * bary[b]
        assert np.abs(grams.pyramid - oracle).max() <= 1e-12

    def test_pyramid_diagonal_structure(self, meshes):
        mesh = meshes["octa"]
        grams = build_grams(mesh)
        areas = mesh.triangle_areas()
        # each vertex of the octahedron touches 4 equal triangles: 4 * A/6
        assert np.allclose(np.diag(grams.pyramid), 4.0 * areas[0] / 6.0)

    def test_rwg_gram_spd(self, meshes):
        for mesh in meshes.values():
            vals = np.linalg.eigvalsh(build_grams(mesh).rwg)
            assert vals.min() > 0

    def test_orthonormalized_maps_stay_orthogonal(self, meshes):
        mesh = meshes["torus"]
        inc = build_incidence(mesh)
        tilde = orthonormalize_incidence(inc, build_grams(mesh))
        assert np.abs(tilde.loop.T @ tilde.star).max() <= 1e-12


class TestProjectors:
    def test_partition_of_identity(self, meshes):
        for mesh in meshes.values():
            inc = build_incidence(mesh)
            p_star, p_loop, p_harm = projectors(inc)
            ident = p_star + p_loop + p_harm - np.eye(mesh.n_edges)
            assert np.abs(ident).max() <= 1e-10

    def test_idempotency_and_orthogonality(self, meshes):
        inc = build_incidence(meshes["ico"])
        p_star, p_loop, _ = projectors(inc)
        assert np.abs(p_star @ p_star - p_star).max() <= 1e-10
        assert np.abs(p_loop @ p_loop - p_loop).max() <= 1e-10
        assert np.abs(p_star @ p_loop).max() <= 1e-10

    def test_harmonic_rank(self, meshes):
        for name, mesh in meshes.items():
            _, _, p_harm = projectors(build_incidence(mesh))
            expected = 2 if name == "torus" else 0
            assert round(np.trace(p_harm)) == expected

    def test_genus0_pair_sums_to_identity(self, meshes):
        inc = build_incidence(meshes["tetra"])
        p_star, p_loop, _ = projectors(inc)
        assert np.abs(p_star + p_loop - np.eye(6)).max() <= 1e-10


class TestFilteredProjectors:
    def test_full_index_reduction(self, meshes):
        for mesh in meshes.values():
            inc = build_incidence(mesh)
            p_star, p_loop, p_harm = projectors(inc)
            fp = filtered_projectors(inc, mesh.n_triangles, mesh.n_vertices)
            assert np.abs(fp.primal_star - p_star).max() <= 1e-10
            assert np.abs(fp.primal_loop_harmonic - (p_loop + p_harm)).max() <= 1e-10
            assert np.abs(fp.dual_loop - p_loop).max() <= 1e-10
            assert np.abs(fp.dual_star_harmonic - (p_star + p_harm)).max() <= 1e-10

    def test_primal_family_sums_to_identity_at_full_indices(self, meshes):
        mesh = meshes["octa"]
        inc = build_incidence(mesh)
        fp = filtered_projectors(inc, mesh.n_triangles, mesh.n_vertices)
        total = fp.primal_star + fp.primal_loop_harmonic
        assert np.abs(total - np.eye(mesh.n_edges)).max() <= 1e-10

    def test_minimal_index_gives_zero(self, meshes):
        # index 1 keeps only the null mode of each graph Laplacian
        for mesh in meshes.values():
            fp = filtered_projectors(build_incidence(mesh), 1, 1)
            assert np.abs(fp.primal_star).max() <= 1e-12
            assert np.abs(fp.dual_loop).max() <= 1e-12

    def test_matches_pseudo_inverse_oracle_at_gap_cuts(self, meshes):
        # inc [X_n]^+ inc^T with X = inc^T inc from a plain eigh; the cut is
        # moved up to the next spectral gap so the kept space is basis-free
        def cut_and_oracle(inc_map):
            inc_map = inc_map.astype(float)
            vals, vecs = np.linalg.eigh(inc_map.T @ inc_map)
            n = vals.size // 2
            while n < vals.size and vals[n] - vals[n - 1] <= 1e-8 * vals[-1]:
                n += 1
            live = np.flatnonzero(vals[:n] > 1e-10 * vals[-1])
            pinv = (vecs[:, live] / vals[live]) @ vecs[:, live].T
            return n, inc_map @ pinv @ inc_map.T

        for mesh in meshes.values():
            inc = build_incidence(mesh)
            n_star, star_oracle = cut_and_oracle(inc.star)
            n_loop, loop_oracle = cut_and_oracle(inc.loop)
            fp = filtered_projectors(inc, n_star, n_loop)
            assert np.abs(fp.primal_star - star_oracle).max() <= 1e-12
            assert np.abs(fp.dual_loop - loop_oracle).max() <= 1e-12

    def test_projector_properties_and_range_inclusion(self, meshes):
        mesh = meshes["ico"]
        inc = build_incidence(mesh)
        p_star, _, _ = projectors(inc)
        fp = filtered_projectors(inc, 30, 20)
        ps_n = fp.primal_star
        assert np.abs(ps_n @ ps_n - ps_n).max() <= 1e-10
        assert np.abs(ps_n - ps_n.T).max() <= 1e-10
        # range inclusion: the unfiltered projector leaves it unchanged
        assert np.abs(p_star @ ps_n - ps_n).max() <= 1e-10
        # filtered star and loop parts are mutually orthogonal
        assert np.abs(ps_n @ fp.dual_loop).max() <= 1e-10

    def test_rank_counts(self, meshes):
        mesh = meshes["octa"]
        inc = build_incidence(mesh)
        for n_star in (1, 3, 8):
            fp = filtered_projectors(inc, n_star, 2)
            assert round(np.trace(fp.primal_star)) == n_star - 1

    def test_one_eigensolve_per_graph_laplacian(self, meshes, monkeypatch):
        # the filtered and the unfiltered projector of each incidence map
        # come from the same laplacian_filter modes
        calls = []
        real = spectral.laplacian_modes
        monkeypatch.setattr(spectral, "laplacian_modes",
                            lambda mat: calls.append(mat.shape) or real(mat))
        mesh = meshes["ico"]
        filtered_projectors(build_incidence(mesh), 30, 20)
        assert sorted(calls) == sorted([(mesh.n_triangles,) * 2, (mesh.n_vertices,) * 2])

    def test_index_validation(self, meshes):
        inc = build_incidence(meshes["tetra"])
        with pytest.raises(ValueError):
            filtered_projectors(inc, 0, 1)
        with pytest.raises(ValueError):
            filtered_projectors(inc, 1, 5)


class TestOffIO:
    def test_round_trip(self, tmp_path, meshes):
        path = tmp_path / "ico.off"
        write_off(meshes["ico"], path)
        loaded = read_off(path)
        assert np.abs(loaded.vertices - meshes["ico"].vertices).max() == 0.0
        assert np.array_equal(loaded.triangles, meshes["ico"].triangles)

    def test_reads_comments_and_counts(self, tmp_path):
        path = tmp_path / "tet.off"
        tet = tetrahedron()
        with open(path, "w") as fh:
            fh.write("OFF\n# a comment\n4 4 6\n")
            for p in tet.vertices:
                fh.write(f"{p[0]} {p[1]} {p[2]}\n")
            for t in tet.triangles:
                fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
        mesh = read_off(path)
        assert mesh.n_edges == 6

    def test_rejects_non_triangles(self, tmp_path):
        path = tmp_path / "quad.off"
        with open(path, "w") as fh:
            fh.write("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(ValueError):
            read_off(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("NOT_OFF\n")
        with pytest.raises(ValueError):
            read_off(path)
