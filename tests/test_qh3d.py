import hashlib

import numpy as np
import pytest

from filtbem import spectral
from filtbem.qh3d import (build_grams, build_incidence, filtered_projectors,
                          icosphere, make_mesh, octahedron,
                          orthonormalize_incidence, projectors, read_off,
                          tetrahedron, torus_mesh, write_off)


def loop_grams(mesh):
    """The three Gram matrices by a Python loop over the faces: the oracle
    of ``build_grams``, which it was until the Grams were built by array
    operations."""
    v = mesh.vertices
    tris = mesh.triangles
    areas = mesh.triangle_areas()
    nv, ne = mesh.n_vertices, mesh.n_edges
    g_pyr = np.zeros((nv, nv))
    for f, tri in enumerate(tris):
        a = areas[f]
        for i in range(3):
            for j in range(3):
                g_pyr[tri[i], tri[j]] += a / 6.0 if i == j else a / 12.0
    edge_index = {(int(a), int(b)): i for i, (a, b) in enumerate(mesh.edges)}
    g_rwg = np.zeros((ne, ne))
    for f, tri in enumerate(tris):
        a = areas[f]
        corners = v[tri]
        mids = 0.5 * (corners + np.roll(corners, -1, axis=0))  # edge midpoints
        # local edges (tri[i], tri[i+1]) opposite vertex tri[i+2]
        locals_ = []
        for i in range(3):
            p, q = int(tri[i]), int(tri[(i + 1) % 3])
            opp = v[int(tri[(i + 2) % 3])]
            edge = edge_index[(min(p, q), max(p, q))]
            sign = 1.0 if mesh.edge_tri[edge, 0] == f else -1.0
            length = np.linalg.norm(v[q] - v[p])
            locals_.append((edge, sign * length / (2.0 * a), opp))
        for e1, c1, o1 in locals_:
            for e2, c2, o2 in locals_:
                acc = 0.0
                for m in mids:  # midpoint rule: exact for quadratics
                    acc += (a / 3.0) * np.dot(m - o1, m - o2)
                g_rwg[e1, e2] += c1 * c2 * acc
    return g_rwg, np.diag(areas), g_pyr


# every built-in mesh the digests below cover
BUILDERS = {
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    **{f"icosphere({k})": (lambda k=k: icosphere(k)) for k in range(5)},
    **{f"torus_mesh({a},{b})": (lambda a=a, b=b: torus_mesh(a, b))
       for a, b in ((3, 3), (12, 8), (24, 16))},
}

# sha256 prefixes of vertices, triangles, edges, edge_tri, star and loop,
# taken from the per-face-loop builders (the same at 1 and 2 BLAS threads).
# icosphere(4)'s dense star and loop maps (470 MB) are left out; its edges
# and edge_tri fix them.
MESH_DIGESTS = {
    "tetrahedron": "44c64813011bc24e",
    "octahedron": "2eb2618fbdd93e7c",
    "icosphere(0)": "a728c7244703242b",
    "icosphere(1)": "e7b5db482a341427",
    "icosphere(2)": "705f1cca1271ccee",
    "icosphere(3)": "ef4759efa12f3a8d",
    "icosphere(4)": "8b765ec0bcd153a6",
    "torus_mesh(3,3)": "dc2abdb9e33a508c",
    "torus_mesh(12,8)": "6aa2752baa543dee",
    "torus_mesh(24,16)": "8daa6461a98ec479",
}


def mesh_digest(mesh, maps=True):
    sha = hashlib.sha256()
    arrays = [mesh.vertices, mesh.triangles, mesh.edges, mesh.edge_tri]
    if maps:
        inc = build_incidence(mesh)
        arrays += [inc.star, inc.loop]
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()[:16]


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

    @pytest.mark.parametrize("name", list(MESH_DIGESTS))
    def test_builders_and_off_round_trip_bitwise_unchanged(self, tmp_path, name):
        mesh = BUILDERS[name]()
        write_off(mesh, tmp_path / "mesh.off")
        maps = name != "icosphere(4)"
        for built in (mesh, read_off(tmp_path / "mesh.off")):
            assert mesh_digest(built, maps) == MESH_DIGESTS[name]

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

    @pytest.mark.parametrize("name", [name for name in BUILDERS
                                      if name != "icosphere(4)"])
    def test_matches_the_per_face_loop(self, name):
        # within 8.0e-16 relative, max norm, when the loop was replaced
        mesh = BUILDERS[name]()
        grams = build_grams(mesh)
        for new, old in zip((grams.rwg, grams.patch, grams.pyramid),
                            loop_grams(mesh)):
            assert np.abs(new - old).max() <= 2e-15 * np.abs(old).max()
        assert np.array_equal(grams.rwg, grams.rwg.T)
        assert np.array_equal(grams.pyramid, grams.pyramid.T)

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

    @pytest.mark.parametrize("kept, block", [
        ("0 0 0\n1 0 0\n1 1\n", "vertex block"),
        ("0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n", "face list"),
    ], ids=["vertices", "faces"])
    def test_rejects_truncated_file(self, tmp_path, kept, block):
        # the header promises 4 vertices and 4 faces; the file stops short
        path = tmp_path / "cut.off"
        path.write_text("OFF\n4 4 6\n" + kept)
        with pytest.raises(ValueError, match=block):
            read_off(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_vertices(self, tmp_path, value):
        path = tmp_path / "tet.off"
        tet = tetrahedron()
        rows = [f"{p[0]!r} {p[1]!r} {p[2]!r}" for p in tet.vertices.tolist()]
        rows[2] = f"{value} 0 0"
        faces = [f"3 {a} {b} {c}" for a, b, c in tet.triangles.tolist()]
        path.write_text("\n".join(["OFF", "4 4 6", *rows, *faces]) + "\n")
        with pytest.raises(ValueError, match="finite"):
            read_off(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("NOT_OFF\n")
        with pytest.raises(ValueError):
            read_off(path)
