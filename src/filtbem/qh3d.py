"""Quasi-Helmholtz machinery on closed oriented triangle meshes.

Builds the signed loop (vertex) and star (triangle) incidence maps into the
edge-function space, the Gram matrices of the edge/patch/vertex bases, the
associated orthogonal projectors that split edge coefficients into
non-solenoidal, solenoidal and harmonic parts, and their low-pass filtered
variants driven by the two graph Laplacians.

Conventions: each interior edge carries an orientation from its lower to
its higher vertex index; the plus triangle of an edge traverses the edge in
that direction along its own (counterclockwise seen from outside) boundary.
With those signs the loop and star maps are exactly orthogonal in integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .spectral import _check_filter_index, laplacian_filter, sym_sqrt_and_invsqrt

__all__ = [
    "TriangleMesh",
    "IncidenceMatrices",
    "Grams",
    "FilteredProjectors",
    "tetrahedron",
    "octahedron",
    "icosphere",
    "torus_mesh",
    "read_off",
    "write_off",
    "build_incidence",
    "build_grams",
    "orthonormalize_incidence",
    "projectors",
    "filtered_projectors",
]


@dataclass(frozen=True)
class TriangleMesh:
    """Closed oriented 2-manifold triangle mesh.

    Validation enforces that every directed edge appears exactly once (so
    each undirected edge borders exactly two consistently oriented
    triangles) and derives edges and genus from the Euler characteristic.
    """

    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (F, 3) int, consistent orientation
    edges: np.ndarray = field(repr=False, default=None)       # (E, 2) lo < hi
    edge_tri: np.ndarray = field(repr=False, default=None)    # (E, 2) plus, minus

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def genus(self) -> int:
        chi = self.n_vertices - self.n_edges + self.n_triangles
        return (2 - chi) // 2

    def triangle_areas(self) -> np.ndarray:
        v = self.vertices
        t = self.triangles
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        return 0.5 * np.linalg.norm(cross, axis=1)


def _build_edges(vertices, triangles):
    """Derive edges and the (plus, minus) triangle of each; validate manifold."""
    triangles = np.asarray(triangles, np.int64)
    directed = {}
    for f, tri in enumerate(triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            if a == b:
                raise ValueError(f"degenerate triangle {f}")
            if (a, b) in directed:
                raise ValueError(
                    f"directed edge ({a},{b}) shared by triangles "
                    f"{directed[a, b]} and {f}: inconsistent orientation or "
                    "non-manifold mesh")
            directed[(a, b)] = f
    edges = []
    edge_tri = []
    for (a, b), f_plus in sorted(directed.items()):
        if a > b:
            continue
        if (b, a) not in directed:
            raise ValueError(f"boundary edge ({a},{b}): mesh is not closed")
        edges.append((a, b))
        edge_tri.append((f_plus, directed[(b, a)]))
    return np.array(edges, np.int64), np.array(edge_tri, np.int64)


def make_mesh(vertices, triangles) -> TriangleMesh:
    """Validate and index a closed oriented triangle mesh."""
    vertices = np.asarray(vertices, float)
    triangles = np.asarray(triangles, np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ValueError("vertices must be (V, 3)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be (F, 3)")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    if triangles.min() < 0 or triangles.max() >= len(vertices):
        raise ValueError("triangle vertex index out of range")
    edges, edge_tri = _build_edges(vertices, triangles)
    mesh = TriangleMesh(vertices=vertices, triangles=triangles,
                        edges=edges, edge_tri=edge_tri)
    areas = mesh.triangle_areas()
    if np.any(areas < 1e-14 * areas.max()):
        raise ValueError("degenerate (zero-area) triangle")
    return mesh


# ---------------------------------------------------------------------------
# Built-in meshes
# ---------------------------------------------------------------------------
def tetrahedron() -> TriangleMesh:
    """Regular tetrahedron (4 vertices, 6 edges, 4 faces), outward oriented."""
    v = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    f = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return make_mesh(v, f)


def octahedron() -> TriangleMesh:
    """Regular octahedron (6 vertices, 12 edges, 8 faces)."""
    v = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                  [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)
    f = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                  [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
    return make_mesh(v, f)


def icosphere(subdivisions: int = 1) -> TriangleMesh:
    """Icosahedron refined by edge midpoint subdivision, projected to a sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], float)
    v /= np.linalg.norm(v, axis=1)[:, None]
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        # edges ab, bc, ca of each face; each midpoint is numbered in the
        # order the faces first meet its edge
        pairs = np.stack([f, np.roll(f, -1, axis=1)], axis=-1).reshape(-1, 2)
        _, first, edge = np.unique(np.sort(pairs, axis=1), axis=0,
                                   return_index=True, return_inverse=True)
        ab, bc, ca = (len(v) + np.argsort(np.argsort(first))[edge]).reshape(-1, 3).T
        ends = pairs[np.sort(first)]
        m = 0.5 * (v[ends[:, 0]] + v[ends[:, 1]])
        # a batched row product rounds as np.linalg.norm of each vector
        v = np.vstack([v, m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]])
        a, b, c = f.T
        f = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                     axis=1).reshape(-1, 3)
    return make_mesh(v, f)


def torus_mesh(n_major: int = 12, n_minor: int = 8, major_radius: float = 2.0,
               minor_radius: float = 0.8) -> TriangleMesh:
    """Structured genus-1 torus triangulation with outward orientation."""
    if n_major < 3 or n_minor < 3:
        raise ValueError("need at least 3 subdivisions in each direction")
    u = 2.0 * np.pi * np.arange(n_major) / n_major
    w = 2.0 * np.pi * np.arange(n_minor) / n_minor
    uu, ww = np.meshgrid(u, w, indexing="ij")
    ring = major_radius + minor_radius * np.cos(ww)
    verts = np.stack([ring * np.cos(uu), ring * np.sin(uu),
                      minor_radius * np.sin(ww)], axis=-1).reshape(-1, 3)

    # vertex (i, j) of the grid is i * n_minor + j; each cell makes two faces
    i, j = np.meshgrid(np.arange(n_major), np.arange(n_minor), indexing="ij")
    i_next, j_next = (i + 1) % n_major * n_minor, (j + 1) % n_minor
    v00, v10 = i * n_minor + j, i_next + j
    v11, v01 = i_next + j_next, i * n_minor + j_next
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=-1)
    return make_mesh(verts, faces.reshape(-1, 3))


# ---------------------------------------------------------------------------
# OFF file interface
# ---------------------------------------------------------------------------
def read_off(path) -> TriangleMesh:
    """Read an ASCII OFF mesh (triangles only) and validate it."""
    tokens = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ValueError("not an OFF file: missing header")
    if len(tokens) < 4:
        raise ValueError("OFF header lacks its vertex, face and edge counts")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4  # past the header and its vertex, face, (ignored) edge counts
    body = len(tokens) - pos
    if body < 3 * nv:
        raise ValueError(f"truncated OFF file: its vertex block holds "
                         f"{body} of {3 * nv} tokens")
    if body - 3 * nv < 4 * nf:
        raise ValueError(f"truncated OFF file: its face list holds "
                         f"{body - 3 * nv} of {4 * nf} tokens")
    verts = np.array(tokens[pos:pos + 3 * nv], float).reshape(nv, 3)
    pos += 3 * nv
    faces = np.array(tokens[pos:pos + 4 * nf], np.int64).reshape(nf, 4)
    counts = faces[faces[:, 0] != 3, 0]
    if counts.size:
        raise ValueError(f"non-triangular face with {counts[0]} vertices")
    return make_mesh(verts, faces[:, 1:])


def write_off(mesh: TriangleMesh, path) -> None:
    """Write an ASCII OFF file (used by round-trip tests and exports)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles} {mesh.n_edges}\n")
        for p in mesh.vertices:
            fh.write(f"{p[0]:.17e} {p[1]:.17e} {p[2]:.17e}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


# ---------------------------------------------------------------------------
# Incidence matrices and Gram matrices
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IncidenceMatrices:
    """Signed star (edge-to-triangle) and loop (edge-to-vertex) maps.

    star[i, j] = +-1 when triangle j is the plus/minus triangle of edge i;
    loop[i, j] = +-1 when vertex j is the head/tail of oriented edge i.
    Columns of one are exactly orthogonal to columns of the other.
    """

    star: np.ndarray  # (E, F)
    loop: np.ndarray  # (E, V)


def build_incidence(mesh: TriangleMesh) -> IncidenceMatrices:
    """Integer star/loop incidence maps of a closed oriented mesh."""
    ne, nf, nv = mesh.n_edges, mesh.n_triangles, mesh.n_vertices
    star = np.zeros((ne, nf), np.int64)
    loop = np.zeros((ne, nv), np.int64)
    rows = np.arange(ne)
    star[rows, mesh.edge_tri[:, 0]] = 1
    star[rows, mesh.edge_tri[:, 1]] = -1
    loop[rows, mesh.edges[:, 1]] = 1   # head = higher index (edge orientation)
    loop[rows, mesh.edges[:, 0]] = -1
    return IncidenceMatrices(star=star, loop=loop)


@dataclass(frozen=True)
class Grams:
    """Gram matrices of the edge (div-conforming), patch and vertex bases."""

    rwg: np.ndarray      # (E, E)
    patch: np.ndarray    # (F, F) diagonal of triangle areas
    pyramid: np.ndarray  # (V, V) surface hat mass matrix


def _scatter(size, index, local):
    """Sum the per-face (F, 3, 3) blocks ``local`` into a (size, size)
    matrix at rows and columns ``index`` (F, 3), in face order."""
    out = np.zeros((size, size))
    np.add.at(out, (index[:, :, None], index[:, None, :]), local)
    return out


def build_grams(mesh: TriangleMesh) -> Grams:
    """Assemble the three Gram matrices (all integrals exact).

    Edge functions follow the usual div-conforming normalization
    length/(2 area) (r - opposite vertex); their pairwise products are
    quadratic per triangle, integrated exactly by the midpoint rule.
    Patch functions are indicator 1 per triangle; vertex functions are the
    linear surface hats.
    """
    v, tris, nv = mesh.vertices, mesh.triangles, mesh.n_vertices
    areas = mesh.triangle_areas()
    # local edge i of a face runs from its vertex i to vertex i+1, opposite
    # vertex i+2; mesh.edges is sorted by (lo, hi)
    heads = np.roll(tris, -1, axis=1)
    keys = np.minimum(tris, heads) * nv + np.maximum(tris, heads)
    edge = np.searchsorted(mesh.edges[:, 0] * nv + mesh.edges[:, 1], keys)
    plus = mesh.edge_tri[edge, 0] == np.arange(len(tris))[:, None]
    corners = v[tris]
    coef = (np.where(plus, 1.0, -1.0) * np.linalg.norm(v[heads] - corners, axis=2)
            / (2.0 * areas[:, None]))
    # arms[f, m, i]: midpoint m of face f less the vertex opposite its edge i;
    # the midpoint rule is exact for the quadratic products
    mids = 0.5 * (corners + np.roll(corners, -1, axis=1))
    arms = mids[:, :, None, :] - v[np.roll(tris, -2, axis=1)][:, None, :, :]
    local_rwg = coef[:, :, None] * coef[:, None, :] * (
        areas[:, None, None] / 3.0 * np.einsum("fmix,fmjx->fij", arms, arms))
    local_pyr = areas[:, None, None] / (12.0 - 6.0 * np.eye(3))
    return Grams(rwg=_scatter(mesh.n_edges, edge, local_rwg),
                 patch=np.diag(areas), pyramid=_scatter(nv, tris, local_pyr))


def orthonormalize_incidence(inc: IncidenceMatrices, grams: Grams) -> IncidenceMatrices:
    """Gram-weighted incidence maps for nonuniform meshes.

    star -> G_rwg^{-1/2} star G_patch^{1/2} and
    loop -> G_rwg^{1/2} loop G_pyramid^{-1/2}; their mutual orthogonality
    is preserved exactly.
    """
    rwg_root, rwg_invroot = sym_sqrt_and_invsqrt(grams.rwg)
    patch_root = np.diag(np.sqrt(np.diag(grams.patch)))
    _, pyr_invroot = sym_sqrt_and_invsqrt(grams.pyramid)
    return IncidenceMatrices(
        star=rwg_invroot @ inc.star @ patch_root,
        loop=rwg_root @ inc.loop @ pyr_invroot,
    )


# ---------------------------------------------------------------------------
# Projectors
# ---------------------------------------------------------------------------
def _range_basis(inc_map: np.ndarray):
    """Orthonormal basis of range(inc_map) and the nullity of X = inc_map^T inc_map.

    With V the non-null ``laplacian_filter`` modes of X, ascending,
    X V = V Lambda makes the columns of inc_map V orthogonal with norms
    Lambda^{1/2}; normalized, they are the basis.  The null modes lead the
    ascending order, so the first n - nullity columns span
    inc_map [X_n]^+ inc_map^T at filter index n.
    """
    inc_map = np.asarray(inc_map, float)   # integer matmul bypasses BLAS
    size = inc_map.shape[1]
    spanned = inc_map @ laplacian_filter(inc_map.T @ inc_map, size).vectors
    return spanned / np.linalg.norm(spanned, axis=0), size - spanned.shape[1]


def _range_projectors(inc_map: np.ndarray, n: int):
    """Range projectors of inc_map filtered at index n and unfiltered, from
    one eigensolve of its graph Laplacian."""
    _check_filter_index(n, inc_map.shape[1])
    basis, nullity = _range_basis(inc_map)
    low = basis[:, :max(0, n - nullity)]
    return low @ low.T, basis @ basis.T


def projectors(inc: IncidenceMatrices):
    """Orthogonal projectors onto the star, loop and harmonic subspaces.

    Returns (p_star, p_loop, p_harmonic) with p_star + p_loop + p_harmonic
    = identity and rank(p_harmonic) = 2 * genus.
    """
    star = _range_basis(inc.star)[0]
    loop = _range_basis(inc.loop)[0]
    p_star = star @ star.T
    p_loop = loop @ loop.T
    p_harm = np.eye(len(p_star)) - p_star - p_loop
    return p_star, p_loop, p_harm


@dataclass(frozen=True)
class FilteredProjectors:
    """Low-pass filtered quasi-Helmholtz projectors.

    primal_star / dual_loop are plain filtered projectors; the *_harmonic
    companions add the identity-complement of the unfiltered pair so the
    primal and dual families still sum to the identity at full indices.
    """

    primal_star: np.ndarray
    primal_loop_harmonic: np.ndarray
    dual_loop: np.ndarray
    dual_star_harmonic: np.ndarray


def filtered_projectors(inc: IncidenceMatrices, n_star: int, n_loop: int
                        ) -> FilteredProjectors:
    """Filtered primal/dual projector family at indices (n_star, n_loop).

    Each filtered projector spans an incidence map applied to the lowest
    ``laplacian_filter`` modes of its graph Laplacian; the harmonic
    complements use the unfiltered projectors, built from the same modes,
    so each graph Laplacian is decomposed once.  An index outside
    [1, size] raises ValueError.  At full indices every output reduces to
    the unfiltered projectors (combined with the harmonic part where
    applicable).
    """
    star_n, p_star = _range_projectors(inc.star, n_star)
    loop_n, p_loop = _range_projectors(inc.loop, n_loop)
    complement = np.eye(len(p_star)) - p_star - p_loop
    return FilteredProjectors(
        primal_star=star_n,
        primal_loop_harmonic=loop_n + complement,
        dual_loop=loop_n,
        dual_star_harmonic=star_n + complement,
    )
