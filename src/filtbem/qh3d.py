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
    verts = [tuple(p) for p in v]
    faces = f.tolist()
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = 0.5 * (np.array(verts[i]) + np.array(verts[j]))
                p /= np.linalg.norm(p)
                verts.append(tuple(p))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = new_faces
    return make_mesh(np.array(verts), np.array(faces))


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

    def vid(i, j):
        return (i % n_major) * n_minor + (j % n_minor)

    faces = []
    for i in range(n_major):
        for j in range(n_minor):
            faces.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            faces.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return make_mesh(verts, np.array(faces))


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
    pos = 1
    nv, nf = int(tokens[pos]), int(tokens[pos + 1])
    pos += 3  # vertex, face, (ignored) edge counts
    verts = np.array(tokens[pos:pos + 3 * nv], float).reshape(nv, 3)
    pos += 3 * nv
    faces = []
    for _ in range(nf):
        cnt = int(tokens[pos])
        if cnt != 3:
            raise ValueError(f"non-triangular face with {cnt} vertices")
        faces.append([int(tokens[pos + 1]), int(tokens[pos + 2]),
                      int(tokens[pos + 3])])
        pos += 4
    return make_mesh(verts, np.array(faces, np.int64))


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


def build_grams(mesh: TriangleMesh) -> Grams:
    """Assemble the three Gram matrices (all integrals exact).

    Edge functions follow the usual div-conforming normalization
    length/(2 area) (r - opposite vertex); their pairwise products are
    quadratic per triangle, integrated exactly by the midpoint rule.
    Patch functions are indicator 1 per triangle; vertex functions are the
    linear surface hats.
    """
    v = mesh.vertices
    tris = mesh.triangles
    areas = mesh.triangle_areas()
    nv, ne, nf = mesh.n_vertices, mesh.n_edges, mesh.n_triangles

    g_patch = np.diag(areas)

    g_pyr = np.zeros((nv, nv))
    for f, tri in enumerate(tris):
        a = areas[f]
        for i in range(3):
            for j in range(3):
                g_pyr[tri[i], tri[j]] += a / 6.0 if i == j else a / 12.0

    # edge basis bookkeeping: for each edge and its two triangles find the
    # opposite vertex and sign
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
    return Grams(rwg=g_rwg, patch=g_patch, pyramid=g_pyr)


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
