import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad, simpson
from scipy.special import h1vp, hankel1, jv, jvp, k0

from filtbem import assembly2d
from filtbem.assembly2d import (assemble_double_layer, assemble_gram,
                                assemble_helmholtz_pair, assemble_hypersingular,
                                assemble_laplacian, assemble_single_layer,
                                quadrature_rule, _shape_blocks, _single_layer_rule)
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh


def _single_layer_blocks(mesh, k, quad_order):
    """Whole shape-function blocks [a][b][p, q] of the single layer, from the
    half-weighted blocks the row-block routine forms for every test segment."""
    half = _shape_blocks(_single_layer_rule(mesh, k, quad_order),
                         np.arange(mesh.n_nodes))
    return [[half[a][b] + half[b][a].T for b in range(2)] for a in range(2)]


@pytest.fixture(scope="module")
def circle256():
    return build_mesh(Ellipse(1.0, 1.0), 256)


@pytest.fixture(scope="module")
def circle_ops(circle256):
    k = 0.4
    slayer, hyper = assemble_helmholtz_pair(circle256, k, 8)
    return {"mesh": circle256, "k": k, "slayer": slayer, "hyper": hyper,
            "gram": assemble_gram(circle256)}


class TestGram:
    def test_uniform_stencil(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 32)
        g = assemble_gram(mesh)
        h = mesh.segment_lengths[0]
        assert np.allclose(np.diag(g), 2.0 * h / 3.0, rtol=1e-13)
        assert g[3, 4] == pytest.approx(h / 6.0, rel=1e-13)
        assert g[0, 31] == pytest.approx(h / 6.0, rel=1e-13)
        assert g[3, 5] == 0.0

    def test_row_sums_are_nodal_weights(self):
        mesh = build_mesh(Ellipse(1.7, 0.8), 40)
        g = assemble_gram(mesh)
        ell = mesh.segment_lengths
        expected = 0.5 * (np.roll(ell, 1) + ell)
        assert np.allclose(g.sum(axis=1), expected, rtol=1e-13)

    def test_spd_and_conditioning(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 128)
        vals = np.linalg.eigvalsh(assemble_gram(mesh))
        assert vals.min() > 0
        assert vals.max() / vals.min() <= 10.0


class TestLaplacian:
    def test_uniform_stencil(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 32)
        lap = assemble_laplacian(mesh)
        h = mesh.segment_lengths[0]
        assert np.allclose(np.diag(lap), 2.0 / h, rtol=1e-13)
        assert lap[3, 4] == pytest.approx(-1.0 / h, rel=1e-13)

    def test_constants_in_nullspace(self):
        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), 64)
        lap = assemble_laplacian(mesh)
        assert np.linalg.norm(lap @ np.ones(64)) <= 1e-13 * np.linalg.norm(lap)

    def test_rank_deficiency_is_one(self):
        mesh = build_mesh(Ellipse(1.3, 0.9), 48)
        vals = np.abs(np.linalg.eigvalsh(assemble_laplacian(mesh)))
        assert np.sum(vals > 1e-10 * vals.max()) == 47


class TestSingleLayer:
    def test_symmetry(self, circle_ops):
        s = circle_ops["slayer"]
        assert np.abs(s - s.T).max() / np.abs(s).max() <= 1e-8

    def test_circle_fourier_symbol(self, circle_ops):
        # Rayleigh quotients with Fourier vectors vs (i pi/2) J_m(k) H_m(k)
        mesh, k = circle_ops["mesh"], circle_ops["k"]
        s, g = circle_ops["slayer"], circle_ops["gram"]
        for m in range(7):
            v = np.exp(1j * m * mesh.node_params)
            disc = (v.conj() @ (s @ v)) / (v.conj() @ (g @ v))
            sym = 0.5j * np.pi * jv(m, k) * hankel1(m, k)
            assert abs(disc - sym) / abs(sym) < 1e-3

    def test_quadrature_self_convergence(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        s8 = assemble_single_layer(mesh, 0.4, 8)
        s16 = assemble_single_layer(mesh, 0.4, 16)
        assert np.abs(s16 - s8).max() / np.abs(s8).max() <= 1e-8

    def test_far_pair_convergence_tight(self):
        # non-touching pairs change by <= 1e-10 relative when order doubles
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        b8 = _single_layer_blocks(mesh, 0.4, 8)
        b16 = _single_layer_blocks(mesh, 0.4, 16)
        idx = np.arange(64)
        mask = np.ones((64, 64), bool)
        for shift in (-1, 0, 1):
            mask[idx, (idx + shift) % 64] = False
        scale = max(np.abs(b8[a][b]).max() for a in range(2) for b in range(2))
        worst = max(np.abs(b16[a][b][mask] - b8[a][b][mask]).max()
                    for a in range(2) for b in range(2))
        assert worst / scale <= 1e-10

    def test_rejects_bad_order_and_wavenumber(self, circle256):
        with pytest.raises(ValueError):
            assemble_single_layer(circle256, 0.4, quad_order=1)
        with pytest.raises(ValueError):
            assemble_single_layer(circle256, -0.4)

    def test_touching_pair_blocks_against_adaptive_oracle(self):
        # 1D-reduced adaptive oracle: exact overlap polynomials integrated
        # against the kernel with its endpoint log singularity
        mesh = build_mesh(Ellipse(1.0, 1.0), 12)
        k = 0.7
        blocks = _single_layer_blocks(mesh, k, 8)
        p = 2
        lp = mesh.segment_lengths[p]

        def overlap(a, b, w):
            lo, hi = max(0.0, w), min(1.0, 1.0 + w)
            if hi <= lo:
                return 0.0
            xs = np.linspace(lo, hi, 801)
            na = xs if a else 1.0 - xs
            nb = (xs - w) if b else 1.0 - (xs - w)
            return simpson(na * nb, x=xs)

        for a in range(2):
            for b in range(2):
                parts = []
                for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
                    for take in (np.real, np.imag):
                        val, _ = quad(
                            lambda w: take(0.25j * hankel1(0, k * lp * abs(w)))
                            * overlap(a, b, w), lo, hi, limit=400)
                        parts.append(val)
                ref = lp * lp * ((parts[0] + parts[2]) + 1j * (parts[1] + parts[3]))
                # oracle itself is ~1e-7 accurate at the log endpoint
                assert blocks[a][b][p, p] == pytest.approx(ref, rel=3e-6)

    def test_adjacent_pair_blocks_against_adaptive_oracle(self):
        # nested adaptive quadrature in coordinates from the shared node v:
        # r = v - u l_p t_p on segment p, r' = v + s l_q t_q on segment
        # p + 1, so the log singularity sits at the corner u = s = 0
        mesh = build_mesh(Ellipse(1.0, 1.0), 12)
        k = 0.7
        blocks = _single_layer_blocks(mesh, k, 8)
        p = 2
        lp, lq = mesh.segment_lengths[p:p + 2]
        arm_p = lp * mesh.tangents[p]
        arm_q = lq * mesh.tangents[p + 1]
        shape_p = (lambda u: u, lambda u: 1.0 - u)   # hats of nodes p, p + 1
        shape_q = (lambda s: 1.0 - s, lambda s: s)   # hats of nodes p + 1, p + 2

        def kernel(u, s):
            return 0.25j * hankel1(0, k * np.linalg.norm(u * arm_p + s * arm_q))

        for a in range(2):
            for b in range(2):
                def inner(u):
                    val, _ = quad(lambda s: shape_q[b](s) * kernel(u, s), 0.0, 1.0,
                                  limit=200, complex_func=True)
                    return shape_p[a](u) * val

                val, _ = quad(inner, 0.0, 1.0, limit=200, complex_func=True)
                assert blocks[a][b][p, p + 1] == pytest.approx(lp * lq * val, rel=3e-6)

    @pytest.mark.parametrize("kind", ["helmholtz", "yukawa"])
    def test_smooth_kernel_takes_its_limit_at_zero_distance(self, kind):
        # the diagonal Gauss pairs of a same segment meet d = 0 exactly
        limit = assembly2d._kernel_smooth_limit(0.4, kind)
        assert assembly2d._kernel_smooth(0.4, 0.0, kind) == limit
        assert abs(assembly2d._kernel_smooth(0.4, 1e-6, kind) - limit) <= 1e-11

    def test_yukawa_kernel_real_and_spd_like(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 48)
        s = assemble_single_layer(mesh, 0.4, 8, kind="yukawa")
        assert np.abs(s.imag).max() <= 1e-14 * np.abs(s.real).max()
        vals = np.linalg.eigvalsh(0.5 * (s.real + s.real.T))
        assert vals.min() > 0  # screened single layer is positive definite


class TestDoubleLayer:
    def test_laplace_limit_spectrum(self):
        # k -> 0 surrogate: eigenvalues of G^{-1} D are {-1/2, 0, 0, ...}
        mesh = build_mesh(Ellipse(1.0, 1.0), 256)
        d = assemble_double_layer(mesh, 1e-4, 8)
        g = assemble_gram(mesh)
        vals = np.linalg.eigvals(np.linalg.solve(g, d))
        order = np.argsort(np.abs(vals + 0.5))
        assert abs(vals[order[0]] + 0.5) < 5e-3
        rest = np.delete(vals, order[0])
        assert np.abs(rest).max() < 5e-3

    def test_not_symmetric(self):
        mesh = build_mesh(Ellipse(1.5, 0.8), 64)
        d = assemble_double_layer(mesh, 0.4, 8)
        assert np.abs(d - d.T).max() > 0.1 * np.abs(d).max()

    def test_self_convergence(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        d8 = assemble_double_layer(mesh, 0.4, 8)
        d16 = assemble_double_layer(mesh, 0.4, 16)
        assert np.abs(d16 - d8).max() / np.abs(d8).max() <= 1e-8

    def test_adjacent_blocks_against_adaptive_oracle(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 12)
        k = 0.7
        d = assemble_double_layer(mesh, k, 8)
        # brute-force Galerkin entry D[4, 4]: quadrature over the four
        # segment pairs touching nodes 4/4, each via adaptive quad on a
        # smooth inner integral (kernel bounded off the shared corners)
        n = 12

        def kernel(r, rq, nq):
            dvec = r - rq
            dist = np.linalg.norm(dvec)
            return (0.25j * k) * hankel1(1, k * dist) * (dvec @ nq) / dist

        def entry(i, j):
            total = 0.0 + 0.0j
            for p in ((i - 1) % n, i):
                for q in ((j - 1) % n, j):
                    x0, x1 = mesh.nodes[p], mesh.nodes[(p + 1) % n]
                    y0, y1 = mesh.nodes[q], mesh.nodes[(q + 1) % n]
                    lp, lq = mesh.segment_lengths[p], mesh.segment_lengths[q]
                    nq_vec = mesh.normals[q]
                    sa = (lambda x: 1 - x) if p == i else (lambda x: x)
                    sb = (lambda y: 1 - y) if q == j else (lambda y: y)
                    if p == q:
                        continue  # kernel vanishes on flat self pairs

                    def inner(x, part):
                        r = x0 + x * (x1 - x0)
                        val, _ = quad(
                            lambda y: part(sa(x) * sb(y)
                                           * kernel(r, y0 + y * (y1 - y0), nq_vec)),
                            0.0, 1.0, limit=200)
                        return val

                    re, _ = quad(lambda x: inner(x, np.real), 0, 1, limit=100)
                    im, _ = quad(lambda x: inner(x, np.imag), 0, 1, limit=100)
                    total += lp * lq * (re + 1j * im)
            return total

        # the hat of node i rises on segment i-1 (local index 1) and falls
        # on segment i (local index 0): sa above encodes exactly that
        ref = entry(4, 4)
        assert d[4, 4] == pytest.approx(ref, rel=1e-6)


class TestHypersingular:
    def test_symmetry(self, circle_ops):
        nh = circle_ops["hyper"]
        assert np.abs(nh - nh.T).max() / np.abs(nh).max() <= 1e-8

    def test_circle_symbol(self, circle_ops):
        # ik * (-(i pi k^2 / 2)) J'_m(k) H'_m(k) per Fourier mode
        mesh, k = circle_ops["mesh"], circle_ops["k"]
        nh, g = circle_ops["hyper"], circle_ops["gram"]
        for m in range(6):
            v = np.exp(1j * m * mesh.node_params)
            disc = (v.conj() @ (nh @ v)) / (v.conj() @ (g @ v))
            sym = 1j * k * (-(0.5j * np.pi * k * k) * jvp(m, k) * h1vp(m, k))
            assert abs(disc - sym) / abs(sym) < 1e-3

    def test_calderon_clustering(self, circle_ops):
        mesh, k = circle_ops["mesh"], circle_ops["k"]
        s, nh, g = circle_ops["slayer"], circle_ops["hyper"], circle_ops["gram"]
        ginv = np.linalg.inv(g)
        composite = (ginv @ s) @ (ginv @ nh) / (1j * k)
        vals = np.linalg.eigvals(composite)
        assert np.mean(np.abs(vals - 0.25) <= 0.1) >= 0.8

    def test_annihilates_constants_in_static_limit(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 128)
        nh = assemble_hypersingular(mesh, 1e-4, 8)
        ones = np.ones(128)
        assert (np.linalg.norm(nh @ ones)
                / (np.linalg.norm(nh, 2) * np.linalg.norm(ones))) <= 1e-2


class TestFiniteness:
    @pytest.mark.parametrize("k", [1e-4, 0.4, 10.0])
    def test_all_operators_finite(self, k):
        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), 48)
        s, nh = assemble_helmholtz_pair(mesh, k, 6)
        d = assemble_double_layer(mesh, k, 6)
        for mat in (s, nh, d):
            assert np.all(np.isfinite(mat))


class TestRowBlockPass:
    @pytest.fixture(scope="class")
    def lobed768(self):
        # 37 row blocks of 21 hat rows: enough for four workers
        return build_mesh(PerturbedCircle(2.0, 0.2, 8), 768)

    def test_pool_size_changes_no_bit(self, lobed768, monkeypatch):
        # 4 workers run on 2 cores with a short switch interval, so that a
        # write lost between threads would show as a changed bit
        real = assembly2d.ThreadPoolExecutor
        workers = []
        monkeypatch.setattr(assembly2d, "ThreadPoolExecutor",
                            lambda max_workers: workers.append(max_workers)
                            or real(max_workers=max_workers))
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for size in (1, 2, 4):
                monkeypatch.setattr(assembly2d, "_pool_size", lambda: size)
                runs.append((*assemble_helmholtz_pair(lobed768, 0.4),
                             assemble_double_layer(lobed768, 0.4),
                             assemble_single_layer(lobed768, 0.4, kind="yukawa")))
        finally:
            sys.setswitchinterval(interval)
        assert workers == [1] * 3 + [2] * 3 + [4] * 3
        for mats in zip(*runs):
            assert all(np.array_equal(mats[0], other) for other in mats[1:])

    def test_symmetric_kernels_exactly_symmetric(self, lobed768):
        s, nh = assemble_helmholtz_pair(lobed768, 0.4)
        yukawa = assemble_single_layer(lobed768, 0.4, kind="yukawa")
        for mat in (s, nh, yukawa):
            assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize("make_rule", [assembly2d._single_layer_rule,
                                           assembly2d._double_layer_rule])
    def test_rule_build_peak_memory(self, make_rule):
        # the rule holds the Gauss rules and the analytic singular parts of
        # the touching pairs, O(N); the pass integrates their remainder per
        # row block
        mesh = build_mesh(Ellipse(1.42, 1.32), 1004)
        n = mesh.n_nodes
        tracemalloc.start()
        try:
            make_rule(mesh, 0.4, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 1.45 MB (S) and 1.48 MB (D); with the remainder built for
        # the whole mesh here it took 4.1 and 3.3 MB
        assert peak <= 2000 * n

    def test_pair_chunks_change_no_bit(self, monkeypatch):
        # chunks of 15 near pairs and of one touching pair give the entries
        # that the default chunks give
        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), 96)
        runs = []
        for chunk in (assembly2d.PAIR_CHUNK, 1000):
            monkeypatch.setattr(assembly2d, "PAIR_CHUNK", chunk)
            runs.append((*assemble_helmholtz_pair(mesh, 0.4),
                         assemble_double_layer(mesh, 0.4)))
        assert all(np.array_equal(*mats) for mats in zip(*runs))

    @pytest.mark.parametrize("n, digests", [
        (256, ("2b01c8f431b168fc", "bc83f3445427ca59", "e4ddb93c82c65973")),
        (768, ("93336d8b4a96d1c8", "2ce838d28f9c7e83", "76576fb129e6d5eb")),
    ])
    def test_operators_bitwise_unchanged(self, n, digests):
        # sha256 prefixes of S, N and D on the lobed curve, taken while the
        # touching remainder was still integrated for the whole mesh before
        # the pass: integrating it per row block changes no bit
        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), n)
        mats = (*assemble_helmholtz_pair(mesh, 0.4), assemble_double_layer(mesh, 0.4))
        assert tuple(hashlib.sha256(mat.tobytes()).hexdigest()[:16]
                     for mat in mats) == digests

    def test_checks_catch_a_bad_matrix(self):
        mat = np.arange(300 * 300, dtype=np.complex128).reshape(300, 300)
        mat += mat.T
        assembly2d.assert_symmetric(mat)
        mat[290, 3] += 1.0
        with pytest.raises(AssertionError):
            assembly2d.assert_symmetric(mat)
        mat[290, 3] = np.nan
        with pytest.raises(FloatingPointError):
            assembly2d._check_assembled(mat, "matrix", symmetric=False)


def _segment_far_mask(mesh):
    """Segment pairs whose midpoints are >= 20 longer-segment lengths apart."""
    ell = mesh.segment_lengths
    mids = mesh.nodes + 0.5 * mesh.tangents * ell[:, None]
    dist = np.linalg.norm(mids[:, None, :] - mids[None, :, :], axis=-1)
    return dist >= 20.0 * np.maximum.outer(ell, ell)


def _hat_pairs(seg_mask):
    """Hat pairs (i, j) whose four supporting segment pairs all lie in seg_mask."""
    prev = np.roll(np.arange(len(seg_mask)), 1)
    return seg_mask & seg_mask[prev] & seg_mask[:, prev] & seg_mask[prev][:, prev]


def _tensor_gauss_entry(mesh, i, j, kernel, order=16):
    """<hat_i, K hat_j> by tensor Gauss-Legendre on each of the four segment
    pairs; ``kernel(diff, d, q)`` takes test-minus-source offsets (g, g, 2),
    distances and the source segment q."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    n = mesh.n_nodes
    ell = mesh.segment_lengths
    chords = mesh.tangents * ell[:, None]
    total = 0.0j
    for p, shape_p in (((i - 1) % n, x), (i, 1.0 - x)):
        r_p = mesh.nodes[p] + x[:, None] * chords[p]
        for q, shape_q in (((j - 1) % n, x), (j, 1.0 - x)):
            r_q = mesh.nodes[q] + x[:, None] * chords[q]
            diff = r_p[:, None, :] - r_q[None, :, :]
            d = np.linalg.norm(diff, axis=-1)
            total += ell[p] * ell[q] * ((w * shape_p) @ kernel(diff, d, q) @ (w * shape_q))
    return total


def _worst_against_oracle(mesh, k, rows, cols):
    """Largest deviation of S, D and Yukawa S from the order-16 oracle at
    the given hat pairs, relative to each matrix's largest entry."""
    cases = (
        (assemble_single_layer(mesh, k),
         lambda diff, d, q: 0.25j * hankel1(0, k * d)),
        (assemble_single_layer(mesh, k, kind="yukawa"),
         lambda diff, d, q: k0(k * d) / (2.0 * np.pi)),
        (assemble_double_layer(mesh, k),
         lambda diff, d, q: 0.25j * k * hankel1(1, k * d) * (diff @ mesh.normals[q]) / d),
    )
    return max(
        max(abs(mat[i, j] - _tensor_gauss_entry(mesh, i, j, kernel))
            for i, j in zip(rows, cols)) / np.abs(mat).max()
        for mat, kernel in cases)


class TestGradedQuadrature:
    @pytest.mark.parametrize("curve", [Ellipse(1.42, 1.32), PerturbedCircle(2.0, 0.2, 8)],
                             ids=["ellipse", "lobed"])
    @pytest.mark.parametrize("k", [0.4, 2.0])
    def test_far_pairs_against_order16_oracle(self, curve, k):
        # far pairs take the half-order rule; it must stay at the oracle
        mesh = build_mesh(curve, 256)
        rows, cols = np.nonzero(_hat_pairs(_segment_far_mask(mesh)))
        pick = np.random.default_rng(7).choice(len(rows), 50, replace=False)
        assert _worst_against_oracle(mesh, k, rows[pick], cols[pick]) <= 1e-13

    def test_folded_curve_index_distant_close_pairs_against_oracle(self):
        # the lobes of this curve come within a few segment lengths of each
        # other while more than 20 indices apart; an admissibility test on
        # the index distance would give these pairs the far rule
        mesh = build_mesh(PerturbedCircle(1.0, 0.8, 5), 256)
        n = mesh.n_nodes
        idx = np.arange(n)
        gap = np.abs(idx[:, None] - idx[None, :])
        gap = np.minimum(gap, n - gap)
        rows, cols = np.nonzero(_hat_pairs(~_segment_far_mask(mesh) & (gap > 20)))
        dist = np.linalg.norm(mesh.nodes[rows] - mesh.nodes[cols], axis=1)
        closest = np.argsort(dist, kind="stable")[:50]
        assert dist[closest].max() < 5.0 * mesh.segment_lengths.max()
        for k in (0.4, 2.0):
            assert _worst_against_oracle(mesh, k, rows[closest], cols[closest]) <= 1e-13

    def test_doubling_quad_order_doubles_far_order(self, monkeypatch):
        # quad_order 16 integrates far pairs at order 8, so the order-8 vs
        # order-16 convergence tests still probe the far field
        assert quadrature_rule(8) == {"near_order": 8, "far_order": 4,
                                      "far_radius": 20.0, "touching_order": 24}
        assert quadrature_rule(16)["far_order"] == 8
        assert quadrature_rule(3)["far_order"] == quadrature_rule(2)["far_order"] == 2
        orders = []
        real = assembly2d._gauss01
        monkeypatch.setattr(assembly2d, "_gauss01",
                            lambda order: orders.append(order) or real(order))
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        assemble_single_layer(mesh, 0.4, 16)
        assemble_double_layer(mesh, 0.4, 16)
        assert set(orders) == {8, 16, 48}
