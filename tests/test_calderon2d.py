import dataclasses
import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from filtbem import calderon2d
from filtbem.assembly2d import (_row_block_pass, _single_layer_rule,
                                assemble_double_layer, assemble_gram,
                                assemble_helmholtz_pair, assemble_laplacian,
                                segment_rule, sparse_gram)
from filtbem.calderon2d import (FORMULATIONS, assemble_operators,
                                build_calderon_matrix, build_filtered_system,
                                canonical_modes, filter_modes,
                                formulation_weights, lowest_modes,
                                normalized_double_layer, normalized_rhs,
                                second_kind_split)
from filtbem.compression import lowrank_factor
from filtbem.excitation2d import MagneticLineSource, PlaneWaveTE, assemble_rhs
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh
from filtbem.solver import dense_solve, woodbury_factorize
from filtbem.spectral import (STRIP, CyclicStrips, chebyshev_invsqrt,
                              cyclic_strips, laplacian_filter,
                              laplacian_modes, sym_sqrt_and_invsqrt)

K = 0.4
ETA = 1.0
SRC = MagneticLineSource((3.0, 0.0))
# the two benchmark curves: the refine ellipse and the lobed table circle
BENCH_CURVES = {"ellipse": Ellipse(1.42, 1.32),
                "lobed": PerturbedCircle(2.0, 0.2, 8)}


@pytest.fixture(scope="module")
def circle_ops():
    mesh = build_mesh(Ellipse(1.0, 1.0), 256)
    return mesh, assemble_operators(mesh, K, need_double_layer=True)


def gram_root_and_laplacian(mesh):
    """G^{1/2} and the symmetrized G^{-1/2} L G^{-1/2}, from dense eigh."""
    root, gm = sym_sqrt_and_invsqrt(assemble_gram(mesh))
    lap_norm = gm @ assemble_laplacian(mesh) @ gm
    return root, 0.5 * (lap_norm + lap_norm.T)


def cyclic_band(mat):
    """The largest cyclic distance |i - j| of a stored entry (i, j)."""
    coo = scipy.sparse.coo_array(mat)
    offset = (coo.col - coo.row) % mat.shape[0]
    return int(np.minimum(offset, mat.shape[0] - offset).max())


def refined_invsqrt(gram):
    """Dense G^{-1/2}: eigh's root after one Newton step X (3I - G X^2) / 2.

    eigh alone leaves ||X G X - I|| at up to 3e-14 on the bench curves,
    depending on the BLAS thread count; the step brings it below 1.1e-15,
    so comparisons at 1e-14 test the banded root, not this oracle.
    """
    _, gm = sym_sqrt_and_invsqrt(gram)
    gm = 0.5 * (3.0 * gm - gm @ gram @ gm @ gm)
    return 0.5 * (gm + gm.T)


def dense_system(system):
    """beta I plus the filtered compact block, as one N x N array."""
    mat = np.array(system.compact)
    mat[np.diag_indices_from(mat)] += system.beta
    return mat


def dense_modes(ops, filter_n):
    """Every mode from dense eigh of G^{-1/2} L G^{-1/2}, made canonical at
    the cut after ``filter_n`` columns as the filter's modes are."""
    _, lap_norm = gram_root_and_laplacian(ops.mesh)
    values, vectors = laplacian_modes(lap_norm)
    return canonical_modes(ops, values, vectors, filter_n)


class TestCalderonMatrix:
    def test_eigenvalue_clustering(self, circle_ops):
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        vals = np.linalg.eigvals(zmat)
        assert np.mean(np.abs(vals - 0.25) <= 0.1) >= 0.8

    def test_quadrature_consistency(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        z8 = build_calderon_matrix(mesh, K,
                                   ops=assemble_operators(mesh, K, quad_order=8))
        z16 = build_calderon_matrix(mesh, K,
                                    ops=assemble_operators(mesh, K, quad_order=16))
        assert np.abs(z16 - z8).max() / np.abs(z8).max() <= 1e-8
        assert np.array_equal(build_calderon_matrix(mesh, K), z8)

    def test_quad_order_follows_the_bundle(self):
        # the order ops was assembled at is the only one: products built on
        # ops use it
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        ops = assemble_operators(mesh, K, quad_order=12)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        assert not np.array_equal(zmat, build_calderon_matrix(mesh, K))
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 64, ops=ops)
        assert np.array_equal(system.compact.coeffs, zmat - 0.25 * np.eye(64))
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        assert system.compact.shape == zmat.shape

    def test_rotation_invariance_on_circle(self, circle_ops):
        # uniform circle assembly is shift-equivariant: entries equal after
        # index rotation
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        rolled = np.roll(zmat, (1, 1), axis=(0, 1))
        assert np.abs(zmat - rolled).max() <= 1e-10 * np.abs(zmat).max()


class TestOperatorBundle:
    def test_operators_stored_raw_and_read_only(self):
        # the bundle keeps N and D raw and P = S G^{-1} once, in its HODLR
        # form, which below two leaves is P itself; no Gram-normalized form
        # is kept: those are made on demand, against the independent dense
        # root to rounding (the banded root agrees with it, not bit for bit)
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        ops = assemble_operators(mesh, K, need_double_layer=True)
        gram = assemble_gram(mesh)
        gm = sym_sqrt_and_invsqrt(gram)[1]
        slayer, hyper = assemble_helmholtz_pair(mesh, K)
        dlayer = assemble_double_layer(mesh, K)
        assert assemble_operators(mesh, K).dlayer is None
        dn = normalized_double_layer(ops)
        assert normalized_double_layer(ops) is not dn   # nothing cached
        ref_p = np.linalg.solve(gram, slayer.T).T       # G is symmetric
        form = ops.slayer_ginv_hodlr
        assert form.levels == ()
        assert (np.abs(form.diagonal - ref_p).max()
                <= 1e-14 * np.abs(ref_p).max())
        assert np.array_equal(ops.hyper, hyper)
        assert np.array_equal(ops.dlayer, dlayer)
        for stored in (form.diagonal, ops.hyper, ops.dlayer):
            assert not stored.flags.writeable
        assert ops.nbytes == 3 * 16 * 96 ** 2 + ops.gram_invsqrt.nbytes
        zref = gm @ slayer @ np.linalg.inv(gram) @ hyper @ gm / (1j * K)
        for made, ref in ((build_calderon_matrix(mesh, K, ops=ops), zref),
                          (dn, gm @ dlayer @ gm)):
            assert np.abs(made - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("need_double_layer", [False, True])
    def test_no_dense_p_outlives_assembly(self, need_double_layer):
        # above two leaves the only N x N arrays left are N (and D): the
        # bundle holds P in its HODLR form alone, every array of which is
        # read-only, and nothing else keeps the dense P alive once
        # assemble_operators returns
        mesh = build_mesh(BENCH_CURVES["lobed"], 256)
        n = mesh.n_nodes
        tracemalloc.start()
        try:
            ops = assemble_operators(mesh, K,
                                     need_double_layer=need_double_layer)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        form, gm = ops.slayer_ginv_hodlr, ops.gram_invsqrt
        squares = [value for value in vars(ops).values()
                   if isinstance(value, np.ndarray) and value.shape == (n, n)]
        assert squares == [ops.hyper] + [ops.dlayer] * need_double_layer
        assert form.levels and form.diagonal.shape[1:] != (n, n)
        rule = ops.rule
        arrays = (squares + [form.diagonal, gm.rows, rule.midpoints,
                             rule.reach_sq, *rule.far, *rule.near, *rule.touch]
                  + [arr for pair in form.levels for arr in pair])
        assert not any(arr.flags.writeable for arr in arrays)
        assert ops.nbytes == ((1 + need_double_layer) * 16 * n * n
                              + form.nbytes + gm.nbytes)
        # measured: 0.05 N x N above ops.nbytes without D, 0.02 with it; a
        # dense P kept anywhere would add 1
        assert live <= ops.nbytes + 0.25 * 16 * n * n

    def test_bundle_is_frozen_and_d_is_asked_for(self):
        # D has one producer, assemble_operators(need_double_layer=True):
        # no reader adds it to a bundle later
        mesh = build_mesh(Ellipse(1.42, 1.32), 64)
        ops = assemble_operators(mesh, K)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ops.dlayer = assemble_double_layer(mesh, K)
        for formulation in ("mfie", "cfie"):
            with pytest.raises(ValueError, match="need_double_layer"):
                second_kind_split(ops, formulation)
            with pytest.raises(ValueError, match="need_double_layer"):
                build_filtered_system(mesh, K, ETA, SRC, formulation, 21,
                                      ops=ops)
        assert ops.dlayer is None

    def test_one_right_root_per_compact_block(self, monkeypatch):
        # the cfie block weighs N and D in one sum before G^{-1/2} acts on
        # the right, once; a bundle without D is refused before any product
        mesh = build_mesh(BENCH_CURVES["lobed"], 128)
        ops = assemble_operators(mesh, K, need_double_layer=True)
        times_right = calderon2d._times_right
        calls = []

        def counting(apply, mat):
            calls.append(mat.shape)
            return times_right(apply, mat)

        monkeypatch.setattr(calderon2d, "_times_right", counting)
        system = build_filtered_system(mesh, K, ETA, SRC, "cfie", 21, ops=ops)
        assert calls == [system.compact.coeffs.shape]

        def refuse(*args, **kwargs):
            raise AssertionError("product formed")

        monkeypatch.setattr(calderon2d, "_left_rows", refuse)
        bare = dataclasses.replace(ops, dlayer=None)
        with pytest.raises(ValueError, match="need_double_layer"):
            build_filtered_system(mesh, K, ETA, SRC, "cfie", 21, ops=bare)

    def test_yukawa_bundle_takes_n_from_the_pair(self, monkeypatch):
        # every kernel kind takes N from the Helmholtz S+N pass, and drops
        # that pass's S before its own single layer is assembled, so its
        # peak stays at the helmholtz bundle's: measured 4.27 against 4.27
        # to 4.28 N x N arrays at N = 256; keeping the dropped S would add
        # one array.  An unknown kind is refused before that pass.
        mesh = build_mesh(Ellipse(1.0, 1.0), 256)
        n = mesh.n_nodes
        peaks = {}
        for kind in ("helmholtz", "yukawa"):
            tracemalloc.start()
            try:
                ops = assemble_operators(mesh, K, slayer_kind=kind)
                _, peaks[kind] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert ops.hyper.tobytes() == assemble_helmholtz_pair(mesh, K)[1].tobytes()
        assert peaks["yukawa"] <= peaks["helmholtz"] + 0.25 * 16 * n * n

        def refuse(*args, **kwargs):
            raise AssertionError("kernel pass run")

        monkeypatch.setattr(calderon2d, "assemble_helmholtz_pair", refuse)
        with pytest.raises(ValueError, match="slayer_kind"):
            assemble_operators(mesh, K, slayer_kind="laplace")

    @pytest.mark.parametrize("curve", sorted(BENCH_CURVES))
    @pytest.mark.parametrize("n", [96, 502])
    def test_banded_gram_root(self, curve, n):
        mesh = build_mesh(BENCH_CURVES[curve], n)
        gram = assemble_gram(mesh)
        gm = chebyshev_invsqrt(sparse_gram(mesh))
        dense = gm.toarray()
        assert np.abs(dense @ gram @ dense - np.eye(n)).max() <= 1e-14
        ref = refined_invsqrt(gram)
        assert np.abs(ref @ gram @ ref - np.eye(n)).max() <= 2e-15
        assert np.abs(dense - ref).max() <= 1e-14 * np.abs(ref).max()
        assert gm.nnz <= 80 * n    # half-bandwidth = Chebyshev degree <= 39

    @pytest.mark.parametrize("n", [8, 16, 96, 127, 128, 1004, 1030])
    def test_strips_match_the_banded_root(self, n):
        # one dense strip up to N = STRIP + 2 b (b = 36-37 from N = 96), whole
        # strips and a shorter last one above.  The bound is relative to
        # max |G^{-1/2}| |X|, the scale of both products' rounding: against
        # max |G^{-1/2} X| some draws of X reach 1.2e-15
        mesh = build_mesh(BENCH_CURVES["lobed"], n)
        csr = chebyshev_invsqrt(sparse_gram(mesh))
        strips = cyclic_strips(csr)
        band = cyclic_band(csr)
        assert strips.size == n and strips.band == band
        assert not strips.rows.flags.writeable
        assert strips.nbytes <= 8 * n * (STRIP + 2 * band)
        assert (strips.rows.shape == (n, n)) == (n <= STRIP + 2 * band)
        rng = np.random.default_rng(0)
        for shape in ((n,), (n, 1), (n, 4), (n, 2 * n)):
            for x in (rng.standard_normal(shape),
                      rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape)):
                got = strips @ x
                assert got.shape == shape and got.dtype == x.dtype
                assert (np.abs(got - csr @ x).max()
                        <= 1e-15 * (abs(csr) @ np.abs(x)).max())
        for shape in ((n + 1,), (2 * n, 4), (n // 2, 2)):
            with pytest.raises(ValueError):
                strips @ np.ones(shape)

    def test_strips_of_a_matrix_with_repeated_entries(self):
        # a cyclically banded CSR input whose entries repeat, as sparse
        # sums can leave them, is summed before it is laid into strips
        n, rng = 300, np.random.default_rng(4)
        row = np.sort(rng.integers(0, n, 4000))
        col = (row + rng.integers(-9, 10, 4000)) % n
        mat = scipy.sparse.csr_array(
            (rng.standard_normal(4000), col,
             np.searchsorted(row, np.arange(n + 1))), shape=(n, n))
        assert not mat.has_canonical_format
        strips = cyclic_strips(mat)
        assert strips.band == 9 and strips.rows.shape == (n, STRIP + 18)
        x = rng.standard_normal((n, 3))
        ref = mat.toarray() @ x
        assert np.abs(strips @ x - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("scale", [4.0, 7e5, 1e-300])
    def test_chebyshev_root_of_a_multiple_of_identity(self, scale):
        # a one-point Gershgorin interval has no Chebyshev interpolant
        root = chebyshev_invsqrt(scale * scipy.sparse.identity(5))
        assert np.array_equal(root.toarray(), scale ** -0.5 * np.eye(5))

    @pytest.mark.parametrize("width", [1e-15, 5e-15, 3e-14])
    def test_chebyshev_root_of_a_nearly_constant_spectrum(self, width):
        # this narrow an interval puts the computed Bernstein-ellipse radius
        # rho past the singularity of x^{-1/2} at 0
        spd = scipy.sparse.diags([np.linspace(1.0, 1.0 + width, 5)], [0])
        root = chebyshev_invsqrt(spd).toarray()
        assert np.abs(root @ spd.toarray() @ root - np.eye(5)).max() <= 4e-16

    def test_chebyshev_root_rejects_uncertified_input(self):
        with pytest.raises(ValueError, match="Gershgorin"):
            chebyshev_invsqrt(scipy.sparse.csr_array(np.array([[1.0, 2.0],
                                                               [2.0, 1.0]])))

    def test_modes_are_read_only_orthonormal_and_ascending(self):
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        ops = assemble_operators(mesh, K)
        root, lap_norm = gram_root_and_laplacian(mesh)
        w = filter_modes(ops, 40).vectors
        assert w.shape == (96, 40)
        assert not w.flags.writeable
        assert np.abs(w.T @ w - np.eye(40)).max() <= 1e-12
        rayleigh = np.einsum("ij,ij->j", w, lap_norm @ w)
        assert np.all(np.diff(rayleigh) >= -1e-12 * rayleigh.max())
        u = root @ np.ones(96)       # the constant mode, Gram-normalized
        assert abs(u @ w[:, 0]) == pytest.approx(np.linalg.norm(u), rel=1e-12)

    @pytest.mark.parametrize("n", [256, 1004])
    def test_constant_mode_in_closed_form(self, n):
        # G^{1/2} 1 = G (G^{-1/2} 1); dense eigh of the normalized Laplacian
        # resolves this mode only to about 1e-12 (7.6e-12 at N=1004)
        mesh = build_mesh(BENCH_CURVES["ellipse"], n)
        ops = assemble_operators(mesh, K)
        gram = assemble_gram(mesh)
        u = gram @ (refined_invsqrt(gram) @ np.ones(n))
        w = filter_modes(ops, 21).vectors
        assert np.linalg.norm(w[:, 0] - u / np.linalg.norm(u)) <= 1e-14
        assert np.abs(w[:, 0] @ w[:, 1:]).max() <= 1e-15

    @pytest.mark.parametrize("need_double_layer", [False, True])
    def test_assembly_peak_memory(self, need_double_layer):
        # the peak sits in the kernel pass (the output matrices and the row
        # blocks in flight) and the Gram normalization, which adds one N x N
        # array at a time; building the touching blocks stays far below it
        mesh = build_mesh(Ellipse(1.0, 1.0), 256)
        n = mesh.n_nodes
        tracemalloc.start()
        try:
            assemble_operators(mesh, K, need_double_layer=need_double_layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * n * n

    @staticmethod
    def _assembly_peak_at_1004(monkeypatch, workers, need_double_layer):
        """tracemalloc peak of the bundle's assembly at N = 1004 on
        ``workers`` kernel-pass threads (63 row blocks take up to 7)."""
        import filtbem.assembly2d as assembly_mod

        monkeypatch.setattr(assembly_mod, "_pool_size", lambda: workers)
        mesh = build_mesh(BENCH_CURVES["ellipse"], 1004)
        threads = threading.active_count()
        tracemalloc.start()
        try:
            assemble_operators(mesh, K, need_double_layer=need_double_layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert threading.active_count() == threads   # no pool thread outlives it
        return peak / (16 * mesh.n_nodes ** 2)

    @pytest.mark.parametrize("need_double_layer, arrays", [(False, 2.6), (True, 3.6)])
    def test_assembly_peak_memory_at_1004(self, monkeypatch, need_double_layer, arrays):
        # the kernel pass folds into the hat matrices with no N x N
        # accumulator, and S G^{-1} is formed in place, so the peak is the
        # kernel pass: its output matrices plus the row blocks in flight;
        # the bounds hold on 2 workers, where they were measured (2.39 and
        # 3.39 N x N, the same with S+N on the half window as on all columns)
        assert self._assembly_peak_at_1004(monkeypatch, 2, need_double_layer) <= arrays

    @pytest.mark.parametrize("need_double_layer, arrays", [(False, 2.7), (True, 4.5)])
    def test_assembly_peak_memory_on_seven_workers(self, monkeypatch,
                                                   need_double_layer, arrays):
        # the ceiling of _row_block_pass: the matrices live during the pass
        # (S and N; P, N and D with D) plus 1.5 N x N of blocks in flight,
        # whatever the worker count (measured 2.57-2.58 and 3.92-3.93
        # N x N; S+N took 2.84 when its blocks spanned all N columns rather
        # than the half window)
        assert self._assembly_peak_at_1004(monkeypatch, 7, need_double_layer) <= arrays

    def test_far_sweep_peak_memory(self):
        # the row-block kernel pass alone (its rule built beforehand): the
        # output matrix plus the shape blocks and kernel temporaries of the
        # row blocks in flight
        mesh = build_mesh(Ellipse(1.0, 1.0), 256)
        n = mesh.n_nodes
        rule = _single_layer_rule(mesh, K, 8)
        tracemalloc.start()
        try:
            _row_block_pass(rule, [("single-layer matrix", None)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 16 * n * n

    def test_set_up_runs_no_dense_eigensolver(self, monkeypatch):
        # neither the operator bundle nor the filtered system needs a dense
        # eigendecomposition, and neither holds an N x N basis; the root's
        # strips hold at most 8 N (STRIP + 2 b) bytes for the half-bandwidth
        # b of the banded root, which stays at most 39 (80 entries a row)
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh called")

        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        mesh = build_mesh(BENCH_CURVES["lobed"], 128)
        ops = assemble_operators(mesh, K, need_double_layer=True)
        band = cyclic_band(chebyshev_invsqrt(sparse_gram(mesh)))
        assert ops.gram_invsqrt.band == band and 2 * band + 1 <= 80
        assert ops.gram_invsqrt.nbytes <= 8 * 128 * (STRIP + 2 * band)
        assert not hasattr(ops, "modes")
        for formulation in ("efie", "cfie"):
            system = build_filtered_system(mesh, K, ETA, SRC, formulation, 64,
                                           ops=ops)
            assert system.compact.shape == (128, 128)

    @pytest.mark.parametrize("formulation", ["efie", "mfie", "cfie"])
    def test_fast_path_forms_no_dense_block(self, monkeypatch, formulation):
        # below filter_n = N the filtered system and its compression work on
        # the filter_n x N coefficient block: no Calderon product, no N x N
        # split, and less than one N x N complex array on top of ops (the
        # peak, about half of one, is ARPACK's filter_n + 64 Lanczos vectors)
        import filtbem.calderon2d as calderon_mod

        def refuse(*args, **kwargs):
            raise AssertionError("dense block formed")

        mesh = build_mesh(BENCH_CURVES["lobed"], 256)
        n = mesh.n_nodes
        ops = assemble_operators(mesh, K, need_double_layer=True)
        for name in ("build_calderon_matrix", "second_kind_split"):
            monkeypatch.setattr(calderon_mod, name, refuse)
        tracemalloc.start()
        try:
            system = build_filtered_system(mesh, K, ETA, SRC, formulation, 21,
                                           ops=ops)
            skeleton = lowrank_factor(system.compact, 1e-3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.compact.coeffs.shape == (21, n)
        assert skeleton.left.shape[0] == n
        assert peak < 16 * n * n

    @pytest.mark.parametrize("formulation", ["efie", "cfie"])
    def test_dense_route_holds_no_square_temporary(self, formulation):
        # the dense route makes G^{-1/2} (P N / (ik) - alpha D) one block of
        # columns at a time into its result, so besides the result it holds
        # O(N) columns, not the three N x N arrays of one form product with
        # all of N (measured: 1.41 N x N here, 3.30 before)
        mesh = build_mesh(BENCH_CURVES["lobed"], 512)
        n = mesh.n_nodes
        ops = assemble_operators(mesh, K, need_double_layer=True)
        route = ((lambda: build_calderon_matrix(mesh, K, ops=ops))
                 if formulation == "efie"
                 else (lambda: second_kind_split(ops, formulation)[1]))
        tracemalloc.start()
        try:
            route()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * n * n

    def test_rhs_matches_unnormalized_formula(self):
        # v_e carries the factor -ik that gives it the unknown of v_h
        mesh = build_mesh(Ellipse(1.42, 1.32), 96)
        ops = assemble_operators(mesh, K)
        gm = ops.gram_invsqrt
        slayer, _ = assemble_helmholtz_pair(mesh, K)
        e_vec, h_vec = assemble_rhs(segment_rule(mesh), SRC, K, ETA)
        v_e, v_h = normalized_rhs(ops, SRC, ETA)
        ref = (1j * K / ETA) * (gm @ (slayer @ np.linalg.solve(
            assemble_gram(mesh), e_vec)))
        assert np.abs(v_e - ref).max() <= 1e-13 * np.abs(ref).max()
        ref_h = -(gm @ h_vec)
        assert np.abs(v_h - ref_h).max() <= 1e-14 * np.abs(ref_h).max()

    def test_rhs_takes_one_root_product_and_no_gram_solve(self, monkeypatch):
        # per right-hand side: one matvec with the form of S G^{-1} and one
        # (N, 4) product with the strips of G^{-1/2}; any further root
        # product, G solve or per-mesh rule is paid by every source of a
        # sweep.  The three sources take the far, the near and the plane
        # wave's rule.
        import filtbem.assembly2d as assembly_mod
        import filtbem.calderon2d as calderon_mod

        products = []

        class CountingStrips(CyclicStrips):
            def __matmul__(self, other):
                products.append(np.shape(other))
                return super().__matmul__(other)

        def refuse(*args, **kwargs):
            raise AssertionError("G or a Gauss rule made per right-hand side")

        mesh = build_mesh(Ellipse(1.42, 1.32), 400)
        ops = assemble_operators(mesh, K)
        sources = [SRC, MagneticLineSource((1.5, 0.0)),
                   PlaneWaveTE((0.6, 0.8))]
        expected = [normalized_rhs(ops, src, ETA)[0] for src in sources]
        ops = dataclasses.replace(
            ops, gram_invsqrt=CountingStrips(**vars(ops.gram_invsqrt)))
        for name in ("splu", "spsolve", "factorized"):
            monkeypatch.setattr(scipy.sparse.linalg, name, refuse)
        monkeypatch.setattr(calderon_mod, "sparse_gram", refuse)
        monkeypatch.setattr(calderon_mod, "segment_rule", refuse)
        for name in ("gauss_points", "quadrature_rule", "segment_rule"):
            monkeypatch.setattr(assembly_mod, name, refuse)
        for src, v_e in zip(sources, expected):
            products.clear()
            assert np.array_equal(normalized_rhs(ops, src, ETA)[0], v_e)
            assert products == [(400, 4)]

    def test_rhs_allocates_no_dense_temporary(self, circle_ops):
        # G^{-1/2} is real: promoting it to complex would allocate 16 N^2 bytes
        mesh, ops = circle_ops
        n = mesh.n_nodes
        normalized_rhs(ops, SRC, ETA)
        tracemalloc.start()
        try:
            normalized_rhs(ops, SRC, ETA)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_mismatched_bundle_rejected(self, circle_ops):
        mesh, ops = circle_ops
        other = build_mesh(Ellipse(1.0, 1.0), mesh.n_nodes)
        with pytest.raises(ValueError):
            build_calderon_matrix(mesh, 2.0, ops=ops)
        with pytest.raises(ValueError):
            build_calderon_matrix(other, K, ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(mesh, 2.0, ETA, SRC, "efie", 21, ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(other, K, ETA, SRC, "efie", 21, ops=ops)

    def test_second_kind_split(self, circle_ops):
        mesh, ops = circle_ops
        eye = np.eye(mesh.n_nodes)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        dn = normalized_double_layer(ops)
        beta, compact = second_kind_split(ops, "efie")
        assert beta == 0.25
        assert np.array_equal(compact, zmat - 0.25 * eye)
        beta, compact = second_kind_split(ops, "mfie")
        assert beta == 0.5
        assert np.array_equal(compact, -dn)
        beta, compact = second_kind_split(ops, "cfie", alpha=0.3)
        assert beta == pytest.approx(0.4)
        expected = zmat + 0.3 * (0.5 * eye - dn)
        assert np.abs(compact + beta * eye - expected).max() <= 1e-14
        with pytest.raises(ValueError):
            second_kind_split(ops, "EFIE")
        with pytest.raises(ValueError):
            second_kind_split(ops, "cfie", alpha=0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_coupling_rejected(self, alpha):
        # a NaN or infinite alpha would pass an alpha <= 0 check and give a
        # non-finite system; it is refused before any product
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        ops = assemble_operators(mesh, K, need_double_layer=True)
        with pytest.raises(ValueError, match="finite"):
            formulation_weights("cfie", alpha)
        with pytest.raises(ValueError, match="finite"):
            second_kind_split(ops, "cfie", alpha=alpha)
        with pytest.raises(ValueError, match="finite"):
            build_filtered_system(mesh, K, ETA, SRC, "cfie", 21, alpha=alpha,
                                  ops=ops)


class TestCompactPart:
    def test_diagonal_difference_is_exact_quarter(self, circle_ops):
        mesh, ops = circle_ops
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        _, cmat = second_kind_split(ops, "efie")
        assert np.allclose(np.diag(zmat) - np.diag(cmat), 0.25)

    def test_filtered_compact_is_low_rank(self, circle_ops):
        # singular values of the filtered block drop below 6e-6 * max well
        # before rank 40
        mesh, ops = circle_ops
        _, cmat = second_kind_split(ops, "efie")
        w = filter_modes(ops, 21).vectors[:, 1:]   # without the constant mode
        filtered = w @ (w.T @ cmat)
        sv = np.linalg.svd(filtered, compute_uv=False)
        rank_at_tol = int(np.sum(sv > 6e-6 * sv[0]))
        assert rank_at_tol <= 40
        assert np.linalg.norm(filtered, 2) <= np.linalg.norm(cmat, 2)


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
        x_filt = np.linalg.solve(dense_system(system), system.rhs)
        u = filter_modes(ops, 1).vectors[:, 0]
        proj = np.eye(mesh.n_nodes) - np.outer(u, u)  # every mode but the constant
        num = np.linalg.norm(proj @ (x_filt - x_dense))
        assert num / np.linalg.norm(proj @ x_dense) <= 1e-8

    def test_filtered_efie_tracks_dense_solution(self, circle_ops):
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 64, ops=ops)
        zmat = build_calderon_matrix(mesh, K, ops=ops)
        x_dense = dense_solve(zmat, system.rhs)
        x_filt = np.linalg.solve(dense_system(system), system.rhs)
        assert (np.linalg.norm(x_filt - x_dense)
                / np.linalg.norm(x_dense)) <= 1e-5

    def test_filtered_mfie_tracks_unfiltered(self, circle_ops):
        mesh, ops = circle_ops
        system = build_filtered_system(mesh, K, ETA, SRC, "mfie", 64, ops=ops)
        assert system.beta == 0.5
        unfiltered = 0.5 * np.eye(mesh.n_nodes) - normalized_double_layer(ops)
        x_ref = dense_solve(unfiltered, system.rhs)
        x_filt = np.linalg.solve(dense_system(system), system.rhs)
        assert (np.linalg.norm(x_filt - x_ref)
                / np.linalg.norm(x_ref)) <= 1e-3

    def test_efie_and_mfie_solutions_proportional(self, circle_ops):
        # every formulation solves for one unknown, -h_tot in
        # Gram-normalized coefficients, so the solutions agree up to the
        # discretization error (1.0e-7 here, 5e-8 for cfie); agreement
        # jointly validates every kernel sign and normalization
        mesh, ops = circle_ops
        solutions = []
        for formulation in ("mfie", "efie", "cfie"):
            system = build_filtered_system(mesh, K, ETA, SRC, formulation,
                                           mesh.n_nodes, ops=ops)
            solutions.append(np.linalg.solve(dense_system(system), system.rhs))
        x_m = solutions[0]
        for x in solutions[1:]:
            assert np.linalg.norm(x - x_m) / np.linalg.norm(x_m) <= 1e-6

    def test_yukawa_preconditioning_pipeline(self):
        # imaginary-wavenumber preconditioning kernel: still second kind,
        # and the filtered solve still tracks its dense reference
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

    @pytest.mark.parametrize("filter_n", [1, 21, 256])   # 256 = N: no basis
    def test_one_rule_across_both_routes(self, circle_ops, filter_n):
        # every formulation is first Z + second (I/2 - Dn) with weights
        # (1, 0), (0, 1) and (1, alpha): the filtered block is w.T times the
        # unfiltered one, beta = first/4 + second/2 and the rhs is
        # first v_e + second v_h
        mesh, ops = circle_ops
        systems = {}
        for formulation, (first, second) in (("efie", (1.0, 0.0)),
                                             ("mfie", (0.0, 1.0)),
                                             ("cfie", (1.0, 0.3))):
            beta, compact_raw = second_kind_split(ops, formulation, alpha=0.3)
            system = build_filtered_system(mesh, K, ETA, SRC, formulation,
                                           filter_n, alpha=0.3, ops=ops)
            basis = system.compact.basis
            assert (basis is None) == (filter_n == mesh.n_nodes)
            expected = compact_raw if basis is None else basis.T @ compact_raw
            assert (np.abs(system.compact.coeffs - expected).max()
                    <= 1e-12 * np.abs(expected).max())
            assert system.beta == beta == first / 4 + second / 2
            systems[formulation] = system
        v_e, v_h = normalized_rhs(ops, SRC, ETA)
        assert np.array_equal(systems["efie"].rhs, v_e)
        assert np.array_equal(systems["mfie"].rhs, v_h)
        assert np.array_equal(systems["cfie"].rhs,
                              systems["efie"].rhs + 0.3 * systems["mfie"].rhs)

    def test_both_routes_near_the_exact_product(self):
        # oracle: w.T (G^{-1/2} S G^{-1} N G^{-1/2} / (ik) - I/4) in 50-digit
        # arithmetic from the same float64 S, N, G, banded G^{-1/2} and w.
        # Measured 2.0e-14 (thin B) and 5.5e-15 (dense route); a G^{-1}
        # taken as the squared banded root is off by 1.5e-13
        mpmath = pytest.importorskip("mpmath")

        def to_mp(mat):
            return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                                  for row in mat])

        mesh = build_mesh(BENCH_CURVES["ellipse"], 64)
        ops = assemble_operators(mesh, K)
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        w = system.compact.basis
        slayer, hyper = assemble_helmholtz_pair(mesh, K)
        with mpmath.workdps(50):
            root = to_mp(ops.gram_invsqrt @ np.eye(mesh.n_nodes))
            rows = (to_mp(w.T) * root * to_mp(slayer)
                    * mpmath.inverse(to_mp(assemble_gram(mesh)))
                    * to_mp(hyper) * root) / (1j * mpmath.mpf(K))
            exact = np.array(rows.tolist(), dtype=np.complex128) - 0.25 * w.T
        scale = np.abs(exact).max()
        dense = w.T @ second_kind_split(ops, "efie")[1]
        for block in (system.compact.coeffs, dense):
            assert np.abs(block - exact).max() <= 4e-14 * scale

    @pytest.mark.parametrize("formulation", ["efie", "cfie"])
    def test_projection_matches_filter_plus_constant_mode(self, circle_ops,
                                                          formulation):
        # one projection onto the first filter_n modes equals the
        # nullspace-free Laplacian filter plus the constant mode passed
        # through; eigh resolves the constant mode to about
        # eps ||L|| / gap (4e-13 here), which bounds the gap to this oracle
        mesh, ops = circle_ops
        root, lap_norm = gram_root_and_laplacian(mesh)
        u = root @ np.ones(mesh.n_nodes)
        u /= np.linalg.norm(u)
        _, compact_raw = second_kind_split(ops, formulation)
        for filter_n in (1, 21, mesh.n_nodes):
            system = build_filtered_system(mesh, K, ETA, SRC, formulation,
                                           filter_n, ops=ops)
            expected = (laplacian_filter(lap_norm, filter_n).apply(compact_raw)
                        + np.outer(u, u @ compact_raw))
            assert (np.abs(np.asarray(system.compact) - expected).max()
                    <= 1e-12 * np.abs(compact_raw).max())

    def test_cfie_block_bitwise_unchanged(self):
        # sha256 prefixes of B and its basis for the cfie of the benchmark
        # (lobed curve, N = 502, filter_n 200, alpha 0.5), taken when
        # G^{-1/2} became dense cyclic strips (relative, max norm: B moved
        # by 5.3e-14, 5.5e-14 at two threads, the basis by 8.3e-16); both
        # round differently at one and at two BLAS threads, the basis
        # since its G^{1/2} product runs through threaded GEMMs
        mesh = build_mesh(BENCH_CURVES["lobed"], 502)
        ops = assemble_operators(mesh, K, need_double_layer=True)
        system = build_filtered_system(mesh, K, ETA, SRC, "cfie", 200,
                                       alpha=0.5, ops=ops)
        coeffs, basis = (
            hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]
            for arr in (system.compact.coeffs, system.compact.basis))
        assert coeffs in {"2bf7789a2d07fefa", "2e0745b3ce249eaa"}
        assert basis in {"2522136f3b5c997d", "df6ac1949b650b28"}

    @pytest.mark.parametrize("curve", sorted(BENCH_CURVES))
    @pytest.mark.parametrize("filter_n", [21, 200])
    def test_filtered_block_matches_dense_eigh(self, curve, filter_n):
        # the pencil's lowest modes give the block that every mode from dense
        # eigh gives, once both are canonical at the cut; at 200 the cut
        # splits a pair on both curves (relative gaps 3e-15 and 1.9e-10)
        mesh = build_mesh(BENCH_CURVES[curve], 502)
        ops = assemble_operators(mesh, K)
        _, compact_raw = second_kind_split(ops, "efie")
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", filter_n,
                                       ops=ops)
        ref = dense_modes(ops, filter_n)
        assert system.cut_canonicalized == ref.cut_canonicalized == (filter_n == 200)
        w = ref.vectors[:, :filter_n]
        expected = w @ (w.T @ compact_raw)
        assert (np.abs(np.asarray(system.compact) - expected).max()
                <= 1e-12 * np.abs(expected).max())

    def test_modes_at_full_index_need_a_dense_pencil_solve(self):
        # ARPACK serves at most N - 1 pairs: filter_n = N - 1 asks for N
        mesh = build_mesh(BENCH_CURVES["ellipse"], 48)
        ops = assemble_operators(mesh, K)
        for filter_n in (47, 48):
            modes = filter_modes(ops, filter_n)
            w = modes.vectors
            ref = dense_modes(ops, filter_n).vectors[:, :filter_n]
            assert np.abs(w @ w.T - ref @ ref.T).max() <= 1e-12
        assert modes.cut_gap is None and not modes.cut_canonicalized

    @pytest.mark.parametrize("filter_n", [57, 61])
    def test_canonical_cut_of_a_localized_pair(self, filter_n):
        # near the top of a coarse elongated ellipse's spectrum the split
        # pairs (gaps 3e-11, 3e-14) localize on the flat sides, orthogonal
        # to cos(2 pi m s / P); the pseudo-random part of the reference
        # still fixes the kept column
        mesh = build_mesh(Ellipse(3.0, 0.5), 64)
        ops = assemble_operators(mesh, K)
        modes = filter_modes(ops, filter_n)
        assert modes.cut_canonicalized
        w = modes.vectors
        ref = dense_modes(ops, filter_n).vectors[:, :filter_n]
        assert np.abs(w @ w.T - ref @ ref.T).max() <= 1e-10

    @pytest.mark.parametrize("curve, n, filter_n", [
        (Ellipse(3.0, 0.5), 64, 53),                 # relative gap 2.2e-8
        (PerturbedCircle(2.0, 0.2, 8), 33, 2),       # relative gap 1.5e-7
        (PerturbedCircle(2.0, 0.2, 8), 96, 89),      # a degenerate pair above
        (PerturbedCircle(2.0, 0.2, 8), 502, 475),    # inside a run of 8
    ])
    def test_cut_through_a_cluster_matches_dense_eigh(self, curve, n, filter_n):
        # the first two cuts sat above the former tolerance 1e-8, where the
        # ARPACK and dense-eigh blocks differed by 1.1e-8 and 8.3e-9; the
        # last two split clusters of more than two modes, which a rotation
        # of one pair got wrong (differences 0.11 and 0.069)
        mesh = build_mesh(curve, n)
        ops = assemble_operators(mesh, K)
        modes = filter_modes(ops, filter_n)
        assert modes.cut_canonicalized
        w = modes.vectors
        ref = dense_modes(ops, filter_n).vectors[:, :filter_n]
        assert np.abs(w @ w.T - ref @ ref.T).max() <= 1e-10

    @pytest.mark.parametrize("curve, n, filter_n, count", [
        ("lobed", 502, 200, 202),     # the cut splits the pair (199, 200)
        ("ellipse", 1004, 21, 22),    # an odd cut closes its pair
    ])
    def test_one_eigensolve_per_cut(self, monkeypatch, curve, n, filter_n, count):
        # past the constant mode the modes come in near-degenerate pairs: an
        # even cut splits one, and its first solve already holds the value
        # after the pair that closes the cluster
        mesh = build_mesh(BENCH_CURVES[curve], n)
        ops = assemble_operators(mesh, K)
        counts = []
        solve = calderon2d.pencil_modes
        monkeypatch.setattr(calderon2d, "pencil_modes",
                            lambda stiff, mass, count, shift: counts.append(count)
                            or solve(stiff, mass, count, shift))
        modes = filter_modes(ops, filter_n)
        assert counts == [count]
        monkeypatch.undo()
        ref = canonical_modes(ops, *lowest_modes(ops, count), filter_n)
        assert np.array_equal(modes.vectors, ref.vectors[:, :filter_n])
        assert modes.cut_canonicalized == ref.cut_canonicalized == (filter_n == 200)

    def test_cut_gap_reported(self):
        # refine config: ellipse, filter_n 21, where the gap is wide
        mesh = build_mesh(BENCH_CURVES["ellipse"], 1004)
        ops = assemble_operators(mesh, K)
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        assert system.cut_gap == pytest.approx(0.17, abs=0.01)
        assert not system.cut_canonicalized
        # lobed curve at filter_n 200: the cut splits the pair m = 100
        mesh = build_mesh(BENCH_CURVES["lobed"], 502)
        modes = filter_modes(assemble_operators(mesh, K), 200)
        assert modes.cut_gap < 1e-9
        assert modes.cut_canonicalized
        # every mode kept: no cut, no solve
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 64)
        assert system.cut_gap is None and not system.cut_canonicalized

    def test_validation(self, circle_ops):
        mesh, ops = circle_ops
        for formulation in ("bad", "EFIE"):
            with pytest.raises(ValueError):
                build_filtered_system(mesh, K, ETA, SRC, formulation, 21,
                                      ops=ops)
        with pytest.raises(ValueError):
            build_filtered_system(mesh, K, ETA, SRC, "cfie", 21, alpha=-1.0,
                                  ops=ops)
        for filter_n in (0, mesh.n_nodes + 1):
            with pytest.raises(ValueError):
                build_filtered_system(mesh, K, ETA, SRC, "efie", filter_n,
                                      ops=ops)

    def test_spectral_deviation_profile(self, circle_ops):
        # raw compact block grows toward high modes; filtered one is dead
        # above the cutoff
        mesh, ops = circle_ops
        _, cmat = second_kind_split(ops, "efie")
        modes = dense_modes(ops, 21).vectors
        raw_rows = np.linalg.norm(modes.T @ cmat @ modes, axis=1)
        assert raw_rows[-26:].max() > np.median(raw_rows[:200])
        system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21, ops=ops)
        filtered = np.asarray(system.compact)
        filt_rows = np.linalg.norm(modes.T @ filtered @ modes, axis=1)
        assert filt_rows[21:].max() <= 1e-12 * filt_rows.max()


class TestContinuum:
    @staticmethod
    def mie_total_field(k, phi, orders=40):
        """Total field of a TE plane wave along x on the unit circle:
        sum_m i^m e^{i m phi} 2i / (pi k H_m^(1)'(k)), |m| <= ``orders``."""
        m = np.arange(-orders, orders + 1)
        coeffs = 1j ** m * 2j / (np.pi * k * scipy.special.h1vp(m, k))
        return np.exp(1j * np.outer(phi, m)) @ coeffs

    @pytest.mark.parametrize("k, bound", [(0.4, 6e-5), (2.0, 8e-4)])
    def test_every_formulation_matches_the_mie_series(self, k, bound):
        # the structured solve's nodal values G^{-1/2} x are -h_tot for
        # every formulation; the error is the discretization's, O(h^2):
        # measured 5.4e-5 / 1.35e-5 / 3.4e-6 at k = 0.4 and 7.2e-4 /
        # 1.8e-4 / 4.5e-5 at k = 2, alike to 2 digits across formulations
        src = PlaneWaveTE((1.0, 0.0))
        errors = {formulation: [] for formulation in FORMULATIONS}
        for n in (128, 256, 512):
            mesh = build_mesh(Ellipse(1.0, 1.0), n)
            ops = assemble_operators(mesh, k, need_double_layer=True)
            h_tot = self.mie_total_field(
                k, np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0]))
            for formulation in FORMULATIONS:
                system = build_filtered_system(mesh, k, ETA, src, formulation,
                                               21, ops=ops)
                skeleton = lowrank_factor(system.compact, 6e-6, seed=0)
                x = woodbury_factorize(system.beta, skeleton).apply(system.rhs)
                nodal = ops.gram_invsqrt @ x
                errors[formulation].append(np.linalg.norm(nodal + h_tot)
                                           / np.linalg.norm(h_tot))
        for errs in errors.values():
            assert errs[0] <= bound, errors
            for coarse, fine in zip(errs, errs[1:]):
                assert 3.5 <= coarse / fine <= 4.5, errors


class TestConditioning:
    def test_filtered_system_condition_stable_under_refinement(self):
        conds = []
        for n in (128, 256, 512):
            mesh = build_mesh(Ellipse(1.42, 1.32), n)
            system = build_filtered_system(mesh, K, ETA, SRC, "efie", 21)
            conds.append(np.linalg.cond(dense_system(system)))
        assert conds[2] <= 1.10 * conds[0]
        assert conds[1] <= 1.10 * conds[0]
