import numpy as np
import pytest

from filtbem.assembly2d import assemble_gram, assemble_helmholtz_pair
from filtbem.calderon2d import assemble_operators
from filtbem.hodlr import LEAF, hodlr_compress
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh

K = 0.4
BENCH_CURVES = {"ellipse": Ellipse(1.42, 1.32),
                "lobed": PerturbedCircle(2.0, 0.2, 8)}


def dense_form(form):
    """The N x N matrix the form applies."""
    return form @ np.eye(form.size)


def exact_p(mesh):
    """P = S G^{-1} from the S+N pass and a dense Gram solve, independent
    of the bundle (G is symmetric)."""
    slayer = assemble_helmholtz_pair(mesh, K)[0]
    return np.linalg.solve(assemble_gram(mesh), slayer.T).T


def gaussian_block(rng, size, cols):
    return rng.standard_normal((size, cols)) + 1j * rng.standard_normal((size, cols))


@pytest.fixture(scope="module", params=[(curve, n) for curve in sorted(BENCH_CURVES)
                                        for n in (502, 1000, 1004)],
                ids=lambda param: f"{param[0]}-{param[1]}")
def bench_ops(request):
    curve, n = request.param
    mesh = build_mesh(BENCH_CURVES[curve], n)
    return assemble_operators(mesh, K), exact_p(mesh)


class TestHodlrForm:
    def test_matvec_within_certified_bound(self, bench_ops):
        # N = 1000 pads to 1008 with 63-row leaves, N = 1004 to 1008, and
        # N = 502 to 504: the padded rows and columns must not reach the
        # product
        ops, p_mat = bench_ops
        form = ops.slayer_ginv_hodlr
        assert 0 < form.error <= 1e-12
        norm = np.linalg.norm(p_mat, 2)
        assert form.norm_estimate <= norm
        assert np.linalg.norm(dense_form(form) - p_mat, 2) <= form.error * norm
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.standard_normal(form.size) + 1j * rng.standard_normal(form.size)
            assert (np.linalg.norm(form @ x - p_mat @ x)
                    <= form.error * form.norm_estimate * np.linalg.norm(x))

    def test_form_is_compressed(self, bench_ops):
        # measured: 0.23 N^2 (ellipse) and 0.29 N^2 (lobed) entries at
        # N = 1004, 0.48 N^2 on the lobed curve at N = 502
        form = bench_ops[0].slayer_ginv_hodlr
        assert form.nbytes <= 0.5 * 16 * form.size ** 2

    def test_block_and_transposed_products(self, bench_ops):
        # the thin rows read u.T P as (P^T u)^T and the dense routes P N as
        # one block product: both within the certificate of the exact P,
        # the padded rows included; the transpose is made of views
        ops, p_mat = bench_ops
        form = ops.slayer_ginv_hodlr
        bound = form.error * np.linalg.norm(p_mat, 2)
        rng = np.random.default_rng(5)
        for block in (gaussian_block(rng, form.size, 7),
                      rng.standard_normal((form.size, 200))):
            scale = bound * np.linalg.norm(block, 2)
            assert np.linalg.norm(form @ block - p_mat @ block, 2) <= scale
            assert np.linalg.norm(form.T @ block - p_mat.T @ block, 2) <= scale
        arrays = [form.diagonal] + [arr for pair in form.levels for arr in pair]
        flipped = [form.T.diagonal] + [arr for pair in form.T.levels
                                       for arr in pair[::-1]]
        assert all(np.shares_memory(a, b) for a, b in zip(arrays, flipped))
        assert form.T.ranks == form.ranks and form.T.nbytes == form.nbytes
        assert np.array_equal(form.T.T @ block, form @ block)

    def test_below_two_leaves_the_form_is_the_matrix(self):
        mesh = build_mesh(Ellipse(1.0, 1.0), 2 * LEAF - 1)
        ops = assemble_operators(mesh, K)
        form = ops.slayer_ginv_hodlr
        size = form.size
        assert form.levels == () and form.error == 0.0
        assert form.diagonal.shape == (size, size)
        assert not form.diagonal.flags.writeable
        assert form.nbytes == 16 * size ** 2   # the matrix is the form
        p_mat = exact_p(mesh)
        assert (np.abs(form.diagonal - p_mat).max()
                <= 1e-14 * np.abs(p_mat).max())
        rng = np.random.default_rng(0)
        x = rng.standard_normal(size) + 0j
        block = gaussian_block(rng, size, 5)
        assert np.array_equal(form @ x, form.diagonal @ x)
        assert np.array_equal(form @ block, form.diagonal @ block)
        assert np.array_equal(form.T @ block, form.diagonal.T @ block)
        assert np.shares_memory(form.T.diagonal, form.diagonal)
        two = assemble_operators(build_mesh(Ellipse(1.0, 1.0), 2 * LEAF), K)
        assert two.slayer_ginv_hodlr.ranks
        assert two.slayer_ginv_hodlr.nbytes < 16 * (2 * LEAF) ** 2

    def test_empty_padding_blocks(self):
        # N = 2049 pads to 64 leaves of 33 rows, 2112 rows: the last leaf is
        # all padding, so its blocks are empty; the kernel 1 / (1 + |i - j|)
        # has low-rank blocks away from the diagonal
        idx = np.arange(2049)
        dist = np.abs(idx[:, None] - idx[None, :])
        mat = np.exp(0.01j * dist) / (1.0 + dist)
        form = hodlr_compress(mat)
        assert form.diagonal.shape == (64, 33, 33) and len(form.levels) == 6
        assert not form.diagonal[-1].any()
        assert form.error <= 1e-12
        x = np.random.default_rng(2).standard_normal(2049) + 0j
        assert (np.linalg.norm(form @ x - mat @ x)
                <= form.error * form.norm_estimate * np.linalg.norm(x))

    def test_full_rank_blocks(self):
        # a random matrix has no low-rank block: every sketch widens to
        # the block's full rank, and the form stays within its certificate;
        # a real matrix gets a complex form
        mat = np.random.default_rng(1).standard_normal((200, 200))
        form = hodlr_compress(mat)
        assert form.ranks == [100, 50]
        norm = np.linalg.norm(mat, 2)
        assert np.linalg.norm(dense_form(form) - mat, 2) <= form.error * norm
        assert form.error <= 1e-12

    def test_operator_bytes_count_the_form(self):
        # the efie bundle holds N and the form of P, no dense P
        ops = assemble_operators(build_mesh(BENCH_CURVES["lobed"], 502), K)
        form, gm = ops.slayer_ginv_hodlr, ops.gram_invsqrt
        assert form.nbytes == form.diagonal.nbytes + sum(
            u.nbytes + vh.nbytes for u, vh in form.levels)
        assert ops.nbytes == 16 * 502 ** 2 + form.nbytes + gm.nbytes

    @pytest.mark.parametrize("size", [100, 200])
    def test_operand_of_another_length_is_refused(self, size):
        # a 2N vector used to be reshaped to (N, 2) and returned as a wrong
        # (2N,) product; at 100 the form is the matrix itself, at 200 it
        # has levels
        form = hodlr_compress(np.random.default_rng(1).standard_normal(
            (size, size)))
        assert bool(form.levels) == (size >= 2 * LEAF)
        for shape in ((2 * size,), (2 * size, 3), (size - 1,), (size // 2, 2)):
            with pytest.raises(ValueError):
                form @ np.ones(shape)
            with pytest.raises(ValueError):
                form.T @ np.ones(shape)
