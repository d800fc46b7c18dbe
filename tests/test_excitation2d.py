import hashlib

import numpy as np
import pytest

from filtbem.assembly2d import assemble_gram
from filtbem.excitation2d import (MagneticLineSource, PlaneWaveTE,
                                  assemble_rhs, incident_fields)
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh
from filtbem.special import hankel_h1_0


class TestIncidentFields:
    def test_plane_wave_phase_at_origin(self):
        src = PlaneWaveTE((1.0, 0.0), amplitude=2.0 - 1.0j)
        _, h = incident_fields(src, 0.7, 1.0, np.array([0.0, 0.0]),
                               np.array([0.0, 1.0]))
        assert h == pytest.approx(2.0 - 1.0j)

    def test_line_source_field_value(self):
        src = MagneticLineSource((0.0, 0.0), amplitude=3.0 + 0.0j)
        k = 1.3
        _, h = incident_fields(src, k, 1.0, np.array([1.0, 0.0]),
                               np.array([0.0, 1.0]))
        assert h == pytest.approx(3.0 * 0.25j * hankel_h1_0(k))

    def test_evaluation_at_source_rejected(self):
        src = MagneticLineSource((1.0, 2.0))
        with pytest.raises(ValueError):
            incident_fields(src, 1.0, 1.0, np.array([1.0, 2.0]),
                            np.array([1.0, 0.0]))

    @pytest.mark.parametrize("src", [
        MagneticLineSource((0.4, -0.3)),
        PlaneWaveTE((0.6, 0.8)),
    ])
    def test_maxwell_consistency_fd_curl(self, src):
        # z . curl E = -i omega mu h_z, with omega mu = k eta
        k, eta = 0.9, 2.0
        rng = np.random.default_rng(8)
        pts = rng.uniform(1.5, 3.0, (20, 2)) * rng.choice([-1, 1], (20, 2))
        step = 1e-5

        def e_component(shift, axis):
            # E . t with t the unit vector along axis
            tangents = np.tile(np.eye(2)[axis], (len(pts), 1))
            return incident_fields(src, k, eta, pts + shift, tangents)[0]

        ex_y1, ex_y0 = e_component([0.0, step], 0), e_component([0.0, -step], 0)
        ey_x1, ey_x0 = e_component([step, 0.0], 1), e_component([-step, 0.0], 1)
        curl_z = (ey_x1 - ey_x0) / (2 * step) - (ex_y1 - ex_y0) / (2 * step)
        _, h = incident_fields(src, k, eta, pts, np.tile([1.0, 0.0], (20, 1)))
        expected = -1j * k * eta * h
        assert np.abs(curl_z - expected).max() / np.abs(expected).max() <= 1e-6

    def test_unit_direction_required(self):
        with pytest.raises(ValueError):
            PlaneWaveTE((1.0, 1.0))


class TestAssembleRhs:
    def setup_method(self):
        self.mesh = build_mesh(Ellipse(1.42, 1.32), 64)

    def test_zero_amplitude(self):
        src = MagneticLineSource((3.0, 0.0), amplitude=0.0j)
        e_vec, h_vec = assemble_rhs(self.mesh, src, 0.4, 1.0)
        assert np.abs(e_vec).max() == 0.0
        assert np.abs(h_vec).max() == 0.0

    def test_source_too_close_rejected(self):
        node = self.mesh.nodes[0]
        src = MagneticLineSource(tuple(node + 0.1 * self.mesh.h))
        with pytest.raises(ValueError):
            assemble_rhs(self.mesh, src, 0.4, 1.0)

    def test_rejections_keep_their_messages(self):
        node = self.mesh.nodes[0]
        with pytest.raises(ValueError, match=r"from the curve is below h/2 = "):
            assemble_rhs(self.mesh, MagneticLineSource(tuple(node)), 0.4, 1.0)
        with pytest.raises(ValueError, match="at the line-source position"):
            incident_fields(MagneticLineSource(tuple(node)), 0.4, 1.0, node,
                            np.array([1.0, 0.0]))
        with pytest.raises(TypeError, match="unknown source type tuple"):
            assemble_rhs(self.mesh, (3.0, 0.0), 0.4, 1.0)
        with pytest.raises(ValueError, match="quadrature order"):
            assemble_rhs(self.mesh, PlaneWaveTE((1.0, 0.0)), 0.4, 1.0,
                         quad_order=1)

    @pytest.mark.parametrize("src, digests", [
        (MagneticLineSource((3.0, 0.5)),
         ("7e24f7a85cecc4433b376e9529b67ad6c5d0c28312aa956cf49846a5542f400c",
          "567f4cd9bae1449b393903f739e5df1d52f28cb2d37400cccf070d4466b7ab35")),
        (PlaneWaveTE((0.6, 0.8)),
         ("ed324a600b6d1a4a12891f8383362ccf7dbc05028643950ea2e9de1e6ec58ca2",
          "ebaad10228ffe29aa68c3e92af84982986abd37bbc72f206cfdce8438601533e")),
    ])
    def test_moments_bitwise_unchanged(self, src, digests):
        # sha256 of (e, h) from assemble_rhs, taken while the moments still
        # had their own Gauss points and the line source its second distance
        # pass, and of (v_e, v_h) from normalized_rhs, taken when the far
        # segment pairs joined the gathered pair routine of the kernel pass;
        # lobed curve at N = 1004, k = 0.4, eta = 1 (same at 1 and 2 BLAS
        # threads)
        from filtbem.calderon2d import assemble_operators, normalized_rhs

        def digest(arrays):
            sha = hashlib.sha256()
            for arr in arrays:
                sha.update(np.ascontiguousarray(arr).tobytes())
            return sha.hexdigest()

        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), 1004)
        ops = assemble_operators(mesh, 0.4)
        assert (digest(assemble_rhs(mesh, src, 0.4, 1.0)),
                digest(normalized_rhs(ops, src, 1.0))) == digests

    def test_constant_moments_match_gram_row_sums(self):
        # f = 1 through the quadrature path (plane wave, k -> 0 limit of
        # h_z) must reproduce the analytic Gram row sums
        gram_rows = assemble_gram(self.mesh).sum(axis=1)
        src = PlaneWaveTE((1.0, 0.0))
        _, h_vec = assemble_rhs(self.mesh, src, 1e-12, 1.0)
        # residual phase k * |r| ~ 3e-12 bounds the agreement
        assert np.abs(h_vec - gram_rows).max() <= 1e-11 * gram_rows.max()

    @pytest.mark.parametrize("src", [
        MagneticLineSource((3.0, 0.5)),
        PlaneWaveTE((0.6, 0.8)),
    ])
    def test_moments_match_scatter_reference(self, src):
        # scatter each segment's two shape-function moments onto its end
        # nodes; same arithmetic, so the results agree bit for bit
        mesh, k, eta = self.mesh, 0.4, 1.0
        n, ell = mesh.n_nodes, mesh.segment_lengths
        x, w = np.polynomial.legendre.leggauss(8)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        pts = mesh.nodes[None] + x[:, None, None] * (mesh.tangents * ell[:, None])[None]
        tangents = np.broadcast_to(mesh.tangents, pts.shape)
        e_t, h_z = incident_fields(src, k, eta, pts.reshape(-1, 2),
                                   tangents.reshape(-1, 2))
        refs = []
        for trace in (e_t.reshape(8, n), h_z.reshape(8, n)):
            ref = np.zeros(n, np.complex128)
            for a, shape in enumerate((1.0 - x, x)):
                np.add.at(ref, (np.arange(n) + a) % n,
                          ell * ((w * shape)[:, None] * trace).sum(axis=0))
            refs.append(ref)
        e_vec, h_vec = assemble_rhs(mesh, src, k, eta)
        assert np.array_equal(e_vec, refs[0])
        assert np.array_equal(h_vec, refs[1])

    def test_small_k_plane_wave_against_higher_order_quadrature(self):
        k, eta = 1e-6, 1.0
        src = PlaneWaveTE((0.8, 0.6))
        e8, _ = assemble_rhs(self.mesh, src, k, eta, quad_order=8)
        e16, _ = assemble_rhs(self.mesh, src, k, eta, quad_order=16)
        assert np.abs(e8 - e16).max() <= 1e-10 * np.abs(e16).max()

    def test_band_limited_in_laplacian_basis(self):
        # tail of the normalized electric RHS above the filtering point is
        # tiny for a source well away from the curve
        from filtbem.calderon2d import (assemble_operators, filter_modes,
                                        normalized_rhs)

        mesh = build_mesh(Ellipse(1.42, 1.32), 251)
        ops = assemble_operators(mesh, 0.4)
        v_e, _ = normalized_rhs(ops, MagneticLineSource((3.0, 0.0)), 1.0)
        w = filter_modes(ops, 50).vectors
        proj = np.abs(w.T @ v_e)
        tail = v_e - w @ (w.T @ v_e)   # its norm bounds every projection above 50
        assert np.linalg.norm(tail) <= 1e-6 * proj.max()
