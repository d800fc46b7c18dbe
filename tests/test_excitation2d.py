import hashlib

import numpy as np
import pytest

from filtbem.assembly2d import FAR_RADIUS, assemble_gram
from filtbem.excitation2d import (MagneticLineSource, PlaneWaveTE,
                                  assemble_rhs, incident_fields)
from filtbem.mesh2d import Ellipse, PerturbedCircle, build_mesh
from filtbem.special import hankel_h1_0


def scatter_moments(mesh, src, k, eta, order):
    """(e, h) moments at Gauss order ``order`` on every segment, each
    segment's two shape-function moments scattered onto its end nodes:
    the arithmetic of assemble_rhs, so a match is bit for bit."""
    n, ell = mesh.n_nodes, mesh.segment_lengths
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    pts = mesh.nodes[None] + x[:, None, None] * (mesh.tangents * ell[:, None])[None]
    tangents = np.broadcast_to(mesh.tangents, pts.shape)
    e_t, h_z = incident_fields(src, k, eta, pts.reshape(-1, 2),
                               tangents.reshape(-1, 2))
    refs = []
    for trace in (e_t.reshape(order, n), h_z.reshape(order, n)):
        ref = np.zeros(n, np.complex128)
        for a, shape in enumerate((1.0 - x, x)):
            np.add.at(ref, (np.arange(n) + a) % n,
                      ell * ((w * shape)[:, None] * trace).sum(axis=0))
        refs.append(ref)
    return refs


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
         ("6b7520bdd474bdcf1eb783a4a420a79f404479b2bcca00d963f50d30a81266be",
          "04ec967338839171a05ee2badb5f204c2cf6579f28bcbcd004a231900f861500")),
        (PlaneWaveTE((0.6, 0.8)),
         ("7e08a098b4b103d185f2654308fd8801a63fca000d748fe05286b52cccb68c33",
          "4897ae486ded4cb2181e6d9ab43d8315a44402f3a51cba4ad4a5d5686c6611ed")),
    ])
    def test_moments_bitwise_unchanged(self, src, digests):
        # sha256 of (e, h) from assemble_rhs and of (v_e, v_h) from
        # normalized_rhs, taken when both sources moved to the far Gauss
        # order (the line source is 56 h from the curve); against the
        # order-8 arrays before, e, h, v_e and v_h moved by at most
        # 6.6e-16 relative (max norm); lobed curve at N = 1004, k = 0.4,
        # eta = 1 (same at 1 and 2 BLAS threads)
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
        # at the Gauss order the rule picks: the line source, about 12 h
        # from this curve, keeps order 8; the plane wave takes the far order
        mesh, k, eta = self.mesh, 0.4, 1.0
        order = 4 if isinstance(src, PlaneWaveTE) else 8
        refs = scatter_moments(mesh, src, k, eta, order)
        e_vec, h_vec = assemble_rhs(mesh, src, k, eta)
        assert np.array_equal(e_vec, refs[0])
        assert np.array_equal(h_vec, refs[1])

    @pytest.mark.parametrize("reach, order", [(FAR_RADIUS + 0.01, 4),
                                              (FAR_RADIUS - 0.01, 8)])
    def test_line_source_order_at_the_far_radius(self, reach, order):
        # a source on the outward ray through segment 0's midpoint, `reach`
        # segment lengths from it: that midpoint is the closest one, so the
        # source takes the far order just outside FAR_RADIUS and keeps the
        # near order's bits just inside
        mesh = build_mesh(Ellipse(1.0, 1.0), 64)
        ell = mesh.segment_lengths[0]
        mid = mesh.nodes[0] + 0.5 * ell * mesh.tangents[0]
        src = MagneticLineSource(tuple(mid * (1.0 + reach * ell / np.linalg.norm(mid))))
        far, near = (scatter_moments(mesh, src, 0.4, 1.0, q) for q in (4, 8))
        assert not np.array_equal(far[0], near[0])
        got = assemble_rhs(mesh, src, 0.4, 1.0)
        for vec, ref in zip(got, far if order == 4 else near):
            assert np.array_equal(vec, ref)

    def test_plane_wave_takes_far_order(self):
        src = PlaneWaveTE((0.6, 0.8))
        got = assemble_rhs(self.mesh, src, 0.4, 1.0, quad_order=12)
        for vec, ref in zip(got, scatter_moments(self.mesh, src, 0.4, 1.0, 6)):
            assert np.array_equal(vec, ref)

    @pytest.mark.parametrize("n", [502, 1004])
    def test_far_order_against_order_16(self, n):
        # the benchmark's sources: line sources on the radius-3 circle
        # around the lobed curve (at least 28 h away), and plane waves
        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), n)
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        sources = ([MagneticLineSource((3.0 * np.cos(t), 3.0 * np.sin(t)))
                    for t in angles]
                   + [PlaneWaveTE((np.cos(t), np.sin(t))) for t in angles[:4]])
        for src in sources:
            refs = scatter_moments(mesh, src, 0.4, 1.0, 16)
            for vec, ref in zip(assemble_rhs(mesh, src, 0.4, 1.0), refs):
                assert np.abs(vec - ref).max() <= 2e-15 * np.abs(ref).max()

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
