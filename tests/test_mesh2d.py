import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from filtbem.mesh2d import (Ellipse, PerturbedCircle, basis_eval, build_mesh)


def arclength_oracle(curve, theta0, theta1):
    """High-order adaptive quadrature of |dr/dtheta|."""
    val, _ = quad(lambda t: np.linalg.norm(curve.derivative(t)), theta0, theta1,
                  limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


class TestCurves:
    def test_ellipse_validation(self):
        with pytest.raises(ValueError):
            Ellipse(-1.0, 1.0)
        with pytest.raises(ValueError):
            Ellipse(1.0, 0.0)

    def test_perturbed_circle_validation(self):
        with pytest.raises(ValueError):
            PerturbedCircle(2.0, 2.0, 8)
        with pytest.raises(ValueError):
            PerturbedCircle(2.0, -2.5, 8)
        PerturbedCircle(2.0, 0.2, 8)  # valid

    @pytest.mark.parametrize("lobes", [2.3, 8.5, float("nan")])
    def test_perturbed_circle_needs_whole_lobes(self, lobes):
        # r(2 pi) = r(0) only for a whole number of lobes: at 2.3 the radius
        # jumps from 2.48 back to 2.0, and a mesh would bridge the gap with
        # one long segment
        with pytest.raises(ValueError, match="lobes"):
            PerturbedCircle(2.0, 0.2, lobes)
        for whole in (8, np.int64(8), 8.0):
            PerturbedCircle(2.0, 0.2, whole)  # valid

    def test_derivative_matches_finite_difference(self):
        curve = PerturbedCircle(2.0, 0.2, 8)
        theta = np.linspace(0.1, 6.0, 7)
        eps = 1e-6
        fd = (curve.position(theta + eps) - curve.position(theta - eps)) / (2 * eps)
        assert np.allclose(curve.derivative(theta), fd, atol=1e-7)


class TestBuildMesh:
    def test_rejects_small_meshes(self):
        with pytest.raises(ValueError):
            build_mesh(Ellipse(1.0, 1.0), 4)
        with pytest.raises(ValueError):
            build_mesh(Ellipse(1.0, 1.0), 7)

    @pytest.mark.parametrize("n_nodes", [10.5, 16.0, "16"])
    def test_rejects_a_node_count_that_is_not_an_integer(self, n_nodes):
        # sampling at 10.5 would give 11 nodes with a closing segment half
        # as long as the others; a count of any integer type serves
        with pytest.raises(TypeError):
            build_mesh(Ellipse(1.0, 1.0), n_nodes)
        mesh = build_mesh(Ellipse(1.0, 1.0), np.int64(16))
        assert mesh.n_nodes == 16
        assert np.array_equal(mesh.nodes,
                              build_mesh(Ellipse(1.0, 1.0), 16).nodes)

    def test_circle_chord_length(self):
        # h = 2 sin(pi/n) for the unit circle
        mesh = build_mesh(Ellipse(1.0, 1.0), 8)
        assert mesh.h == pytest.approx(2.0 * np.sin(np.pi / 8.0), rel=1e-14)
        assert np.ptp(mesh.segment_lengths) <= 1e-14 * mesh.h

    def test_ellipse_perimeter_against_oracle(self):
        curve = Ellipse(1.42, 1.32)
        mesh = build_mesh(curve, 1004)
        exact = arclength_oracle(curve, 0.0, 2.0 * np.pi)
        assert abs(mesh.perimeter - exact) / exact < 1e-3  # within 0.1%
        assert mesh.n_nodes == 1004

    def test_perturbed_circle_perimeter_against_oracle(self):
        curve = PerturbedCircle(2.0, 0.2, 8)
        mesh = build_mesh(curve, 2008)
        exact = arclength_oracle(curve, 0.0, 2.0 * np.pi)
        assert abs(mesh.perimeter - exact) / exact < 1e-3

    def test_outward_normals(self):
        # outward normal has positive dot product with the radial direction
        mesh = build_mesh(PerturbedCircle(2.0, 0.2, 8), 64)
        mids = 0.5 * (mesh.nodes + np.roll(mesh.nodes, -1, axis=0))
        assert np.all(np.sum(mesh.normals * mids, axis=1) > 0)

    def test_turning_angle_and_invariants(self):
        mesh = build_mesh(Ellipse(2.0, 1.0), 32)
        t0, t1 = mesh.tangents, np.roll(mesh.tangents, -1, axis=0)
        turn = np.arctan2(t0[:, 0] * t1[:, 1] - t0[:, 1] * t1[:, 0],
                          np.sum(t0 * t1, axis=1)).sum()
        assert turn == pytest.approx(2.0 * np.pi, abs=1e-10)
        assert mesh.n_segments == mesh.n_nodes
        assert np.all(mesh.segment_lengths > 0)
        assert mesh.h == pytest.approx(mesh.perimeter / 32)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.5, 3.0), b=st.floats(0.5, 3.0),
           n=st.integers(8, 60))
    def test_refinement_halves_h(self, a, b, n):
        curve = Ellipse(a, b)
        coarse = build_mesh(curve, n)
        fine = build_mesh(curve, 2 * n)
        assert 0.49 <= fine.h / coarse.h <= 0.51


class TestBasisEval:
    def setup_method(self):
        self.mesh = build_mesh(Ellipse(1.3, 0.9), 24)

    def test_nodal_interpolation(self):
        cum = self.mesh.node_arclengths
        for i in (0, 5, 23):
            assert basis_eval(self.mesh, i, cum[i]) == pytest.approx(1.0)
            other = (i + 7) % 24
            assert basis_eval(self.mesh, i, cum[other]) == pytest.approx(0.0)

    def test_midpoint_value(self):
        cum = self.mesh.node_arclengths
        ell = self.mesh.segment_lengths
        i = 4
        assert basis_eval(self.mesh, i, cum[i] + 0.5 * ell[i]) == pytest.approx(0.5)
        assert basis_eval(self.mesh, i, cum[i] - 0.5 * ell[i - 1]) == pytest.approx(0.5)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.0, self.mesh.perimeter, 100)
        total = sum(basis_eval(self.mesh, i, s) for i in range(24))
        assert np.abs(total - 1.0).max() <= 1e-14

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            basis_eval(self.mesh, 24, 0.0)
        with pytest.raises(ValueError):
            basis_eval(self.mesh, -1, 0.0)
