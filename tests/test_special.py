import numpy as np
import pytest
import scipy.special

from filtbem.special import EULER_GAMMA, hankel_h1_0, hankel_h1_1


def series_oracle_h0(x, terms=40):
    """Plain-float64 ascending series for J0 + iY0 (trustworthy for x <= ~6)."""
    w = (0.5 * x) ** 2
    j0 = 0.0
    ysum = 0.0
    harmonic = 0.0
    fact = 1.0
    for m in range(terms):
        if m > 0:
            fact *= m
            harmonic += 1.0 / m
        term = (-w) ** m / (fact * fact)
        j0 += term
        ysum -= harmonic * term
    y0 = (2.0 / np.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * j0 + ysum)
    return j0 + 1j * y0


class TestHankelH10:
    def test_frozen_value_at_one(self):
        # computed with the ascending-series oracle below (40 terms)
        val = hankel_h1_0(1.0)
        assert val == pytest.approx(0.7651976865579666 + 0.08825696421567697j,
                                    abs=1e-12)

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 2.0, 3.5, 5.0])
    def test_against_series_oracle(self, x):
        assert abs(hankel_h1_0(x) - series_oracle_h0(x)) <= 1e-12 * abs(series_oracle_h0(x))

    def test_small_argument_log_structure(self):
        # Im H0(x) - (2/pi) ln(x/2) -> 2*gamma/pi as x -> 0+
        x = np.array([1e-6, 1e-8, 1e-10])
        diff = hankel_h1_0(x).imag - (2.0 / np.pi) * np.log(0.5 * x)
        assert np.allclose(diff, 2.0 * EULER_GAMMA / np.pi, atol=1e-10)

    def test_asymptotic_form_at_50(self):
        # leading form: modulus agrees to second order (the first phase
        # correction is 1/(8x) = 2.5e-3, so only |.| meets 1e-3 here)
        lead = np.sqrt(2.0 / (np.pi * 50.0)) * np.exp(1j * (50.0 - np.pi / 4.0))
        val = hankel_h1_0(50.0)
        assert abs(abs(val) - abs(lead)) / abs(lead) < 1e-3
        # three-term asymptotic oracle pins the full complex value
        x = 50.0
        corr = 1.0 + 1j * (-1.0 / 8.0) / x + (9.0 / 128.0) * 1j ** 2 / x ** 2
        assert abs(val - lead * corr) / abs(val) < 2e-6  # next term ~ 6e-7

    def test_cross_check_scipy_wide_range(self):
        x = np.concatenate([np.logspace(-6, 0, 120), np.linspace(0.01, 20, 800),
                            np.linspace(20, 1000, 400)])
        ref = scipy.special.hankel1(0, x)
        rel = np.abs(hankel_h1_0(x) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                hankel_h1_0(bad)

    def test_bitwise_equal_to_j_plus_i_y(self):
        # J and Y go straight into one complex output: same bits as J + iY
        x = np.logspace(-8, 3, 4001)
        assert np.array_equal(hankel_h1_0(x), scipy.special.j0(x) + 1j * scipy.special.y0(x))
        assert np.array_equal(hankel_h1_1(x), scipy.special.j1(x) + 1j * scipy.special.y1(x))

    def test_scalar_and_array_shapes(self):
        assert np.isscalar(hankel_h1_0(0.7)) or hankel_h1_0(0.7).ndim == 0
        out = hankel_h1_0(np.array([0.5, 7.0, 40.0]))
        assert out.shape == (3,) and out.dtype == np.complex128


class TestHankelH11:
    def test_cross_check_scipy_wide_range(self):
        x = np.concatenate([np.logspace(-6, 0, 120), np.linspace(0.01, 20, 800),
                            np.linspace(20, 1000, 400)])
        ref = scipy.special.hankel1(1, x)
        rel = np.abs(hankel_h1_1(x) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12

    def test_small_argument_pole(self):
        # H1(x) ~ -2i/(pi x) as x -> 0
        x = 1e-9
        assert hankel_h1_1(x) * x == pytest.approx(-2j / np.pi, rel=1e-6)


class TestArgumentCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     [1.0, np.nan], [np.inf, 2.0],
                                     [-1.0, np.nan], [0.0, -np.inf]])
    def test_non_finite_reported_first(self, bad):
        # a non-finite value reports "finite" even beside a non-positive one
        for hankel in (hankel_h1_0, hankel_h1_1):
            with pytest.raises(ValueError, match="must be finite"):
                hankel(bad)

    @pytest.mark.parametrize("bad", [0.0, -2.5, [3.0, 0.0], [1.0, -1e-300]])
    def test_non_positive_rejected(self, bad):
        for hankel in (hankel_h1_0, hankel_h1_1):
            with pytest.raises(ValueError, match="must be positive"):
                hankel(bad)

    def test_empty_array_passes(self):
        for hankel in (hankel_h1_0, hankel_h1_1):
            out = hankel(np.empty(0))
            assert out.shape == (0,) and out.dtype == np.complex128

    def test_scalar_passes(self):
        val = hankel_h1_0(2.0)
        assert np.ndim(val) == 0
        assert val == scipy.special.j0(2.0) + 1j * scipy.special.y0(2.0)
        assert hankel_h1_1(2.0) == scipy.special.j1(2.0) + 1j * scipy.special.y1(2.0)
