"""Precoder tests: exact small cases, moment oracles, limit arithmetic.

Monte Carlo targets here are light versions of the acceptance criteria;
the frozen limit values come from the closed forms evaluated with the
profile moments (e.g. the 0.1..1.0 decade gives mean_inv_beta = 9/ln 10,
making the unequal ZF limit exactly ln 10).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_converge.channel import RngStream, sample_iid
from mimo_converge.numerics import gram_normalized
from mimo_converge.power import PowerProfile, limiting_moments, link_gains
from mimo_converge.precoding import (
    mf_sinr_from_gram,
    mf_sinr_limit,
    zf_snr_from_gram,
    zf_snr_limit,
)

RHO_F, ALPHA = 1.0, 10.0


def _orthonormal_columns(M, K, scale=1.0):
    return scale * np.eye(M, K, dtype=complex)


def _zf_snr(G, rho_f=1.0):
    return zf_snr_from_gram(gram_normalized(G), rho_f)


def _mf_sinr(G, rho_f=1.0):
    return mf_sinr_from_gram(gram_normalized(G), rho_f)


def _zf_gamma(G):
    """ZF power normalization tr(Gram(G)^{-1}) / K, read off the SNR at rho_f = 1."""
    return 1.0 / (G.shape[1] * _zf_snr(G))


class TestZfGamma:
    def test_identity(self):
        assert _zf_gamma(np.eye(4, dtype=complex)) == pytest.approx(1.0)

    def test_scaled_orthonormal_columns(self):
        assert _zf_gamma(_orthonormal_columns(8, 3, scale=2.0)) == pytest.approx(0.25)

    def test_inverse_wishart_mean(self):
        # E{tr(Gram(G)^{-1})} = K/(M-K) for an iid complex Gaussian sample
        M, K, trials = 40, 10, 3000
        traces = [
            K * _zf_gamma(sample_iid(M, K, RngStream(21, t))) for t in range(trials)
        ]
        assert np.mean(traces) == pytest.approx(K / (M - K), rel=0.02)


class TestZfSnr:
    def test_single_user_exact(self):
        g = sample_iid(16, 1, RngStream(22))
        expected = 1.0 * np.sum(np.abs(g) ** 2)
        assert _zf_snr(g) == pytest.approx(expected, rel=1e-12)

    def test_equal_power_monte_carlo_limit(self):
        M, K, trials = 100, 10, 500
        snrs = [
            _zf_snr(sample_iid(M, K, RngStream(23, t))) for t in range(trials)
        ]
        assert np.mean(snrs) == pytest.approx(9.0, rel=0.05)

    def test_unitary_row_mixing_invariance(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        Q, _ = np.linalg.qr(Z)
        G = sample_iid(12, 4, RngStream(24))
        assert _zf_snr(Q @ G) == pytest.approx(_zf_snr(G), rel=1e-10)

    def test_matches_gram_variant(self):
        # the Gram-based SNR against the definition rho_f / tr((G^H G)^{-1})
        G = sample_iid(20, 5, RngStream(25))
        direct = 2.0 / np.trace(np.linalg.inv(G.conj().T @ G)).real
        assert _zf_snr(G, 2.0) == pytest.approx(direct, rel=1e-12)


class TestZfSnrLimit:
    def test_equal_powers(self):
        assert zf_snr_limit(RHO_F, ALPHA, 1.0) == pytest.approx(9.0)
        assert zf_snr_limit(1.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_decade_profile_is_log_ten(self):
        _, mean_inv_beta = limiting_moments(PowerProfile(0.1, 1.0))
        assert zf_snr_limit(RHO_F, ALPHA, mean_inv_beta) == pytest.approx(math.log(10), rel=1e-12)
        assert zf_snr_limit(RHO_F, ALPHA, 3.9087) == pytest.approx(2.3026, rel=1e-4)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            zf_snr_limit(1.0, 1.0, 1.0)


class TestMfGamma:
    """MF power normalization tr(Gram(G)) / K, applied inside mf_sinr_from_gram."""

    def test_orthonormal_columns(self):
        # gamma = 1 and no interference, so every SINR is rho_f / K
        np.testing.assert_allclose(_mf_sinr(_orthonormal_columns(6, 3)), 1.0 / 3, rtol=1e-15)

    def test_mean_is_average_gain_at_any_m(self):
        # E{gamma/M} equals the average link gain exactly, even at small M
        M, K, trials = 8, 5, 4000
        beta = link_gains(K, PowerProfile(0.1, 1.0))

        def gamma_over_m(t):
            G = sample_iid(M, K, RngStream(26, t)) * np.sqrt(beta)
            return (gram_normalized(G) / M).diagonal().real.mean()

        vals = [gamma_over_m(t) for t in range(trials)]
        assert np.mean(vals) == pytest.approx(beta.mean(), rel=0.02)


class TestMfSinr:
    def test_single_user_exact(self):
        g = sample_iid(16, 1, RngStream(27))
        expected = 1.0 * np.sum(np.abs(g) ** 2)
        sinr = _mf_sinr(g)
        assert sinr.shape == (1,)
        assert sinr[0] == pytest.approx(expected, rel=1e-12)

    def test_equal_power_monte_carlo_limit(self):
        M, K, trials = 200, 20, 300
        means = [
            _mf_sinr(sample_iid(M, K, RngStream(28, t))).mean()
            for t in range(trials)
        ]
        assert np.mean(means) == pytest.approx(5.0, rel=0.10)

    @given(st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_interference_bound(self, K, seed):
        # denominator >= 1, so SINR_i <= rho_f |gram_ii|^2 / (K gamma)
        G = sample_iid(3 * K, K, RngStream(seed))
        gram = gram_normalized(G)
        gamma = np.trace(gram).real / K
        bound = np.abs(gram.diagonal()) ** 2 / (K * gamma)
        assert (mf_sinr_from_gram(gram, 1.0) <= bound + 1e-12).all()

    def test_unit_gains_bitwise_equal_power_path(self):
        H = sample_iid(30, 6, RngStream(29))
        G = H * np.sqrt(np.ones(6))
        assert np.array_equal(_mf_sinr(G), _mf_sinr(H))
        assert _zf_snr(G) == _zf_snr(H)


class TestMfSinrLimit:
    def test_equal_powers(self):
        assert mf_sinr_limit(RHO_F, ALPHA, 1.0, 1.0) == pytest.approx(5.0)

    def test_high_snr_ceiling_is_alpha(self):
        limit = mf_sinr_limit(1e9, 10.0, 1.0, 1.0)
        assert limit == pytest.approx(10.0, rel=1e-8)

    def test_unequal_decade_profile_user_one(self):
        beta = link_gains(10, PowerProfile(0.1, 1.0))
        mean_beta, _ = limiting_moments(PowerProfile(0.1, 1.0))
        limit = mf_sinr_limit(RHO_F, ALPHA, float(beta[0]), mean_beta)
        assert limit == pytest.approx(10.7454, rel=1e-3)

    def test_unequal_monte_carlo_approaches_per_user_limit(self):
        # the gain 10^-0.05 = 0.8913 sits on the midpoint grid of K=50 as
        # well (user 3), where the joint-growth limit is already close; at
        # K=10 the excluded self-term still skews the interference by 1/K
        profile = PowerProfile(0.1, 1.0)
        beta = link_gains(50, profile)
        assert beta[2] == link_gains(10, profile)[0]  # same grid point
        M, trials = 500, 300
        mean_beta, _ = limiting_moments(profile)
        sinr_user3 = [
            _mf_sinr(sample_iid(M, 50, RngStream(32, t)) * np.sqrt(beta))[2]
            for t in range(trials)
        ]
        assert np.mean(sinr_user3) == pytest.approx(10.7454, rel=0.10)

    def test_zf_exceeds_mf_at_large_alpha(self):
        for alpha in (5.0, 10.0, 50.0):
            assert zf_snr_limit(1.0, alpha, 1.0) > mf_sinr_limit(1.0, alpha, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mf_sinr_limit(RHO_F, ALPHA, 0.0, 1.0)
        with pytest.raises(ValueError):
            mf_sinr_limit(RHO_F, ALPHA, 1.0, 0.0)
        with pytest.raises(ValueError):
            zf_snr_limit(RHO_F, ALPHA, 0.0)

