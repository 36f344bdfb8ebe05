"""Link-gain profile tests.

The limiting moments were frozen from a K = 10^6 midpoint-sum oracle,
which the closed form must reproduce to 1e-6 relative (it agrees to
roughly 1e-13); see test_limiting_moments_match_midpoint_oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_converge.power import PowerProfile, limiting_moments, link_gains

PROFILE_01_1 = PowerProfile(beta_min=0.1, beta_max=1.0)

# Frozen from the K=1e6 midpoint sums (0.3908650337128403, 3.908650337128403).
MEAN_BETA_01_1 = 0.3908650337129266
MEAN_INV_BETA_01_1 = 3.908650337129266


class TestLinkGains:
    def test_degenerate_equal_powers(self):
        gains = link_gains(4, PowerProfile(beta_min=2.0, beta_max=2.0))
        np.testing.assert_array_equal(gains, 2.0)

    def test_k2_closed_form(self):
        # midpoints x0/4 and 3*x0/4 of the decade give 10^-0.25 and 10^-0.75
        gains = link_gains(2, PROFILE_01_1)
        np.testing.assert_allclose(gains, [10**-0.25, 10**-0.75], rtol=1e-12)
        np.testing.assert_allclose(gains, [0.5623413252, 0.1778279410], rtol=1e-9)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_eta_invariance_bitwise(self, eta):
        base = link_gains(16, PowerProfile(0.1, 1.0, eta=0.5))
        other = link_gains(16, PowerProfile(0.1, 1.0, eta=eta))
        assert np.array_equal(base, other)

    @given(
        st.floats(1e-3, 1.0),
        st.floats(1.001, 1e3),
        st.integers(2, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_and_bounded(self, beta_min, factor, K):
        beta_max = beta_min * factor
        gains = link_gains(K, PowerProfile(beta_min, beta_max))
        assert (np.diff(gains) < 0).all()
        assert gains[0] < beta_max
        assert gains[-1] > beta_min

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerProfile(beta_min=2.0, beta_max=1.0)
        with pytest.raises(ValueError):
            PowerProfile(beta_min=0.0, beta_max=1.0)
        with pytest.raises(ValueError):
            PowerProfile(beta_min=0.1, beta_max=1.0, eta=1.0)
        with pytest.raises(ValueError):
            link_gains(0, PROFILE_01_1)

    @pytest.mark.parametrize("beta_min, beta_max, eta", [
        (0.1, float("inf"), 0.5), (float("inf"), float("inf"), 0.5),
        (float("nan"), 1.0, 0.5), (0.1, float("nan"), 0.5), (0.1, 1.0, float("nan")),
        # finite bounds whose limiting moments are (0.0, nan) and (1.4e-8, inf)
        (1e-320, 1.0, 0.5), (1e-310, 1e-5, 0.5),
    ])
    def test_non_finite_rejected(self, beta_min, beta_max, eta):
        with pytest.raises(ValueError):
            PowerProfile(beta_min, beta_max, eta)


class TestLimitingMoments:
    def test_constant_profile(self):
        assert limiting_moments(PowerProfile(2.0, 2.0)) == (2.0, 0.5)

    def test_matches_midpoint_oracle(self):
        # oracle: brute-force midpoint sums at K = 1e6
        K = 10**6
        gains = link_gains(K, PROFILE_01_1)
        oracle_mean, oracle_inv = gains.mean(), (1.0 / gains).mean()
        mean_beta, mean_inv_beta = limiting_moments(PROFILE_01_1)
        assert mean_beta == pytest.approx(oracle_mean, rel=1e-6)
        assert mean_inv_beta == pytest.approx(oracle_inv, rel=1e-6)
        assert mean_beta == pytest.approx(MEAN_BETA_01_1, rel=1e-12)
        assert mean_inv_beta == pytest.approx(MEAN_INV_BETA_01_1, rel=1e-12)

    def test_finite_k_convergence(self):
        gains = link_gains(10**4, PROFILE_01_1)
        mean_beta, mean_inv_beta = limiting_moments(PROFILE_01_1)
        assert gains.mean() == pytest.approx(mean_beta, rel=1e-3)
        assert (1.0 / gains).mean() == pytest.approx(mean_inv_beta, rel=1e-3)

    def test_monotone_approach(self):
        # midpoint sums of a convex curve stay below the integral and the
        # gap shrinks as K grows
        mean_beta, mean_inv_beta = limiting_moments(PROFILE_01_1)
        gaps_mean, gaps_inv = [], []
        for K in (10, 100, 1000):
            gains = link_gains(K, PROFILE_01_1)
            assert gains.mean() < mean_beta
            assert (1.0 / gains).mean() < mean_inv_beta
            gaps_mean.append(mean_beta - gains.mean())
            gaps_inv.append(mean_inv_beta - (1.0 / gains).mean())
        assert gaps_mean[0] > gaps_mean[1] > gaps_mean[2]
        assert gaps_inv[0] > gaps_inv[1] > gaps_inv[2]

    def test_unit_profile_stands_for_equal_powers(self):
        # the sweep harness runs a scenario without a profile on unit gains
        assert limiting_moments(PowerProfile(1.0, 1.0)) == (1.0, 1.0)
        assert link_gains(7, PowerProfile(1.0, 1.0)).tolist() == [1.0] * 7
