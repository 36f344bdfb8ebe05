"""Channel generator tests: determinism, first and second moments.

Moment checks exploit that columns of one iid draw are themselves
independent trials, so a single wide matrix stands in for a trial loop.
"""

import numpy as np
import pytest

from mimo_converge.channel import (
    ChannelSample,
    CorrelationSpec,
    RngStream,
    apply_correlation,
    apply_link_gains,
    correlation_sqrt,
    exp_correlation_matrix,
    sample_channel,
    sample_iid,
)
from mimo_converge.numerics import hermitian_eigenvalues


class TestRngStream:
    def test_same_stream_bit_identical(self):
        a = sample_iid(8, 3, RngStream(seed=42, stream=5))
        b = sample_iid(8, 3, RngStream(seed=42, stream=5))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_iid(8, 3, RngStream(seed=42, stream=0))
        b = sample_iid(8, 3, RngStream(seed=42, stream=1))
        assert not np.allclose(a, b)

    def test_seeds_differ(self):
        a = sample_iid(8, 3, RngStream(seed=1))
        b = sample_iid(8, 3, RngStream(seed=2))
        assert not np.allclose(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(seed=-1)


class TestSampleIid:
    def test_shape_and_dtype(self):
        H = sample_iid(6, 4, RngStream(0))
        assert H.shape == (6, 4) and H.dtype == np.complex128

    def test_unit_entry_power(self):
        # mean |h|^2 over 1e5 entries; |h|^2 is Exp(1), so 3 SE = 3/sqrt(n)
        h = sample_iid(1, 100_000, RngStream(seed=9))
        power = np.abs(h) ** 2
        assert abs(power.mean() - 1.0) < 3 / np.sqrt(power.size)

    def test_column_power_variance_law(self):
        # (1/M) sum_r |h_r|^2 per column has variance 1/M
        M, trials = 100, 100_000
        H = sample_iid(M, trials, RngStream(seed=10))
        col_power = (np.abs(H) ** 2).mean(axis=0)
        np.testing.assert_allclose(col_power.var(ddof=1), 1 / M, rtol=0.10)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            sample_iid(0, 3, RngStream(0))

    @pytest.mark.parametrize(
        "M, K, seed, stream",
        [(1, 1, 0, 0), (1, 7, 3, 1), (9, 1, 5, 2), (100, 10, 42, 7),
         (1000, 100, 12345, 3), (16384, 50, 1, 0)],
    )
    def test_bits_match_reference_formula(self, M, K, seed, stream):
        g = RngStream(seed, stream).generator()
        re = g.standard_normal((M, K))
        im = g.standard_normal((M, K))
        reference = (re + 1j * im) / np.sqrt(2.0)
        assert sample_iid(M, K, RngStream(seed, stream)).tobytes() == reference.tobytes()


class TestExpCorrelationMatrix:
    def test_rho_zero_is_identity(self):
        np.testing.assert_array_equal(exp_correlation_matrix(5, CorrelationSpec(0.0)), np.eye(5))

    def test_adjacent_entries(self):
        R = exp_correlation_matrix(3, CorrelationSpec(rho=0.5, spacing=1.0))
        assert R[0, 1] == pytest.approx(0.5)
        assert R[0, 2] == pytest.approx(0.25)
        np.testing.assert_allclose(R.diagonal(), 1.0)
        np.testing.assert_allclose(R, R.T)

    def test_spacing_scales_exponent(self):
        R = exp_correlation_matrix(2, CorrelationSpec(rho=0.5, spacing=2.0))
        assert R[0, 1] == pytest.approx(0.25)

    def test_high_rho_still_positive_definite(self):
        R = exp_correlation_matrix(64, CorrelationSpec(rho=0.9))
        assert hermitian_eigenvalues(R)[0] > 0

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(rho=1.0)
        with pytest.raises(ValueError):
            CorrelationSpec(rho=0.5, spacing=0.0)


class TestApplyCorrelation:
    def test_identity_passthrough(self):
        H = sample_iid(4, 3, RngStream(1))
        assert np.array_equal(apply_correlation(np.eye(4), H), H)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_correlation(np.eye(3), sample_iid(4, 2, RngStream(1)))

    def test_pairwise_correlation_moment(self):
        # columns are trials: mean h_1 conj(h_2) estimates the model value 0.5
        spec = CorrelationSpec(rho=0.5)
        H = apply_correlation(correlation_sqrt(2, spec), sample_iid(2, 100_000, RngStream(seed=12)))
        est = np.mean(H[0] * np.conj(H[1]))
        assert abs(est - 0.5) < 0.02

    def test_unit_diagonal_preserves_entry_power(self):
        spec = CorrelationSpec(rho=0.9)
        H = apply_correlation(correlation_sqrt(16, spec), sample_iid(16, 20_000, RngStream(seed=13)))
        assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.02

    def test_deterministic(self):
        spec = CorrelationSpec(rho=0.7)
        H = sample_iid(8, 2, RngStream(3))
        S = correlation_sqrt(8, spec)
        assert np.array_equal(apply_correlation(S, H), apply_correlation(S, H))


class TestApplyLinkGains:
    def test_unit_gains_bitwise_identity(self):
        H = sample_iid(5, 3, RngStream(2))
        assert np.array_equal(apply_link_gains(H, np.ones(3)), H)

    def test_column_scaling(self):
        H = sample_iid(16, 2, RngStream(4))
        G = apply_link_gains(H, np.array([4.0, 1.0]))
        assert np.linalg.norm(G[:, 0]) == pytest.approx(2 * np.linalg.norm(H[:, 0]))
        assert np.array_equal(G[:, 1], H[:, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_link_gains(sample_iid(4, 3, RngStream(0)), np.ones(2))

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError):
            apply_link_gains(sample_iid(4, 2, RngStream(0)), np.array([1.0, 0.0]))

    def test_gram_diag_mean_and_variance_scale_with_beta(self):
        # per-user diagonal of Gram(G)/M has mean beta_i; its variance is
        # beta_i^2/M (the gain scales the entry, so the variance scales
        # quadratically)
        M, trials = 50, 100_000
        for beta_i in (4.0, 1.0, 0.25):
            H = sample_iid(M, trials, RngStream(seed=int(beta_i * 100)))
            diag = (np.abs(H * np.sqrt(beta_i)) ** 2).mean(axis=0)
            np.testing.assert_allclose(diag.mean(), beta_i, rtol=0.01)
            np.testing.assert_allclose(diag.var(ddof=1), beta_i**2 / M, rtol=0.10)


class TestSampleChannel:
    def test_pure_function_of_inputs(self):
        spec = CorrelationSpec(rho=0.6)
        beta = np.array([1.0, 0.5])
        a = sample_channel(8, 2, beta, RngStream(7, 3), spec)
        b = sample_channel(8, 2, beta, RngStream(7, 3), spec)
        for x, y in zip((a.H_iid, a.H, a.G), (b.H_iid, b.H, b.G)):
            assert np.array_equal(x, y)

    def test_iid_equal_power_reduces_to_plain_draw(self):
        s = sample_channel(10, 4, np.ones(4), RngStream(5))
        assert s.H is s.H_iid
        assert s.G is s.H_iid  # unit gains skip the column scaling

    def test_rho_zero_same_as_no_correlation(self):
        a = sample_channel(6, 2, np.ones(2), RngStream(8), None)
        b = sample_channel(6, 2, np.ones(2), RngStream(8), CorrelationSpec(rho=0.0))
        assert np.array_equal(a.G, b.G)

    def test_returns_sample_fields(self):
        s = sample_channel(6, 3, np.array([1.0, 0.5, 0.25]), RngStream(1), CorrelationSpec(0.5))
        assert isinstance(s, ChannelSample)
        assert s.G.shape == (6, 3)
        assert not np.array_equal(s.H, s.H_iid)
