"""Channel generator tests: determinism, first and second moments.

Moment checks exploit that columns of one iid draw are themselves
independent trials, so a single wide matrix stands in for a trial loop.
The correlated channel is checked against dense oracles built from the
exponential correlation matrix: its Cholesky factor, which the coloring
applies exactly, and its principal square root, whose law it shares.
"""

import tracemalloc

import numpy as np
import pytest

from mimo_converge.channel import (
    CorrelationSpec,
    RngStream,
    color_exponential,
    sample_channel,
    sample_gram_factor,
    sample_iid,
)
from mimo_converge.metrics import lambda_ratio
from mimo_converge.numerics import gram_normalized, inverse_trace
from mimo_converge.precoding import mf_sinr_from_gram, zf_snr_from_gram


def exp_correlation_matrix(M, spec):
    """Dense M x M oracle R_ij = rho**(spacing*|i - j|)."""
    i = np.arange(M)
    return spec.rho ** (spec.spacing * np.abs(i[:, np.newaxis] - i))


def dense_root(R):
    """Principal square root of a symmetric positive definite matrix."""
    w, V = np.linalg.eigh(R)
    return (V * np.sqrt(w)) @ V.T


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

    @pytest.mark.parametrize("seed, stream", [(2**64, 0), (0, 2**64)])
    def test_rejects_beyond_64_bits(self, seed, stream):
        # the key packs seed and stream into 64 bits each; wider values would alias
        with pytest.raises(ValueError, match="2\\*\\*64"):
            RngStream(seed, stream)

    def test_key_holds_seed_low_and_stream_high(self):
        key = RngStream(2**64 - 1, 5).generator().bit_generator.state["state"]["key"]
        assert key.tolist() == [2**64 - 1, 5]


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


def stacked_gram(A):
    """Gram conj(A_t).T @ A_t of every matrix of a stack."""
    return np.conj(np.swapaxes(A, -2, -1)) @ A


# Square, one row over square, and tall Wisharts.
WISHART_SHAPES = [(20, 10), (11, 10), (10, 10), (64, 4)]


class TestSampleGramFactor:
    """The Bartlett factor R: R^H R is CW_K(M, I), the law of H^H H."""

    def test_upper_triangular_with_positive_real_diagonal(self):
        R = sample_gram_factor(12, 5, RngStream(3, 1))
        assert R.shape == (5, 5) and R.dtype == np.complex128
        assert np.all(np.tril(R, -1) == 0)
        assert np.all(R.diagonal().real > 0) and np.all(R.diagonal().imag == 0)
        assert np.all(R[np.triu_indices(5, 1)] != 0)

    def test_same_stream_bit_identical(self):
        a = sample_gram_factor(30, 6, RngStream(42, 5))
        assert a.tobytes() == sample_gram_factor(30, 6, RngStream(42, 5)).tobytes()
        assert a.tobytes() != sample_gram_factor(30, 6, RngStream(42, 6)).tobytes()

    @pytest.mark.parametrize("M, K", [(3, 4), (5, 0)])
    def test_rejects_more_columns_than_rows(self, M, K):
        with pytest.raises(ValueError, match="K <= M"):
            sample_gram_factor(M, K, RngStream(0))

    @pytest.mark.parametrize("M, K", WISHART_SHAPES)
    def test_gram_moments_are_exact_wishart(self, M, K):
        # Per trial: each W_ii (mean M), the mean of (W_ii - M)^2 over the
        # independent diagonal (mean Var W_ii = M; one pooled value, as each
        # square alone is skewed), the mean of |W_ij|^2 over i < j (mean M),
        # the mean real and imaginary part above the diagonal (mean 0), and,
        # for M > K, tr W^-1 (mean K/(M - K)). Every mean within 4 SE.
        T = 10_000
        R = np.stack([sample_gram_factor(M, K, RngStream(31, t)) for t in range(T)])
        W = stacked_gram(R)
        diag = W.diagonal(axis1=-2, axis2=-1).real
        rows, cols = np.triu_indices(K, 1)
        upper = W[:, rows, cols]
        columns = [diag, ((diag - M) ** 2).mean(axis=1, keepdims=True),
                   (np.abs(upper) ** 2).mean(axis=1, keepdims=True),
                   upper.real.mean(axis=1, keepdims=True), upper.imag.mean(axis=1, keepdims=True)]
        targets = [np.full(K, M), [M], [M], [0.0], [0.0]]
        if M > K:
            columns.append(inverse_trace(W)[:, np.newaxis])
            targets.append([K / (M - K)])
        values = np.hstack(columns)
        se = values.std(axis=0, ddof=1) / np.sqrt(T)
        z = np.abs(values.mean(axis=0) - np.concatenate(targets)) / se
        assert z.max() < 4, f"largest gap {z.max():.2f} SE"

    @pytest.mark.parametrize("M, K", WISHART_SHAPES)
    def test_statistics_match_the_direct_draw(self, M, K):
        # log of the eigenvalue ratio (at M = K the ratio itself has no
        # mean), ZF SNR and mean MF SINR over independent streams, within
        # 4 combined SE. The direct trials are the columns of one wide draw.
        T = 4000

        def trial_stats(W):
            return np.stack([
                np.log(lambda_ratio(W)),
                zf_snr_from_gram(W, 1.0),
                mf_sinr_from_gram(W, 1.0).mean(axis=-1),
            ], axis=1)

        R = np.stack([sample_gram_factor(M, K, RngStream(41, t)) for t in range(T)])
        H = sample_iid(M, T * K, RngStream(42)).reshape(M, T, K).transpose(1, 0, 2)
        bartlett, direct = trial_stats(stacked_gram(R)), trial_stats(stacked_gram(H))
        se = np.sqrt(bartlett.var(axis=0, ddof=1) / T + direct.var(axis=0, ddof=1) / T)
        z = np.abs(bartlett.mean(axis=0) - direct.mean(axis=0)) / se
        assert z.max() < 4, f"largest gap {z.max():.2f} SE"


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
        assert np.linalg.eigvalsh(R)[0] > 0

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(rho=1.0)
        with pytest.raises(ValueError):
            CorrelationSpec(rho=0.5, spacing=0.0)

    @pytest.mark.parametrize("rho, spacing", [
        (float("nan"), 1.0), (float("inf"), 1.0),
        (0.5, float("nan")), (0.5, float("inf")), (0.5, -float("inf")),
    ])
    def test_non_finite_rejected(self, rho, spacing):
        with pytest.raises(ValueError):
            CorrelationSpec(rho, spacing)


class TestColorExponential:
    """Coloring by the AR(1) recursion, color_exponential."""

    def test_identity_passthrough(self):
        H = sample_iid(4, 3, RngStream(1))
        assert np.array_equal(color_exponential(H, CorrelationSpec(0.0)), H)

    def test_factor_multiplies_back_to_r(self):
        # coloring the identity gives the factor L itself; L L^H must be R
        for spec in (CorrelationSpec(0.5), CorrelationSpec(0.9, spacing=2.0)):
            L = color_exponential(np.eye(6, dtype=complex), spec)
            np.testing.assert_allclose(L @ L.conj().T, exp_correlation_matrix(6, spec), atol=1e-14)

    def test_pairwise_correlation_moment(self):
        # columns are trials: mean h_i conj(h_j) estimates r**|i - j|,
        # r = rho**spacing
        for spec, r in ((CorrelationSpec(0.5), 0.5), (CorrelationSpec(0.5, spacing=2.0), 0.25)):
            H = color_exponential(sample_iid(3, 100_000, RngStream(seed=12)), spec)
            assert abs(np.mean(H[0] * np.conj(H[1])) - r) < 0.02
            assert abs(np.mean(H[1] * np.conj(H[2])) - r) < 0.02
            assert abs(np.mean(H[0] * np.conj(H[2])) - r**2) < 0.02

    def test_unit_diagonal_preserves_entry_power(self):
        spec = CorrelationSpec(rho=0.9)
        H = color_exponential(sample_iid(16, 20_000, RngStream(seed=13)), spec)
        assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.02

    @pytest.mark.parametrize("spacing", [1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("M", [1, 2, 3, 64, 1000])
    def test_applies_the_cholesky_factor(self, M, rho, spacing):
        spec = CorrelationSpec(rho, spacing)
        H = sample_iid(M, 6, RngStream(14, M))
        expected = np.linalg.cholesky(exp_correlation_matrix(M, spec)) @ H
        error = np.linalg.norm(color_exponential(H, spec) - expected) / np.linalg.norm(expected)
        assert error < 1e-12

    def test_first_row_is_the_iid_draw(self):
        H = sample_iid(8, 5, RngStream(3))
        assert color_exponential(H, CorrelationSpec(0.7))[0].tobytes() == H[0].tobytes()

    def test_deterministic(self):
        spec = CorrelationSpec(rho=0.7)
        a = sample_channel(8, 2, RngStream(3, 4), spec)
        b = sample_channel(8, 2, RngStream(3, 4), spec)
        assert a.tobytes() == b.tobytes()

    def test_law_matches_dense_root_oracle(self):
        # The recursion applies the Cholesky factor L = R^(1/2) U, so L H_iid
        # and R^(1/2) H_iid share one law. Compare Gram second moments and
        # the ZF/MF means over independent streams within 4 combined SE.
        M, K, T = 8, 4, 4000
        spec = CorrelationSpec(rho=0.9)
        root = dense_root(exp_correlation_matrix(M, spec))

        def trial_stats(H):
            W = gram_normalized(H)
            return np.concatenate([
                np.abs(W.ravel()) ** 2,
                [zf_snr_from_gram(W, 1.0)],
                mf_sinr_from_gram(W, 1.0),
            ])

        ar1 = np.array([
            trial_stats(color_exponential(sample_iid(M, K, RngStream(21, t)), spec))
            for t in range(T)
        ])
        oracle = np.array([trial_stats(root @ sample_iid(M, K, RngStream(22, t))) for t in range(T)])
        se = np.sqrt(ar1.var(axis=0, ddof=1) / T + oracle.var(axis=0, ddof=1) / T)
        z = np.abs(ar1.mean(axis=0) - oracle.mean(axis=0)) / se
        assert z.max() < 4, f"largest gap {z.max():.2f} SE"

    def test_memory_stays_linear_in_m(self):
        # a dense root at M = 16384 alone would take 2 GiB
        tracemalloc.start()
        try:
            sample_channel(16384, 50, RngStream(1), CorrelationSpec(0.9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestLinkGainScaling:
    """The sweep kernel's column scaling G = H * sqrt(beta)."""

    def test_unit_gains_bitwise_identity(self):
        H = sample_iid(5, 3, RngStream(2))
        assert (H * np.sqrt(np.ones(3))).tobytes() == H.tobytes()

    def test_column_scaling(self):
        H = sample_iid(16, 2, RngStream(4))
        G = H * np.sqrt(np.array([4.0, 1.0]))
        assert np.linalg.norm(G[:, 0]) == pytest.approx(2 * np.linalg.norm(H[:, 0]))
        assert np.array_equal(G[:, 1], H[:, 1])

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
        a = sample_channel(8, 2, RngStream(7, 3), spec)
        b = sample_channel(8, 2, RngStream(7, 3), spec)
        assert a.tobytes() == b.tobytes()

    def test_iid_equal_power_reduces_to_plain_draw(self):
        H = sample_channel(10, 4, RngStream(5))
        assert H.tobytes() == sample_iid(10, 4, RngStream(5)).tobytes()

    def test_rho_zero_same_as_no_correlation(self):
        a = sample_channel(6, 2, RngStream(8), None)
        b = sample_channel(6, 2, RngStream(8), CorrelationSpec(rho=0.0))
        assert a.tobytes() == b.tobytes()

    def test_returns_coloured_draw(self):
        H_iid = sample_iid(6, 3, RngStream(1))
        H = sample_channel(6, 3, RngStream(1), CorrelationSpec(0.5))
        assert H.shape == (6, 3) and H.dtype == np.complex128
        assert H.tobytes() == color_exponential(H_iid, CorrelationSpec(0.5)).tobytes()
        assert not np.array_equal(H, H_iid)
