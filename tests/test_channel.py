"""Channel generator tests: determinism, first and second moments.

Moment checks exploit that columns of one iid draw are themselves
independent trials, so a single wide matrix stands in for a trial loop.
The correlated channel, drawn in the eigenbasis of the exponential
correlation matrix R, is checked against dense oracles built from R: its
eigenvalues, and the law of its Cholesky factor times an iid draw.
"""

import tracemalloc

import numpy as np
import pytest

from mimo_converge import channel
from mimo_converge.channel import (
    CorrelationSpec,
    RngStream,
    exp_correlation_eigenvalues,
    sample_gram_factor,
    sample_normals,
)
from mimo_converge.metrics import lambda_ratio
from mimo_converge.numerics import inverse_trace
from mimo_converge.precoding import mf_sinr_from_gram, zf_snr_from_gram

from oracles import correlation_eigenvalues, sample_iid


def exp_correlation_matrix(M, spec):
    """Dense M x M oracle R_ij = rho**(spacing*|i - j|)."""
    i = np.arange(M)
    return spec.rho ** (spec.spacing * np.abs(i[:, np.newaxis] - i))


class TestRngStream:
    def test_same_stream_bit_identical(self):
        a = sample_iid(8, 3, RngStream(seed=42, stream=5))
        b = sample_iid(8, 3, RngStream(seed=42, stream=5))
        assert np.array_equal(a, b)
        # one stream handed to two draws gives both the same numbers
        rng = RngStream(seed=42, stream=5)
        assert np.array_equal(sample_iid(8, 3, rng), a) and np.array_equal(sample_iid(8, 3, rng), a)

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


class _NumpyKeyed:
    """numpy's own keying of (seed, stream): the reference for a moved RngStream."""

    def __init__(self, seed, stream):
        self.seed, self.stream = seed, stream

    def generator(self):
        return np.random.Generator(np.random.Philox(key=self.seed | self.stream << 64))


class TestKeyedStream:
    STREAMS = [0, 1, 7, 2**40, 2**64 - 1]

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    def test_rekeyed_stream_is_the_fresh_stream(self, seed):
        # one stream moved through every stream, each left part-way through a
        # buffered block and with a half-used 32-bit word, as a trial leaves it
        rng = RngStream(0)
        for stream in self.STREAMS:
            keyed = rng.keyed(seed, stream)
            assert keyed is rng and (keyed.seed, keyed.stream) == (seed, stream)
            for draw in (lambda g: g.standard_normal(7), lambda g: g.standard_gamma(np.arange(3.0, 0.0, -0.5))):
                g = rng.keyed(seed, stream).generator()
                assert draw(g).tobytes() == draw(_NumpyKeyed(seed, stream).generator()).tobytes()
                g.integers(2**32, size=3, dtype=np.uint32)

    def test_rekeyed_draws_match(self):
        rng = RngStream(0)
        for stream in self.STREAMS:
            assert sample_gram_factor(9, 4, rng.keyed(5, stream)).tobytes() == \
                sample_gram_factor(9, 4, _NumpyKeyed(5, stream)).tobytes()
            assert sample_normals(9, 4, rng.keyed(5, stream)).tobytes() == \
                sample_normals(9, 4, _NumpyKeyed(5, stream)).tobytes()


class TestSampleNormals:
    def test_out_receives_the_same_normals(self):
        out = np.empty((2, 7, 3))
        assert sample_normals(7, 3, RngStream(4, 2), out=out) is out
        assert out.tobytes() == sample_normals(7, 3, RngStream(4, 2)).tobytes()


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

    def test_row_power_sets_each_row_power(self):
        # mean |h_m|^2 over 1e5 entries of row m; |h_m|^2 / p_m is Exp(1)
        power = np.array([4.0, 1.0, 0.25])
        H = sample_iid(3, 100_000, RngStream(seed=11), row_power=power)
        assert np.all(np.abs((np.abs(H) ** 2).mean(axis=1) / power - 1) < 4 / np.sqrt(H.shape[1]))

    def test_row_power_scales_the_same_normals(self):
        power = np.array([2.0, 0.5, 3.0])
        scaled = sample_iid(3, 4, RngStream(3, 4), row_power=power)
        assert scaled.tobytes() == sample_iid(3, 4, RngStream(3, 4), row_power=power).tobytes()
        np.testing.assert_allclose(scaled, sample_iid(3, 4, RngStream(3, 4)) * np.sqrt(power)[:, np.newaxis],
                                   rtol=1e-15)


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

    @pytest.mark.parametrize("M, K", [(5, 1), (12, 5), (500, 50)])
    def test_out_slot_reused_gets_the_bits_of_a_fresh_draw(self, M, K):
        # the harness draws a stack's factors into the slots of one np.zeros
        # array; a slot drawn into again holds the new stream's factor alone
        stack = np.zeros((3, K, K), dtype=np.complex128)
        sample_gram_factor(M, K, RngStream(4, 0), out=stack[1])
        drawn = sample_gram_factor(M, K, RngStream(4, 1), out=stack[1])
        assert drawn.base is stack  # the slot itself, no copy
        assert stack[1].tobytes() == sample_gram_factor(M, K, RngStream(4, 1)).tobytes()
        assert np.all(np.tril(stack[1], -1) == 0) and np.all(stack[1].diagonal().imag == 0)
        assert not stack[0].any() and not stack[2].any()

    @pytest.mark.parametrize("M, K", [(5, 5), (50, 5), (1000, 100), (16384, 50)])
    def test_cached_float_shapes_give_the_bits_of_integer_shapes(self, M, K):
        # the float64 shapes, built on the first draw at (M, K) and reused
        # by the next, read as the integer shapes M, M - 1, ... do
        channel._gamma_shapes.cache_clear()
        R = sample_gram_factor(M, K, RngStream(8, 3))
        assert R.tobytes() == sample_gram_factor(M, K, RngStream(8, 3)).tobytes()
        gammas = RngStream(8, 3).generator().standard_gamma(np.arange(M, M - K, -1))
        assert R.diagonal().real.tobytes() == np.sqrt(gammas).tobytes()

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

    @pytest.mark.parametrize("rho", [-0.5, -1e-300])
    def test_negative_rho_rejected(self, rho):
        # exp_correlation_eigenvalues takes r in (0, 1) on trust
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            CorrelationSpec(rho)

    def test_adjacent_correlation(self):
        assert CorrelationSpec(0.5, spacing=2.0).r == 0.25
        assert CorrelationSpec(0.0, spacing=0.5).r == 0.0

    def test_adjacent_correlation_rounding_to_one_rejected(self):
        # 0.5 ** 1e-300 is 1.0 in floating point, and R of all ones is singular
        with pytest.raises(ValueError, match="rounds to 1"):
            CorrelationSpec(0.5, spacing=1e-300)

    @pytest.mark.parametrize("rho, spacing", [
        (float("nan"), 1.0), (float("inf"), 1.0),
        (0.5, float("nan")), (0.5, float("inf")), (0.5, -float("inf")),
    ])
    def test_non_finite_rejected(self, rho, spacing):
        with pytest.raises(ValueError):
            CorrelationSpec(rho, spacing)


def tr_r_squared(M, r):
    """tr(R^2) = sum over i, j of r**(2|i - j|), in closed form."""
    q = r * r
    return M * (1 + q) / (1 - q) - 2 * q * (1 - q**M) / (1 - q) ** 2


class TestExpCorrelationEigenvalues:
    """The Kac-Murdock-Szego eigenvalues that the correlated draw scales by."""

    @pytest.mark.parametrize("M, rho, spacing", [
        (1, 0.5, 1.0), (2, 0.9, 1.0), (50, 0.5, 1.0), (1000, 0.9, 1.0),
        (300, 0.99, 1.0), (200, 0.999, 1.0), (100, 0.9, 2.5),
    ])
    def test_match_dense_eigvalsh(self, M, rho, spacing):
        spec = CorrelationSpec(rho, spacing)
        [lam] = exp_correlation_eigenvalues([M], spec.r)
        assert lam.shape == (M,) and np.all(np.diff(lam) < 0)  # distinct, largest first
        np.testing.assert_allclose(lam[::-1], np.linalg.eigvalsh(exp_correlation_matrix(M, spec)),
                                   rtol=1e-10)

    @pytest.mark.parametrize("spacing", [1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("M", [1, 2, 3, 64, 1000])
    def test_row_scaled_gram_is_the_cholesky_coloured_gram(self, M, rho, spacing):
        # The law argument draw by draw: the Cholesky factor L of R has
        # L^H L = V diag(lambda) V^H with the eigenvalues of R, largest first,
        # so Z^H L^H L Z = (V^H Z)^H diag(lambda) (V^H Z): scaling the rows of
        # the rotated draw by sqrt(lambda) gives the coloured draw's Gram.
        spec = CorrelationSpec(rho, spacing)
        L = np.linalg.cholesky(exp_correlation_matrix(M, spec))
        Z = sample_iid(M, 6, RngStream(14, M))
        V = np.linalg.eigh(L.conj().T @ L)[1][:, ::-1]
        [lam] = exp_correlation_eigenvalues([M], spec.r)
        expected = stacked_gram(L @ Z)
        error = np.linalg.norm(stacked_gram(np.sqrt(lam)[:, np.newaxis] * (V.conj().T @ Z)) - expected)
        assert error / np.linalg.norm(expected) < 1e-12

    def test_trace_moments_at_the_largest_preset_size(self):
        M, r = 16384, 0.9
        [lam] = exp_correlation_eigenvalues([M], r)
        np.testing.assert_allclose(lam.sum(), M, rtol=1e-12)
        np.testing.assert_allclose((lam**2).sum(), tr_r_squared(M, r), rtol=1e-12)

    @pytest.mark.parametrize("r", [1e-3, 0.5, 0.9, 0.999])
    def test_grouped_call_has_the_bits_of_64_steps_per_m(self, r, monkeypatch):
        # the oracle bisects one M for a fixed 64 steps; the grouped call
        # bisects all M in one array and stops once no bracket moves
        Ms = [1, 2, 3, 7, 8, 50, 63, 500, 1000, 16384]
        steps = 0
        arctan2 = np.arctan2

        def counting(*args, **kwargs):
            nonlocal steps
            steps += 1
            return arctan2(*args, **kwargs)

        monkeypatch.setattr(np, "arctan2", counting)  # one call per excess evaluation
        grouped = exp_correlation_eigenvalues(Ms, r)
        monkeypatch.undo()
        assert [lam.tobytes() for lam in grouped] == [correlation_eigenvalues(M, r).tobytes() for M in Ms]
        assert steps - 2 < 64  # the sign checks of both bracket ends, then one per step

    @pytest.mark.parametrize("M, K, r", [(8, 4, 0.9), (60, 10, 0.5), (33, 8, 0.99)])
    def test_law_matches_dense_cholesky_oracle(self, M, K, r):
        # Every statistic reads a trial through its Gram Z^H L^H L Z, and
        # L^H L = V diag(lambda) V^H with V^H Z distributed as Z; so rows of
        # Z scaled by sqrt(lambda) give Grams of the law of those of L Z.
        # Compare the Gram second moments, the lambda ratio, the ZF SNR and
        # the per-user MF SINR over independent streams within 4.5 combined
        # SE. The trials of each side are the column blocks of one wide draw.
        T = 4000

        def trial_stats(H):
            W = stacked_gram(H.reshape(M, T, K).transpose(1, 0, 2))
            return np.hstack([
                np.abs(W.reshape(T, K * K)) ** 2,
                lambda_ratio(W)[:, np.newaxis],
                zf_snr_from_gram(W, 1.0)[:, np.newaxis],
                mf_sinr_from_gram(W, 1.0),
            ])

        [lam] = exp_correlation_eigenvalues([M], r)
        L = np.linalg.cholesky(exp_correlation_matrix(M, CorrelationSpec(r)))
        eigenbasis = trial_stats(sample_iid(M, T * K, RngStream(51), row_power=lam))
        oracle = trial_stats(L @ sample_iid(M, T * K, RngStream(52)))
        se = np.sqrt(eigenbasis.var(axis=0, ddof=1) / T + oracle.var(axis=0, ddof=1) / T)
        z = np.abs(eigenbasis.mean(axis=0) - oracle.mean(axis=0)) / se
        assert z.max() < 4.5, f"largest gap {z.max():.2f} SE"

    def test_memory_stays_linear_in_m(self):
        # a dense R at M = 16384 alone would take 2 GiB
        tracemalloc.start()
        try:
            sample_iid(16384, 50, RngStream(1), row_power=exp_correlation_eigenvalues([16384], 0.9)[0])
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
