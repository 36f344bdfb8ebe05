"""Convergence-metric tests: closed-form small cases and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_converge.channel import RngStream, sample_iid
from mimo_converge.metrics import (
    convergence_metrics,
    diagonal_dominance,
    lambda_ratio,
    mad,
)
from mimo_converge.numerics import SingularMatrixError, gram_normalized


def _sample_w(M, K, seed):
    return gram_normalized(sample_iid(M, K, RngStream(seed)), M)


def _deviation(W):
    """E = W - I, as convergence_metrics forms it."""
    return W - np.eye(W.shape[0])


class TestDeviationMatrix:
    """The deviation E = W - I that convergence_metrics takes the MAD of."""

    def test_identity_gives_zero(self):
        assert convergence_metrics(np.eye(3)).mad == 0.0

    def test_diagonal(self):
        # E = diag(0.1, -0.1): two entries of magnitude 0.1 among four
        assert convergence_metrics(np.diag([1.1, 0.9])).mad == pytest.approx(0.05)

    def test_entries_shrink_with_m(self):
        small = convergence_metrics(_sample_w(500, 50, seed=1)).mad
        large = convergence_metrics(_sample_w(8000, 50, seed=1)).mad
        assert large < small


class TestMad:
    def test_zero_matrix(self):
        assert mad(np.zeros((4, 4))) == 0.0

    def test_direct_evaluation(self):
        E = np.array([[0.1, 0.2], [0.2, -0.1]])
        assert mad(E) == pytest.approx(0.15)

    def test_nonnegative_and_zero_iff_identity(self):
        assert mad(_deviation(np.eye(5))) == 0.0
        assert mad(_deviation(_sample_w(100, 10, seed=2))) > 0.0

    def test_fixed_k_decay_slope(self):
        # mean MAD over trials decays like M^{-1/2} at fixed K
        K, trials = 10, 200
        Ms = [64, 256, 1024, 4096]
        means = []
        for M in Ms:
            vals = [
                mad(_deviation(_sample_w(M, K, seed=1000 * M + t)))
                for t in range(trials)
            ]
            means.append(np.mean(vals))
        slope = np.polyfit(np.log(Ms), np.log(means), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestLambdaRatio:
    def test_identity(self):
        assert lambda_ratio(np.eye(6)) == pytest.approx(1.0)

    def test_single_user(self):
        assert lambda_ratio(_sample_w(40, 1, seed=3)) == pytest.approx(1.0)

    @given(st.floats(1e-3, 1e3), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, c, seed):
        W = _sample_w(30, 6, seed)
        assert lambda_ratio(c * W) == pytest.approx(lambda_ratio(W), rel=1e-9)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            lambda_ratio(_sample_w(3, 6, seed=4))  # M < K


class TestDiagonalDominance:
    def test_direct_evaluation(self):
        W = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert diagonal_dominance(W) == pytest.approx(2.0)

    def test_identity_sentinel(self):
        assert diagonal_dominance(np.eye(3)) == math.inf

    def test_single_user_sentinel(self):
        assert diagonal_dominance(np.array([[2.5]])) == math.inf

    @given(st.floats(1e-3, 1e3), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, c, seed):
        W = _sample_w(30, 6, seed)
        assert diagonal_dominance(c * W) == pytest.approx(diagonal_dominance(W), rel=1e-9)


class TestFormEquivalence:
    def test_metrics_agree_with_transpose_conjugate_form(self):
        # the alternative Gram convention (conjugate on the second factor)
        # is the entrywise conjugate; magnitudes, trace and eigenvalues match
        H = sample_iid(25, 6, RngStream(17))
        W = gram_normalized(H, 25)
        W_alt = (H.T @ H.conj()) / 25
        np.testing.assert_allclose(W_alt, W.conj(), atol=1e-12)
        m, m_alt = convergence_metrics(W), convergence_metrics(W_alt)
        assert m_alt.mad == pytest.approx(m.mad, rel=1e-12)
        assert m_alt.lambda_ratio == pytest.approx(m.lambda_ratio, rel=1e-9)
        assert m_alt.diagonal_dominance == pytest.approx(m.diagonal_dominance, rel=1e-12)


class TestConvergenceMetricsBundle:
    def test_matches_individual_ops(self):
        W = _sample_w(60, 8, seed=6)
        m = convergence_metrics(W)
        assert m.mad == mad(W - np.eye(8))
        assert m.lambda_ratio == lambda_ratio(W)
        assert m.diagonal_dominance == diagonal_dominance(W)
