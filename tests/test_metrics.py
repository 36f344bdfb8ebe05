"""Convergence-metric tests: closed-form small cases and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_converge.channel import RngStream
from mimo_converge.metrics import diagonal_dominance, lambda_ratio, mad
from mimo_converge.numerics import SingularMatrixError, gram_normalized

from oracles import sample_iid


def _sample_w(M, K, seed):
    return gram_normalized(sample_iid(M, K, RngStream(seed))) / M


def _deviation(W):
    """E = W - I, as the sweep harness forms it before taking the MAD."""
    return W - np.eye(W.shape[0])


class TestDeviationMatrix:
    """The deviation E = W - I that the sweep harness takes the MAD of."""

    def test_identity_gives_zero(self):
        assert mad(_deviation(np.eye(3))) == 0.0

    def test_diagonal(self):
        # E = diag(0.1, -0.1): two entries of magnitude 0.1 among four
        assert mad(_deviation(np.diag([1.1, 0.9]))) == pytest.approx(0.05)

    def test_entries_shrink_with_m(self):
        small = mad(_deviation(_sample_w(500, 50, seed=1)))
        large = mad(_deviation(_sample_w(8000, 50, seed=1)))
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
        W = gram_normalized(H) / 25
        W_alt = (H.T @ H.conj()) / 25
        np.testing.assert_allclose(W_alt, W.conj(), atol=1e-12)
        assert mad(_deviation(W_alt)) == pytest.approx(mad(_deviation(W)), rel=1e-12)
        assert lambda_ratio(W_alt) == pytest.approx(lambda_ratio(W), rel=1e-9)
        assert diagonal_dominance(W_alt) == pytest.approx(diagonal_dominance(W), rel=1e-12)
