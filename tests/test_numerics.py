"""Linear-algebra kernel tests.

Ground truth: hand-derived closed forms for small matrices, and the
eigenvalue decomposition as an independent oracle for traces.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_converge
from mimo_converge.metrics import lambda_ratio
from mimo_converge.numerics import (
    _openblas_thread_controls,
    SingularMatrixError,
    gram_normalized,
    inverse_trace,
    single_threaded_blas,
)


def _random_complex(m, k, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)


class TestGramNormalized:
    def test_scalar(self):
        np.testing.assert_allclose(gram_normalized(np.array([[2.0 + 0j]])), [[4.0]])

    def test_identity_scaled(self):
        np.testing.assert_allclose(gram_normalized(np.eye(2)) / 2.0, np.eye(2) / 2)

    def test_diag_mean_and_variance(self):
        # columns of each draw act as independent trials of an M-vector
        M, cols, batches = 64, 500, 20
        diag = np.concatenate(
            [
                (gram_normalized(_random_complex(M, cols, seed=11 + b)) / M).diagonal().real
                for b in range(batches)
            ]
        )
        np.testing.assert_allclose(diag.mean(), 1.0, atol=3 / np.sqrt(M * diag.size))
        np.testing.assert_allclose(diag.var(ddof=1), 1 / M, rtol=0.10)

    def test_exactly_hermitian_with_real_diagonal(self):
        W = gram_normalized(_random_complex(20, 8, seed=1)) / 20.0
        assert np.array_equal(W, W.conj().T)
        assert W.diagonal().imag.max() == 0.0

    @pytest.mark.parametrize("m, k", [(1, 1), (5, 3), (100, 10), (1000, 100), (300, 256)])
    def test_bits_of_the_reference_rebuild(self, m, k):
        # the reference: the Gram of conj(A).T @ A rebuilt from its lower
        # triangle as low + low.conj().T + diag, also for real input, for
        # zero imaginary parts and for negative zeros
        def reference(A):
            B = A.conj().T @ A
            low = np.tril(B, -1)
            return low + low.conj().T + np.diag(B.diagonal().real)

        A = _random_complex(m, k, seed=m + k)
        imag_zero = A.real - 0j
        for X in (A, imag_zero, -0.0 * A, A.real.copy()):
            assert gram_normalized(X).tobytes() == reference(X).tobytes()
        conj = np.empty_like(A)
        for X in (A, imag_zero):
            assert gram_normalized(X, conj).tobytes() == reference(X).tobytes()
            assert conj.tobytes() == X.conj().tobytes()

    @given(st.integers(2, 12), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_psd_up_to_slack(self, m, k, seed):
        W = gram_normalized(_random_complex(m, k, seed)) / float(m)
        lam = np.linalg.eigvalsh(W)
        assert lam[0] >= -1e-12 * max(1.0, lam[-1])


class TestHermitianEigenvalues:
    """The Gram spectrum as lambda_ratio reads it through np.linalg.eigvalsh."""

    def test_identity(self):
        assert lambda_ratio(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert lambda_ratio(np.diag([1.0, 4.0])) == pytest.approx(4.0)

    def test_two_by_two_by_hand(self):
        # char. polynomial of [[2,1],[1,2]] is (2-x)^2 - 1, roots 1 and 3
        W = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert lambda_ratio(W) == pytest.approx(3.0, rel=1e-12)

    @given(st.integers(1, 15), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_trace(self, k, seed):
        W = gram_normalized(_random_complex(k + 3, k, seed))
        lam = np.linalg.eigvalsh(W)
        np.testing.assert_allclose(lam.sum(), np.trace(W).real, rtol=1e-10)

    def test_ascending(self):
        # lambda_ratio reads the extremes off the ends of the ascending
        # spectrum; the general eigensolver is an independent oracle
        W = gram_normalized(_random_complex(12, 6, 3))
        lam = np.linalg.eigvals(W).real
        assert lambda_ratio(W) == pytest.approx(lam.max() / lam.min(), rel=1e-9)

    def test_reconstruction_residual(self):
        W = gram_normalized(_random_complex(30, 10, seed=5)) / 30.0
        lam, V = np.linalg.eigh(W)
        residual = np.linalg.norm((V * lam) @ V.conj().T - W) / np.linalg.norm(W)
        assert residual < 1e-10


class TestInverseTrace:
    def test_identity(self):
        assert inverse_trace(np.eye(7)) == pytest.approx(7.0)

    def test_diagonal(self):
        assert inverse_trace(np.diag([1.0, 0.5])) == pytest.approx(3.0)

    def test_matches_eigenvalue_oracle(self):
        W = gram_normalized(_random_complex(40, 10, seed=2))
        oracle = float(np.sum(1.0 / np.linalg.eigvalsh(W)))
        assert inverse_trace(W) == pytest.approx(oracle, rel=1e-8)

    @given(st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_eigenvalue_oracle_property(self, k, seed):
        W = gram_normalized(_random_complex(3 * k + 4, k, seed))
        oracle = float(np.sum(1.0 / np.linalg.eigvalsh(W)))
        assert inverse_trace(W) == pytest.approx(oracle, rel=1e-8)

    def test_rank_deficient_raises(self):
        W = gram_normalized(_random_complex(2, 5, seed=4))  # rank 2 of 5
        with pytest.raises(SingularMatrixError):
            inverse_trace(W)

    def test_near_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_trace(np.diag([1.0, 1e-14]))

    def test_condition_bound_above_tolerance_raises(self):
        # ||W||_1 tr(W^-1) = 1e13 + 1 exceeds 1 / SINGULAR_RTOL
        with pytest.raises(SingularMatrixError):
            inverse_trace(np.diag([1.0, 1e-13]))

    def test_condition_bound_below_tolerance_returns(self):
        assert inverse_trace(np.diag([1.0, 1e-10])) == pytest.approx(1e10 + 1.0, rel=1e-12)

    def test_overflowing_trace_raises_without_warning(self):
        # the inverse factor holds 1e160, whose square overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                inverse_trace(np.diag([1.0, 1e-320]))


class TestSingleThreadedBlas:
    @pytest.fixture
    def controls(self):
        """The bundled OpenBLAS thread controls, all set to 2 for the test."""
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no bundled OpenBLAS found")
        saved = [get_threads() for get_threads, _ in controls]
        for _, set_threads in controls:
            set_threads(2)
        yield controls
        for (_, set_threads), n in zip(controls, saved):
            set_threads(n)

    @staticmethod
    def _counts(controls):
        return [get_threads() for get_threads, _ in controls]

    def test_pinned_inside_and_restored_after(self, controls):
        with single_threaded_blas():
            assert self._counts(controls) == [1] * len(controls)
        assert self._counts(controls) == [2] * len(controls)

    def test_restored_after_exception(self, controls):
        with pytest.raises(RuntimeError):
            with single_threaded_blas():
                assert self._counts(controls) == [1] * len(controls)
                raise RuntimeError("trial failed")
        assert self._counts(controls) == [2] * len(controls)

    def test_nested_exit_keeps_outer_pin(self, controls):
        with single_threaded_blas():
            with single_threaded_blas():
                pass
            assert self._counts(controls) == [1] * len(controls)
        assert self._counts(controls) == [2] * len(controls)

    def test_import_does_not_look_up_blas(self):
        src = str(Path(mimo_converge.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import mimo_converge; "
            "from mimo_converge.numerics import _openblas_thread_controls as c; "
            "assert c.cache_info().currsize == 0"
        )
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)
