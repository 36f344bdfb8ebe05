"""Linear-algebra kernel tests.

Ground truth: hand-derived closed forms for small matrices, and the
eigenvalue decomposition as an independent oracle for traces.
"""

import csv
import ctypes
import glob
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_converge
import mimo_converge.montecarlo as montecarlo
import mimo_converge.numerics as numerics
from mimo_converge.channel import RngStream, sample_gram_factor
from mimo_converge.cli import EXIT_OK, main
from mimo_converge.metrics import lambda_ratio
from mimo_converge.numerics import (
    SingularMatrixError,
    gram_normalized,
    inverse_trace,
    single_threaded_blas,
)
from mimo_converge.power import PowerProfile, link_gains
from mimo_converge.precoding import zf_snr_from_gram


def _random_complex(m, k, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)


class TestGramNormalized:
    def test_scalar(self):
        np.testing.assert_allclose(gram_normalized(np.array([[2.0 + 0j]])), [[4.0]])

    def test_identity_scaled(self):
        np.testing.assert_allclose(gram_normalized(np.eye(2, dtype=complex)) / 2.0, np.eye(2) / 2)

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
    def test_bits_of_the_reference_rebuild(self, m, k, monkeypatch):
        # the reference: the Gram of conj(A).T @ A rebuilt from its lower
        # triangle as low + low.conj().T + diag, also for zero imaginary
        # parts and for negative zeros; on matmul, as the reference is,
        # since zherk may differ from it in the last bit
        monkeypatch.setattr(numerics, "_zherk", lambda: None)

        def reference(A):
            B = A.conj().T @ A
            low = np.tril(B, -1)
            return low + low.conj().T + np.diag(B.diagonal().real)

        A = _random_complex(m, k, seed=m + k)
        imag_zero = A.real - 0j
        for X in (A, imag_zero, -0.0 * A):
            assert gram_normalized(X).tobytes() == reference(X).tobytes()
        stack = np.stack([A, imag_zero, -0.0 * A])
        assert [W.tobytes() for W in gram_normalized(stack)] == [reference(X).tobytes() for X in stack]

    @pytest.mark.parametrize("m, k", [(1, 1), (5, 3), (10, 10), (100, 10), (300, 256)])
    def test_stack_gets_the_bits_of_each_matrix(self, m, k, monkeypatch):
        # one call over a stack forms the Gram each matrix gets alone from
        # matmul, negative zeros too
        A = _random_complex(m, k, seed=m * k)
        stack = np.stack([A, A.real - 0j, -0.0 * A, 2 * A])
        grams = [W.tobytes() for W in gram_normalized(stack)]
        monkeypatch.setattr(numerics, "_zherk", lambda: None)  # a lone matrix on matmul too
        assert grams == [gram_normalized(X).tobytes() for X in stack]

    @given(st.integers(2, 12), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_psd_up_to_slack(self, m, k, seed):
        W = gram_normalized(_random_complex(m, k, seed)) / float(m)
        lam = np.linalg.eigvalsh(W)
        assert lam[0] >= -1e-12 * max(1.0, lam[-1])


def _bundles_scipy_openblas():
    libs_dir = os.path.dirname(np.__file__) + ".libs"
    return bool(glob.glob(os.path.join(libs_dir, "*scipy_openblas64_*")))


def _openblas_core() -> str | None:
    """Name of the kernel the bundled OpenBLAS runs on this CPU, None
    without one."""
    corename = numerics._openblas_function("scipy_openblas_get_corename64_", [], ctypes.c_char_p)
    return None if corename is None else corename().decode()


class TestGramKernel:
    """A lone complex M x K matrix gets its Gram from BLAS's zherk, with
    matmul as the fallback and the reference; a stack gets its Grams from
    one batched matmul."""

    # fig6/fig7's M x K draws at alpha = 10, fig1's tallest, and shapes
    # whose M is neither at most 128 nor 0 or 7 mod 8
    SHAPES = [(50, 5), (100, 10), (200, 20), (500, 50), (1000, 100), (16384, 10), (16384, 50), (131, 5)]

    # the lone Grams of M K^2 below 1e5 that the presets and golden
    # scenarios form: fig6 and fig7's, then the correlated golden scenarios'
    SMALL_SHAPES = [(50, 5), (100, 10), (200, 20), (16, 8), (64, 8), (256, 8), (8, 2), (24, 6)]

    @pytest.mark.parametrize("m, k", SHAPES)
    def test_zherk_matches_matmul(self, m, k, monkeypatch):
        A = _random_complex(m, k, seed=m + 3 * k)
        W = gram_normalized(A)
        assert np.array_equal(W, W.conj().T) and W.diagonal().imag.max() == 0.0
        monkeypatch.setattr(numerics, "_zherk", lambda: None)
        reference = gram_normalized(A)
        assert np.abs(W - reference).max() <= 4e-16 * np.abs(reference).max()

    @pytest.mark.parametrize("m, k", SMALL_SHAPES)
    def test_small_shapes_keep_the_bits_of_matmul(self, m, k, monkeypatch):
        # every such M is at most 128 or 0 mod 8, where zherk and matmul
        # agree bit for bit on the SkylakeX kernel the golden hashes were
        # frozen on; another kernel may move an entry by 1 ulp of the largest
        if numerics._zherk() is None:
            pytest.skip("no bundled OpenBLAS exports zherk")
        core = _openblas_core()
        rng = np.random.default_rng(m * k)
        for _ in range(50):
            A = _random_complex(m, k, seed=int(rng.integers(1 << 32))) * rng.uniform(0.1, 3.0, (m, 1))
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_zherk", lambda: None)
                reference = gram_normalized(A)
            W = gram_normalized(A)
            if core == "SkylakeX":
                assert W.tobytes() == reference.tobytes()
            else:
                parts, reference_parts = W.view(np.float64), reference.view(np.float64)
                assert np.abs(parts - reference_parts).max() <= np.spacing(np.abs(reference_parts).max())

    @pytest.mark.parametrize("m, k", [(1, 1), (5, 3), (131, 5), (500, 50), (300, 256)])
    def test_fallback_has_the_bits_of_matmul(self, m, k, monkeypatch):
        monkeypatch.setattr(numerics, "_zherk", lambda: None)  # as where no bundled OpenBLAS exports it
        A = _random_complex(m, k, seed=m * k + 1)
        B = A.conj().T @ A
        low = np.tril(B, -1)
        assert gram_normalized(A).tobytes() == (low + low.conj().T + np.diag(B.diagonal().real)).tobytes()

    @pytest.mark.parametrize(
        "shape, herk",
        [
            ((1, 1), True), ((8, 2), True), ((50, 5), True), ((200, 20), True), ((2000, 7), True),
            ((1000, 10), True), ((500, 50), True),
            # stacks, fig4/fig5's Bartlett factors of K = 50 and 100 among them
            ((6, 40, 40), False), ((3, 50, 50), False), ((2, 1, 100, 100), False), ((5, 1000, 10), False),
        ],
    )
    def test_zherk_for_a_lone_matrix_matmul_for_a_stack(self, shape, herk, monkeypatch):
        # a lone matrix takes zherk at every size; a stack keeps its one
        # batched matmul, which gives each matrix the bits it gets alone
        if herk and numerics._zherk() is None:
            pytest.skip("no bundled OpenBLAS exports zherk")
        calls = []
        herk_lower = numerics._herk_lower
        monkeypatch.setattr(numerics, "_herk_lower", lambda *args: calls.append(args) or herk_lower(*args))
        k = shape[-1]
        gram_normalized(_random_complex(int(np.prod(shape[:-1])), k, seed=k).reshape(shape))
        assert len(calls) == int(herk)

    @pytest.mark.parametrize("m, k", [(2, 2), (5, 3), (50, 5), (300, 256)])
    def test_unwritten_upper_triangle_is_never_read(self, m, k, monkeypatch):
        # whatever zherk leaves above the diagonal, even a quiet or a
        # signalling NaN, the Gram is built from its lower triangle alone;
        # warnings are errors, so an invalid operation on those values fails
        if numerics._zherk() is None:
            pytest.skip("no bundled OpenBLAS exports zherk")
        A = _random_complex(m, k, seed=m + k)
        clean = gram_normalized(A)
        herk_lower = numerics._herk_lower
        for bits in (np.float64(np.nan).view(np.uint64), np.uint64(0x7FF0000000000001)):

            def poisoned(*args, bits=bits):
                B = herk_lower(*args)
                B.view(np.uint64).reshape(k, k, 2)[numerics.strict_upper(k)] = bits
                return B

            monkeypatch.setattr(numerics, "_herk_lower", poisoned)
            W = gram_normalized(A)
            assert np.isfinite(W).all() and np.array_equal(W, W.conj().T)
            assert W.tobytes() == clean.tobytes()

    def test_reads_a_matrix_of_any_layout(self):
        A = _random_complex(40, 6, seed=8)
        strided = np.empty((80, 6), dtype=np.complex128)
        strided[::2] = A
        for X in (np.asfortranarray(A), strided[::2]):
            assert gram_normalized(X).tobytes() == gram_normalized(A).tobytes()

    @pytest.mark.parametrize("herk", [True, False])
    @pytest.mark.parametrize("shape", [(4, 2), (50, 5), (3, 20, 4)])
    def test_real_matrix_gets_the_gram_of_its_complex_cast(self, shape, herk, monkeypatch):
        if not herk:
            monkeypatch.setattr(numerics, "_zherk", lambda: None)
        A = np.ones(shape) if shape == (4, 2) else np.random.default_rng(3).standard_normal(shape)
        W = gram_normalized(A)
        assert W.dtype == np.complex128 and np.array_equal(W, W.conj().swapaxes(-1, -2))
        assert W.tobytes() == gram_normalized(A.astype(np.complex128)).tobytes()

    def test_bundled_openblas_provides_zherk(self):
        # guards the fast path: a numpy whose OpenBLAS stops exporting the
        # symbol would otherwise put the Gram back on matmul unnoticed
        if not _bundles_scipy_openblas():
            pytest.skip("numpy bundles no scipy_openblas64_ library")
        assert numerics._zherk() is not None


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


# (M, K) and the stack size that the harness gives each shape
_STACK_SHAPES = [(50, 5, 30), (200, 20, 30), (500, 50, 6), (1000, 100, 1)]


def _gram_stack(M, K, count, seed):
    """Bartlett factors scaled by gains 0.1..1, as a Bartlett ZF point draws
    them, and their Grams."""
    sqrt_beta = np.sqrt(link_gains(K, PowerProfile(0.1, 1.0)))
    G = np.stack([sample_gram_factor(M, K, RngStream(seed, t)) * sqrt_beta for t in range(count)])
    return G, np.stack([gram_normalized(g) for g in G])


class TestTriangularInverseTrace:
    @pytest.mark.parametrize("M, K, count", _STACK_SHAPES)
    def test_lapack_matches_general_inverse(self, M, K, count, monkeypatch):
        _, W = _gram_stack(M, K, count, seed=K)
        lapack = inverse_trace(W)
        monkeypatch.setattr(numerics, "_ztrtri", lambda: None)  # as where no bundled OpenBLAS exports it
        np.testing.assert_allclose(lapack, inverse_trace(W), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("M, K, count", _STACK_SHAPES)
    def test_zf_matches_cholesky_and_lu(self, M, K, count):
        # the oracle is the general LU inverse of the Cholesky factor
        _, W = _gram_stack(M, K, count, seed=K + 1)
        L_inv = np.linalg.inv(np.linalg.cholesky(W))
        oracle = 2.0 / np.sum(np.abs(L_inv) ** 2, axis=(-2, -1))
        np.testing.assert_allclose(zf_snr_from_gram(W, 2.0), oracle, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("path", ["lapack", "general"])
    def test_single_user(self, path, monkeypatch):
        if path == "general":
            monkeypatch.setattr(numerics, "_ztrtri", lambda: None)
        W = np.array([[[4.0 + 0j]], [[0.25 + 0j]]])
        assert inverse_trace(W).tolist() == [0.25, 4.0]

    @pytest.mark.parametrize("path", ["lapack", "general"])
    @pytest.mark.parametrize("diagonal", [0.0, np.nan, np.inf])
    def test_bad_diagonal_raises(self, diagonal, path, monkeypatch):
        if path == "general":
            monkeypatch.setattr(numerics, "_ztrtri", lambda: None)
        G, _ = _gram_stack(20, 4, 3, seed=9)
        G[1, 2, 2] = diagonal  # one matrix rejects its stack
        W = np.einsum("...ji,...jk->...ik", G.conj(), G)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Gram of an inf entry holds inf - inf
            with pytest.raises(SingularMatrixError):
                inverse_trace(W)

    @pytest.mark.parametrize("path", ["lapack", "general"])
    def test_zero_on_triangle_diagonal_raises(self, path, monkeypatch):
        # a Cholesky factor has none; LAPACK reports it through info > 0
        if path == "general":
            monkeypatch.setattr(numerics, "_ztrtri", lambda: None)
        L = np.tril(np.ones((3, 4, 4), dtype=np.complex128))
        L[2, 1, 1] = 0.0
        with pytest.raises(SingularMatrixError):
            numerics._triangular_inverse(L)

    @pytest.mark.parametrize("M, K, count", _STACK_SHAPES[:3])
    def test_stack_slice_bitwise_equals_single_matrix(self, M, K, count):
        _, W = _gram_stack(M, K, count, seed=K + 2)
        stacked = inverse_trace(W)
        for i in range(count):
            assert stacked[i].tobytes() == inverse_trace(W[i]).tobytes()

    def test_gram_is_left_as_it_is(self):
        # the triangle is inverted in place, in the Cholesky factor's buffer
        _, W = _gram_stack(50, 5, 3, seed=4)
        before = W.tobytes()
        inverse_trace(W)
        assert W.tobytes() == before

    def test_bundled_openblas_provides_ztrtri(self):
        # guards the fast path: a numpy whose OpenBLAS stops exporting the
        # symbol would otherwise put ZF back on the general inverse unnoticed
        if not _bundles_scipy_openblas():
            pytest.skip("numpy bundles no scipy_openblas64_ library")
        assert numerics._ztrtri() is not None


class TestFactorInverseTrace:
    """ZF's trace from an upper-triangular factor U of W = U^H U, as a
    gain-scaled Bartlett factor is, inverted with no Cholesky."""

    @pytest.fixture(params=["lapack", "general"])
    def path(self, request, monkeypatch):
        if request.param == "general":
            monkeypatch.setattr(numerics, "_ztrtri", lambda: None)  # as where no bundled OpenBLAS exports it
        elif numerics._ztrtri() is None:
            pytest.skip("no bundled OpenBLAS exports ztrtri")
        return request.param

    @pytest.mark.parametrize("M, K, count", [(50, 5, 30), (500, 50, 6), (1000, 100, 2)])
    def test_matches_the_cholesky_path(self, M, K, count, path, monkeypatch):
        G, W = _gram_stack(M, K, count, seed=K + 3)
        cholesky = inverse_trace(W)

        def no_cholesky(*args, **kwargs):
            raise AssertionError("the factor path ran a Cholesky")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        np.testing.assert_allclose(inverse_trace(W, G), cholesky, rtol=1e-13, atol=0)

    def test_inverts_the_factor_in_place(self):
        # ztrtri inverts in place; the general inverse of the fallback does not
        if numerics._ztrtri() is None:
            pytest.skip("no bundled OpenBLAS exports ztrtri")
        G, W = _gram_stack(200, 20, 3, seed=5)
        U = G.copy()
        assert inverse_trace(W, G).shape == (3,)
        np.testing.assert_allclose(G @ U, np.broadcast_to(np.eye(20), U.shape), atol=1e-12)
        assert not np.tril(G, -1).any()

    def test_extreme_gain_ratio_raises_through_the_bound(self, path):
        # gains 1e-300..1e-3 at K = 2, M = 3: U^-1 is finite, but
        # ||W||_1 tr(W^-1) is about 1e297
        sqrt_beta = np.sqrt(link_gains(2, PowerProfile(1e-300, 1e-3)))
        G = sample_gram_factor(3, 2, RngStream(42, 0)) * sqrt_beta
        with pytest.raises(SingularMatrixError, match="condition bound"):
            inverse_trace(gram_normalized(G), G)

    def test_zero_on_the_diagonal_raises(self, path):
        # W itself is well conditioned: only the factor's triangular inverse
        # sees the zero, through info > 0 or the general inverse's LinAlgError
        G, W = _gram_stack(20, 4, 3, seed=9)
        G[1, 2, 2] = 0.0  # one matrix rejects its stack
        with pytest.raises(SingularMatrixError, match="zero on its diagonal" if path == "lapack" else "singular"):
            inverse_trace(W, G)


def _os_threads():
    return len(os.listdir("/proc/self/task"))


@pytest.fixture
def controls():
    """The bundled OpenBLAS's (get, set, stop), its thread count set to 2
    for the test.

    Restoring the saved count starts a fresh OpenBLAS pool, which would
    spin beside the later tests: the teardown stops it again."""
    controls = numerics._thread_controls()
    if controls is None:
        pytest.skip("no bundled OpenBLAS found")
    get_threads, set_threads, stop = controls
    saved = get_threads()
    set_threads(2)
    yield controls
    set_threads(saved)
    if stop is not None:
        stop()


class TestSingleThreadedBlas:
    def test_pinned_inside_and_restored_after(self, controls):
        get_threads = controls[0]
        with single_threaded_blas():
            assert get_threads() == 1
        assert get_threads() == 2

    def test_restored_after_exception(self, controls):
        get_threads = controls[0]
        with pytest.raises(RuntimeError):
            with single_threaded_blas():
                assert get_threads() == 1
                raise RuntimeError("trial failed")
        assert get_threads() == 2

    def test_nested_exit_keeps_outer_pin(self, controls):
        get_threads = controls[0]
        with single_threaded_blas():
            with single_threaded_blas():
                pass
            assert get_threads() == 1
        assert get_threads() == 2

    def test_bundled_openblas_provides_blas_thread_shutdown(self):
        # guards the pool stop: a numpy whose OpenBLAS stops exporting the
        # symbol would otherwise leave its idle threads spinning beside the
        # workers unnoticed
        if not _bundles_scipy_openblas():
            pytest.skip("numpy bundles no scipy_openblas64_ library")
        assert numerics._thread_controls()[2] is not None

    def test_numpy_bundles_at_most_one_openblas(self):
        # the pin binds the first such library only: a second would run unpinned
        libs_dir = os.path.dirname(np.__file__) + ".libs"
        if not os.path.isdir(libs_dir):
            pytest.skip("numpy bundles no libraries")
        found = []
        for path in sorted(glob.glob(os.path.join(libs_dir, "*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # not a loadable library
                continue
            if hasattr(lib, "scipy_openblas_get_num_threads64_"):
                found.append(os.path.basename(path))
        assert len(found) <= 1, found

    def test_pins_and_restores_without_blas_thread_shutdown(self, controls, monkeypatch):
        get_threads, set_threads, _ = controls
        monkeypatch.setattr(numerics, "_thread_controls", lambda: (get_threads, set_threads, None))
        with single_threaded_blas():
            assert get_threads() == 1
        assert get_threads() == 2

    def test_openblas_threads_stopped_inside_and_after(self, controls):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count the threads in")
        if controls[2] is None:
            pytest.skip("no bundled OpenBLAS exports blas_thread_shutdown_")
        a = _random_complex(400, 400, 3).real
        expected = np.dot(a, a)  # on OpenBLAS's own threads, which stay up after it
        before = _os_threads()
        with single_threaded_blas():
            inside = _os_threads()
        assert inside < before
        assert controls[0]() == 2
        assert _os_threads() <= before
        # the next multithreaded call starts the threads again
        np.testing.assert_allclose(a @ a, expected, rtol=1e-13)

    def test_overlapping_pins_stop_the_threads_once_per_transition(self, controls, monkeypatch):
        get_threads, set_threads, stop = controls
        if stop is None:
            pytest.skip("no bundled OpenBLAS exports blas_thread_shutdown_")
        calls = []

        def counted():
            calls.append(threading.current_thread().name)
            return stop()

        monkeypatch.setattr(numerics, "_thread_controls", lambda: (get_threads, set_threads, counted))
        entered, release = threading.Event(), threading.Event()

        def hold_pin():
            with single_threaded_blas():
                entered.set()
                assert release.wait(timeout=30)

        holder = threading.Thread(target=hold_pin, name="holder")
        holder.start()
        assert entered.wait(timeout=30)
        assert calls == ["holder"]
        with single_threaded_blas():
            release.set()
            holder.join(timeout=30)
            assert not holder.is_alive()
            assert calls == ["holder"]  # neither transition was outermost
            assert get_threads() == 1
        assert calls == ["holder", threading.current_thread().name]
        assert get_threads() == 2

    def test_no_spinning_threads_after_a_run(self):
        if not _bundles_scipy_openblas():
            pytest.skip("numpy bundles no scipy_openblas64_ library")
        src = str(Path(mimo_converge.__file__).resolve().parents[1])
        # an idle OpenBLAS thread spins for about 2^28 cycles, some 0.1 s of CPU
        probe = (
            f"import sys, resource, time; sys.path.insert(0, {src!r}); "
            "from mimo_converge.montecarlo import FIXED_ALPHA, Scenario, run_scenarios; "
            "from mimo_converge.numerics import _thread_controls; "
            "get = _thread_controls()[0]; saved = get(); "
            "run_scenarios([Scenario(mode=FIXED_ALPHA, alpha=10.0, sweep=(5, 32), trials=20)], workers=2); "
            "assert get() == saved; "
            "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2]); "
            "start = cpu(); time.sleep(0.3); print(cpu() - start)"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        out = subprocess.run([sys.executable, "-c", probe], check=True, timeout=60, env=env,
                             capture_output=True, text=True).stdout
        assert float(out) < 0.01

    def test_import_does_not_look_up_blas(self):
        src = str(Path(mimo_converge.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import mimo_converge; "
            "from mimo_converge.numerics import _openblas, _thread_controls, _zherk, _ztrtri; "
            "assert _openblas.cache_info().currsize == 0; "
            "assert _thread_controls.cache_info().currsize == 0; "
            "assert _zherk.cache_info().currsize == 0; "
            "assert _ztrtri.cache_info().currsize == 0"
        )
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)


    def test_import_loads_no_executor_or_logging(self):
        # the worker threads are plain threads; concurrent.futures would
        # bring logging, traceback, string and queue with it
        src = str(Path(mimo_converge.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import mimo_converge.cli; "
            "loaded = {'concurrent.futures', 'logging'} & set(sys.modules); "
            "assert not loaded, loaded"
        )
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)

@pytest.fixture
def no_bundled_openblas(monkeypatch):
    """The simulator as on a numpy with no bundled OpenBLAS (conda's,
    macOS's): every binding finds none, so the pin does nothing and numpy's
    own matmul and general inverse run."""
    caches = (numerics._thread_controls, numerics._zherk, numerics._ztrtri)
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    for cache in caches:
        cache.cache_clear()
    yield
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestWithoutBundledOpenBlas:
    # a correlated fixed-K sweep under unequal gains, which forms lone M x K
    # Grams and their Cholesky factors, on the worker pool at M = 1024, and a
    # Bartlett sweep with every statistic on, which inverts the scaled factor
    ARGS = {
        "fixedK-corr-unequal": ["--mode", "fixed-K", "--K", "8", "--M", "16,64,256,1024", "--corr-rho", "0.7",
                                "--beta-min", "0.1", "--beta-max", "1"],
        "bartlett-all": ["--mode", "fixed-alpha", "--alpha", "4", "--K", "2,6,20",
                         "--beta-min", "0.2", "--beta-max", "0.8"],
    }
    RTOL = 1e-10  # the cells' tolerance across OpenBLAS kernels

    @pytest.mark.parametrize("name", sorted(ARGS))
    def test_runs_end_to_end_with_the_bundled_cells(self, name, controls, tmp_path, request):
        args = [*self.ARGS[name], "--trials", "20", "--seed", "7", "--workers", "2"]
        assert main([*args, "--output", str(tmp_path / "bundled.csv")]) == EXIT_OK
        get_threads = controls[0]
        request.getfixturevalue("no_bundled_openblas")
        assert numerics._thread_controls() is None and numerics._zherk() is None and numerics._ztrtri() is None
        threads = []
        gram = montecarlo.gram_normalized

        def counted_gram(A):
            threads.append(get_threads())
            return gram(A)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "gram_normalized", counted_gram)
            assert main([*args, "--output", str(tmp_path / "none.csv")]) == EXIT_OK
        assert set(threads) == {2} and get_threads() == 2  # never pinned
        bundled, none = _read_csv(tmp_path / "bundled.csv"), _read_csv(tmp_path / "none.csv")
        assert len(bundled) == len(none) and bundled[0] == none[0]
        for a_row, b_row in zip(bundled[1:], none[1:]):
            assert len(a_row) == len(b_row)
            for a, b in zip(a_row, b_row):  # a text cell that differs raises in float()
                assert a == b or math.isclose(float(a), float(b), rel_tol=self.RTOL, abs_tol=0.0), (a, b)
