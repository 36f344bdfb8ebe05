"""Dense complex linear-algebra kernels shared by the whole simulator.

All routines take and return plain numpy arrays (complex128 or float64).
Hermitian outputs are exactly Hermitian: entry (i, j) equals the conjugate
of entry (j, i) bit for bit, and the diagonal is real. A Gram gets there
from its lower triangle alone, whose conjugate is copied into its strict
upper triangle.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager

import numpy as np

# Relative eigenvalue threshold below which a matrix is treated as singular.
# Double precision leaves ample headroom: well-posed samples (M > K) sit many
# orders of magnitude above this.
SINGULAR_RTOL = 1e-12

# The thread count is process-wide native state, so overlapping pins from
# several threads share one saved state: the first entry saves and pins,
# the last exit restores.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: int | None = None

# zherk's real alpha and beta, by address: C = 1 * A A^H + 0 * C, so C is
# written, not read. Shared by every call and thread, as zherk only reads them.
_HERK_ALPHA = ctypes.byref(ctypes.c_double(1.0))
_HERK_BETA = ctypes.byref(ctypes.c_double(0.0))


class SingularMatrixError(np.linalg.LinAlgError):
    """Matrix is numerically singular (e.g. a degenerate channel sample)."""


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The 64-bit-integer OpenBLAS that numpy bundles, None where there is none.

    numpy's OpenBLAS is the only BLAS the simulator calls. It is looked up
    once per process on first use, in the ``numpy.libs`` directory that
    auditwheel places next to the package: the first loadable library there
    that exports scipy_openblas_get_num_threads64_.
    """
    libs_dir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):  # not loadable, or not numpy's OpenBLAS
            continue
        return lib
    return None


def _openblas_function(name: str, argtypes: list, restype=None) -> Callable[..., object] | None:
    """Function `name` of the bundled OpenBLAS, bound with argtypes and
    restype; None where there is no bundled OpenBLAS or it does not export
    `name`."""
    function = getattr(_openblas(), name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, restype
    return function


@functools.cache
def _thread_controls() -> tuple[Callable[[], int], Callable[[int], None], Callable[[], int] | None] | None:
    """(get, set, stop) of the bundled OpenBLAS, None where there is none.

    get and set read and write its thread count. stop is its
    blas_thread_shutdown_, None where it does not export it: it joins the
    worker threads, which otherwise busy-wait for about 2^28 cycles after
    each call before they sleep. OpenBLAS starts them again on its next
    multithreaded call or thread-count change.
    """
    if _openblas() is None:
        return None
    return (_openblas_function("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
            _openblas_function("scipy_openblas_set_num_threads64_", [ctypes.c_int]),
            _openblas_function("blas_thread_shutdown_", [], ctypes.c_int))


@functools.cache
def _ztrtri() -> Callable[..., None] | None:
    """LAPACK's complex triangular inverse ztrtri from the bundled OpenBLAS,
    None where it is not found.

    Fortran calling convention with 64-bit integers: (uplo, diag, n, a,
    lda, info), every argument by address. ctypes releases the GIL during
    the call.
    """
    argtypes = [ctypes.c_char_p, ctypes.c_char_p] + [ctypes.c_void_p] * 4
    return _openblas_function("scipy_ztrtri_64_", argtypes)


@functools.cache
def _zherk() -> Callable[..., None] | None:
    """BLAS's complex Hermitian rank-k update zherk from the bundled OpenBLAS,
    None where it is not found.

    Fortran calling convention with 64-bit integers: (uplo, trans, n, k,
    alpha, a, lda, beta, c, ldc), every argument by address, alpha and
    beta real. ctypes releases the GIL during the call.
    """
    int_p, real_p, array_p = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
    argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_p, int_p, real_p, array_p, int_p, real_p, array_p, int_p]
    return _openblas_function("scipy_zherk_64_", argtypes)


def _set_blas_threads(n: int) -> int | None:
    """Set the bundled OpenBLAS's thread count to n, stop the worker threads
    that leaves where it exports the stop, and return the count it had;
    without a bundled OpenBLAS do nothing and return None."""
    controls = _thread_controls()
    if controls is None:
        return None
    get_threads, set_threads, stop = controls
    previous = get_threads()
    set_threads(n)
    if stop is not None:
        stop()
    return previous


@contextmanager
def single_threaded_blas():
    """Pin the bundled OpenBLAS to one thread for the duration of the block,
    and stop its own worker threads while it is pinned.

    Each small factorisation or product then runs in the calling thread, so
    the worker count is the only parallelism and results do not depend on
    the host's BLAS thread count; OpenBLAS's idle threads no longer spin on
    the CPUs the workers use. The previous count is restored on exit, also
    after an exception, and the threads that restoring starts are stopped
    again: a later multithreaded call starts them anew. Without a bundled
    OpenBLAS this does nothing.

    No other thread may be inside a multithreaded OpenBLAS call when the
    outermost pin enters or exits, as OpenBLAS's own set_num_threads and
    fork handler assume too.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = _set_blas_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_saved is not None:
                _set_blas_threads(_pin_saved)


@functools.cache
def strict_upper(K: int) -> np.ndarray:
    """Mask of the strict upper triangle of a K x K matrix. Assignment
    through it writes the entries row by row, in the order of
    np.triu_indices(K, 1)."""
    mask = np.triu(np.ones((K, K), dtype=bool), 1)
    mask.flags.writeable = False  # shared by every call with this K
    return mask


def gram_normalized(A: np.ndarray) -> np.ndarray:
    """Gram matrix conj(A).T @ A, normalized to an exactly Hermitian form.

    One Gram per matrix of A, a complex M x K matrix or a stack of shape
    (..., M, K). The result is exactly Hermitian PSD with a real
    nonnegative diagonal; its dimension is the column count of A. Dividing
    it by a positive real, such as the antenna count M, keeps it exactly
    Hermitian. A lone complex M x K matrix gets its lower triangle from
    BLAS's zherk, half the multiply-adds of a full product. A stack gets
    its Grams from one batched matmul, which gives each matrix the bits
    matmul gives it alone; so does any matrix where no bundled zherk is
    found. The two products may differ in the last bit of an entry.
    Either fills the lower triangle, and its conjugate is copied into the
    strict upper triangle: the bits of low + conj(low).T + diag(B.real),
    with low = tril(B, -1) and no negative zero left.
    """
    herk = _zherk() if A.ndim == 2 and A.dtype == np.complex128 else None
    if herk is None:
        B = np.matmul(A.conj().swapaxes(-1, -2), A)
    else:
        B = _herk_lower(herk, np.ascontiguousarray(A))
    K = B.shape[-1]
    np.copyto(B, B.conj().swapaxes(-1, -2), where=strict_upper(K))
    B.reshape(*B.shape[:-2], K * K).imag[..., :: K + 1] = 0.0
    B += 0.0  # a negative zero turns positive, as in that sum
    return B


def _herk_lower(herk: Callable[..., None], A: np.ndarray) -> np.ndarray:
    """K x K array whose lower triangle and diagonal hold those of conj(A).T @ A,
    for a C-ordered complex128 M x K matrix A; its strict upper triangle is
    left unwritten.

    zherk reads A's buffer column-major, as the K x M matrix A.T, and forms
    the upper triangle of A.T @ conj(A), the conjugate of the Gram, which is
    the Gram's lower triangle in C order. Its diagonal imaginary parts are
    exact zeros.
    """
    M, K = A.shape
    B = np.empty((K, K), dtype=np.complex128)
    n, k = ctypes.byref(ctypes.c_int64(K)), ctypes.byref(ctypes.c_int64(M))
    herk(b"U", b"N", n, k, _HERK_ALPHA, A.ctypes.data, n, _HERK_BETA, B.ctypes.data, n)
    return B


def _triangular_inverse(T: np.ndarray, upper: bool = False) -> np.ndarray:
    """Inverse of each triangle of T, a C-ordered complex128 (..., K, K)
    stack of lower triangles, or of upper ones if upper is set, whose other
    strict triangle is zero.

    LAPACK's ztrtri (Du Croz and Higham, IMA J. Numer. Anal. 12, 1992)
    inverts a triangle in K^3/3 multiply-adds, against about K^3 for a
    general inverse. It runs once per matrix, in place on T: LAPACK reads
    that buffer column-major, as the transposed triangle, so it is told
    the other triangle. Without a bundled ztrtri, numpy's general inverse
    of the triangle runs instead. An exact zero on a diagonal raises
    SingularMatrixError.
    """
    trtri = _ztrtri()
    if trtri is None:
        try:
            return np.linalg.inv(T)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"triangular factor is singular: {exc}") from exc
    K = T.shape[-1]
    count, stride = T.size // (K * K), 16 * K * K
    ints = np.zeros(count + 1, dtype=np.int64)  # n, then one info per matrix
    ints[0] = K
    n, base = ints.ctypes.data, T.ctypes.data
    uplo = b"L" if upper else b"U"
    matrices = range(base, base + count * stride, stride)
    for a, info in zip(matrices, range(n + 8, n + 8 * (count + 1), 8)):
        trtri(uplo, b"N", n, a, n, info)
    if ints[1:].any():  # info > 0: that diagonal entry is exactly zero
        raise SingularMatrixError("triangular factor has a zero on its diagonal")
    return T


def inverse_trace(W: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """Trace of the inverse of a Hermitian positive definite matrix.

    One trace per matrix of W, a matrix or a stack of shape (..., K, K).
    For W = U^H U with U triangular, tr(W^{-1}) equals the squared
    Frobenius norm of U^{-1}. A caller that holds such a factor passes it
    as factor: a C-ordered complex128 stack like W of upper triangles,
    zero below, and no Cholesky runs; the factor is inverted in place
    where ztrtri runs, and may be left unchanged on the fallback. Without
    it U^H is W's Cholesky factor. The triangle is inverted with LAPACK's
    triangular inverse from the OpenBLAS that numpy bundles, or with
    numpy's general inverse where none is found. Numerically singular
    input is rejected through the bound ||W||_1 tr(W^{-1}), which lies
    within a factor of the dimension of the 1-norm condition number and
    costs nothing extra; an infinite or NaN bound counts as singular too,
    and one such matrix rejects a stack.
    """
    if factor is None:
        try:
            L = np.ascontiguousarray(np.linalg.cholesky(W), dtype=np.complex128)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
        inverse = _triangular_inverse(L)
    else:
        inverse = _triangular_inverse(np.ascontiguousarray(factor, dtype=np.complex128), upper=True)
    with np.errstate(over="ignore"):
        trace = np.sum(np.abs(inverse) ** 2, axis=(-2, -1))
        cond = np.linalg.norm(W, 1, axis=(-2, -1)) * trace
    if not np.all(cond * SINGULAR_RTOL <= 1.0):
        raise SingularMatrixError(
            f"matrix is numerically singular (condition bound {np.max(cond):.3e})"
        )
    return trace
