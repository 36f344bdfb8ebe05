"""Dense complex linear-algebra kernels shared by the whole simulator.

All routines take and return plain numpy arrays (complex128 or float64).
Hermitian outputs are exactly Hermitian: entry (i, j) equals the conjugate
of entry (j, i) bit for bit, and the diagonal is real.
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
_pin_saved: list[int] = []


class SingularMatrixError(np.linalg.LinAlgError):
    """Matrix is numerically singular (e.g. a degenerate channel sample)."""


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of the OpenBLAS that numpy bundles.

    numpy's 64-bit-integer OpenBLAS is the only BLAS the simulator calls.
    It is looked up once per process on first use, in the ``numpy.libs``
    directory that auditwheel places next to the package.
    """
    controls = []
    libs_dir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or not numpy's OpenBLAS
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        controls.append((get_threads, set_threads))
    return tuple(controls)


@contextmanager
def single_threaded_blas():
    """Pin every bundled OpenBLAS to one thread for the duration of the block.

    Each small factorisation or product then runs in the calling thread, so
    the worker count is the only parallelism and results do not depend on
    the host's BLAS thread count. The previous counts are restored on exit,
    also after an exception. Without a bundled OpenBLAS this does nothing.
    """
    global _pin_depth
    with _pin_lock:
        if _pin_depth == 0:
            controls = _openblas_thread_controls()
            _pin_saved[:] = [get_threads() for get_threads, _ in controls]
            for _, set_threads in controls:
                set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, set_threads), n in zip(_openblas_thread_controls(), _pin_saved):
                    set_threads(n)


def gram_normalized(A: np.ndarray) -> np.ndarray:
    """Gram matrix conj(A).T @ A, normalized to an exactly Hermitian form.

    The result is exactly Hermitian PSD with a real nonnegative diagonal;
    its dimension is the column count of A. Dividing it by a positive real,
    such as the antenna count M, keeps it exactly Hermitian.
    """
    B = A.conj().T @ A
    # Rebuild B from its lower triangle so Hermitian symmetry is exact.
    low = np.tril(B, -1)
    return low + low.conj().T + np.diag(B.diagonal().real)


def inverse_trace(W: np.ndarray) -> np.ndarray:
    """Trace of the inverse of a Hermitian positive definite matrix.

    One trace per matrix of W, a matrix or a stack of shape (..., K, K).
    Cholesky based: for W = L L^H, tr(W^{-1}) equals the squared Frobenius
    norm of L^{-1}. Numerically singular input is rejected through the
    bound ||W||_1 tr(W^{-1}), which lies within a factor of the dimension
    of the 1-norm condition number and costs nothing extra; an infinite or
    NaN bound counts as singular too, and one such matrix rejects a stack.
    """
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(W))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    with np.errstate(over="ignore"):
        trace = np.sum(np.abs(L_inv) ** 2, axis=(-2, -1))
        cond = np.linalg.norm(W, 1, axis=(-2, -1)) * trace
    if not np.all(cond * SINGULAR_RTOL <= 1.0):
        raise SingularMatrixError(
            f"matrix is numerically singular (condition bound {np.max(cond):.3e})"
        )
    return trace
