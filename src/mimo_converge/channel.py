"""Correlated Rayleigh channel generation.

The small-scale downlink channel is an M x K complex matrix: an iid
CN(0, 1) draw, colored along its rows when the uniform linear array is
correlated. The sweep harness scales its columns by the square roots of
the link gains. Without correlation every statistic depends on the draw
only through its Gram, so the harness can draw the K x K Bartlett factor
in its place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Rows per block of the correlation coloring. The block-local recursion is a
# small matrix product, so BLAS does most of the work; 16 to 32 rows measured
# fastest from 50 x 5 to 16384 x 50 (one thread, 2-CPU x86-64 VM).
_COLOR_BLOCK_ROWS = 32
# Byte cap of the slice of blocks multiplied at a time. The products are
# written back in place, so the coloring holds one draw besides its input.
_COLOR_SLICE_BYTES = 2**18


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream, fully determined by (seed, stream).

    Each pair keys an independent 128-bit Philox generator, so trials can be
    assigned stream = trial index and distributed over any number of workers
    without coordination or loss of reproducibility. seed and stream each
    fill 64 bits of the key, so both must lie in [0, 2**64).
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream < 2**64):
            raise ValueError(f"seed and stream must be in [0, 2**64), got {self.seed}, {self.stream}")

    def generator(self) -> np.random.Generator:
        key = int(self.seed) | (int(self.stream) << 64)  # numpy integers would overflow
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CorrelationSpec:
    """Exponential correlation profile of a uniform linear array.

    Antennas i and j at distance spacing*|i - j| have correlation
    rho ** (spacing*|i - j|); with the default spacing of 1.0, rho is the
    correlation between adjacent elements.
    """

    rho: float
    spacing: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be finite and positive, got {self.spacing}")


def sample_iid(M: int, K: int, rng: RngStream) -> np.ndarray:
    """M x K matrix of iid circularly-symmetric CN(0, 1) entries.

    Real and imaginary parts are each N(0, 1/2), so every entry has unit
    average power. Bit-identical for identical (seed, stream).
    """
    if M < 1 or K < 1:
        raise ValueError(f"M and K must be positive, got M={M}, K={K}")
    parts = rng.generator().standard_normal((2, M, K))
    # Multiplying by the reciprocal gives the same bits as dividing the
    # complex matrix by sqrt(2); dividing the parts in place would not.
    parts *= 1.0 / np.sqrt(2.0)
    H = np.empty((M, K), dtype=np.complex128)
    H.real = parts[0]
    H.imag = parts[1]
    return H


@functools.cache
def _upper_flat_indices(K: int) -> np.ndarray:
    """Flat indices of the strictly upper triangle of a K x K matrix."""
    rows, cols = np.triu_indices(K, 1)
    flat = rows * K + cols
    flat.flags.writeable = False  # shared by every call with this K
    return flat


def sample_gram_factor(M: int, K: int, rng: RngStream) -> np.ndarray:
    """K x K upper-triangular Bartlett factor R of an M x K iid CN(0, 1) draw.

    For M >= K the entries are independent: |R_ii|^2 ~ Gamma(M - i, 1) for
    i = 0..K-1, on a real positive diagonal, and every entry above it is
    CN(0, 1). R^H R then has the law of H^H H for H = sample_iid(M, K, .),
    the complex Wishart CW_K(M, I), and so has (R D)^H (R D) that of
    (H D)^H (H D) for any diagonal D. The gammas are drawn before the
    normals. Bit-identical for identical (seed, stream).
    """
    if not 1 <= K <= M:
        raise ValueError(f"the Bartlett factor needs 1 <= K <= M, got M={M}, K={K}")
    g = rng.generator()
    R = np.zeros((K, K), dtype=np.complex128)
    flat = R.reshape(-1)
    flat.real[:: K + 1] = np.sqrt(g.standard_gamma(np.arange(M, M - K, -1)))
    upper = _upper_flat_indices(K)
    parts = g.standard_normal((2, upper.size))
    parts *= 1.0 / np.sqrt(2.0)
    flat.real[upper] = parts[0]
    flat.imag[upper] = parts[1]
    return R


def color_exponential(H_iid: np.ndarray, spec: CorrelationSpec) -> np.ndarray:
    """Color an iid channel with the ULA correlation along its rows.

    Runs the AR(1) recursion h_1 = w_1, h_m = r h_(m-1) + sqrt(1 - r^2) w_m
    with r = rho**spacing down every column. That applies the Cholesky
    factor L of R_ij = r**|i - j|, and since L = R^(1/2) U with U unitary,
    L @ H_iid has the same law as R^(1/2) @ H_iid. The recursion runs in
    blocks of B rows: inside a block it is one product with the Toeplitz
    factor T_ij = r**(i - j), i >= j, and then, block after block, row i
    adds r**(i + 1) times the last row of the block before it.
    """
    M, K = H_iid.shape
    r = spec.rho**spec.spacing
    B = min(M, _COLOR_BLOCK_ROWS)
    blocks = -(-M // B)
    x = np.zeros((blocks * B, K), dtype=np.complex128)  # zero rows pad the last block
    np.multiply(H_iid, np.sqrt(1.0 - r * r), out=x[:M])
    x[0] = H_iid[0]
    powers = r ** np.arange(B + 1)
    i = np.arange(B)
    T = np.tril(powers[np.abs(i[:, np.newaxis] - i)])
    # real and imaginary parts share the real factor
    y = x.view(np.float64).reshape(blocks, B, 2 * K)
    step = max(1, _COLOR_SLICE_BYTES // (16 * B * K))
    for start in range(0, blocks, step):
        y[start : start + step] = T @ y[start : start + step]
    for block in range(1, blocks):
        y[block] += powers[1:, np.newaxis] * y[block - 1, -1]
    return x[:M]


def sample_channel(
    M: int,
    K: int,
    rng: RngStream,
    correlation: CorrelationSpec | None = None,
) -> np.ndarray:
    """Draw one small-scale channel: the iid draw, colored when rho > 0."""
    H = sample_iid(M, K, rng)
    if correlation is None or correlation.rho == 0.0:
        return H
    return color_exponential(H, correlation)
