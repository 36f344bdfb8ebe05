"""Correlated Rayleigh channel generation.

The small-scale downlink channel is an M x K complex matrix: an iid
CN(0, 1) draw, colored along its rows when the uniform linear array is
correlated. The sweep harness scales its columns by the square roots of
the link gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Rows per block of the correlation coloring. The block-local recursion is a
# small matrix product, so BLAS does most of the work; 16 to 32 rows measured
# fastest from 50 x 5 to 16384 x 50 (one thread, 2-CPU x86-64 VM).
_COLOR_BLOCK_ROWS = 32


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream, fully determined by (seed, stream).

    Each pair keys an independent 128-bit Philox generator, so trials can be
    assigned stream = trial index and distributed over any number of workers
    without coordination or loss of reproducibility.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
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
    x[:M] = np.sqrt(1.0 - r * r) * H_iid
    x[0] = H_iid[0]
    powers = r ** np.arange(B + 1)
    i = np.arange(B)
    T = np.tril(powers[np.abs(i[:, np.newaxis] - i)])
    # real and imaginary parts share the real factor
    y = T @ x.view(np.float64).reshape(blocks, B, 2 * K)
    for block in range(1, blocks):
        y[block] += powers[1:, np.newaxis] * y[block - 1, -1]
    return y.reshape(blocks * B, 2 * K)[:M].view(np.complex128)


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
