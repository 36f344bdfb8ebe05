"""Correlated Rayleigh channel generation.

The small-scale downlink channel is an M x K complex matrix H = L Z with Z
iid CN(0, 1) and L L^H = R, the correlation of the uniform linear array.
The sweep harness scales its columns by the square roots of the link
gains, and every statistic depends on the draw only through its Gram
Z^H L^H L Z. L^H L = V diag(lambda) V^H has the eigenvalues of R, and V^H Z
has the law of Z, so a correlated trial draws Z with row m scaled by
sqrt(lambda_m): the channel in R's eigenbasis. Without correlation the
harness can draw the K x K Bartlett factor of the Gram in its place.

Every draw reads an RngStream, the Philox stream of one (seed, stream)
pair; the sweep harness gives each worker one and moves it from trial to
trial. An M x K draw is made in two steps, so that scenarios which differ
only in their row powers can share one: sample_normals draws the
2 x M x K standard normals of a stream, and scale_normals turns them into
the complex matrix with a given row scale. sample_iid does both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)


class RngStream:
    """Counter-based random stream, fully determined by (seed, stream).

    Each pair keys an independent 128-bit Philox generator, so trials can be
    assigned stream = trial index and distributed over any number of workers
    without coordination or loss of reproducibility. seed and stream each
    fill 64 bits of the key, so both must lie in [0, 2**64).

    An RngStream owns one generator, and each generator() call assigns it
    the state that Philox(key=seed | stream << 64) starts from: counter 0,
    key [seed, stream] and an empty buffer. Every draw that is handed the
    stream thus gets its numbers from the start. keyed(seed, stream) moves
    it to another stream at a fraction of the cost of a new generator, so a
    worker owns one and moves it from trial to trial; it is not shared
    between threads.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
            raise ValueError(f"seed and stream must be in [0, 2**64), got {seed}, {stream}")
        self._generator = np.random.Generator(np.random.Philox(key=0))
        self.seed, self.stream = seed, stream

    def keyed(self, seed: int, stream: int) -> RngStream:
        """Move to (seed, stream), both in [0, 2**64) unchecked; returns self."""
        self.seed, self.stream = seed, stream
        return self

    def generator(self) -> np.random.Generator:
        self._generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": np.array([self.seed, self.stream], dtype=np.uint64)},
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,  # empty: the next draw runs the counter
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator


@dataclass(frozen=True)
class CorrelationSpec:
    """Exponential correlation profile of a uniform linear array.

    Antennas i and j at distance spacing*|i - j| have correlation
    R_ij = rho ** (spacing*|i - j|) = r**|i - j|, where r = rho ** spacing
    is the correlation between adjacent elements. r must stay below 1,
    where R is singular.
    """

    rho: float
    spacing: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be finite and positive, got {self.spacing}")
        if self.r >= 1.0:
            raise ValueError(f"rho ** spacing = {self.rho} ** {self.spacing} rounds to 1, where R is singular")

    @property
    def r(self) -> float:
        """Correlation between adjacent elements, rho ** spacing, in [0, 1)."""
        return self.rho**self.spacing


def sample_normals(M: int, K: int, rng: RngStream, out: np.ndarray | None = None) -> np.ndarray:
    """The 2 x M x K standard normals of an M x K draw: real parts, then imaginary.

    out, a C-contiguous float64 array of that shape, receives them in place
    of a new array. Bit-identical for identical (seed, stream).
    """
    if M < 1 or K < 1:
        raise ValueError(f"M and K must be positive, got M={M}, K={K}")
    return rng.generator().standard_normal((2, M, K), out=out)


def row_scale(row_power: np.ndarray | None = None) -> np.ndarray | float:
    """Factor that turns standard normal parts into those of CN(0, row_power[m]).

    sqrt(row_power / 2) as an M x 1 column, or 1/sqrt(2) without row_power.
    Multiplying by the reciprocal gives the same bits as dividing the
    complex matrix by sqrt(2).
    """
    return 1.0 / np.sqrt(2.0) if row_power is None else np.sqrt(row_power / 2.0)[:, np.newaxis]


def scale_normals(parts: np.ndarray, scale: np.ndarray | float, out: np.ndarray) -> np.ndarray:
    """Write (parts[0] + i parts[1]) * scale into the M x K complex array out."""
    np.multiply(parts[0], scale, out=out.real)
    np.multiply(parts[1], scale, out=out.imag)
    return out


def sample_iid(M: int, K: int, rng: RngStream, row_power: np.ndarray | None = None) -> np.ndarray:
    """M x K matrix of independent circularly-symmetric complex normals.

    Entry (m, k) is CN(0, row_power[m]), or CN(0, 1) without row_power, so
    real and imaginary parts are each N(0, row_power[m] / 2). Bit-identical
    for identical (seed, stream).
    """
    parts = sample_normals(M, K, rng)
    return scale_normals(parts, row_scale(row_power), np.empty((M, K), dtype=np.complex128))


def exp_correlation_eigenvalues(M: int, r: float) -> np.ndarray:
    """The M eigenvalues of the correlation matrix R_ij = r**|i - j|, 0 < r < 1.

    Kac, Murdock and Szego (J. Rational Mech. Anal. 2, 1953):
    lambda_k = (1 - r^2) / ((1 - r)^2 + 4 r sin^2(theta_k / 2)), where
    theta_k is the one root in ((k - 1) pi / (M + 1), k pi / (M + 1)] of
    sin((M + 1) theta) - 2 r sin(M theta) + r^2 sin((M - 1) theta). That
    function is |1 - r e^(-i theta)|^2 sin(phi(theta)), whose phase
    phi(theta) = (M + 1) theta + 2 arg(1 - r e^(-i theta)) rises from 0 to
    (M + 1) pi, so theta_k solves phi(theta) = k pi. Every root is bisected
    inside its bracket, all M at once, and every bracket must change sign:
    M disjoint brackets give M distinct eigenvalues, largest first.
    """
    if not (M >= 1 and 0.0 < r < 1.0):
        raise ValueError(f"need M >= 1 and 0 < r < 1, got M={M}, r={r}")
    edges = np.arange(M + 1) * (np.pi / (M + 1))
    lo, hi = edges[:-1], edges[1:]

    def excess(theta):
        """phi(theta) - k pi, with k pi as (M + 1) times the top edge of bracket
        k: there the excess is 2 arg(1 - r e^(-i theta)) >= 0 exactly."""
        one_minus_cos = (1 - r) + 2 * r * np.sin(theta / 2) ** 2  # 1 - r cos(theta), no cancellation
        return (M + 1) * (theta - edges[1:]) + 2 * np.arctan2(r * np.sin(theta), one_minus_cos)

    if not (np.all(excess(lo) < 0) and np.all(excess(hi) >= 0)):
        raise ArithmeticError(f"a root bracket does not change sign at M={M}, r={r}")
    for _ in range(64):  # a bracket no wider than pi/2 halves to a few ulps
        mid = 0.5 * (lo + hi)
        below = excess(mid) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (1 - r) * (1 + r) / ((1 - r) ** 2 + 4 * r * np.sin(0.25 * (lo + hi)) ** 2)


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
