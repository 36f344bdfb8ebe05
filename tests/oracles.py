"""Reference draws for the tests, built from the program's own primitives.

The sweep harness draws either the Bartlett factor or the raw normals of
an M x K draw, never the complex M x K channel itself; sample_iid composes
the two steps of that draw, and serves the tests as the oracle the
harness's channels and Grams are checked against.
"""

import numpy as np

from mimo_converge.channel import RngStream, row_scale, sample_normals, scale_normals


def sample_iid(M: int, K: int, rng: RngStream, row_power: np.ndarray | None = None) -> np.ndarray:
    """M x K matrix of independent circularly-symmetric complex normals.

    Entry (m, k) is CN(0, row_power[m]), or CN(0, 1) without row_power, so
    real and imaginary parts are each N(0, row_power[m] / 2). Bit-identical
    for identical (seed, stream).
    """
    parts = sample_normals(M, K, rng)
    return scale_normals(parts, row_scale(row_power), np.empty((M, K), dtype=np.complex128))
