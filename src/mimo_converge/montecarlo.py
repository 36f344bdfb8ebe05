"""Monte Carlo sweep harness for the two system-growth scenarios.

A Scenario sweeps either M at fixed user count K, or K at fixed antenna
ratio alpha = M/K. At every sweep point a constant trial budget of channel
realizations is drawn, one independent random stream per trial index, and
the enabled statistics (channel convergence metrics, ZF SNR, MF SINR) are
aggregated into means with standard errors. Results are bit-reproducible
for a fixed (scenario, seed) regardless of worker count: trial t always
uses stream t, its values land in slot t, and the reduction runs over the
trial-ordered arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import CorrelationSpec, RngStream, sample_channel, sample_gram_factor
from .metrics import diagonal_dominance, lambda_ratio, mad
from .numerics import SingularMatrixError, gram_normalized, single_threaded_blas
from .power import PowerProfile, limiting_moments, link_gains
from .precoding import mf_sinr_from_gram, mf_sinr_limit, zf_snr_from_gram, zf_snr_limit

FIXED_K = "fixed-K"
FIXED_ALPHA = "fixed-alpha"

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 1000

# Byte cap of one stack of K x K complex Grams: the stacked statistics pay
# their call overhead once per stack, and a stack stays small next to a draw.
_STACK_BYTES = 2**18


class ConfigError(ValueError):
    """Scenario or command-line configuration is invalid or contradictory."""


@dataclass(frozen=True)
class Scenario:
    """One sweep: growth mode, sweep grid, channel model and statistics.

    In fixed-K mode the sweep lists M values; in fixed-alpha mode it lists
    K values and M = alpha*K must be an integer at every point. A missing
    profile means equal link gains (all one). gram_source selects whether
    the convergence metrics are computed on the Gram of the small-scale
    channel H (default) or of the gain-scaled channel G.
    """

    mode: str
    sweep: tuple[int, ...]
    K: int | None = None
    alpha: float | None = None
    correlation: CorrelationSpec | None = None
    profile: PowerProfile | None = None
    rho_f: float = 1.0
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    compute_metrics: bool = True
    compute_zf: bool = True
    compute_mf: bool = True
    gram_source: str = "H"


@dataclass(frozen=True)
class StatSummary:
    """Aggregate of one statistic at one sweep point."""

    mean: float
    std: float
    stderr: float
    trials: int
    limit: float | None = None

    @property
    def rel_gap(self) -> float | None:
        """Relative gap |mean - limit| / |limit| to the limit, None without one."""
        return None if self.limit is None else abs(self.mean - self.limit) / abs(self.limit)


@dataclass(frozen=True)
class SweepPoint:
    M: int
    K: int
    alpha: float
    stats: dict[str, StatSummary]
    degenerate_trials: int = 0


@dataclass(frozen=True)
class SweepResult:
    scenario: Scenario
    points: list[SweepPoint] = field(default_factory=list)


def sweep_points(scenario: Scenario) -> list[tuple[int, int]]:
    """Validate a scenario and expand its sweep into (M, K) pairs.

    The only check of a scenario's numbers; the trials trust them. Raises
    ConfigError before any computation on an invalid or infeasible
    configuration: a K, sweep value, trial count or seed operator.index
    rejects, a seed outside [0, 2**64), a non-finite rho_f or alpha, M <= K
    anywhere while ZF is enabled, M < K or K = 1 anywhere while the
    convergence metrics are enabled, or an empty sweep.
    """
    s = scenario
    if s.mode not in (FIXED_K, FIXED_ALPHA):
        raise ConfigError(f"unknown mode {s.mode!r}, expected {FIXED_K!r} or {FIXED_ALPHA!r}")
    try:
        for value in (s.trials, s.seed, *s.sweep, *(() if s.K is None else (s.K,))):
            operator.index(value)
    except TypeError:
        raise ConfigError(f"K, the sweep values, trials and seed must be integers, got {value!r}") from None
    if s.trials < 1:
        raise ConfigError(f"trials must be positive, got {s.trials}")
    if not (math.isfinite(s.rho_f) and s.rho_f > 0):
        raise ConfigError(f"rho_f must be finite and positive, got {s.rho_f}")
    if not 0 <= s.seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {s.seed}")
    if s.gram_source not in ("H", "G"):
        raise ConfigError(f"gram_source must be 'H' or 'G', got {s.gram_source!r}")
    if not (s.compute_metrics or s.compute_zf or s.compute_mf):
        raise ConfigError("scenario enables no statistics")
    if not s.sweep:
        raise ConfigError("sweep lists no values")
    if any(v < 1 for v in s.sweep):
        raise ConfigError(f"sweep values must be positive, got {s.sweep}")
    if any(b >= a for a, b in zip(s.sweep[1:], s.sweep)):
        raise ConfigError(f"sweep must be strictly increasing, got {s.sweep}")

    if s.mode == FIXED_K:
        if s.K is None or s.K < 1:
            raise ConfigError("fixed-K mode needs a positive K")
        if s.alpha is not None:
            raise ConfigError("alpha is not a fixed-K parameter (the sweep sets M)")
        points = [(int(m), int(s.K)) for m in s.sweep]
    else:
        if s.alpha is None or not (math.isfinite(s.alpha) and s.alpha > 0):
            raise ConfigError(f"fixed-alpha mode needs a finite positive alpha, got {s.alpha}")
        if s.K is not None:
            raise ConfigError("K is swept in fixed-alpha mode, do not fix it")
        points = []
        for k in s.sweep:
            m = s.alpha * k
            if abs(m - round(m)) > 1e-9 * max(1.0, m):
                raise ConfigError(f"alpha*K = {s.alpha}*{k} = {m} is not an integer M")
            points.append((int(round(m)), int(k)))

    if s.compute_zf:
        bad = [(m, k) for m, k in points if m <= k]
        if bad:
            raise ConfigError(
                f"ZF needs M > K at every sweep point; offending (M, K): {bad}"
            )
    if s.compute_metrics:
        # The eigenvalue ratio needs a nonsingular Gram (M >= K), and the
        # diagonal dominance needs off-diagonal entries (K >= 2).
        bad = [(m, k) for m, k in points if m < k or k < 2]
        if bad:
            raise ConfigError(
                f"metrics need K >= 2 and M >= K at every sweep point; offending (M, K): {bad}"
            )
    return points


def _summary(values: np.ndarray, limit: float | None = None) -> StatSummary:
    n = int(values.shape[0])
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    return StatSummary(
        mean=float(values.mean()),
        std=std,
        stderr=std / math.sqrt(n),
        trials=n,
        limit=limit,
    )


def _run_point(scenario: Scenario, M: int, K: int, workers: int) -> SweepPoint:
    s = scenario
    T = s.trials
    profile = s.profile or PowerProfile(1.0, 1.0)  # no profile: unit gains
    beta = link_gains(K, profile)
    sqrt_beta = np.sqrt(beta) if s.profile is not None else None

    # Allocated before any worker starts; each worker writes its own rows.
    cols: dict[str, np.ndarray] = {}
    if s.compute_metrics:
        for name in ("mad", "lambda_ratio", "diagonal_dominance"):
            cols[name] = np.empty(T)
    if s.compute_zf:
        cols["zf_snr"] = np.empty(T)
    if s.compute_mf:
        cols["mf_sinr"] = np.empty((T, K))
    degenerate = np.zeros(T, dtype=bool)
    # Trials per stack: within the byte cap, and every worker gets a stack.
    chunk = max(1, min(_STACK_BYTES // (16 * K * K), -(-T // max(1, workers))))
    # One Gram per distinct matrix: G's, and H's only when the metrics read
    # H and the gains make G differ from it.
    metrics_on_h = s.compute_metrics and s.gram_source == "H" and sqrt_beta is not None
    gram_of_g = s.compute_zf or s.compute_mf or not metrics_on_h
    if (s.correlation is None or s.correlation.rho == 0.0) and M >= K:
        # Every statistic reads the draw only through its Gram, and the
        # Bartlett factor's Gram has the law of the M x K draw's.
        draw = sample_gram_factor
    else:
        draw = functools.partial(sample_channel, correlation=s.correlation)

    def run_stack(rows: slice, stream_offset: int = 0) -> None:
        """Draw the trials of rows, trial t on stream t + stream_offset, and
        write each statistic of their stacked K x K Grams to cols[rows]. A
        slice of a stack gets the same bits as a stack of one; one degenerate
        trial raises SingularMatrixError for the whole stack."""
        shape = (rows.stop - rows.start, K, K)
        gram_g = np.empty(shape, dtype=np.complex128) if gram_of_g else None
        gram_h = np.empty(shape, dtype=np.complex128) if metrics_on_h else None
        for i, t in enumerate(range(rows.start, rows.stop)):
            H = draw(M, K, RngStream(s.seed, t + stream_offset))
            G = H if sqrt_beta is None else H * sqrt_beta
            if gram_g is not None:
                gram_g[i] = gram_normalized(G)
            if gram_h is not None:
                gram_h[i] = gram_normalized(H)
            del H, G  # free this draw before the next, so a worker holds one at a time
        if s.compute_zf:
            cols["zf_snr"][rows] = zf_snr_from_gram(gram_g, s.rho_f)
        if s.compute_mf:
            cols["mf_sinr"][rows] = mf_sinr_from_gram(gram_g, s.rho_f)
        if s.compute_metrics:
            W = gram_g if gram_h is None else gram_h
            W /= M  # in place: the precoders have read gram_g already
            cols["mad"][rows] = mad(W - np.eye(K))
            cols["lambda_ratio"][rows] = lambda_ratio(W)
            cols["diagonal_dominance"][rows] = diagonal_dominance(W)

    def run_chunk(start: int) -> None:
        rows = slice(start, min(start + chunk, T))
        try:
            run_stack(rows)
        except SingularMatrixError:
            # Find the degenerate trials one at a time. Each gets one retry on
            # a stream past all primary streams, so no two draws collide.
            for t in range(start, rows.stop):
                try:
                    run_stack(slice(t, t + 1))
                except SingularMatrixError:
                    degenerate[t] = True
                    run_stack(slice(t, t + 1), stream_offset=T)

    if workers <= 1:
        for start in range(0, T, chunk):
            run_chunk(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, range(0, T, chunk)))

    alpha_pt = M / K
    mean_beta, mean_inv_beta = limiting_moments(profile)
    has_limits = alpha_pt > 1

    stats: dict[str, StatSummary] = {}
    for name in ("mad", "lambda_ratio", "diagonal_dominance"):
        if name in cols:
            stats[name] = _summary(cols[name])
    if s.compute_zf:
        # sweep_points requires M > K wherever ZF is on
        stats["zf_snr"] = _summary(cols["zf_snr"], zf_snr_limit(s.rho_f, alpha_pt, mean_inv_beta))
    if s.compute_mf:
        user_limits = (
            [mf_sinr_limit(s.rho_f, alpha_pt, float(b), mean_beta) for b in beta]
            if has_limits
            else [None] * K
        )
        mean_limit = float(np.mean(user_limits)) if has_limits else None
        stats["mf_sinr_mean"] = _summary(cols["mf_sinr"].mean(axis=1), mean_limit)
        for i in range(K):
            stats[f"mf_sinr_user_{i + 1:03d}"] = _summary(cols["mf_sinr"][:, i], user_limits[i])

    return SweepPoint(
        M=M,
        K=K,
        alpha=alpha_pt,
        stats=stats,
        degenerate_trials=int(degenerate.sum()),
    )


def run_scenario(scenario: Scenario, workers: int = 1) -> SweepResult:
    """Run every sweep point of a scenario with the constant trial budget.

    Deterministic for a fixed (scenario, seed), with 1 or many workers.
    The bundled BLAS runs on one thread throughout, so the workers are the
    only parallelism and the host's BLAS thread count cannot change a bit.
    Raises ConfigError on an invalid scenario and SingularMatrixError if a
    trial stays degenerate after its one retry.
    """
    points = sweep_points(scenario)
    with single_threaded_blas():
        swept = [_run_point(scenario, M, K, workers) for M, K in points]
    return SweepResult(scenario=scenario, points=swept)
