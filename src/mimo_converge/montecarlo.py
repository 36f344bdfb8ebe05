"""Monte Carlo sweep harness for the two system-growth scenarios.

A Scenario sweeps either M at fixed user count K, or K at fixed antenna
ratio alpha = M/K. At every sweep point a constant trial budget of channel
realizations is drawn, one independent random stream per trial index, and
the enabled statistics (channel convergence metrics, ZF SNR, MF SINR) are
aggregated into means with standard errors. Results are bit-reproducible
for a fixed (scenario, seed) regardless of worker count: trial t always
uses stream t, its values land in slot t, and the reduction runs over the
trial-ordered arrays. The scenarios of one run share each trial's draw
wherever they visit the same point with the same seed, trial count and
kind of draw, which leaves every scenario's bits as they are alone.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CorrelationSpec,
    RngStream,
    exp_correlation_eigenvalues,
    row_scale,
    sample_gram_factor,
    sample_normals,
    scale_normals,
)
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
        """Relative gap |mean - limit| / |limit| to the limit, None without one.
        IEEE division: inf at a zero limit, nan when the mean is zero too."""
        if self.limit is None:
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(abs(self.mean - self.limit)) / abs(self.limit))


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


class _Share:
    """One scenario's part of a group point: how it turns the shared draw into
    its Grams, its per-trial columns and its degenerate trials."""

    def __init__(self, scenario: Scenario, M: int, K: int, bartlett: bool):
        s = self.scenario = scenario
        self.M, self.K = M, K
        self.profile = s.profile or PowerProfile(1.0, 1.0)  # no profile: unit gains
        self.beta = link_gains(K, self.profile)
        self.sqrt_beta = np.sqrt(self.beta) if s.profile is not None else None
        # Every statistic reads the draw only through its Gram. A correlated
        # draw is taken in R's eigenbasis, whose Gram has the law of that of
        # R^(1/2) times an iid draw; without correlation the Bartlett factor's
        # Gram has the law of the M x K draw's. The factor is used as drawn,
        # and the M x K normals get this scenario's row scale.
        r = 0.0 if s.correlation is None else s.correlation.r
        if bartlett:
            self.scale = None
        else:
            self.scale = row_scale(exp_correlation_eigenvalues(M, r) if r > 0.0 else None)
        # One Gram per distinct matrix: G's, and H's only when the metrics read
        # H and the gains make G differ from it.
        self.metrics_on_h = s.compute_metrics and s.gram_source == "H" and self.sqrt_beta is not None
        self.gram_of_g = s.compute_zf or s.compute_mf or not self.metrics_on_h
        # Allocated before any worker starts; each worker writes its own rows.
        T = s.trials
        self.cols: dict[str, np.ndarray] = {}
        if s.compute_metrics:
            for name in ("mad", "lambda_ratio", "diagonal_dominance"):
                self.cols[name] = np.empty(T)
        if s.compute_zf:
            self.cols["zf_snr"] = np.empty(T)
        if s.compute_mf:
            self.cols["mf_sinr"] = np.empty((T, K))
        self.degenerate = np.zeros(T, dtype=bool)

    def stacks(self, n: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Empty stacks of n Grams of G and of H, None where none is formed."""
        shape = (n, self.K, self.K)
        return (
            np.empty(shape, dtype=np.complex128) if self.gram_of_g else None,
            np.empty(shape, dtype=np.complex128) if self.metrics_on_h else None,
        )

    def add_trial(self, stacks, i: int, draw: np.ndarray, H: np.ndarray, C: np.ndarray) -> None:
        """Write the Grams of one trial to slot i of the stacks.

        draw is the shared Bartlett factor or normals, which stay as they
        are; H and C are worker buffers of the drawn matrix's shape, for
        this scenario's channel and the conjugate inside each Gram.
        """
        gram_g, gram_h = stacks
        if self.scale is not None:
            draw = scale_normals(draw, self.scale, H)
        if gram_h is not None:
            gram_h[i] = gram_normalized(draw, C)
        G = draw if self.sqrt_beta is None else np.multiply(draw, self.sqrt_beta, out=H)
        if gram_g is not None:
            gram_g[i] = gram_normalized(G, C)

    def write(self, rows: slice, gram_g: np.ndarray | None, gram_h: np.ndarray | None) -> None:
        """Write each statistic of the stacked Grams of rows to cols[rows]. A
        slice of a stack gets the same bits as a stack of one; one degenerate
        trial raises SingularMatrixError for the whole stack."""
        s, cols = self.scenario, self.cols
        if s.compute_zf:
            cols["zf_snr"][rows] = zf_snr_from_gram(gram_g, s.rho_f)
        if s.compute_mf:
            cols["mf_sinr"][rows] = mf_sinr_from_gram(gram_g, s.rho_f)
        if s.compute_metrics:
            W = gram_g if gram_h is None else gram_h
            W /= self.M  # in place: the precoders have read gram_g already
            cols["mad"][rows] = mad(W - np.eye(self.K))
            cols["lambda_ratio"][rows] = lambda_ratio(W)
            cols["diagonal_dominance"][rows] = diagonal_dominance(W)

    def point(self) -> SweepPoint:
        s, cols, K = self.scenario, self.cols, self.K
        alpha_pt = self.M / K
        mean_beta, mean_inv_beta = limiting_moments(self.profile)
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
                [mf_sinr_limit(s.rho_f, alpha_pt, float(b), mean_beta) for b in self.beta]
                if has_limits
                else [None] * K
            )
            mean_limit = float(np.mean(user_limits)) if has_limits else None
            stats["mf_sinr_mean"] = _summary(cols["mf_sinr"].mean(axis=1), mean_limit)
            for i in range(K):
                stats[f"mf_sinr_user_{i + 1:03d}"] = _summary(cols["mf_sinr"][:, i], user_limits[i])

        return SweepPoint(
            M=self.M,
            K=K,
            alpha=alpha_pt,
            stats=stats,
            degenerate_trials=int(self.degenerate.sum()),
        )


def _draws_bartlett(scenario: Scenario, M: int, K: int) -> bool:
    """Whether the scenario's trials at (M, K) draw the Bartlett factor: an
    M < K Wishart is singular, and a correlated Gram has no triangular factor
    of this law, so both draw the M x K normals."""
    r = 0.0 if scenario.correlation is None else scenario.correlation.r
    return r == 0.0 and M >= K


def _run_group(
    shares: list[_Share], seed: int, T: int, bartlett: bool,
    states: list[RngStream], pool: ThreadPoolExecutor,
) -> None:
    """Run the T trials of one group point, each drawn once for all shares.

    Trial t is drawn on stream t. Of n workers, worker w takes every n-th
    stack of trials from the w-th on, and fills buffers of its own that live
    for the point: the shared normals, each share's channel H, and the
    conjugate C inside a Gram. A lone share draws its normals into C's
    memory, since it has scaled them into H before C is written.
    """
    M, K = shares[0].M, shares[0].K
    # Trials per stack: within the byte cap, and every worker gets a stack.
    chunk = max(1, min(_STACK_BYTES // (16 * K * K), -(-T // len(states))))
    starts = range(0, T, chunk)
    workers = min(len(states), len(starts))

    def run_worker(w: int) -> None:
        rng = states[w]
        shape = (K, K) if bartlett else (M, K)
        H = np.empty(shape, dtype=np.complex128)
        C = np.empty(shape, dtype=np.complex128)
        if bartlett:
            normals = None
        elif len(shares) == 1:
            normals = C.view(np.float64).reshape(2, M, K)
        else:
            normals = np.empty((2, M, K))

        def fill(group: list[_Share], rows: slice, stream_offset: int = 0) -> list[tuple]:
            """Draw the trials of rows, trial t on stream t + stream_offset, and
            stack every share's Grams of them."""
            stacks = [share.stacks(rows.stop - rows.start) for share in group]
            for i, t in enumerate(range(rows.start, rows.stop)):
                keyed = rng.keyed(seed, t + stream_offset)
                if bartlett:
                    draw = sample_gram_factor(M, K, keyed)
                else:
                    draw = sample_normals(M, K, keyed, out=normals)
                for share, stack in zip(group, stacks):
                    share.add_trial(stack, i, draw, H, C)
            return stacks

        for start in starts[w::workers]:
            rows = slice(start, min(start + chunk, T))
            for share, stack in zip(shares, fill(shares, rows)):
                try:
                    share.write(rows, *stack)
                except SingularMatrixError:
                    # The stack holds a degenerate trial: the share re-runs its
                    # rows one at a time, and a degenerate one gets one retry
                    # on a stream past all primary streams, so no two draws collide.
                    for t in range(rows.start, rows.stop):
                        one = slice(t, t + 1)
                        try:
                            share.write(one, *fill([share], one)[0])
                        except SingularMatrixError:
                            share.degenerate[t] = True
                            share.write(one, *fill([share], one, stream_offset=T)[0])

    if workers == 1:
        run_worker(0)
    else:
        list(pool.map(run_worker, range(workers)))


def run_scenarios(scenarios: list[Scenario], workers: int = 1) -> list[SweepResult]:
    """Run the scenarios of one run together, point by point.

    Every scenario is validated before the first trial. Scenarios that visit
    the same (M, K) with equal seed and trials and the same kind of draw,
    the Bartlett factor or the M x K normals, form a group there, and each
    trial of a group is drawn once: every scenario then applies its own row
    scale, gains and Grams. Statistics, limits and the degenerate retry stay
    per scenario, so each result equals run_scenario's for its scenario.
    """
    grids = [sweep_points(s) for s in scenarios]
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, (s, grid) in enumerate(zip(scenarios, grids)):
        for j, (M, K) in enumerate(grid):
            key = (M, K, int(s.seed), int(s.trials), _draws_bartlett(s, M, K))
            groups.setdefault(key, []).append((i, j))
    points: list[list] = [[None] * len(grid) for grid in grids]
    # A point runs no more workers than it has trials.
    workers = min(max(1, workers), max((s.trials for s in scenarios), default=1))
    states = [RngStream(0) for _ in range(workers)]
    with single_threaded_blas(), ThreadPoolExecutor(max_workers=len(states)) as pool:
        for (M, K, seed, T, bartlett), members in groups.items():
            shares = [_Share(scenarios[i], M, K, bartlett) for i, _ in members]
            _run_group(shares, seed, T, bartlett, states, pool)
            for (i, j), share in zip(members, shares):
                points[i][j] = share.point()
    return [SweepResult(scenario=s, points=p) for s, p in zip(scenarios, points)]


def run_scenario(scenario: Scenario, workers: int = 1) -> SweepResult:
    """Run every sweep point of a scenario with the constant trial budget.

    Deterministic for a fixed (scenario, seed), with 1 or many workers.
    The bundled BLAS runs on one thread throughout, so the workers are the
    only parallelism and the host's BLAS thread count cannot change a bit.
    Raises ConfigError on an invalid scenario and SingularMatrixError if a
    trial stays degenerate after its one retry.
    """
    return run_scenarios([scenario], workers)[0]
