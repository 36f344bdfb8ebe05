"""Monte Carlo sweep harness for the two system-growth scenarios.

A Scenario sweeps either M at fixed user count K, or K at fixed antenna
ratio alpha = M/K. At every sweep point a constant trial budget of channel
realizations is drawn, one independent random stream per trial index, and
the enabled statistics (channel convergence metrics, ZF SNR, MF SINR) are
aggregated into means with standard errors. Results are bit-reproducible
for a fixed (scenario, seed) regardless of worker count: trial t always
uses stream t, its values land in slot t, and the reduction runs over the
trial-ordered arrays. The scenarios of one run share each trial's M x K
normals wherever they visit the same point with the same seed and trial
count, which leaves every scenario's bits as they are alone; a Bartlett
factor is drawn for one scenario only.
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
from .numerics import SINGULAR_RTOL, SingularMatrixError, gram_normalized, single_threaded_blas
from .power import PowerProfile, limiting_moments, link_gains
from .precoding import mf_sinr_from_gram, mf_sinr_limit, zf_snr_from_gram, zf_snr_limit

FIXED_K = "fixed-K"
FIXED_ALPHA = "fixed-alpha"

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 1000

# Byte cap of one stack of K x K complex Grams: the stacked statistics pay
# their call overhead once per stack, and a stack stays small next to a draw.
_STACK_BYTES = 2**18

# numpy's eigvalsh holds the GIL unless one call returns more than 500
# eigenvalues: a Python loop beside it kept 7-43% of its pace at 448 to 500
# eigenvalues per call, and about all of it from 501 on. A pooled metrics
# stack therefore holds more than 500 // K Grams.
_EIGVALSH_NOGIL = 500

# Per-trial work, in complex multiply-adds of a trial's Gram, below which a
# point runs on one worker: K^3 for the K x K Bartlett factor, M K^2 for
# the M x K normals. Smaller trials spend most of their time in numpy's
# Python overhead, under the GIL, and two workers only pass it back and
# forth. scripts/pool_crossover.py (alpha = 10, 1000 trials, warm, OpenBLAS's
# own threads stopped, 2 CPUs) put the 2-worker/1-worker wall ratio clearly
# below 1 from work 32^3 on for the Bartlett metrics, from 40^3 for the
# Bartlett precoders, and between 10 000 and 33 750 for the normals. The
# only preset points strictly between 10 000 and 40^3 are the metrics' K = 32
# (fig2, fig3), so one constant serves all three kinds.
_POOL_WORK = 32**3


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
    rejects, a seed outside [0, 2**64), a non-finite rho_f or alpha, an
    alpha*K that rounds to M < 1, M <= K anywhere while ZF is enabled,
    M < K or K = 1 anywhere while the convergence metrics are enabled, or
    an empty sweep. Every point it returns thus has M, K >= 1.
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
            if round(m) < 1:
                raise ConfigError(f"alpha*K = {s.alpha}*{k} = {m} rounds to M = 0; every point needs M >= 1")
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


def _summaries(rows: np.ndarray, limits: list[float | None]) -> list[StatSummary]:
    """Summary of each row of rows, an n x T array of n statistics over T
    trials, with the limits of the rows. One mean and one std call over a
    C-ordered copy reduce each row as a reduction of that row alone does.
    The std is 0.0 at T = 1."""
    rows = np.ascontiguousarray(rows)
    n = int(rows.shape[1])
    means = rows.mean(axis=1)
    stds = rows.std(axis=1, ddof=1) if n > 1 else np.zeros(rows.shape[0])
    return [
        StatSummary(mean=float(mean), std=float(std), stderr=float(std) / math.sqrt(n), trials=n, limit=limit)
        for mean, std, limit in zip(means, stds, limits)
    ]


def _limits(scenario: Scenario, M: int, K: int) -> dict[str, float]:
    """Large-system limit of every statistic that has one at (M, K), by row name.

    run_scenarios computes them for every point before the first trial,
    so a limit that overflows, or is not finite, is a ConfigError there.
    """
    s, alpha = scenario, M / K
    profile = s.profile or PowerProfile(1.0, 1.0)  # no profile: unit gains
    mean_beta, mean_inv_beta = limiting_moments(profile)
    limits: dict[str, float] = {}
    try:
        if s.compute_zf:  # sweep_points requires M > K wherever ZF is on
            limits["zf_snr"] = zf_snr_limit(s.rho_f, alpha, mean_inv_beta)
        if s.compute_mf and alpha > 1:
            users = [mf_sinr_limit(s.rho_f, alpha, float(b), mean_beta) for b in link_gains(K, profile)]
            limits["mf_sinr_mean"] = float(np.mean(users))
            limits.update((f"mf_sinr_user_{i + 1:03d}", u) for i, u in enumerate(users))
    except OverflowError:  # a float ** that overflows raises where * gives inf
        raise ConfigError(f"a large-system limit overflows at (M, K) = ({M}, {K})") from None
    bad = [name for name, value in limits.items() if not math.isfinite(value)]
    if bad:
        raise ConfigError(f"large-system limit of {bad[0]} is {limits[bad[0]]} at (M, K) = ({M}, {K})")
    return limits


class _Share:
    """One scenario's part of a group point: how it turns the shared draw into
    its Grams, its per-trial columns and its degenerate trials. Takes the
    scenario and its plan tuple of the point from _plan."""

    def __init__(self, scenario: Scenario, M: int, K: int, bartlett: bool,
                 row_power: np.ndarray | None, limits: dict[str, float]):
        s = self.scenario = scenario
        self.M, self.K = M, K
        self.limits = limits
        self.sqrt_beta = np.sqrt(link_gains(K, s.profile)) if s.profile is not None else None
        # Every statistic reads the draw only through its Gram. A correlated
        # draw is taken in R's eigenbasis, whose Gram has the law of that of
        # R^(1/2) times an iid draw; without correlation the Bartlett factor's
        # Gram has the law of the M x K draw's. The factor is used as drawn,
        # and the M x K normals get this scenario's row scale: R's eigenvalues
        # as row powers, or none.
        self.scale = None if bartlett else row_scale(row_power)
        # One Gram per distinct matrix: G's, and H's only when the metrics read
        # H and the gains make G differ from it.
        self.metrics_on_h = s.compute_metrics and s.gram_source == "H" and self.sqrt_beta is not None
        self.gram_of_g = s.compute_zf or s.compute_mf or not self.metrics_on_h
        # G of a Bartlett draw is an upper-triangular factor of its Gram, which
        # ZF inverts in place.
        self.zf_on_factor = bartlett and s.compute_zf
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

    def grams(self, draw: np.ndarray, H: np.ndarray | None) -> tuple:
        """The Grams of G and of H, None where none is formed, of one draw,
        and the factor G that ZF inverts, None where ZF reads none.

        draw is the shared normals of one trial, which it leaves as they
        are, or this scenario's own stack of Bartlett factors, one per trial.
        H is a buffer of the channel's shape for this scenario's channel; for
        a stack of factors it is the stack itself, scaled in place after the
        Gram of H has read it, and ZF inverts G in place after that.
        """
        if self.scale is not None:
            draw = scale_normals(draw, self.scale, H)
        gram_h = gram_normalized(draw) if self.metrics_on_h else None
        G = draw if self.sqrt_beta is None else np.multiply(draw, self.sqrt_beta, out=H)
        gram_g = gram_normalized(G) if self.gram_of_g else None
        return gram_g, gram_h, G if self.zf_on_factor else None

    def write(self, rows: slice, gram_g: np.ndarray | None, gram_h: np.ndarray | None,
              factor_g: np.ndarray | None = None) -> None:
        """Write each statistic of the stacked Grams of rows to cols[rows],
        ZF's from the factors of G where given, which it may overwrite; an
        M x K channel has none. A slice of a stack gets the same bits as a
        stack of one; one degenerate trial raises SingularMatrixError for the
        whole stack."""
        s, cols = self.scenario, self.cols
        if s.compute_zf:
            cols["zf_snr"][rows] = zf_snr_from_gram(gram_g, s.rho_f, factor_g)
        if s.compute_mf:
            cols["mf_sinr"][rows] = mf_sinr_from_gram(gram_g, s.rho_f)
        if s.compute_metrics:
            W = gram_g if gram_h is None else gram_h
            W /= self.M  # in place: the precoders have read gram_g already
            cols["mad"][rows] = mad(W - np.eye(self.K))
            cols["lambda_ratio"][rows] = lambda_ratio(W)
            cols["diagonal_dominance"][rows] = diagonal_dominance(W)

    def point(self) -> SweepPoint:
        cols, K = self.cols, self.K
        names = [name for name in ("mad", "lambda_ratio", "diagonal_dominance", "zf_snr") if name in cols]
        rows = [cols[name] for name in names]
        if "mf_sinr" in cols:
            names += ["mf_sinr_mean", *(f"mf_sinr_user_{i + 1:03d}" for i in range(K))]
            rows += [cols["mf_sinr"].mean(axis=1), cols["mf_sinr"].T]
        summaries = _summaries(np.vstack(rows), [self.limits.get(name) for name in names])
        return SweepPoint(
            M=self.M,
            K=K,
            alpha=self.M / K,
            stats=dict(zip(names, summaries)),
            degenerate_trials=int(self.degenerate.sum()),
        )


def _schedule(M: int, K: int, T: int, workers: int, bartlett: bool, metrics: bool) -> tuple[int, int]:
    """(n, chunk): how many of the workers run a point of T trials, and its
    trials per stack. A point runs on one worker unless its trials are large
    enough to overlap, else on all the workers that get a stack when all of
    them split the trials; the stacks are then sized for those n.

    A stack is within the byte cap, and each of n workers gets one. On n > 1
    workers a stack with the metrics holds enough Grams for its eigvalsh
    call to release the GIL, past the byte cap if need be.

    A function of the point's shape alone, never of a timing, so the load
    of the machine cannot change the schedule; the bytes do not depend on
    it either, since trial t always writes slot t.
    """

    def chunk(n: int) -> int:
        size = max(1, min(_STACK_BYTES // (16 * K * K), -(-T // n)))
        return max(size, _EIGVALSH_NOGIL // K + 1) if n > 1 and metrics else size

    n = 1
    if workers > 1 and (K if bartlett else M) * K * K >= _POOL_WORK:
        n = min(workers, -(-T // chunk(workers)))
    return n, chunk(n)


def _run_group(
    shares: list[_Share], seed: int, T: int, bartlett: bool,
    states: list[RngStream], pool: ThreadPoolExecutor,
) -> None:
    """Run the T trials of one group point, each drawn once for all shares.

    Trial t is drawn on stream t. _schedule picks n workers and the stack
    size, and worker w takes every n-th stack from the w-th on. bartlett is
    the draw kind of the shares' plans. A Bartlett group has one share: a
    stack of its factors is drawn into one array, which the share scales by
    its gains in place and ZF inverts in place, and all Grams of the stack
    come from one call. An M x K draw fills two buffers of the worker's own
    that live for the point, one trial at a time: the shared normals, and
    each share's channel H in turn.
    """
    M, K = shares[0].M, shares[0].K
    metrics = any(share.scenario.compute_metrics for share in shares)
    workers, chunk = _schedule(M, K, T, len(states), bartlett, metrics)
    starts = range(0, T, chunk)

    def run_worker(w: int) -> None:
        rng = states[w]
        if not bartlett:
            H = np.empty((M, K), dtype=np.complex128)
            normals = np.empty((2, M, K))

        def fill(group: list[_Share], rows: slice, stream_offset: int = 0) -> list[tuple]:
            """Draw the trials of rows, trial t on stream t + stream_offset, and
            stack every share's Grams of them."""
            n = rows.stop - rows.start
            trials = range(rows.start + stream_offset, rows.stop + stream_offset)
            if bartlett:
                # np.zeros: each factor leaves its strict lower triangle as it is.
                factors = np.zeros((n, K, K), dtype=np.complex128)
                for i, t in enumerate(trials):
                    sample_gram_factor(M, K, rng.keyed(seed, t), out=factors[i])
                (share,) = group
                return [share.grams(factors, factors)]
            stacks = [share.stacks(n) for share in group]
            for i, t in enumerate(trials):
                draw = sample_normals(M, K, rng.keyed(seed, t), out=normals)
                for share, stack in zip(group, stacks):
                    for slots, gram in zip(stack, share.grams(draw, H)):
                        if slots is not None:
                            slots[i] = gram
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
            del stack  # free the Grams before the next stack is drawn

    if workers == 1:
        run_worker(0)
    else:
        list(pool.map(run_worker, range(workers)))


def _plan(scenario: Scenario) -> list[tuple[int, int, bool, np.ndarray | None, dict[str, float]]]:
    """Validate a scenario and work out (M, K, bartlett, row powers, limits)
    for each of its points before the first trial. The row powers of its
    M x K draw are the eigenvalues of its correlation R, from one bisection
    for all its M, or None without correlation. bartlett is whether its
    trials draw the K x K Bartlett factor: not where an M < K Wishart is
    singular, nor under correlation, whose Gram has no triangular factor of
    this law; those points draw the M x K normals.

    Raises ConfigError where ZF or the metrics are on and fewer than K
    eigenvalues of R lie above SINGULAR_RTOL times the largest: every Gram
    would then be numerically singular.
    """
    s, grid = scenario, sweep_points(scenario)
    limits = [_limits(s, M, K) for M, K in grid]
    r = 0.0 if s.correlation is None else s.correlation.r
    powers = [None] * len(grid) if r == 0.0 else exp_correlation_eigenvalues([M for M, _ in grid], r)
    for (M, K), lam in zip(grid, powers):
        if (lam is not None and (s.compute_zf or s.compute_metrics)
                and np.count_nonzero(lam > SINGULAR_RTOL * lam.max()) < K):
            raise ConfigError(
                f"correlation rho ** spacing = {r!r} leaves R fewer than K = {K} eigenvalues above "
                f"{SINGULAR_RTOL} times the largest at M = {M}; ZF and the metrics need K"
            )
    return [(M, K, lam is None and M >= K, lam, lim) for (M, K), lam, lim in zip(grid, powers, limits)]


def run_scenarios(scenarios: list[Scenario], workers: int = 1) -> list[SweepResult]:
    """Run the scenarios of one run together, point by point.

    workers, a positive integer, and every scenario are validated before
    the first trial, and every scenario is planned then: R's eigenvalues
    come from one bisection per correlated scenario. Scenarios that draw
    the M x K normals at the same (M, K) with equal seed and trials form a
    group there, and each trial of a group is drawn once: every scenario
    then applies its own row scale, gains and Grams. A scenario's Bartlett
    point is a group of its own, since its factors are scaled and inverted
    in place. Statistics, limits and the degenerate retry stay per
    scenario, so each result equals run_scenario's for its scenario.
    """
    try:
        operator.index(workers)
    except TypeError:
        raise ConfigError(f"workers must be an integer, got {workers!r}") from None
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")
    plans = [_plan(s) for s in scenarios]
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, (s, plan) in enumerate(zip(scenarios, plans)):
        for j, (M, K, bartlett, _, _) in enumerate(plan):
            key = (M, K, int(s.seed), int(s.trials), bartlett, i if bartlett else None)
            groups.setdefault(key, []).append((i, j))
    points: list[list] = [[None] * len(plan) for plan in plans]
    # A point runs no more workers than it has trials.
    workers = min(workers, max((s.trials for s in scenarios), default=1))
    states = [RngStream(0) for _ in range(workers)]
    with single_threaded_blas(), ThreadPoolExecutor(max_workers=len(states)) as pool:
        for (M, K, seed, T, bartlett, _), members in groups.items():
            shares = [_Share(scenarios[i], *plans[i][j]) for i, j in members]
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
