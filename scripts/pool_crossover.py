#!/usr/bin/env python3
"""Measure where a second worker starts to pay off, per point kind.

Usage:
    PYTHONPATH=src python scripts/pool_crossover.py [--trials 1000] [--repeats 5]

For each kind of sweep point the pool rule in ``mimo_converge.montecarlo``
decides on, it times one point per K on 1 and on 2 workers and prints the
2-worker/1-worker wall-time ratio, the median over the repeats, with the
median wall time of each side. A ratio below 1 means the second worker
helps; the pool constant _POOL_WORK should sit where the ratios of every
kind drop clearly below 1. The kinds, all at alpha = 10 like the presets:

- bartlett-metrics: the convergence metrics of an iid channel (fig2);
  per-trial work K^3.
- bartlett-precoders: ZF and MF with unequal gains (fig5); per-trial work
  K^3.
- normals: ZF and MF with correlation and unequal gains (fig7), which
  draws the M x K normals; per-trial work M K^2.

The runs are warm and in one process: each point runs once untimed first,
the whole measurement holds one BLAS pin, so OpenBLAS's own threads stay
stopped, and the 1- and 2-worker runs of a repeat alternate which goes
first. The pool rule is switched off for the measurement, so every point
runs on both workers, and switched back on when it ends.
"""

import argparse
import statistics
import time

import mimo_converge.montecarlo as mc
from mimo_converge.channel import CorrelationSpec
from mimo_converge.montecarlo import FIXED_ALPHA, Scenario, run_scenario
from mimo_converge.numerics import single_threaded_blas
from mimo_converge.power import PowerProfile

_UNEQUAL = PowerProfile(0.1, 1.0)
KINDS = {
    "bartlett-metrics": (
        dict(compute_zf=False, compute_mf=False),
        (8, 16, 20, 25, 32, 40, 50, 64),
    ),
    "bartlett-precoders": (
        dict(compute_metrics=False, profile=_UNEQUAL),
        (10, 16, 20, 25, 32, 40, 50, 64, 100),
    ),
    "normals": (
        dict(compute_metrics=False, profile=_UNEQUAL, correlation=CorrelationSpec(0.5)),
        (5, 10, 15, 20, 25, 30, 40, 50),
    ),
}


def _wall(scenario: Scenario, workers: int) -> float:
    start = time.perf_counter()
    run_scenario(scenario, workers=workers)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    pool_work, mc._POOL_WORK = mc._POOL_WORK, 0
    try:
        print(f"trials {args.trials}, median of {args.repeats} repeats")
        print(f"{'kind':<20}{'K':>5}{'work':>10}{'1 worker s':>12}{'2 workers s':>13}{'ratio':>8}")
        with single_threaded_blas():
            for kind, (fields, grid) in KINDS.items():
                for K in grid:
                    s = Scenario(mode=FIXED_ALPHA, alpha=10.0, sweep=(K,), trials=args.trials, **fields)
                    work = K**3 if s.correlation is None else 10 * K * K**2  # M = 10 K
                    for workers in (1, 2):
                        _wall(s, workers)  # warm-up
                    walls = {1: [], 2: []}
                    ratios = []
                    for r in range(args.repeats):
                        for workers in ((1, 2) if r % 2 == 0 else (2, 1)):
                            walls[workers].append(_wall(s, workers))
                        ratios.append(walls[2][-1] / walls[1][-1])
                    print(f"{kind:<20}{K:>5}{work:>10}{statistics.median(walls[1]):>12.4f}"
                          f"{statistics.median(walls[2]):>13.4f}{statistics.median(ratios):>8.2f}")
    finally:
        mc._POOL_WORK = pool_work
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
