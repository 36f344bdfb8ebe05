#!/usr/bin/env python3
"""Run every figure preset and write one CSV per figure.

Usage:
    python scripts/run_all_figures.py [--outdir results] [--trials N]
                                      [--seed S] [--workers W]

fig1 sweeps M up to 16384 and takes the longest; lower --trials for a
quick look at the curves. Each figure's "done" line ends with the SHA-256
of its CSV, so two runs can be compared byte for byte from their logs.

The script has no thread policy of its own: each figure runs through
``mimo_converge.cli.main``, which pins BLAS to one thread during the sweep
and, without --workers, uses as many worker threads as the process has
CPUs.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from mimo_converge.cli import main as run_cli
from mimo_converge.presets import PRESETS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results", type=Path)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, (_, description) in PRESETS.items():
        out = args.outdir / f"{name}.csv"
        argv = ["--preset", name, "--output", str(out)]
        for flag in ("trials", "seed", "workers"):
            value = getattr(args, flag)
            if value is not None:
                argv += [f"--{flag}", str(value)]
        print(f"=== {name}: {description}")
        start = time.perf_counter()
        code = run_cli(argv)
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        print(f"=== {name} done in {elapsed:.1f}s -> {out} sha256 {digest}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
