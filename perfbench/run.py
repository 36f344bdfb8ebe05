#!/usr/bin/env python3
"""Benchmark of the mimo-converge CLI on three figure presets.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One operation is one CLI run of a workload's preset in a fresh process
(child.py). Operations repeat, closed loop and one at a time, until
--seconds have passed. Every run's output is checked. With --trace 0 the
last line reports the medians of the end-to-end metrics; with --trace 1
traced and untraced runs alternate and it reports the per-layer metrics,
including the tracing overhead. See README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Removed from every child's environment: the thread variables, so that the
# program's own BLAS thread policy is measured and not the caller's, and
# PYTHONDONTWRITEBYTECODE, so that timed imports read the bytecode the probe
# wrote, as an installed package would.
REMOVED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PYTHONDONTWRITEBYTECODE")

# No operation starts, and every child is killed, once a run has taken this
# long, so a run ends within its 180 s limit even if the program slows down.
RUN_LIMIT_S = 170.0

# Acceptance tolerances of the limit gaps checked at the largest K.
LIMIT_TOLERANCE = {"zf_snr": 0.05, "mf_sinr_mean": 0.10}
LIMIT_CHECK_K = 100

_M_GRID = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
_PRECODER_POINTS = tuple((10 * K, K) for K in (5, 10, 20, 50, 100))


@dataclass(frozen=True)
class Workload:
    preset: str
    workers: int
    trials: int
    points: tuple[tuple[int, int], ...]  # (M, K) of every sweep point, all scenarios
    precoder: bool  # rows per point: zf_snr, mf_sinr_mean and K users; else 3 metrics
    check_limits: bool
    why: str

    def argv(self, seed: int, output: Path) -> list[str]:
        return ["--preset", self.preset, "--workers", str(self.workers),
                "--trials", str(self.trials), "--seed", str(seed), "--output", str(output)]

    def expected_rows(self) -> int:
        return sum(2 + K if self.precoder else 3 for _, K in self.points)


WORKLOADS = {
    "metrics-fixedK": Workload(
        "fig1", 1, 12, tuple((M, K) for K in (10, 50) for M in _M_GRID), False, False,
        "tall-skinny iid draw and Gram up to 16384x50; no Cholesky, correlation or pool"),
    "precoder-unequal": Workload(
        "fig5", 2, 60, _PRECODER_POINTS, True, True,
        "many small Cholesky solves and square Grams, 2 workers against threaded BLAS"),
    "precoder-correlated": Workload(
        "fig7", 1, 10, _PRECODER_POINTS * 2, True, False,
        "dense M x M correlation colouring and per-M eigh; highest peak RSS"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
_LAYER_UNITS = {"calls": "count", "busy_s": "s", "bytes": "B", "flops": "flop"}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer, (_, extra) in TRACED.items():
        for key in ("calls", "busy_s") + ((extra[0],) if extra else ()):
            names[f"{layer}.{key}"] = _LAYER_UNITS[key]
    names.update({
        "channel.correlation_sqrt.hit_ratio": "ratio",
        "precoding.zf_snr_from_gram.self_s": "s",
        "montecarlo.self_s": "s",
        "montecarlo.degenerate_trials": "count",
        "trace.overhead_s": "s",
        "trace.absent": "count",
    })
    return names


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_output(path: Path, workload: Workload, columns: list[str]) -> tuple[list[str], str, int]:
    """Problems found in one run's CSV, its SHA-256 and its degenerate-trial count."""
    data = path.read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    rows = list(csv.reader(io.StringIO(data.decode(errors="replace"))))
    if not rows or rows[0] != columns:
        return [f"header {rows[0] if rows else None} is not CSV_COLUMNS {columns}"], sha, 0
    if any(len(row) != len(columns) for row in rows[1:]):
        return ["a row has the wrong number of cells"], sha, 0
    records = [dict(zip(columns, row)) for row in rows[1:]]
    problems = []
    if len(records) != workload.expected_rows():
        problems.append(f"{len(records)} rows, expected {workload.expected_rows()}")
    degenerate = {}
    limits_seen = set()
    for r in records:
        where = f"{r['statistic']} at M={r['M']} K={r['K']}"
        mean = _number(r["mean"])
        if not math.isfinite(mean):
            problems.append(f"mean {r['mean']!r} of {where}")
        if r["trials"] != str(workload.trials):
            problems.append(f"trials {r['trials']!r} of {where}")
        if not r["degenerate_trials"].isdigit():
            problems.append(f"degenerate_trials {r['degenerate_trials']!r} of {where}")
            continue
        point = tuple(r[c] for c in columns if c not in ("statistic", "mean", "std", "stderr", "limit"))
        degenerate[point] = int(r["degenerate_trials"])
        if workload.check_limits and r["K"] == str(LIMIT_CHECK_K) and r["statistic"] in LIMIT_TOLERANCE:
            limits_seen.add(r["statistic"])
            limit = _number(r["limit"])
            gap = abs(mean - limit) / abs(limit) if limit else math.nan
            if not gap <= LIMIT_TOLERANCE[r["statistic"]]:
                problems.append(f"{where} is {gap:.1%} from its limit {r['limit']!r}")
    if workload.check_limits and limits_seen != set(LIMIT_TOLERANCE):
        problems.append(f"no {sorted(set(LIMIT_TOLERANCE) - limits_seen)} rows at K={LIMIT_CHECK_K}")
    return problems, sha, sum(degenerate.values())


def run_child(flags: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run child.py once; its JSON result, or None and the reason it failed."""
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_ENV}
    cmd = [sys.executable, str(HERE / "child.py"), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unreadable child result {lines[-1][:200]!r}"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_operation(workload: Workload, argv: list[str], output: Path, traced: bool,
                  timeout: float) -> tuple[dict | None, str]:
    """One checked CLI run: the child's result, or None and why it failed."""
    output.unlink(missing_ok=True)
    result, error = run_child((["--trace"] if traced else []) + ["--", *argv], timeout)
    if result is None:
        return None, error
    if result["exit_code"] != 0:
        return None, f"CLI exited {result['exit_code']}"
    if not output.is_file():
        return None, "no output file"
    problems, sha, degenerate = check_output(output, workload, result["csv_columns"])
    if problems:
        return None, "; ".join(problems[:5])
    result.update(traced=traced, sha256=sha, degenerate=degenerate)
    return result, ""


def measure(name: str, seed: int, seconds: int, trace: bool, started: float) -> dict:
    """Repeat the workload's CLI run for `seconds`, alternating traced runs if `trace`."""
    workload = WORKLOADS[name]
    runs, failures, durations = [], [], []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        output = Path(tmp) / "out.csv"
        argv = workload.argv(seed, output)
        begin = time.monotonic()
        while time.monotonic() - started < RUN_LIMIT_S:
            # Stop before a run that would likely end after `seconds`.
            elapsed = time.monotonic() - begin
            if (len(durations) >= (2 if trace else 1)
                    and elapsed + statistics.median(durations) > seconds):
                break
            traced = trace and len(durations) % 2 == 1
            result, error = run_operation(workload, argv, output, traced,
                                          RUN_LIMIT_S - (time.monotonic() - started))
            durations.append(time.monotonic() - begin - elapsed)
            if result is None:
                failures.append(error)
            else:
                runs.append(result)
    return {"name": name, "workload": workload, "argv": argv[:-2], "attempted": len(durations),
            "failures": failures, "runs": runs}


def end_to_end_metrics(m: dict) -> dict:
    plain = [r for r in m["runs"] if not r["traced"]]
    return {key: {"value": statistics.median([r[key] for r in plain]), "unit": unit}
            for key, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(m: dict) -> tuple[dict, list[str]]:
    traced = [r for r in m["runs"] if r["traced"]]
    plain = [r for r in m["runs"] if not r["traced"]]
    units = per_layer_names()
    values = {}
    for layer, (_, extra) in TRACED.items():
        for key in ("calls", "busy_s") + ((extra[0],) if extra else ()):
            values[f"{layer}.{key}"] = statistics.median([r["layers"][layer][key] for r in traced])

    def hit_ratio(r):
        calls = r["layers"]["channel.correlation_sqrt"]["calls"]
        return 1.0 - r["layers"]["numerics.psd_sqrt"]["calls"] / calls if calls else 0.0

    values["channel.correlation_sqrt.hit_ratio"] = statistics.median([hit_ratio(r) for r in traced])
    values["precoding.zf_snr_from_gram.self_s"] = statistics.median(
        [r["layers"]["precoding.zf_snr_from_gram"]["self_s"] for r in traced])
    values["montecarlo.self_s"] = statistics.median([r["harness_self_s"] for r in traced])
    values["montecarlo.degenerate_trials"] = statistics.median([r["degenerate"] for r in traced])
    values["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in traced])
                                  - statistics.median([r["wall_s"] for r in plain]))
    absent = sorted({layer for r in traced for layer, e in r["layers"].items() if e["absent"]})
    values["trace.absent"] = len(absent)
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, absent


def report(m: dict, trace: bool) -> dict:
    """Print the human-readable report of one workload; the result object."""
    print(f"workload {m['name']}: {m['workload'].why}")
    print(f"  command: mimo-converge {' '.join(m['argv'])} --output <tmp>/out.csv")
    print(f"  runs: {m['attempted']} attempted, {len(m['failures'])} failed")
    for error in m["failures"]:
        print(f"  FAILED: {error}")
    hashes = sorted({r["sha256"] for r in m["runs"]})
    identical = "identical in every run" if len(hashes) == 1 else f"{len(hashes)} distinct"
    for sha in hashes:
        print(f"  output sha256 (information, {identical}): {sha}")
    metrics, absent = per_layer_metrics(m) if trace else (end_to_end_metrics(m), [])
    if trace:
        traced = [r for r in m["runs"] if r["traced"]]
        print(f"  per-layer medians over {len(traced)} traced runs (bytes and flops are "
              "computed from call shapes):")
        for key in sorted(metrics, key=lambda k: (not k.endswith(".busy_s"), -metrics[k]["value"])):
            print(f"    {key:<40} {metrics[key]['value']:>14.6g} {metrics[key]['unit']}")
        for layer in absent:
            print(f"    {layer}: absent (0 calls)")
        missing = {k: v for r in traced for k, v in r["sites_missing"].items()}
        for layer, sites in sorted(missing.items()):
            print(f"    {layer}: call sites not found: {', '.join(sites)}")
    else:
        plain = [r for r in m["runs"] if not r["traced"]]
        for key, metric in metrics.items():
            values = [r[key] for r in plain]
            print(f"  {key:<13} {metric['value']:.4f} {metric['unit']}  median of {len(values)} "
                  f"(min {min(values):.4f}, max {max(values):.4f})")
    return {"correct": not m["failures"], "attempted": m["attempted"],
            "failed": len(m["failures"]), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "mimo_converge" / "cli.py").is_file():
        print(f"no mimo_converge package under {SRC}", file=sys.stderr)
        return 2

    probe, error = run_child(["--probe"], RUN_LIMIT_S)
    if probe is None:
        print(f"cannot import mimo_converge: {error}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps({**probe["machine"], "commit": git_commit(),
                                    "removed_env": list(REMOVED_ENV)}))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if len(names) > 1:
            started = time.monotonic()
        m = measure(name, args.seed, args.seconds, bool(args.trace), started)
        kinds = {r["traced"] for r in m["runs"]}
        if False not in kinds or (args.trace and True not in kinds):
            for error in m["failures"]:
                print(f"FAILED: {error}", file=sys.stderr)
            print(f"{name}: too few successful runs to report", file=sys.stderr)
            return 1
        results[name] = report(m, bool(args.trace))

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
