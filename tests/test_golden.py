"""Frozen output bytes of the figure presets.

Changing a hash here is a re-baseline: it must come with a reason why the
distribution of every statistic is unchanged.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mimo_converge
from mimo_converge.cli import EXIT_OK, main

RUN_ARGS = ["--trials", "3", "--seed", "42"]

GOLDEN_SHA256 = {
    "fig1": "381b2661d6e7dee42f9e94b568d49a6f3bbb310bcee073d0d33fda17b5c9adb8",
    "fig4": "8d3798f192ff35cd57a156c5aaf563c2782d14f8dea424c01be8dd933dc4e0b3",
    "fig5": "ec4c580942fbc61229b111aaa1bd3669c049205490cadd9ef3ff6094bcd05a6e",
    "fig6": "1da8d9b2005944acd4da339f069df3a19cd5c6370e80f0721e3421efb6e408b2",
    "fig7": "81f8833a1fdf3d042d70a909bb2470831cad348fb2073cb7429116bbd31b3d54",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN_SHA256))
def test_preset_bytes_match_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    code = main(["--preset", preset, *RUN_ARGS, "--workers", "1", "--output", str(out)])
    assert code == EXIT_OK
    assert _sha256(out) == GOLDEN_SHA256[preset]


def test_bytes_independent_of_blas_threads_and_workers(tmp_path):
    # OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, so every
    # setting needs a fresh interpreter.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(mimo_converge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    mismatches = []
    for threads in (None, "1", "2"):
        run_env = dict(env) if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        for workers in ("1", "2"):
            out = tmp_path / f"fig6_{threads}_{workers}.csv"
            subprocess.run(
                [sys.executable, "-c", "from mimo_converge.cli import console_main; console_main()",
                 "--preset", "fig6", *RUN_ARGS, "--workers", workers, "--output", str(out)],
                env=run_env, check=True, capture_output=True, timeout=300,
            )
            if _sha256(out) != GOLDEN_SHA256["fig6"]:
                mismatches.append((threads, workers))
    assert not mismatches, f"(OPENBLAS_NUM_THREADS, --workers) off the golden bytes: {mismatches}"
