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
    "fig2": "32950d9215088efc535802d715f69520207ff1350c0a31c293fcbd4da6322bc7",
    "fig3": "f7c84d431b4f292615ca2240030a85b4c007900535859990241a46ae5d0fd46b",
    "fig4": "8d3798f192ff35cd57a156c5aaf563c2782d14f8dea424c01be8dd933dc4e0b3",
    "fig5": "ec4c580942fbc61229b111aaa1bd3669c049205490cadd9ef3ff6094bcd05a6e",
    "fig6": "1da8d9b2005944acd4da339f069df3a19cd5c6370e80f0721e3421efb6e408b2",
    "fig7": "81f8833a1fdf3d042d70a909bb2470831cad348fb2073cb7429116bbd31b3d54",
}

# Scenarios no preset takes: a correlated, unequal-power fixed-K sweep with
# metrics on the Gram of G, a constant gain other than one, and a
# fixed-alpha sweep with a non-unit spacing.
NON_PRESET_ARGS = {
    "fixedK-corr-unequal-gramG": [
        "--mode", "fixed-K", "--K", "8", "--M", "16,64,256", "--corr-rho", "0.7",
        "--beta-min", "0.1", "--beta-max", "1", "--gram-source", "G"],
    "constant-gain-half": [
        "--mode", "fixed-K", "--K", "8", "--M", "16,64,256",
        "--beta-min", "0.5", "--beta-max", "0.5", "--corr-rho", "0.9"],
    "fixed-alpha-spacing": [
        "--mode", "fixed-alpha", "--alpha", "4", "--K", "2,6", "--corr-rho", "0.5",
        "--spacing", "2", "--beta-min", "0.2", "--beta-max", "0.8"],
}

NON_PRESET_SHA256 = {
    "fixedK-corr-unequal-gramG": "54d5d0022f6e97730cb0039369ce6d56d73aabfbc655594cc33c7e6db8d7e2c5",
    "constant-gain-half": "88fad71733069255c8a3f5b69102e0ffec4eee09406c1ff5c7478bc291206779",
    "fixed-alpha-spacing": "2cefb15b18ae5243e32aad04c0886562ebc0908bf98fd823f0619d649bcb6971",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN_SHA256))
def test_preset_bytes_match_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    code = main(["--preset", preset, *RUN_ARGS, "--workers", "1", "--output", str(out)])
    assert code == EXIT_OK
    assert _sha256(out) == GOLDEN_SHA256[preset]


@pytest.mark.parametrize("name", sorted(NON_PRESET_SHA256))
def test_non_preset_bytes_match_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    code = main([*NON_PRESET_ARGS[name], *RUN_ARGS, "--workers", "1", "--output", str(out)])
    assert code == EXIT_OK
    assert _sha256(out) == NON_PRESET_SHA256[name]


def test_unit_profile_bytes_match_no_profile(tmp_path):
    # a profile of unit gains scales every column by sqrt(1.0), which must
    # leave each bit of the equal-power run in place
    base = ["--mode", "fixed-K", "--K", "8", "--M", "16,64", "--corr-rho", "0.7",
            "--gram-source", "G", *RUN_ARGS, "--workers", "1"]
    plain, unit = tmp_path / "plain.csv", tmp_path / "unit.csv"
    assert main([*base, "--output", str(plain)]) == EXIT_OK
    assert main([*base, "--beta-min", "1", "--beta-max", "1", "--output", str(unit)]) == EXIT_OK
    assert unit.read_bytes() == plain.read_bytes()


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
