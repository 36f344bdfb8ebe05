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

# fig1 to fig5 are uncorrelated, so their trials draw the K x K Bartlett
# factor; fig6 and fig7 draw and colour the M x K channel.
GOLDEN_SHA256 = {
    "fig1": "e349e9b3df8b1d43e3230cabd3cf3eb382ecebfc0efa1610297f265fb7948b30",
    "fig2": "f485015dd90a01ccb233da15d71406f20a047f25f2fa81f7833d1e9b2eb4bbd5",
    "fig3": "ac38dc79c53dc5535b313d44776b596d2e38188a516156c2bb415cde9dc49f4f",
    "fig4": "66dc5aa75d91dc56cc8e558a82284ef43d819c433667901e86bd5df1de1fff62",
    "fig5": "d4cb0a82975770dea73641c1406f4ec82e3a1b708a7d94509efdd3ca93321464",
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
    # Gram branches no other hash covers: all statistics at equal powers,
    # iid and correlated, and the metrics alone on the Gram of H under
    # unequal gains.
    "fixedK-iid-all": ["--mode", "fixed-K", "--K", "8", "--M", "16,64,256"],
    "fixedK-corr-all": ["--mode", "fixed-K", "--K", "8", "--M", "16,64,256", "--corr-rho", "0.5"],
    "fixed-alpha-unequal-metrics-H": [
        "--mode", "fixed-alpha", "--alpha", "4", "--K", "2,6", "--stats", "metrics",
        "--beta-min", "0.2", "--beta-max", "0.8"],
}

NON_PRESET_SHA256 = {
    "fixedK-corr-unequal-gramG": "54d5d0022f6e97730cb0039369ce6d56d73aabfbc655594cc33c7e6db8d7e2c5",
    "constant-gain-half": "88fad71733069255c8a3f5b69102e0ffec4eee09406c1ff5c7478bc291206779",
    "fixed-alpha-spacing": "2cefb15b18ae5243e32aad04c0886562ebc0908bf98fd823f0619d649bcb6971",
    "fixedK-iid-all": "d5410a48a3e63cc53ac35b16f2f486c00acdf33142812d79aa1a0074d4f22c22",
    "fixedK-corr-all": "857d824351d57e097fc5d19ea4c583a6a7846a42b9e817f4d17541858bca3a8e",
    "fixed-alpha-unequal-metrics-H": "b84f2425344e32c35f0f7cacebd5ffb3f11a8d8d1ad4e80a74ad0b41aa4839d6",
}

# The summary the CLI prints to stdout, without its final "wrote <path>" line:
# fig2 has no limits, fig5 prints a limit and a gap for ZF and the MF mean.
SUMMARY_SHA256 = {
    "fig2": "8404cd545c25862509f06df7de22b8f1094b158b54ddce7b121498f7d003e45a",
    "fig5": "1d854f58b652fc6c74e1610a8add83d8797d1cf38246d6f1841a36e91f7b1344",
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


@pytest.mark.parametrize("preset", sorted(SUMMARY_SHA256))
def test_preset_summary_matches_golden(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    code = main(["--preset", preset, *RUN_ARGS, "--workers", "1", "--output", str(out)])
    assert code == EXIT_OK
    *summary, wrote = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote == f"wrote {out}\n"
    assert hashlib.sha256("".join(summary).encode()).hexdigest() == SUMMARY_SHA256[preset]


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
