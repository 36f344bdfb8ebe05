"""Frozen output bytes of the figure presets.

Changing a hash here is a re-baseline: it must come with a reason why the
distribution of every statistic is unchanged. The bytes are exact for one
OpenBLAS kernel: the hashes were frozen with numpy's bundled OpenBLAS on its
SkylakeX kernel, and another kernel may move the last bit of a value.
"""

import csv
import ctypes
import glob
import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimo_converge
from mimo_converge.cli import EXIT_OK, main

RUN_ARGS = ["--trials", "3", "--seed", "42"]
FROZEN_CORE = "SkylakeX"

# fig1 to fig5 are uncorrelated, so their trials draw the K x K Bartlett
# factor. fig6 and fig7 draw the M x K channel in the eigenbasis of the
# correlation matrix R: an iid draw whose row m is scaled by the square root
# of R's m-th eigenvalue. Their hashes, and the four correlated non-preset
# ones, were re-baselined when that draw replaced the AR(1) colouring L Z:
# the Grams of the two draws share one law, and their frames (FRAME_SHA256)
# held.
GOLDEN_SHA256 = {
    "fig1": "e349e9b3df8b1d43e3230cabd3cf3eb382ecebfc0efa1610297f265fb7948b30",
    "fig2": "f485015dd90a01ccb233da15d71406f20a047f25f2fa81f7833d1e9b2eb4bbd5",
    "fig3": "ac38dc79c53dc5535b313d44776b596d2e38188a516156c2bb415cde9dc49f4f",
    "fig4": "66dc5aa75d91dc56cc8e558a82284ef43d819c433667901e86bd5df1de1fff62",
    "fig5": "d4cb0a82975770dea73641c1406f4ec82e3a1b708a7d94509efdd3ca93321464",
    "fig6": "28189060331678c3535cdd2eb0f9d61173890231e4ece204727ca0f8458fe999",
    "fig7": "f5cdc74ee654ce0ea8b76d735847fc76e2291214658ddd46236ac95eb9e5d167",
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
    "fixedK-corr-unequal-gramG": "aa792c5652cc889f78130caf49fe3e58a92d660fa0e20fad473bdef58e9c437a",
    "constant-gain-half": "9ae7cac2759fbdf316a2a0c71d731ee36b6ed24eaef4d4b42e2ee1157a0c823f",
    "fixed-alpha-spacing": "4b500b298ed18b8f031b87bfd27d5350691175a2f8161508d048d603cc3bc133",
    "fixedK-iid-all": "d5410a48a3e63cc53ac35b16f2f486c00acdf33142812d79aa1a0074d4f22c22",
    "fixedK-corr-all": "8c36f54f39499a93522dc661865a2ba7b0fa836517f87abab707e0171a4a0d24",
    "fixed-alpha-unequal-metrics-H": "b84f2425344e32c35f0f7cacebd5ffb3f11a8d8d1ad4e80a74ad0b41aa4839d6",
}

# The summary the CLI prints to stdout, without its final "wrote <path>" line:
# fig2 has no limits, fig5 prints a limit and a gap for ZF and the MF mean.
SUMMARY_SHA256 = {
    "fig2": "8404cd545c25862509f06df7de22b8f1094b158b54ddce7b121498f7d003e45a",
    "fig5": "1d854f58b652fc6c74e1610a8add83d8797d1cf38246d6f1841a36e91f7b1344",
}


# The correlated CSVs without their statistic cells: every column but mean,
# std, stderr and degenerate_trials. A change to the correlated draw moves
# only those cells, so these hashes hold across its re-baseline.
FRAME_DROPPED = ("mean", "std", "stderr", "degenerate_trials")
FRAME_SHA256 = {
    "fig6": "7fd1e897ab7288426c4cee930235933f64cd68dfdf75d3478c2cbb290fad9b18",
    "fig7": "610cdcf970be58372d0b5e9944b11455afba87546624341178e9ce578eb64542",
    "fixedK-corr-unequal-gramG": "77982bf0575d86f0a09383a00797e4d328870002a7aafc0ef3bcb7c5550be73e",
    "constant-gain-half": "c31c167e9a06614d4881d8cc59425c09101a2602b5dbffa4dab534855749b205",
    "fixed-alpha-spacing": "be46b71e0bf14b454426a397a825badb0408108758042e12d234621baf8be636",
    "fixedK-corr-all": "5abd007925b87e03e195aa4ccce00c3b98a28958be1de59424d9ec533fe55eed",
}


def _openblas_core() -> str:
    """Name of the kernel that numpy's bundled OpenBLAS runs on this CPU."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or not numpy's OpenBLAS
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _off_golden(what: str) -> str:
    return (f"{what} off the golden bytes, which were frozen on the OpenBLAS {FROZEN_CORE} "
            f"kernel; this host runs {_openblas_core()}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _frame_sha256(path: Path) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, column in enumerate(rows[0]) if column not in FRAME_DROPPED]
    frame = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(frame.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    """Runs a preset or non-preset scenario once per module; returns its CSV."""
    outputs = {}

    def run(name: str) -> Path:
        if name not in outputs:
            args = ["--preset", name] if name in GOLDEN_SHA256 else NON_PRESET_ARGS[name]
            out = tmp_path_factory.mktemp("golden") / f"{name}.csv"
            assert main([*args, *RUN_ARGS, "--workers", "1", "--output", str(out)]) == EXIT_OK
            outputs[name] = out
        return outputs[name]

    return run


@pytest.mark.parametrize("preset", sorted(GOLDEN_SHA256))
def test_preset_bytes_match_golden(preset, golden_csv):
    assert _sha256(golden_csv(preset)) == GOLDEN_SHA256[preset], _off_golden(preset)


@pytest.mark.parametrize("name", sorted(NON_PRESET_SHA256))
def test_non_preset_bytes_match_golden(name, golden_csv):
    assert _sha256(golden_csv(name)) == NON_PRESET_SHA256[name], _off_golden(name)


@pytest.mark.parametrize("name", sorted(FRAME_SHA256))
def test_correlated_frame_matches_golden(name, golden_csv):
    assert _frame_sha256(golden_csv(name)) == FRAME_SHA256[name], _off_golden(f"{name} frame")


@pytest.mark.parametrize("preset", sorted(SUMMARY_SHA256))
def test_preset_summary_matches_golden(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    code = main(["--preset", preset, *RUN_ARGS, "--workers", "1", "--output", str(out)])
    assert code == EXIT_OK
    *summary, wrote = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote == f"wrote {out}\n"
    summary_sha256 = hashlib.sha256("".join(summary).encode()).hexdigest()
    assert summary_sha256 == SUMMARY_SHA256[preset], _off_golden(f"{preset} summary")


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
    # fig5 runs the Bartlett factor (stacked zherk Grams, ZF from the
    # factor), fig6 the M x K draw (zherk Grams, ZF from the Cholesky factor).
    mismatches = []
    for preset in ("fig5", "fig6"):
        for threads in (None, "1", "2"):
            run_env = dict(env) if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            for workers in ("1", "2"):
                out = tmp_path / f"{preset}_{threads}_{workers}.csv"
                subprocess.run(
                    [sys.executable, "-c", "from mimo_converge.cli import console_main; console_main()",
                     "--preset", preset, *RUN_ARGS, "--workers", workers, "--output", str(out)],
                    env=run_env, check=True, capture_output=True, timeout=300,
                )
                if _sha256(out) != GOLDEN_SHA256[preset]:
                    mismatches.append((preset, threads, workers))
    assert not mismatches, _off_golden(f"(preset, OPENBLAS_NUM_THREADS, --workers) {mismatches}")


# Kernels that OPENBLAS_CORETYPE forces in place of the one OpenBLAS picks:
# the AVX2 kernel and a pre-AVX one. Their bytes differ from the golden
# ones, but every number agrees to about 1e-12 relative: the 12 printed
# digits move by one in the last place at most.
CROSS_KERNELS = ("Haswell", "Prescott")
CROSS_KERNEL_RTOL = 1e-10


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX2"))


def _cells_agree(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=CROSS_KERNEL_RTOL, abs_tol=0.0)
    except ValueError:  # a text cell that differs
        return False


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _has_avx2(),
    reason="OPENBLAS_CORETYPE names x86-64 kernels, and the Haswell one needs AVX2",
)
def test_cells_agree_across_openblas_kernels(tmp_path, golden_csv):
    # OpenBLAS reads OPENBLAS_CORETYPE only when it loads, so every kernel
    # needs a fresh interpreter.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(mimo_converge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    presets = sorted(GOLDEN_SHA256)
    script = (
        "import sys\n"
        "from mimo_converge.cli import main\n"
        "for name in sys.argv[2:]:\n"
        f"    args = ['--preset', name, *{RUN_ARGS!r}, '--workers', '1']\n"
        "    assert main([*args, '--output', f'{sys.argv[1]}/{name}.csv']) == 0\n"
    )
    mismatches = []
    for kernel in CROSS_KERNELS:
        out = tmp_path / kernel
        out.mkdir()
        subprocess.run([sys.executable, "-c", script, str(out), *presets],
                       env={**env, "OPENBLAS_CORETYPE": kernel},
                       check=True, capture_output=True, timeout=300)
        for preset in presets:
            with open(golden_csv(preset), newline="") as fh:
                default = list(csv.reader(fh))
            with open(out / f"{preset}.csv", newline="") as fh:
                forced = list(csv.reader(fh))
            assert len(forced) == len(default), (kernel, preset)
            for row, (a_row, b_row) in enumerate(zip(default, forced)):
                assert len(a_row) == len(b_row), (kernel, preset, row)
                mismatches += [(kernel, preset, row, a, b)
                               for a, b in zip(a_row, b_row) if not _cells_agree(a, b)]
    assert not mismatches, mismatches[:10]
