"""One benchmark operation in a fresh process: a single mimo-converge CLI run.

Usage:
    python3 perfbench/child.py [--trace] -- CLI-ARGS...
    python3 perfbench/child.py --probe

It imports ``mimo_converge`` from ``src/`` next to this directory, times the import plus
``cli.parse_config`` (set-up), then one ``cli.main`` call (wall), and prints
one JSON object as the last line of standard output. ``--trace`` wraps the
package's layers first (see tracer.py) and adds their spans. ``--probe``
runs no CLI: it compiles the package's bytecode and reports the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _openblas_libraries(packages) -> list[dict]:
    """The OpenBLAS builds bundled with the packages, with their thread counts.

    The count is read through each library's own getter; nothing is set.
    """
    found = []
    for package in packages:
        libs_dir = os.path.dirname(package.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            threads = None
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
            found.append({"library": f"{os.path.basename(libs_dir)}/{os.path.basename(path)}",
                          "threads": threads})
    return found


def _machine() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_libraries((numpy, scipy)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()
    src = os.path.realpath(SRC)
    sys.path.insert(0, src)

    start = time.perf_counter()
    import mimo_converge
    from mimo_converge import cli

    if not os.path.realpath(mimo_converge.__file__).startswith(src + os.sep):
        print(f"mimo_converge was imported from {mimo_converge.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"machine": _machine()}))
        return 0
    cli.parse_config(args.cli_args)
    setup_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(args.cli_args)
    wall_s = time.perf_counter() - start

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "csv_columns": cli.CSV_COLUMNS,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["harness_self_s"] = tracer.harness_self_s()
        result["sites_missing"] = tracer.sites_missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
