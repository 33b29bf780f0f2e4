"""Locate the checkout's own `etdkf` sources and describe the machine.

The benchmark measures the package in `<checkout>/src`, never an installed
copy: without that directory it exits with a non-zero code before measuring.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: the filter works on 2x2 blocks, where pool threads only add
# start-up time and scheduling noise on a small shared machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment for child interpreters: same sources, same BLAS setting."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> None:
    """Pin BLAS threads and import `etdkf` from `src/`; exit if it is absent."""
    if not (SRC / "etdkf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no etdkf sources under {SRC}")
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import etdkf

    if Path(etdkf.__file__).resolve().parent != SRC / "etdkf":
        sys.exit(f"perfbench: imported etdkf from {etdkf.__file__}, not {SRC}")


def describe() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }
