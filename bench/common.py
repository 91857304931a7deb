"""Paths, the pinned thread environment and the package import shared by the benchmark scripts."""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

#: Every workload runs single-threaded: BLAS/OpenMP pools are pinned to one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)


class MissingProgram(RuntimeError):
    """The checkout holds no springswim sources to benchmark."""


def import_package():
    """Import springswim from this checkout's src/, never from an installed copy."""
    init = SRC / "springswim" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no springswim sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import springswim

    if Path(springswim.__file__).resolve() != init.resolve():
        raise MissingProgram(f"springswim imported from {springswim.__file__}, not from src/")
    return springswim


def child_env() -> dict:
    """Environment for springswim subprocesses: pinned threads, src/ first on the path."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
