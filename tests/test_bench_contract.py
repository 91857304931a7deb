"""The benchmark's calls into the package still work: a tiny traced design_sweep run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_design_sweep_smoke_run():
    # bench/workloads.py passes m_quad positionally and bench/tracing.py reads
    # StrokeResult.quadrature_points; removing either breaks this run
    result = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "design_sweep", "--seed", "1",
            "--seconds", "1", "--trace", "1", "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    cells = summary["metrics"]["displacement.stroke_displacement_discrete.cells"]["value"]
    assert cells > 0
