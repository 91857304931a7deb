#!/usr/bin/env python3
"""springswim benchmark: one workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 35 --trace 0

Workloads: design_sweep, fem_convergence, cli_artifacts (see bench/README.md).
With --trace 0 the run times untraced passes and reports the end-to-end
metrics; with --trace 1 it times untraced passes for half of --seconds and
traced passes for the other half, and reports the per-layer metrics. Both
check every output against the oracles in bench/oracles.py after timing.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Results with their
provenance, and the spans of a traced run, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict

from common import RESULTS, ROOT, THREAD_ENV, MissingProgram, child_env, import_package, median

WORKLOAD_NAMES = ("design_sweep", "fem_convergence", "cli_artifacts")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MIN_PASSES = 2

#: name -> (unit, better). End-to-end metrics, emitted with --trace 0 on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ops_frac": ("ratio", "higher"),
}
#: Workload-specific throughputs: printed with --trace 0, emitted with --trace 1 (0 where not run).
RATES = {
    "stroke_evals_per_s": ("1/s", "higher"),
    "optimize_s": ("s", "lower"),
    "cn_steps_per_s": ("1/s", "higher"),
    "csv_mb_per_s": ("MB/s", "higher"),
}
LAYERS = (
    ("model.params_for_k_omega", ("calls", "self_s")),
    ("analytic.build_discrete_mode", ("calls", "self_s", "errors")),
    ("analytic.node_amplitudes", ("calls", "self_s")),
    ("analytic.build_continuous_mode", ("calls", "self_s")),
    ("displacement.instantaneous_v1", ("calls", "self_s")),
    (
        "displacement.stroke_displacement_discrete",
        ("calls", "self_s", "cells", "ns_per_cell", "computed_mb", "peak_alloc_mb"),
    ),
    ("displacement.sweep", ("calls", "self_s", "points", "failed_points")),
    ("displacement.optimize_k_omega", ("calls", "self_s", "objective_evals")),
    ("fem.assemble", ("calls", "self_s")),
    ("fem.harmonic_state", ("calls", "self_s")),
    ("fem.CrankNicolson.init", ("calls", "self_s")),
    ("fem.CrankNicolson.step", ("calls", "self_s", "us_per_step")),
    ("fem.solve_transient", ("calls", "self_s", "steps")),
    ("metrics.convergence_study", ("calls", "self_s")),
    ("metrics.error_vs_analytic", ("calls", "self_s")),
    ("metrics.fit_rate", ("calls", "self_s")),
)
FIELDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "cells": ("count", "lower"),
    "ns_per_cell": ("ns", "lower"),
    "computed_mb": ("MB-computed", "lower"),
    "peak_alloc_mb": ("MB", "lower"),
    "points": ("count", "higher"),
    "failed_points": ("count", "lower"),
    "objective_evals": ("count", "lower"),
    "us_per_step": ("us", "lower"),
    "steps": ("count", "lower"),
}
CLI_LABELS = ("simulate", "simulate_lumped", "analytic", "converge", "optimize", "sweep")
CLI_FIELDS = {
    "wall_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "csv_bytes": ("bytes", "lower"),
    "csv_rows": ("count", "lower"),
    "exit_code": ("code", "lower"),
}


def per_layer_units() -> dict:
    """name -> (unit, better) for every metric emitted with --trace 1."""
    units = {
        "springswim.import_s": ("s", "lower"),
        "springswim.import_scipy_linalg_s": ("s", "lower"),
    }
    for name, fields in LAYERS:
        units.update({f"{name}.{field}": FIELDS[field] for field in fields})
    for label in CLI_LABELS:
        units.update({f"cli.{label}.{field}": unit for field, unit in CLI_FIELDS.items()})
    units.update(RATES)
    units["failed_ops_frac"] = ("ratio", "lower")
    units["trace_overhead_s"] = ("s", "lower")
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (used by bench/smoke.py)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_passes(workload, deadline: float, minimum: int, tracer=None, first_run_id: int = 0, between=None):
    """At least minimum passes; then another only while one as long as the last ends by the deadline.

    between, if given, is called after each pass, outside the pass's timing.
    """
    passes, last = [], 0.0
    while len(passes) < minimum or time.perf_counter() + last <= deadline:
        run_id = first_run_id + len(passes)
        began = time.perf_counter()
        passes.append(workload.run_pass() if tracer is None else workload.traced_pass(tracer, run_id))
        last = time.perf_counter() - began
        if between is not None:
            between()
    return passes


def setup_sample(args) -> float:
    """Fresh interpreter to ready-to-time (import, input generation, warm-up), in seconds."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-probe", *(["--smoke"] if args.smoke else []),
    ]
    began = time.perf_counter()
    subprocess.run(command, cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - began


def import_times() -> tuple[float, float]:
    """Median cumulative import time of springswim and of scipy (+ scipy.linalg), from -X importtime."""
    totals, linalg = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import springswim"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        totals.append(cumulative["springswim"])
        linalg.append(cumulative.get("scipy", 0.0) + cumulative.get("scipy.linalg", 0.0))
    return median(totals), median(linalg)


def tally(ops: list[dict], passes) -> tuple[int, int, int]:
    """(attempted, failed, unexpected), counting each distinct operation once.

    An operation fails if it missed its oracle or if any later pass did not
    reproduce the first pass's output. The counts depend on the seed only,
    not on how many passes fit in --seconds.
    """
    failed = unexpected = 0
    for i, op in enumerate(ops):
        if any(p.keys[i] != passes[0].keys[i] for p in passes[1:]):
            op["ok"], op["known"] = False, False
            op["why"] = "a later pass did not reproduce the first pass's output"
        if not op["ok"]:
            failed += 1
            unexpected += not op.get("known", False)
    return len(ops), failed, unexpected


def best_pass_s(passes) -> float:
    """Sum over a pass's timed calls of each call's shortest wall time over the passes.

    Other work on a shared machine only ever lengthens a call, so each
    call's fastest repeat is its cost with the least interference, and
    their sum is the time of one such pass.
    """
    return sum(min(p.op_walls[label] for p in passes) for label in passes[0].op_walls)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def layer_field(totals: dict, name: str, field: str) -> float:
    entry = totals.get(name)
    if entry is None:
        return 0
    if field == "ns_per_cell":
        return entry["self_s"] / entry["cells"] * 1e9 if entry.get("cells") else 0.0
    if field == "computed_mb":
        return entry.get("cells", 0) * 8 / 1e6
    if field == "peak_alloc_mb":
        return entry.get("peak_alloc_bytes", 0) / 1e6
    if field == "us_per_step":
        return entry["self_s"] / entry["calls"] * 1e6
    if field == "objective_evals":
        return entry["children"].get("displacement.stroke_displacement_discrete", 0)
    if field == "steps":
        return entry["children"].get("fem.CrankNicolson.step", 0)
    return entry.get(field, 0)


def per_layer_metrics(workload, totals: dict, untraced, traced, rates: dict, failed_frac: float) -> dict:
    """Per-layer values: medians over the traced passes of the per-pass span totals."""
    runs = [totals.get(run_id, {}) for run_id in range(len(untraced), len(untraced) + len(traced))]
    values = {}
    for name, fields in LAYERS:
        for field in fields:
            values[f"{name}.{field}"] = median(layer_field(run, name, field) for run in runs)
    for label in CLI_LABELS:
        for field in CLI_FIELDS:
            values[f"cli.{label}.{field}"] = 0
    if workload.name == "cli_artifacts":
        for label in CLI_LABELS:
            values[f"cli.{label}.wall_s"] = median(p.timings[f"{label}.wall_s"] for p in untraced)
            values[f"cli.{label}.self_s"] = median(p.timings.get(f"{label}.self_s", 0.0) for p in traced)
            values[f"cli.{label}.csv_bytes"] = untraced[0].timings[f"{label}.csv_bytes"]
            values[f"cli.{label}.csv_rows"] = workload.csv_rows(label)
            values[f"cli.{label}.exit_code"] = max(p.timings[f"{label}.exit_code"] for p in untraced + traced)
    values["springswim.import_s"], values["springswim.import_scipy_linalg_s"] = import_times()
    values.update(dict.fromkeys(RATES, 0.0))
    values.update(rates)
    values["failed_ops_frac"] = failed_frac
    values["trace_overhead_s"] = median(p.wall for p in traced) - median(p.wall for p in untraced)
    return values


def provenance(args, workload, sizes) -> dict:
    import numpy
    import scipy
    import springswim

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "springswim": springswim.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": asdict(sizes),
        "inputs": workload.inputs(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        workloads.WORKLOADS[args.workload](args.seed, sizes, RESULTS / "setup_probe").warm_up()
        return 0

    setup = []
    import tracing
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = RESULTS / (args.workload + ("-smoke" if args.smoke else ""))
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
    workload.warm_up()

    tracer = None
    start = time.perf_counter()
    if args.trace:
        untraced = run_passes(workload, start + args.seconds / 2, 1)
        tracer = tracing.Tracer()
        traced = run_passes(workload, start + args.seconds, 1, tracer, len(untraced))
        passes = untraced + traced
    else:
        # set-up samples are spread between the passes, so their median sees the
        # same stretch of the machine's load as the passes do
        def sample_setup():
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(args))

        passes = untraced = run_passes(workload, start + args.seconds, MIN_PASSES, between=sample_setup)
        while len(setup) < SETUP_SAMPLES:
            sample_setup()
        traced = []
        rss = peak_rss_mb(workload)

    ops = workload.check(passes[0])
    attempted, failed, unexpected = tally(ops, passes)
    rates = workload.rates(untraced)
    if args.trace:
        totals = tracing.layer_totals(tracer.to_json())
        metrics = per_layer_metrics(workload, totals, untraced, traced, rates, failed / attempted)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": median(setup),
            "run_s": best_pass_s(passes),
            "peak_rss_mb": rss,
            "ok_ops_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {units[name][0]}")
    if not args.trace:
        print(f"  {'failed_ops_frac':<52} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} ops)")
        for name, (unit, _) in RATES.items():
            shown = f"{rates[name]:>16.6g} {unit}" if name in rates else f"{'n/a':>16} (not on this workload)"
            print(f"  {name:<52} {shown}")
    misses = [op for op in ops if not op["ok"]]
    for op in misses:
        print(f"  miss{' (tracked defect)' if op.get('known') else ''}: {json.dumps(op)}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-trace{args.trace}"
    record = {
        "provenance": provenance(args, workload, sizes),
        "pass_walls_s": [p.wall for p in passes],
        "op_walls_s": [p.op_walls for p in passes],
        "pass_timings": [p.timings for p in passes],
        "traced_passes": len(traced),
        "setup_samples_s": setup,
        "rates": rates,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json")

    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
