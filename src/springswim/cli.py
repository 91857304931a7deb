"""Command-line front end writing deterministic CSV/JSON artifacts.

Subcommands: simulate (stroke time series and sphere positions),
converge (error tables with fitted slopes), sweep (displacement along a
parameter axis), optimize (best k_omega), analytic (closed-form node
values). Output is data only; plotting is left to external tools.
Identical inputs give byte-identical files: floats are printed with 17
significant digits, CSV uses '.' decimals, ',' separators and LF line
endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analytic import build_discrete_mode
from .displacement import instantaneous_v1, optimize_k_omega, sweep
from .fem import MassVariant, assemble, solve_transient
from .metrics import RateEstimate, convergence_study, fit_rate
from .model import Forcing, SwimmerParams, config_from_mapping, load_config


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(value) for value in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args) -> tuple[SwimmerParams, Forcing]:
    if args.config is None:
        return config_from_mapping({})
    return load_config(args.config)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _positions(params: SwimmerParams, forcing: Forcing, times: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Sphere positions per sample row; the head starts at the origin.

    The head position integrates its velocity with the trapezoid rule on
    the sample grid; every other sphere hangs off the head by the active
    arm plus the cumulative spring lengths.
    """
    n = params.n_springs
    v1 = instantaneous_v1(params, forcing, ell, times)
    x1 = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times) * (v1[:-1] + v1[1:]))])
    arm = np.asarray(forcing.arm_length(times))
    lengths = ell[:, :n] / n + params.h
    tail = x1[:, None] - arm[:, None] - np.cumsum(lengths, axis=1)
    return np.column_stack([x1, x1 - arm, tail])


def cmd_simulate(args) -> list[Path]:
    params, forcing = _load(args)
    out = _out_dir(args)
    t_end = forcing.period if args.t_end is None else args.t_end
    if not t_end > 0:
        raise ValueError(f"t-end must be positive, got {t_end!r}")

    if args.scheme == "analytic":
        times = np.linspace(0.0, t_end, args.samples + 1)
        ell = build_discrete_mode(params, forcing).node_values(times)
        ell[:, -1] = 0.0
    else:
        system = assemble(params, forcing, MassVariant(args.scheme))
        dt = t_end / 1024 if args.dt is None else args.dt
        nsteps = round(t_end / dt)
        if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * t_end:
            raise ValueError(f"dt={dt!r} must divide t-end={t_end!r}")
        if nsteps % args.samples != 0:
            raise ValueError(
                f"samples={args.samples} must divide the {nsteps} time steps; adjust --samples or --dt"
            )
        trajectory = solve_transient(system, None, t_end, dt, sample_every=nsteps // args.samples)
        times = trajectory.times
        ell = trajectory.values

    nodes = np.arange(params.n_springs + 1) * params.h
    elong_path = out / "elongations.csv"
    _write_csv(
        elong_path,
        ["t"] + [_fmt(node) for node in nodes],
        (np.concatenate([[t], row]) for t, row in zip(times, ell)),
    )
    positions = _positions(params, forcing, times, ell)
    pos_path = out / "positions.csv"
    _write_csv(
        pos_path,
        ["t"] + [f"x{j}" for j in range(1, params.n_springs + 3)],
        (np.concatenate([[t], row]) for t, row in zip(times, positions)),
    )
    return [elong_path, pos_path]


def _rate_payload(estimate: RateEstimate) -> dict:
    payload = {
        "slope": estimate.slope,
        "intercept": estimate.intercept,
        "r_squared": estimate.r_squared,
        "n_points": estimate.n_points,
    }
    if estimate.refit is not None:
        payload["refit"] = _rate_payload(estimate.refit)
    return payload


def cmd_converge(args) -> list[Path]:
    params, forcing = _load(args)
    out = _out_dir(args)
    n_list = [int(piece) for piece in args.n_list.split(",")]
    if len(n_list) < 3:
        raise ValueError("n-list needs at least 3 entries for a rate fit")
    variant = MassVariant(args.scheme)
    records = convergence_study(
        params, forcing, variant, n_list, steps_per_period=args.steps_per_period
    )
    csv_path = out / f"convergence_{args.scheme}.csv"
    _write_csv(
        csv_path,
        ["n", "h", "l2_error", "h1_error"],
        ([record.n, params.Lambda / record.n, record.l2_error, record.h1_error] for record in records),
    )
    json_path = out / f"convergence_{args.scheme}.json"
    _write_json(
        json_path,
        {
            "scheme": args.scheme,
            "n": n_list,
            "steps_per_period": args.steps_per_period if variant is not MassVariant.NSPRING else None,
            "l2": _rate_payload(fit_rate(records, "l2")),
            "h1": _rate_payload(fit_rate(records, "h1")),
        },
    )
    return [csv_path, json_path]


def cmd_sweep(args) -> list[Path]:
    params, forcing = _load(args)
    out = _out_dir(args)
    if not args.points >= 1:
        raise ValueError(f"points must be >= 1, got {args.points}")
    if args.log:
        if not (args.start > 0 and args.stop > 0):
            raise ValueError("log spacing needs positive endpoints")
        values = np.logspace(math.log10(args.start), math.log10(args.stop), args.points)
    else:
        values = np.linspace(args.start, args.stop, args.points)
    table = sweep(params, forcing, args.axis, values)
    displacements = table.displacements()

    csv_path = out / f"sweep_{args.axis}.csv"
    _write_csv(csv_path, ["parameter", "displacement_m"], zip(table.values, displacements))

    payload = {
        "axis": table.axis,
        "n": params.n_springs,
        "omega": forcing.omega,
        "params": asdict(params),
        "values": list(table.values),
        "displacements": [None if math.isnan(d) else float(d) for d in displacements],
        "failures": list(table.failures),
    }
    if table.axis == "k_omega":
        payload["eps_tilde"] = forcing.eps_tilde
        best = table.argbest()
        payload["peak"] = {
            "k_omega": table.values[best],
            "displacement_m": float(displacements[best]),
        }
    else:
        ok = [
            (v, abs(d))
            for v, d in zip(table.values, displacements)
            if v > 0 and math.isfinite(d) and d != 0.0
        ]
        if len(ok) >= 2:
            slope = float(
                np.polyfit(np.log([v for v, _ in ok]), np.log([m for _, m in ok]), 1)[0]
            )
        else:
            slope = None
        payload["log_log_slope"] = slope
    json_path = out / f"sweep_{args.axis}.json"
    _write_json(json_path, payload)
    return [csv_path, json_path]


def cmd_optimize(args) -> list[Path]:
    params, forcing = _load(args)
    out = _out_dir(args)
    result = optimize_k_omega(params, forcing, bracket=tuple(args.bracket), rel_tol=args.rel_tol)
    path = out / "optimize.json"
    _write_json(
        path,
        {
            "k_omega_opt": result.k_omega_opt,
            "k_tilde_equiv": result.k_tilde_equiv,
            "displacement_m": result.displacement,
            "iterations": result.iterations,
        },
    )
    return [path]


def cmd_analytic(args) -> list[Path]:
    params, forcing = _load(args)
    out = _out_dir(args)
    mode = build_discrete_mode(params, forcing)
    times = np.linspace(0.0, forcing.period, args.samples + 1)
    ell = mode.node_values(times)
    nodes = np.arange(params.n_springs + 1) * params.h
    csv_path = out / "analytic.csv"
    _write_csv(
        csv_path,
        ["t"] + [_fmt(node) for node in nodes],
        (np.concatenate([[t], row]) for t, row in zip(times, ell)),
    )

    def pair(z: complex) -> list[float]:
        return [z.real, z.imag]

    json_path = out / "analytic.json"
    _write_json(
        json_path,
        {
            "n": mode.n,
            "k_omega": mode.k_omega,
            "omega": mode.omega,
            "gamma_plus": pair(mode.gamma_plus),
            "gamma_minus": pair(mode.gamma_minus),
            "delta": pair(mode.delta),
            "z_d": pair(mode.z_d),
            "b_d": pair(mode.b_d),
            "alpha_d": pair(mode.alpha_d),
            "beta_d": pair(mode.beta_d),
        },
    )
    return [csv_path, json_path]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are single-line and machine-parsable."""

    def error(self, message: str) -> None:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON parameter file")
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")
    common.add_argument(
        "--seed", type=int, default=None, help="reserved; all computations are deterministic"
    )

    parser = _Parser(prog="springswim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", parents=[common], help="stroke time series and positions")
    p.add_argument(
        "--scheme",
        choices=["analytic", "nspring", "lumped", "galerkin"],
        default="analytic",
        help="closed-form periodic mode or a time-stepped mass variant",
    )
    p.add_argument("--samples", type=int, default=200, help="sample rows after t=0")
    p.add_argument("--t-end", type=float, default=None, help="default: one period")
    p.add_argument("--dt", type=float, default=None, help="time step for stepped schemes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", parents=[common], help="error table and fitted slopes")
    p.add_argument("--scheme", choices=["nspring", "lumped", "galerkin"], default="nspring")
    p.add_argument("--n-list", default="25,50,100,200,400,800", help="comma-separated grid sizes")
    p.add_argument("--steps-per-period", type=int, default=16384)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("sweep", parents=[common], help="displacement along one parameter axis")
    p.add_argument("--axis", choices=["eps_tilde", "k_omega"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic spacing")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", parents=[common], help="maximize |displacement| over k_omega")
    p.add_argument("--bracket", nargs=2, type=float, default=[1e-2, 1e2], metavar=("LO", "HI"))
    p.add_argument("--rel-tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("analytic", parents=[common], help="closed-form node values on a time grid")
    p.add_argument("--samples", type=int, default=200, help="sample rows after t=0")
    p.set_defaults(func=cmd_analytic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = args.func(args)
    except Exception as exc:  # single-line diagnostics, nonzero exit
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
