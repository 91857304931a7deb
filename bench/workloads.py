"""The three benchmark workloads: seeded inputs, one timed pass, and the checks of its outputs.

Every workload is a closed loop: one caller issues the next call after the
previous one returns. A pass returns one key per operation; a later pass
whose key differs from the first pass's did not reproduce its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from springswim import analytic, displacement, fem, metrics, model

import oracles
import tracing
from common import ROOT, child_env, median

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
#: A CLI call that takes this long has hung; the slowest one takes about 3 s.
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE the fast check."""

    n: int
    m_quad: int
    k_points: int
    eps_points: int
    conv_n: tuple[int, ...]
    steps_per_period: int
    cli_n: int
    cli_sweep_n: int
    cli_sweep_points: int
    cli_lumped_samples: int = 128


FULL = Sizes(
    n=2000, m_quad=256, k_points=80, eps_points=10, conv_n=(25, 50, 100, 200, 400, 800),
    steps_per_period=16384, cli_n=2000, cli_sweep_n=50000, cli_sweep_points=3,
)
SMOKE = Sizes(
    n=60, m_quad=256, k_points=6, eps_points=3, conv_n=(16, 32, 64, 128),
    steps_per_period=2048, cli_n=60, cli_sweep_n=600, cli_sweep_points=2,
)


@dataclass
class Pass:
    wall: float  # seconds timed for the whole pass
    keys: list[str]  # one per operation; equal keys mean identical outputs
    timings: dict  # named sub-measurements of the pass
    op_walls: dict  # seconds per timed call, by a label that is the same in every pass
    data: object = None  # outputs kept for the checks


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of count equal strata of [lo, hi), in increasing order."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def attempt(fn, *args, **kwargs):
    """(result, None), or (None, message) when the call raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # a raised call is a failed operation, not a benchmark crash
        return None, f"{type(exc).__name__}: {exc}"


def k_omega_of(params, forcing) -> float:
    return params.k_tilde / (6.0 * math.pi * params.mu * params.a_tilde) / forcing.omega


class LibraryWorkload:
    """A workload that calls the library in this process."""

    in_children = False

    def traced_pass(self, tracer: tracing.Tracer, run_id: int) -> Pass:
        tracer.run_id = run_id
        with tracing.installed(tracer):
            return self.run_pass()


class DesignSweep(LibraryWorkload):
    """Stroke displacement over k_omega and eps_tilde, then the optimal k_omega."""

    name = "design_sweep"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        rng = random.Random(seed)
        self.sizes = sizes
        self.params, self.forcing = model.config_from_mapping({"n_springs": sizes.n})
        self.k_omegas = [10.0**u for u in stratified(rng, -8.0, 8.0, sizes.k_points)]
        self.eps_values = stratified(rng, 0.0, 0.999, sizes.eps_points)
        # eps_tilde = 0 has no stroke, hence no optimum; draw the optimizer's amplitude inside.
        self.opt_forcing = replace(self.forcing, eps_tilde=rng.uniform(0.1, 0.9))

    def inputs(self) -> dict:
        return {
            "n": self.sizes.n, "m_quad": self.sizes.m_quad, "k_omega": self.k_omegas,
            "eps_tilde": self.eps_values, "optimize_eps_tilde": self.opt_forcing.eps_tilde,
        }

    def warm_up(self) -> None:
        mode = analytic.build_discrete_mode(self.params, self.forcing)
        displacement.stroke_displacement_discrete(self.params, self.forcing, mode, self.sizes.m_quad)

    def run_pass(self) -> Pass:
        m = self.sizes.m_quad
        start = time.perf_counter()
        ktab, kerr = attempt(displacement.sweep, self.params, self.forcing, "k_omega", self.k_omegas, m)
        swept = time.perf_counter()
        etab, eerr = attempt(displacement.sweep, self.params, self.forcing, "eps_tilde", self.eps_values, m)
        mid = time.perf_counter()
        opt, oerr = attempt(displacement.optimize_k_omega, self.params, self.opt_forcing, rel_tol=1e-4, m_quad=m)
        end = time.perf_counter()

        keys = []
        for table, err, count in ((ktab, kerr, len(self.k_omegas)), (etab, eerr, len(self.eps_values))):
            if table is None:
                keys += [err] * count
            else:
                keys += [repr(r.displacement) if r else f for r, f in zip(table.results, table.failures)]
        keys.append(oerr if opt is None else repr((opt.k_omega_opt, opt.displacement, opt.iterations)))
        evals = len(self.k_omegas) + len(self.eps_values) + (opt.iterations + 3 if opt else 0)
        return Pass(
            wall=end - start, keys=keys,
            timings={"optimize_s": end - mid, "stroke_evals": evals},
            op_walls={"sweep_k_omega": swept - start, "sweep_eps_tilde": mid - swept, "optimize": end - mid},
            data=(ktab, etab, opt),
        )

    def rates(self, passes: list[Pass]) -> dict:
        return {
            "stroke_evals_per_s": median(p.timings["stroke_evals"] / p.wall for p in passes),
            "optimize_s": median(p.timings["optimize_s"] for p in passes),
        }

    def check(self, first: Pass) -> list[dict]:
        ktab, etab, opt = first.data
        ops = []
        base_k = k_omega_of(self.params, self.forcing)
        points = [(v, self.forcing.eps_tilde, ktab, i) for i, v in enumerate(self.k_omegas)]
        points += [(base_k, e, etab, i) for i, e in enumerate(self.eps_values)]
        for k_omega, eps, table, i in points:
            value = None if table is None or table.results[i] is None else table.results[i].displacement
            forcing = replace(self.forcing, eps_tilde=eps)
            reference = oracles.banded_displacement(oracles.with_k_omega(self.params, forcing, k_omega), forcing)
            verdict = oracles.stroke_verdict(value, reference, k_omega, eps)
            ops.append({"op": f"stroke k_omega={k_omega:.6g} eps_tilde={eps:.6g}", **verdict})
        if opt is None:
            ops.append({"op": "optimize", "ok": False, "why": first.keys[-1]})
        else:
            reference = oracles.oracle_optimum(self.params, self.opt_forcing)
            gap = abs(math.log(opt.k_omega_opt / reference))
            ops.append({
                "op": "optimize", "ok": gap <= oracles.OPT_TOL_LN, "k_omega_opt": opt.k_omega_opt,
                "oracle_k_omega_opt": reference, "ln_gap": gap,
            })
        return ops


class FemConvergence(LibraryWorkload):
    """Convergence studies and fitted orders of the three mass variants."""

    name = "fem_convergence"
    SCHEMES = (fem.MassVariant.TRAPEZOID, fem.MassVariant.CONSISTENT, fem.MassVariant.NSPRING)
    WINDOWS = {
        ("nspring", "l2"): (0.85, 1.15),
        ("nspring", "h1"): (0.85, 1.15),
        ("lumped", "l2"): (1.8, 2.2),
        ("galerkin", "l2"): (1.8, 2.2),
    }

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        rng = random.Random(seed)
        self.sizes = sizes
        params, forcing = model.config_from_mapping({})
        # the problem is linear: eps_tilde scales every error and leaves the orders alone
        self.params, self.forcing = params, replace(forcing, eps_tilde=rng.uniform(0.1, 0.9))

    def inputs(self) -> dict:
        return {
            "n_list": list(self.sizes.conv_n), "steps_per_period": self.sizes.steps_per_period,
            "eps_tilde": self.forcing.eps_tilde,
        }

    def warm_up(self) -> None:
        metrics.convergence_study(self.params, self.forcing, fem.MassVariant.CONSISTENT, [4, 8], 64)

    def run_pass(self) -> Pass:
        keys, data, walls = [], {}, {}
        start = time.perf_counter()
        for variant in self.SCHEMES:
            # one study per N: the records are those of one study over the whole list,
            # and each N is timed on its own
            records, err = [], None
            for n in self.sizes.conv_n:
                began = time.perf_counter()
                found, err = attempt(
                    metrics.convergence_study, self.params, self.forcing, variant, [n], self.sizes.steps_per_period,
                )
                walls[f"{variant.value}.n{n}"] = time.perf_counter() - began
                if found is None:
                    records = None
                    break
                records += found
            for norm in ("l2", "h1"):
                began = time.perf_counter()
                fit, fit_err = (None, err) if records is None else attempt(metrics.fit_rate, records, norm)
                walls[f"{variant.value}.fit_{norm}"] = time.perf_counter() - began
                data[(variant.value, norm)] = fit
                keys.append(fit_err or repr(([(r.n, r.l2_error, r.h1_error) for r in records], fit.slope)))
        end = time.perf_counter()
        stepped = sum(wall for label, wall in walls.items() if not label.startswith("nspring."))
        steps = 2 * len(self.sizes.conv_n) * self.sizes.steps_per_period
        return Pass(
            wall=end - start, keys=keys, timings={"stepped_s": stepped, "cn_steps": steps}, op_walls=walls, data=data,
        )

    def rates(self, passes: list[Pass]) -> dict:
        return {"cn_steps_per_s": median(p.timings["cn_steps"] / p.timings["stepped_s"] for p in passes)}

    def check(self, first: Pass) -> list[dict]:
        ops = []
        for (scheme, norm), fit in first.data.items():
            lo, hi = self.WINDOWS.get((scheme, norm), (-math.inf, math.inf))
            slope = None if fit is None else fit.slope
            ok = slope is not None and math.isfinite(slope) and lo <= slope <= hi
            ops.append({"op": f"{scheme} {norm} slope", "ok": ok, "slope": slope, "window": [lo, hi]})
        return ops


class CliArtifacts:
    """The CLI subcommands as subprocesses, one after another, from seeded config files."""

    name = "cli_artifacts"
    in_children = True

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        rng = random.Random(seed)
        self.sizes = sizes
        self.workdir = workdir
        defaults = model.DEFAULTS
        k_omega = 10.0 ** rng.uniform(-2.0, 2.0)
        base = {
            "n_springs": sizes.cli_n,
            "eps_tilde": rng.uniform(0.1, 0.9),
            "k_tilde": k_omega * 6.0 * math.pi * defaults["mu"] * defaults["a_tilde"] * defaults["omega"],
        }
        self.configs = {"base": base, "sweep": dict(base, n_springs=sizes.cli_sweep_n)}
        self.sweep_range = (10.0 ** rng.uniform(-3.0, -1.0), 10.0 ** rng.uniform(1.0, 3.0))
        self.passes_run = 0
        workdir.mkdir(parents=True, exist_ok=True)
        for name, config in self.configs.items():
            (workdir / f"{name}.json").write_text(json.dumps(config, sort_keys=True) + "\n")
        cfg = str(workdir / "base.json")
        self.commands = {
            "simulate": ["simulate", "--config", cfg],
            "simulate_lumped": [
                "simulate", "--scheme", "lumped", "--samples", str(sizes.cli_lumped_samples), "--config", cfg,
            ],
            "analytic": ["analytic", "--config", cfg],
            "converge": ["converge", "--scheme", "nspring", "--config", cfg],
            "optimize": ["optimize", "--config", cfg],
            "sweep": [
                "sweep", "--axis", "k_omega", "--from", repr(self.sweep_range[0]),
                "--to", repr(self.sweep_range[1]), "--points", str(sizes.cli_sweep_points), "--log",
                "--config", str(workdir / "sweep.json"),
            ],
        }

    def inputs(self) -> dict:
        return {"configs": self.configs, "sweep_range": self.sweep_range, "commands": self.commands}

    def out_dir(self, label: str, first: bool) -> Path:
        return self.workdir / ("first" if first else "latest") / label

    def warm_up(self) -> None:
        from springswim import cli

        parser = cli.build_parser()
        for argv in self.commands.values():
            parser.parse_args(argv)

    def run_pass(self, tracer: tracing.Tracer | None = None, run_id: int = 0) -> Pass:
        first = self.passes_run == 0
        self.passes_run += 1
        keys, timings = [], {}
        for label, argv in self.commands.items():
            out = self.out_dir(label, first)
            shutil.rmtree(out, ignore_errors=True)
            argv = [*argv, "--out", str(out)]
            spans_path = self.workdir / f"spans_{label}.json"
            if tracer is None:
                command = [sys.executable, "-m", "springswim", *argv]
            else:
                command = [sys.executable, str(CLI_CHILD), str(spans_path), *argv]
            began = time.perf_counter()
            try:
                returncode = subprocess.run(
                    command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                returncode = -1
            timings[f"{label}.wall_s"] = time.perf_counter() - began
            timings[f"{label}.exit_code"] = returncode
            files = sorted(out.glob("*")) if out.is_dir() else []
            timings[f"{label}.csv_bytes"] = sum(f.stat().st_size for f in files if f.suffix == ".csv")
            digest = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
            keys.append(json.dumps({"exit": returncode, "files": digest}, sort_keys=True))
            if tracer is not None and spans_path.is_file():
                spans = json.loads(spans_path.read_text())
                top = tracing.layer_totals(spans)[0].get("cli.main", {})
                timings[f"{label}.self_s"] = top.get("self_s", 0.0)
                tracer.absorb(spans, run_id)
                spans_path.unlink()
        csv_labels = [label for label in self.commands if label != "optimize"]
        timings["csv_s"] = sum(timings[f"{label}.wall_s"] for label in csv_labels)
        timings["csv_bytes"] = sum(timings[f"{label}.csv_bytes"] for label in csv_labels)
        walls = {label: timings[f"{label}.wall_s"] for label in self.commands}
        return Pass(wall=sum(walls.values()), keys=keys, timings=timings, op_walls=walls)

    def traced_pass(self, tracer: tracing.Tracer, run_id: int) -> Pass:
        return self.run_pass(tracer, run_id)

    def rates(self, passes: list[Pass]) -> dict:
        return {"csv_mb_per_s": median(p.timings["csv_bytes"] / 1e6 / p.timings["csv_s"] for p in passes)}

    def csv_rows(self, label: str) -> int:
        return sum(f.read_bytes().count(b"\n") - 1 for f in self.out_dir(label, True).glob("*.csv"))

    def check(self, first: Pass) -> list[dict]:
        ops = []
        for label, key in zip(self.commands, first.keys):
            if json.loads(key)["exit"] != 0:
                ops.append({"op": label, "ok": False, "why": "nonzero exit"})
                continue
            out = self.out_dir(label, True)
            try:
                problems = getattr(self, f"_check_{label}")(out) + self._unformatted(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"artifact unreadable: {type(exc).__name__}: {exc}"]
            ops.append({"op": label, "ok": not problems, "problems": problems})
        return ops

    # Library routes: the same quantities computed in-process, compared with the artifacts.

    def _base(self):
        return model.load_config(self.workdir / "base.json")

    def _periodic_elongations(self, params, forcing, samples: int):
        times = np.linspace(0.0, forcing.period, samples + 1)
        amplitudes = analytic.build_discrete_mode(params, forcing).node_amplitudes()
        return times, np.real(np.exp(1j * forcing.omega * times)[:, None] * amplitudes[None, :])

    @staticmethod
    def _unformatted(out: Path) -> list[str]:
        """CSVs whose header and first row break the CLI's promise of %.17g floats."""
        problems = []
        for path in sorted(out.glob("*.csv")):
            with open(path, encoding="utf-8") as fh:
                tokens = (fh.readline().rstrip("\n") + "," + fh.readline().rstrip("\n")).split(",")
            numbers = []
            for token in tokens:
                try:
                    numbers.append((token, float(token)))
                except ValueError:  # a column name
                    continue
            if any(token != "%.17g" % value for token, value in numbers):
                problems.append(f"{path.name} is not printed with %.17g")
        return problems

    @staticmethod
    def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
        return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def _compare_simulation(self, out: Path, params, forcing, times, ell) -> list[str]:
        problems = []
        n = params.n_springs
        header, elong = self._read_csv(out / "elongations.csv")
        if len(header) != n + 2 or not oracles.arrays_agree(elong, np.column_stack([times, ell])):
            problems.append("elongations.csv disagrees with the library")
        v1 = np.array([displacement.instantaneous_v1(params, forcing, row, t) for t, row in zip(times, ell)])
        x1 = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times) * (v1[:-1] + v1[1:]))])
        arm = np.asarray(forcing.arm_length(times))
        tail = x1[:, None] - arm[:, None] - np.cumsum(ell[:, :n] / n + params.h, axis=1)
        _, positions = self._read_csv(out / "positions.csv")
        if not oracles.arrays_agree(positions, np.column_stack([times, x1, x1 - arm, tail])):
            problems.append("positions.csv disagrees with the library")
        return problems

    def _check_simulate(self, out: Path) -> list[str]:
        params, forcing = self._base()
        times, ell = self._periodic_elongations(params, forcing, 200)
        ell[:, -1] = 0.0
        return self._compare_simulation(out, params, forcing, times, ell)

    def _check_simulate_lumped(self, out: Path) -> list[str]:
        params, forcing = self._base()
        system = fem.assemble(params, forcing, fem.MassVariant.TRAPEZOID)
        samples = self.sizes.cli_lumped_samples
        trajectory = fem.solve_transient(system, None, forcing.period, forcing.period / 1024, 1024 // samples)
        return self._compare_simulation(out, params, forcing, trajectory.times, trajectory.values)

    def _check_analytic(self, out: Path) -> list[str]:
        params, forcing = self._base()
        problems = []
        times, ell = self._periodic_elongations(params, forcing, 200)
        _, table = self._read_csv(out / "analytic.csv")
        if not oracles.arrays_agree(table, np.column_stack([times, ell])):
            problems.append("analytic.csv disagrees with the library")
        mode = analytic.build_discrete_mode(params, forcing)
        payload = json.loads((out / "analytic.json").read_text())
        for name in ("gamma_plus", "gamma_minus", "delta", "z_d", "b_d", "alpha_d", "beta_d"):
            value = getattr(mode, name)
            if not oracles.arrays_agree(payload[name], [value.real, value.imag]):
                problems.append(f"analytic.json {name} disagrees with the library")
        return problems

    def _check_converge(self, out: Path) -> list[str]:
        params, forcing = self._base()
        problems = []
        records = metrics.convergence_study(params, forcing, fem.MassVariant.NSPRING, [25, 50, 100, 200, 400, 800])
        _, table = self._read_csv(out / "convergence_nspring.csv")
        expected = [[r.n, params.Lambda / r.n, r.l2_error, r.h1_error] for r in records]
        if not oracles.arrays_agree(table, expected):
            problems.append("convergence_nspring.csv disagrees with the library")
        payload = json.loads((out / "convergence_nspring.json").read_text())
        for norm in ("l2", "h1"):
            slope = payload[norm]["slope"]
            if not oracles.arrays_agree([slope], [metrics.fit_rate(records, norm).slope]):
                problems.append(f"{norm} slope disagrees with the library")
            if not 0.85 <= slope <= 1.15:
                problems.append(f"{norm} slope {slope:.4f} outside [0.85, 1.15]")
        return problems

    def _check_optimize(self, out: Path) -> list[str]:
        params, forcing = self._base()
        result = displacement.optimize_k_omega(params, forcing)
        payload = json.loads((out / "optimize.json").read_text())
        expected = [result.k_omega_opt, result.k_tilde_equiv, result.displacement, result.iterations]
        found = [payload[k] for k in ("k_omega_opt", "k_tilde_equiv", "displacement_m", "iterations")]
        return [] if oracles.arrays_agree(found, expected) else ["optimize.json disagrees with the library"]

    def _check_sweep(self, out: Path) -> list[str]:
        params, forcing = model.load_config(self.workdir / "sweep.json")
        lo, hi = self.sweep_range
        values = np.logspace(math.log10(lo), math.log10(hi), self.sizes.cli_sweep_points)
        expected = displacement.sweep(params, forcing, "k_omega", values).displacements()
        problems = []
        _, table = self._read_csv(out / "sweep_k_omega.csv")
        if not oracles.arrays_agree(table, np.column_stack([values, expected])):
            problems.append("sweep_k_omega.csv disagrees with the library")
        payload = json.loads((out / "sweep_k_omega.json").read_text())
        if not oracles.arrays_agree(payload["displacements"], expected):
            problems.append("sweep_k_omega.json disagrees with the library")
        return problems


WORKLOADS = {cls.name: cls for cls in (DesignSweep, FemConvergence, CliArtifacts)}
