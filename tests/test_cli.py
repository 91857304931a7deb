"""Command-line artifacts: shapes, determinism, exit codes."""

import argparse
import dataclasses
import gc
import json
import math
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from springswim import cli
from springswim.analytic import DiscreteModeShape, build_discrete_mode
from springswim.cli import _BLOCK, _SLICE, _format, _json, _write, main
from springswim.displacement import SWEEP_AXES, instantaneous_v1, stroke_displacement_discrete
from springswim.fem import MassVariant, assemble, harmonic_state, solve_transient
from springswim.metrics import convergence_study, fit_rate
from springswim.model import DEFAULTS, MOTIONLESS, config_from_mapping, load_config


def run(argv):
    return main([str(piece) for piece in argv])


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return path


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestSimulate:
    def test_default_shape_contract(self, tmp_path, capsys):
        config = write_config(tmp_path, n_springs=50)
        assert run(["simulate", "--config", config, "--out", tmp_path, "--samples", "16"]) == 0
        header, rows = read_csv(tmp_path / "elongations.csv")
        assert len(header) == 52  # t column plus 51 node columns
        assert header[0] == "t"
        assert len(rows) == 17
        out = capsys.readouterr().out
        assert "elongations.csv" in out and "positions.csv" in out

    def test_header_lists_node_positions(self, tmp_path):
        config = write_config(tmp_path, n_springs=8)
        run(["simulate", "--config", config, "--out", tmp_path, "--samples", "4"])
        header, _ = read_csv(tmp_path / "elongations.csv")
        lam = 4e-4
        for j, cell in enumerate(header[1:]):
            assert float(cell) == pytest.approx(j * lam / 8, rel=1e-15)

    def test_zero_amplitude_zero_columns(self, tmp_path):
        config = write_config(tmp_path, n_springs=12, eps_tilde=0.0)
        run(["simulate", "--config", config, "--out", tmp_path, "--samples", "4"])
        _, rows = read_csv(tmp_path / "elongations.csv")
        for row in rows:
            assert all(float(cell) == 0.0 for cell in row[1:])

    def test_positions_file_shape(self, tmp_path):
        config = write_config(tmp_path, n_springs=10)
        run(["simulate", "--config", config, "--out", tmp_path, "--samples", "8"])
        header, rows = read_csv(tmp_path / "positions.csv")
        assert len(header) == 13  # t plus head, driver and 11 tail beads
        assert header[1] == "x1"
        assert float(rows[0][1]) == 0.0  # head pinned to the origin at t=0
        # spheres are ordered front to back at every sample
        for row in rows:
            xs = [float(cell) for cell in row[1:]]
            assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_stepped_scheme(self, tmp_path):
        config = write_config(tmp_path, n_springs=16)
        code = run(
            [
                "simulate", "--config", config, "--out", tmp_path,
                "--scheme", "lumped", "--samples", "8",
            ]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "elongations.csv")
        assert len(rows) == 9
        # starts from rest, unlike the periodic closed form
        assert all(float(cell) == 0.0 for cell in rows[0][1:])

    def test_misaligned_sampling_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, n_springs=8)
        code = run(
            [
                "simulate", "--config", config, "--out", tmp_path,
                "--scheme", "nspring", "--samples", "7", "--dt", 2 * math.pi / 1024,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: samples=7 must divide the 1024 time steps; adjust --samples or --dt\n"

    def test_step_count_past_the_index_limit_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, n_springs=8)
        code = run(["simulate", "--config", config, "--out", tmp_path, "--scheme", "nspring", "--dt", "1e-300"])
        assert code == 1
        expected = f"dt=1e-300 must divide t_end={2 * math.pi!r} into 1 to sys.maxsize={sys.maxsize} steps"
        assert capsys.readouterr().err == f"error: {expected}\n"

    # relative gap between the head's advance x1(T) - x1(0) in positions.csv (the trapezoid rule on
    # instantaneous_v1 over the closed-form orbit) and the exact period mean; measured worst 1.4e-12
    # at (n = 2000, k_omega = 0.28), so the bound is 3.7x that. It sees the law's weights and the
    # Robin row of both mode sources, not the term -coupling K l_0, whose period mean is zero
    HEAD_ADVANCE_GAP = 5e-12

    @pytest.mark.parametrize(
        "overrides, samples",
        [
            ({"n_springs": 50}, 64),  # 1.9e-15
            # k_omega = 0.28 exactly: 1.4e-12 (5.0e-13 at k_tilde = 4.7e-8, k_omega 0.2802)
            ({"n_springs": 2000, "k_tilde": 0.28 * 6 * math.pi * DEFAULTS["mu"] * DEFAULTS["a_tilde"]}, 200),
            ({"n_springs": 50, "k_tilde": 1e-4, "eps_tilde": 0.5}, 64),  # k_omega about 596: 4.8e-13
            ({"n_springs": 50, "eps_tilde": 0.999}, 2000),  # a nearly closed arm: 1.8e-14 (2.7e-4 at 200)
            ({"n_springs": 1, "a1": 3e-5}, 64),  # a_tilde/a1 = 1/3, no power of two: 8.2e-15
            ({"n_springs": 3, "a1": 3e-5}, 64),  # 6.6e-15
        ],
        ids=["n50", "n2000-k0.28", "n50-stiff", "eps0.999", "n1-a1", "n3-a1"],
    )
    def test_head_advance_is_the_stroke_displacement(self, tmp_path, overrides, samples):
        # ROADMAP item 16: the time-domain law of the CSV and the period-mean kernel are one velocity law
        config = write_config(tmp_path, **overrides)
        args = ["simulate", "--scheme", "analytic", "--config", config, "--out", tmp_path, "--samples", samples]
        assert run(args) == 0
        _, rows = read_csv(tmp_path / "positions.csv")
        advance = float(rows[-1][1]) - float(rows[0][1])
        expected = stroke_displacement_discrete(*load_config(config)).displacement
        assert abs(advance - expected) <= self.HEAD_ADVANCE_GAP * abs(expected)

    @pytest.mark.parametrize("scheme", ["nspring", "lumped", "galerkin"])
    def test_bare_stepped_command_uses_its_default_step(self, tmp_path, scheme):
        # 200 samples: the smallest multiple of 200 that is at least 1024 steps is 1200
        config = write_config(tmp_path, n_springs=8)
        assert run(["simulate", "--scheme", scheme, "--config", config, "--out", tmp_path]) == 0
        _, rows = read_csv(tmp_path / "elongations.csv")
        params, forcing = load_config(config)
        system = assemble(params, forcing, MassVariant(scheme))
        trajectory = solve_transient(system, None, forcing.period, forcing.period / 1200, 6)
        table = np.column_stack([trajectory.times, trajectory.values])
        assert len(rows) == 201
        assert [[float(cell) for cell in row] for row in rows] == table.tolist()


def reference_tables(params, forcing, times, ell):
    """The simulate tables built the way a whole-table writer builds them: one cumsum over all rows."""
    n = params.n_springs
    v1 = instantaneous_v1(params, forcing, ell, times)
    x1 = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times) * (v1[:-1] + v1[1:]))])
    arm = np.asarray(forcing.arm_length(times))
    tail = x1[:, None] - arm[:, None] - np.cumsum(ell[:, :n] / n + params.h, axis=1)
    return np.column_stack([times, ell]), np.column_stack([times, x1, x1 - arm, tail])


def time_node_header(params):
    return "t," + percent_join(np.arange(params.n_springs + 1) * params.h) + "\n"


class TestStreamedTables:
    N = 1000  # 32 rows of n + 3 values per block: 201 and 129 rows end in a short block
    WIDE = 16382  # the narrowest chain whose every block is one row: the head sum's first step alone

    @pytest.mark.parametrize(
        "scheme, eps_tilde, n, samples",
        # at eps_tilde = 0 every sample is zero, and each zero must print with the sign
        # that the whole-table sums give it
        [
            ("analytic", 0.7, N, 200),
            ("nspring", 0.7, N, 128),
            ("lumped", 0.7, N, 128),
            ("galerkin", 0.7, N, 128),
            ("lumped", 0.0, N, 128),
            ("analytic", 0.7, WIDE, 1),
            ("analytic", 0.7, WIDE, 3),
            ("lumped", 0.7, WIDE, 2),
            ("lumped", 0.0, WIDE, 4),
        ],
        ids=[
            "analytic", "nspring", "lumped", "galerkin", "lumped-no-stroke",
            "analytic-row-blocks-1", "analytic-row-blocks-3", "lumped-row-blocks-2", "lumped-no-stroke-row-blocks-4",
        ],
    )
    def test_simulate_matches_whole_table_reference(self, tmp_path, scheme, eps_tilde, n, samples):
        rows_per_block = _BLOCK // (n + 3)
        if n == self.WIDE:
            assert rows_per_block == 1
        else:
            assert samples + 1 > rows_per_block and (samples + 1) % rows_per_block != 0
        config = write_config(tmp_path, n_springs=n, eps_tilde=eps_tilde)
        argv = ["simulate", "--scheme", scheme, "--samples", samples, "--config", config, "--out", tmp_path]
        assert run(argv) == 0
        params, forcing = load_config(config)
        if scheme == "analytic":
            times = np.linspace(0.0, forcing.period, samples + 1)
            ell = build_discrete_mode(params, forcing).node_values(times)
        else:
            system = assemble(params, forcing, MassVariant(scheme))
            trajectory = solve_transient(system, None, forcing.period, forcing.period / 1024, 1024 // samples)
            times, ell = trajectory.times, trajectory.values
        elongations, positions = reference_tables(params, forcing, times, ell)
        position_header = ",".join(["t"] + [f"x{j}" for j in range(1, n + 3)]) + "\n"
        assert (tmp_path / "elongations.csv").read_text() == time_node_header(params) + percent_lines(elongations)
        assert (tmp_path / "positions.csv").read_text() == position_header + percent_lines(positions)

    def test_analytic_matches_whole_table_reference(self, tmp_path):
        config = write_config(tmp_path, n_springs=self.N, k_tilde=1e-7)
        assert run(["analytic", "--config", config, "--out", tmp_path]) == 0
        params, forcing = load_config(config)
        times = np.linspace(0.0, forcing.period, 201)
        table = np.column_stack([times, build_discrete_mode(params, forcing).node_values(times)])
        assert (tmp_path / "analytic.csv").read_text() == time_node_header(params) + percent_lines(table)

    @pytest.mark.parametrize(
        "command, tables",
        [(["simulate"], 0.5), (["analytic"], 0.5), (["simulate", "--scheme", "lumped"], 0.5)],
    )
    def test_peak_memory_is_blocks_not_tables(self, tmp_path, command, tables):
        # a whole-table writer holds about five (samples + 1) x (n + 1) float tables at its peak,
        # and a stepped run that collects its trajectory first holds one more; the streamed one
        # holds a block of rows, closed form and stepped alike
        n, samples = 20000, 64
        config = write_config(tmp_path, n_springs=n)
        tracemalloc.start()
        try:
            assert run([*command, "--samples", samples, "--config", config, "--out", tmp_path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables * (samples + 1) * (n + 1) * 8

    def test_failure_mid_stream_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        sizes = []

        def fail_on_second_block(params, forcing, state, t):
            sizes.append((out / "elongations.csv").stat().st_size)
            if len(sizes) == 2:
                raise ValueError("unphysical state: non-positive cumulative arm length")
            return instantaneous_v1(params, forcing, state, t)

        monkeypatch.setattr(cli, "instantaneous_v1", fail_on_second_block)
        config = write_config(tmp_path, n_springs=self.N)
        assert run(["simulate", "--config", config, "--out", out]) == 1
        assert sizes[0] > 0 and sizes[1] > sizes[0]  # the first block was written when the second failed
        assert capsys.readouterr().err == "error: unphysical state: non-positive cumulative arm length\n"
        assert not out.exists()


class TestConverge:
    def test_nspring_table_and_slopes(self, tmp_path):
        config = write_config(tmp_path)
        code = run(
            [
                "converge", "--config", config, "--out", tmp_path,
                "--scheme", "nspring", "--n-list", "25,50,100",
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "convergence_nspring.csv")
        assert header == ["n", "h", "l2_error", "h1_error"]
        assert [int(float(row[0])) for row in rows] == [25, 50, 100]
        payload = json.loads((tmp_path / "convergence_nspring.json").read_text())
        assert payload["scheme"] == "nspring"
        assert payload["l2"]["slope"] == pytest.approx(1.0, abs=0.15)
        assert payload["h1"]["slope"] == pytest.approx(1.0, abs=0.15)
        assert payload["steps_per_period"] is None

    def test_refit_payload_is_the_fit_at_every_depth(self, tmp_path):
        # at n = 1..5 the h1 fit is poor over 5 and over 4 points, so its refit has a refit; the l2 fit has none
        assert run(["converge", "--out", tmp_path, "--scheme", "nspring", "--n-list", "1,2,3,4,5"]) == 0
        payload = json.loads((tmp_path / "convergence_nspring.json").read_text())
        records = convergence_study(*config_from_mapping({}), MassVariant.NSPRING, [1, 2, 3, 4, 5])
        for norm, levels in (("l2", 1), ("h1", 3)):
            written, fit = payload[norm], fit_rate(records, norm)
            for _ in range(levels):
                assert ("refit" in written) == (fit.refit is not None)  # no null refit key
                refit = written.pop("refit", None)
                assert written == {
                    "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared, "n_points": fit.n_points
                }
                written, fit = refit, fit.refit
            assert fit is None

    def test_lumped_slope_two(self, tmp_path):
        config = write_config(tmp_path)
        code = run(
            [
                "converge", "--config", config, "--out", tmp_path,
                "--scheme", "lumped", "--n-list", "25,50,100",
                "--steps-per-period", "4096",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "convergence_lumped.json").read_text())
        assert payload["l2"]["slope"] == pytest.approx(2.0, abs=0.2)
        assert payload["steps_per_period"] == 4096

    @pytest.mark.parametrize("scheme", [["nspring"], ["lumped", "--steps-per-period", "64"]], ids=["nspring", "lumped"])
    def test_motionless_arm_writes_no_file(self, tmp_path, capsys, scheme):
        # eps_tilde = 0 makes every error zero, which has no rate: the study refuses it before computing a table
        config, out = write_config(tmp_path, eps_tilde=0.0), tmp_path / "out"
        assert run(["converge", "--config", config, "--out", out, "--n-list", "8,16,32", "--scheme", *scheme]) == 1
        assert capsys.readouterr().err == f"error: {MOTIONLESS}\n"
        assert not out.exists()

    def test_norm_past_square_range(self, tmp_path, capsys):
        # errors near 1e182 at N = 8, at k_omega about 1.2e-249: their squares overflow, their norms do not
        config = tmp_path / "config.json"
        config.write_text('{"a1": 1.95983915425917e+30, "L": 5.200198134116831e+60, "mu": 3.248851748672497e+269, '
                          '"omega": 1.396156436588351e-25, "n_springs": 300, "eps_tilde": 0.7}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["converge", "--config", config, "--out", tmp_path, "--n-list", "8,16,32"]) == 0
        assert [str(w.message) for w in caught] == [] and capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "convergence_nspring.csv")
        values = np.array(rows, dtype=float)
        assert values[:, 0].tolist() == [8, 16, 32] and np.all(np.isfinite(values)) and np.all(values > 0.0)
        assert values[0, 2] == pytest.approx(1.5363135553030682e182, rel=1e-12)

    def test_short_n_list_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["converge", "--out", tmp_path, "--n-list", "25,50"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error: argument --n-list: ")


class TestSweep:
    def test_log_sweep_files(self, tmp_path):
        config = write_config(tmp_path, n_springs=60)
        code = run(
            [
                "sweep", "--config", config, "--out", tmp_path,
                "--axis", "k_omega", "--log", "--from", "1e-2", "--to", "1e2",
                "--points", "9",
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "sweep_k_omega.csv")
        assert header == ["parameter", "displacement_m"]
        assert len(rows) == 9
        values = [float(row[0]) for row in rows]
        assert values[0] == pytest.approx(1e-2, rel=1e-12)
        assert values[-1] == pytest.approx(1e2, rel=1e-12)
        assert all(float(row[1]) < 0.0 for row in rows)
        payload = json.loads((tmp_path / "sweep_k_omega.json").read_text())
        assert payload["axis"] == "k_omega"
        assert payload["n"] == 60
        assert len(payload["displacements"]) == 9
        assert payload["failures"] == [None] * 9
        assert "peak" in payload and payload["peak"]["k_omega"] in values
        # the stroke mean is exact in time: there is no quadrature setting to record
        assert "m_quad" not in payload

    def test_log_grid_ends_at_the_flags(self, tmp_path):
        # the grid's ends are --from and --to themselves, bit for bit, though neither is a power of ten
        sweep = ["sweep", "--axis", "k_omega", "--from", "0.3", "--to", "5.1", "--points", "5", "--log"]
        assert run([*sweep, "--out", tmp_path]) == 0
        values = json.loads((tmp_path / "sweep_k_omega.json").read_text())["values"]
        assert values[0] == 0.3 and values[-1] == 5.1
        _, rows = read_csv(tmp_path / "sweep_k_omega.csv")
        assert rows[0][0] == "0.29999999999999999"  # '%.17g' of 0.3

    def test_eps_sweep_slope_report(self, tmp_path):
        config = write_config(tmp_path, n_springs=120, k_tilde=6.3e-8)
        code = run(
            [
                "sweep", "--config", config, "--out", tmp_path,
                "--axis", "eps_tilde", "--from", "0.05", "--to", "0.4",
                "--points", "5",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "sweep_eps_tilde.json").read_text())
        assert payload["log_log_slope"] == pytest.approx(2.0, abs=0.1)

    def test_stiff_springs_write_no_null(self, tmp_path):
        config = write_config(tmp_path, n_springs=300)
        sweep = ["sweep", "--axis", "k_omega", "--from", "1e20", "--to", "1e30", "--points", "3", "--log"]
        assert run([*sweep, "--config", config, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "sweep_k_omega.json").read_text())
        assert None not in payload["displacements"]  # a failed point is written as null
        assert payload["failures"] == [None] * 3

    def test_motionless_sweep_has_no_peak(self, tmp_path):
        # at eps_tilde = 0 every displacement is 0.0, so no point is a peak: SweepTable.argbest gives None
        config = write_config(tmp_path, eps_tilde=0.0, n_springs=50)
        sweep = ["sweep", "--axis", "k_omega", "--from", "1e-2", "--to", "1e2", "--points", "5", "--log"]
        assert run([*sweep, "--config", config, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "sweep_k_omega.json").read_text())
        assert payload["peak"] is None
        assert payload["displacements"] == [0.0] * 5
        assert payload["eps_tilde"] == 0.0 and payload["failures"] == [None] * 5
        _, rows = read_csv(tmp_path / "sweep_k_omega.csv")
        assert [float(value) for _, value in rows] == [0.0] * 5

    @pytest.mark.parametrize(
        ("axis", "start", "stop", "message"),
        [
            ("eps_tilde", "0", "1.5", "eps_tilde must be a real number in [0, 1), got 1.5"),
            ("eps_tilde", "-1", "1", "eps_tilde must be a real number in [0, 1), got -1.0"),
            ("k_omega", "-1", "1", "k_omega must be positive and finite, got -1.0"),
        ],
    )
    def test_bad_point_error_prints_a_plain_number(self, tmp_path, capsys, axis, start, stop, message):
        # the points come from a numpy array; the error names the value, not np.float64(...)
        code = run(["sweep", "--axis", axis, "--from", start, "--to", stop, "--points", "3", "--out", tmp_path])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_arm_length_key_reaches_the_drift(self, tmp_path):
        sweep = ["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "1", "--points", "2"]
        payloads = []
        for arm in (3e-5, 6e-5):
            out = tmp_path / str(arm)
            assert run([*sweep, "--config", write_config(tmp_path, n_springs=50, L=arm), "--out", out]) == 0
            payloads.append(json.loads((out / "sweep_k_omega.json").read_text()))
        assert [payload["params"]["L"] for payload in payloads] == [3e-5, 6e-5]
        assert payloads[0]["displacements"][0] != payloads[1]["displacements"][0]

    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path, n_springs=40)
        args = [
            "sweep", "--config", config, "--axis", "k_omega", "--log",
            "--from", "1e-1", "--to", "1e1", "--points", "5",
        ]
        run(args + ["--out", tmp_path / "a"])
        run(args + ["--out", tmp_path / "b"])
        for name in ("sweep_k_omega.csv", "sweep_k_omega.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_float_formatting_round_trips(self, tmp_path):
        config = write_config(tmp_path, n_springs=30)
        run(
            [
                "sweep", "--config", config, "--out", tmp_path,
                "--axis", "k_omega", "--log", "--from", "0.1", "--to", "10",
                "--points", "3",
            ]
        )
        _, rows = read_csv(tmp_path / "sweep_k_omega.csv")
        payload = json.loads((tmp_path / "sweep_k_omega.json").read_text())
        # 17 significant digits reproduce the binary doubles exactly
        for row, exact in zip(rows, payload["displacements"]):
            assert float(row[1]) == exact
        # every number in the header and first row of every CSV is printed with %.17g
        config = write_config(tmp_path, n_springs=40)
        for i, command in enumerate(
            [
                ["simulate", "--samples", "8"],
                ["simulate", "--scheme", "lumped", "--samples", "8"],
                ["analytic", "--samples", "8"],
                ["converge", "--n-list", "25,50,100"],
            ]
        ):
            out = tmp_path / f"run{i}"
            assert run([*command, "--config", config, "--out", out]) == 0
            for path in out.glob("*.csv"):
                header, rows = read_csv(path)
                for token in header + rows[0]:
                    try:
                        value = float(token)
                    except ValueError:  # a column name
                        continue
                    assert token == "%.17g" % value, path


SPECIAL_VALUES = [
    -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 0.1, 1 / 3, 25.0,
]


def percent_join(row):
    return ",".join("%.17g" % v for v in np.asarray(row, dtype=float).tolist())


def percent_lines(table):
    return "".join(percent_join(row) + "\n" for row in table)


def format_text(block):
    return b"".join(_format(np.asarray(block, dtype=float))).decode("ascii")


def assert_formats_like_percent(values, widths=(None,)):
    """The formatter prints values as '%.17g' in blocks of every given row width (None: one row).

    When a width does not divide the value count, the remainder is checked as a one-row block.
    """
    values = np.asarray(values, dtype=float)
    tokens = ["%.17g" % v for v in values.tolist()]
    for width in widths:
        width = width or len(values)
        full = len(values) - len(values) % width
        lines = [",".join(tokens[i : i + width]) for i in range(0, full, width)]
        assert format_text(values[:full].reshape(-1, width)).split("\n") == lines + [""], width
        if full < len(values):
            assert format_text(values[full:][None]) == ",".join(tokens[full:]) + "\n", width


def certified_with_digits(exp, digits):
    """The first double m * 10**(exp - digits + 1), for m of that many digits, that the formatter prints
    itself with exactly that many significant digits at exponent exp; None if the first 300 m fail."""
    first = 10 ** (digits - 1) + (digits > 1)
    for m in range(first, min(10**digits, first + 300)):
        x = np.array([float(f"{m}e{exp - digits + 1}")])
        e = np.floor(np.log10(x)).astype(np.intp) + 271  # the formatter's table index
        printed = ("%.16e" % x[0]).split("e")[0].replace(".", "").rstrip("0")
        if m % 10 and len(printed) == digits and e[0] == exp + 271 and cli._round17(x, e)[1][0]:
            return x[0]
    return None


class TestCsvWriter:
    @pytest.mark.parametrize("width", [len(SPECIAL_VALUES), 600])
    def test_line_is_percent_17g_join(self, tmp_path, width):
        rng = np.random.default_rng(width)
        table = rng.standard_normal((3, width)) * 10.0 ** rng.integers(-300, 300, (3, width))
        table[0] = np.resize(SPECIAL_VALUES, width)
        path = tmp_path / "table.csv"
        _write(tmp_path, {path.name: b"header\n"}, [(table,)])
        expected = ["header"] + [percent_join(row) for row in table] + [""]
        assert path.read_text().split("\n") == expected

    def test_short_row_table_in_one_call(self, tmp_path):
        # a 10000 x 2 table (sweep --points 10000) goes through one formatter call, not one per row
        rng = np.random.default_rng(10000)
        table = np.column_stack([np.logspace(-3, 3, 10000), -rng.random(10000) * 1e-7])
        path = tmp_path / "sweep.csv"
        _write(tmp_path, {path.name: b"parameter,displacement_m\n"}, [(table,)])
        assert path.read_text().split("\n") == ["parameter,displacement_m"] + percent_lines(table).split("\n")

    def test_failure_after_a_block_removes_every_file(self, tmp_path):
        # a JSON file passed beside the CSV goes too: a failed command leaves no file of either kind
        def blocks():
            yield (np.ones((2, 3)),)
            assert sorted(path.name for path in tmp_path.iterdir()) == ["table.csv", "table.json"]
            raise ValueError("second block")

        files = {"table.csv": b"a,b,c\n", "table.json": _json({"rows": 2})}
        with pytest.raises(ValueError, match="^second block$"):
            _write(tmp_path, files, blocks())
        assert list(tmp_path.iterdir()) == []

    def test_powers_of_ten_and_neighbours(self):
        # every power of ten a double reaches, with its 1 and 2 ulp neighbours, both signs
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = (powers.view(np.int64)[:, None] + np.arange(-2, 3)).ravel().view(np.float64)
        assert_formats_like_percent(np.concatenate([values, -values]), (None, 1, 7, 2001, _SLICE + 1))

    def test_exact_ties_and_wide_integers(self):
        rng = np.random.default_rng(17)
        # odd N/1024, N in [1e10, 1e11), ends in a 5 at the 10th decimal; from N = 1.024e10 on
        # that is the 18th significant digit, so rounding to 17 is an exact tie
        ties = (2 * rng.integers(5 * 10**9, 5 * 10**10, 20000) + 1) / 1024.0
        # 53-bit mantissas times 2**3..2**5: integers around 1e17, where the digit count steps
        wide = (rng.integers(2**52, 2**53, 20000)[:, None] * 2.0 ** np.arange(3, 6)).ravel()
        assert_formats_like_percent(np.concatenate([ties, -ties, wide]), (None, 1, 7, 2001, _SLICE + 1))

    def test_every_keep_row(self):
        # every row of the keep table: each layout (fixed point at exponents -4..16, 2- and 3-digit
        # exponents of both signs) with 1..17 significant digits and both signs, all through the
        # numpy path, not Python's
        exps = [*range(-4, 17), -5, -42, -99, 17, 42, 99, -100, -270, 100, 269]
        values = [certified_with_digits(exp, k) for exp in exps for k in range(1, 18)]
        values = np.array([x for x in values if x is not None])
        first_row = cli._format_tables()[-2]
        digits = [len(("%.16e" % x).split("e")[0].replace(".", "").rstrip("0")) for x in values]
        rows = first_row[np.floor(np.log10(values)).astype(np.intp) + 271] + digits
        assert sorted(set(rows.tolist())) == list(range(23 * 17))
        assert_formats_like_percent(np.concatenate([values, -values]), (None, 1, 17))

    def test_random_bit_patterns(self):
        # includes NaN payloads, subnormals and infinities
        bits = np.random.default_rng(2026).integers(0, 2**64, 200_000, dtype=np.uint64)
        assert_formats_like_percent(bits.view(np.float64), (2000, 1, 7, 2001, _SLICE + 1))

    def test_double_nearest_one_millionth(self):
        # log10 gives e = -6, but the 17 digits need e = -7: floor(y) < 1e16 although round(y) = 1e16
        assert format_text([[4e-4 / 400]]) == "9.9999999999999995e-07\n" == "%.17g\n" % (4e-4 / 400)

    @pytest.mark.parametrize("row", [[], [0.1], [-2.5e-300], [0.0]])
    def test_short_rows(self, row):
        assert format_text(np.array(row, dtype=float)[None]) == percent_join(row) + "\n"

    def test_empty_and_single_column_blocks(self):
        assert format_text(np.empty((0, 5))) == ""
        assert format_text(np.empty((0, 0))) == ""
        column = np.array(SPECIAL_VALUES)[:, None]
        assert format_text(column) == percent_lines(column)

    @pytest.mark.parametrize("offset", [0, -1, 1])
    def test_slice_boundary_near_row_end(self, offset):
        # the first formatting slice ends at a row end, one value before it or one after it
        width = _SLICE - offset
        values = np.random.default_rng(width).standard_normal(3 * width) * 1e5
        assert_formats_like_percent(values, (width,))

    @settings(max_examples=100)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=600))
    def test_any_floats(self, xs):
        assert format_text(np.array(xs, dtype=float)[None]) == percent_join(xs) + "\n"

    @settings(max_examples=40)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 5), st.integers(1, 1500)),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    def test_any_blocks(self, block):
        assert format_text(block) == percent_lines(block)


class TestOptimize:
    def test_json_record(self, tmp_path):
        config = write_config(tmp_path, n_springs=80)
        for rel_tol in ("1e-3", "2"):  # a coarse tolerance is no bracket edge
            out = tmp_path / rel_tol
            code = run(
                [
                    "optimize", "--config", config, "--out", out,
                    "--bracket", "1e-2", "1e2", "--rel-tol", rel_tol,
                ]
            )
            assert code == 0
            payload = json.loads((out / "optimize.json").read_text())
            assert set(payload) == {"k_omega_opt", "k_tilde_equiv", "displacement_m", "iterations"}
            assert 0.2 < payload["k_omega_opt"] < 0.4
            assert payload["displacement_m"] < 0.0
            assert payload["iterations"] > 0

    def test_edge_bracket_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, n_springs=50)
        code = run(
            [
                "optimize", "--config", config, "--out", tmp_path,
                "--bracket", "10", "100",
            ]
        )
        assert code == 1
        assert "interior" in capsys.readouterr().err


class TestAnalytic:
    def test_node_value_dump(self, tmp_path):
        config = write_config(tmp_path, n_springs=20)
        code = run(["analytic", "--config", config, "--out", tmp_path, "--samples", "12"])
        assert code == 0
        header, rows = read_csv(tmp_path / "analytic.csv")
        assert len(header) == 22
        assert len(rows) == 13
        # pinned far end in every sample
        assert all(float(row[-1]) == 0.0 for row in rows)
        # one full period: first and last sample rows coincide up to the
        # roundoff of representing the period itself
        first = np.array([float(cell) for cell in rows[0][1:]])
        last = np.array([float(cell) for cell in rows[-1][1:]])
        assert np.allclose(first, last, rtol=1e-9, atol=1e-18)

    def test_pinned_node_prints_unsigned_zero(self, tmp_path):
        # both closed-form tables print the pinned far end as "0", never "-0"
        config = write_config(tmp_path, n_springs=20)
        assert run(["analytic", "--config", config, "--out", tmp_path]) == 0
        assert run(["simulate", "--config", config, "--out", tmp_path]) == 0
        for name in ("analytic.csv", "elongations.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert len(rows) == 201
            assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}, name

    @pytest.mark.parametrize("n", [1, 300])
    def test_stiff_chain_is_computed(self, tmp_path, n):
        # k_omega = 1e25: both closed-form commands write what the banded solve computes
        k_tilde = 1e25 * 6.0 * math.pi * DEFAULTS["mu"] * DEFAULTS["a_tilde"] * DEFAULTS["omega"]
        config = write_config(tmp_path, n_springs=n, k_tilde=k_tilde)
        assert run(["analytic", "--config", config, "--out", tmp_path]) == 0
        assert run(["simulate", "--config", config, "--out", tmp_path]) == 0
        params, forcing = load_config(config)
        banded = harmonic_state(assemble(params, forcing, MassVariant.NSPRING))
        for name in ("analytic.csv", "elongations.csv"):
            _, rows = read_csv(tmp_path / name)
            first = np.array([float(cell) for cell in rows[0][1:]])
            assert np.max(np.abs(first[:-1] - banded.real)) <= 1e-12 * np.max(np.abs(banded)), name

    def test_mode_constants(self, tmp_path):
        config = write_config(tmp_path, n_springs=20)
        run(["analytic", "--config", config, "--out", tmp_path])
        payload = json.loads((tmp_path / "analytic.json").read_text())
        gp = complex(*payload["gamma_plus"])
        gm = complex(*payload["gamma_minus"])
        assert abs(gp * gm - 1.0) < 1e-12
        assert payload["n"] == 20
        assert payload["k_omega"] == pytest.approx(0.05960859291831286, rel=1e-12)

    def test_overflowing_discriminant_fails_cleanly(self, tmp_path, capsys):
        # k_omega ~ 6e-164: delta = c (c + 4) is not finite, so analytic, which writes it, writes no file
        config, out = write_config(tmp_path, n_springs=1, k_tilde=1e-170), tmp_path / "out"
        assert run(["analytic", "--samples", "2", "--config", config, "--out", out]) == 1
        assert "chain mode out of float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [{"n_springs": 1, "k_tilde": 1e-170}, {"n_springs": 2, "omega": 1e160}])
    def test_discriminant_alone_stops_only_analytic(self, tmp_path, capsys, overrides):
        # s and b_d are finite and delta is not: simulate writes no delta and succeeds, with the mode's own node
        # values, while analytic refuses delta by name
        config = write_config(tmp_path, **overrides)
        mode = build_discrete_mode(*load_config(config))
        assert run(["simulate", "--samples", "2", "--config", config, "--out", tmp_path / "simulate"]) == 0
        _, rows = read_csv(tmp_path / "simulate" / "elongations.csv")
        values = np.array(rows, dtype=float)
        assert np.all(np.isfinite(values)) and np.array_equal(values[:, 1:], mode.node_values(values[:, 0]))
        _, rows = read_csv(tmp_path / "simulate" / "positions.csv")
        assert np.all(np.isfinite(np.array(rows, dtype=float)))
        capsys.readouterr()
        assert run(["analytic", "--samples", "2", "--config", config, "--out", tmp_path / "analytic"]) == 1
        message = f"k_omega={mode.k_omega!r}, n={mode.n}: chain mode out of float range (delta={mode.delta!r})"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "analytic").exists()

    @pytest.mark.parametrize("overrides", [{"n_springs": 20}, {"n_springs": 300, "k_tilde": 1e21}])
    def test_json_is_the_mode_fields(self, tmp_path, overrides):
        # every DiscreteModeShape field but its root s, bit for bit; complex values as [real, imag]
        config = write_config(tmp_path, **overrides)
        assert run(["analytic", "--config", config, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "analytic.json").read_text())
        assert set(payload) == {field.name for field in dataclasses.fields(DiscreteModeShape)} - {"s"}
        mode = build_discrete_mode(*load_config(config))
        for name, value in payload.items():
            z = getattr(mode, name)
            assert value == ([z.real, z.imag] if isinstance(z, complex) else z), name


class TestWrittenFiles:
    """Each command prints one 'wrote' line per artifact, CSV before JSON, and writes nothing else."""

    @pytest.mark.parametrize(
        "command, names",
        [
            (["simulate", "--samples", "4"], ["elongations.csv", "positions.csv"]),
            (["converge", "--n-list", "4,8,16"], ["convergence_nspring.csv", "convergence_nspring.json"]),
            (["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "1", "--points", "3"],
             ["sweep_k_omega.csv", "sweep_k_omega.json"]),
            (["optimize"], ["optimize.json"]),
            (["analytic", "--samples", "4"], ["analytic.csv", "analytic.json"]),
        ],
        ids=["simulate", "converge", "sweep", "optimize", "analytic"],
    )
    def test_wrote_lines_are_the_files(self, tmp_path, capsys, command, names):
        config, out = write_config(tmp_path, n_springs=8), tmp_path / "out"
        assert run([*command, "--config", config, "--out", out]) == 0
        assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in names)
        assert sorted(path.name for path in out.iterdir()) == sorted(names)


class TestParserNames:
    """The CLI's scheme and axis names are the library's; the usage lines stay as they were."""

    @staticmethod
    def choices(command, flag):
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return next(a.choices for a in subparsers.choices[command]._actions if flag in a.option_strings)

    def test_choices_are_the_library_names(self):
        schemes = [variant.value for variant in MassVariant]
        assert self.choices("simulate", "--scheme") == ["analytic", *schemes]
        assert self.choices("converge", "--scheme") == schemes
        assert self.choices("sweep", "--axis") == SWEEP_AXES

    @pytest.mark.parametrize(
        ("command", "usage"),
        [
            (
                "simulate",
                "usage: springswim simulate [-h] [--config CONFIG] [--out OUT]\n"
                "                           [--scheme {analytic,nspring,lumped,galerkin}]\n"
                "                           [--samples SAMPLES] [--t-end T_END] [--dt DT]\n",
            ),
            (
                "converge",
                "usage: springswim converge [-h] [--config CONFIG] [--out OUT]\n"
                "                           [--scheme {nspring,lumped,galerkin}]\n"
                "                           [--n-list N_LIST]\n"
                "                           [--steps-per-period STEPS_PER_PERIOD]\n",
            ),
            (
                "sweep",
                "usage: springswim sweep [-h] [--config CONFIG] [--out OUT] --axis\n"
                "                        {eps_tilde,k_omega} --from START --to STOP --points\n"
                "                        POINTS [--log]\n",
            ),
        ],
    )
    def test_usage_lines(self, capsys, monkeypatch, command, usage):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.split("\n\n")[0] + "\n" == usage


def fail_on_second_block():
    """An instantaneous_v1 that raises on its second call, after simulate has written one block."""
    calls = []

    def velocity(params, forcing, state, t):
        calls.append(t)
        if len(calls) == 2:
            raise ValueError("unphysical state: non-positive cumulative arm length")
        return instantaneous_v1(params, forcing, state, t)

    return velocity


SWEEP, EPS_SWEEP = (["sweep", "--axis", axis, "--points", "3"] for axis in ("k_omega", "eps_tilde"))
# Lambda = 1 m is a power of two, so the stencils have the same bits in metres and in fem's units, and
# K n (k_omega n omega: n_springs = 2000 here, 8 to 32 in converge) overflows the stiffness stencil in both
STENCIL_OVERFLOW = '{"Lambda": 1.0, "k_tilde": 1e301, "omega": 1e306}'
# the failure contract over all five subcommands: label -> (config file text or None, arguments,
# the error line after "error: " with {config} for the config path, or None where any single line will do)
FAILURES = {
    "simulate-dt-inf": (None, ["simulate", "--scheme", "lumped", "--dt", "inf"], None),
    "simulate-t-end-negative": (None, ["simulate", "--t-end", "-1e-3"],
                                "argument --t-end: value must be positive and finite, got -0.001"),
    "simulate-samples-zero": (None, ["simulate", "--samples", "0"], None),
    "simulate-dt-not-dividing": (None, ["simulate", "--scheme", "nspring", "--dt", "0.3"], None),
    "simulate-config-empty": ("", ["simulate"], None),
    "simulate-config-malformed": ("{", ["simulate"], None),
    "simulate-config-not-object": ("[1]", ["simulate"], None),
    "simulate-config-eps-tilde-out-of-box": ('{"eps_tilde": 1.5}', ["simulate"], None),
    "simulate-mid-stream": ('{"n_springs": 1000}', ["simulate"],
                            "unphysical state: non-positive cumulative arm length"),
    "converge-motionless": ('{"eps_tilde": 0.0}', ["converge", "--n-list", "8,16,32"], MOTIONLESS),
    "converge-n-list-short": (None, ["converge", "--n-list", "8,16"], None),
    "converge-steps-negative": (None, ["converge", "--scheme", "lumped", "--steps-per-period", "-4"], None),
    "converge-config-zero-springs": ('{"n_springs": 0}', ["converge"], None),
    "sweep-linear-to-inf": (None, [*SWEEP, "--from", "0.1", "--to", "inf"], "--to must be finite, got inf"),
    "sweep-linear-from-nan": (None, [*SWEEP, "--from", "nan", "--to", "1"], "--from must be finite, got nan"),
    "sweep-linear-span-overflow": (None, [*SWEEP, "--from", "-1e308", "--to", "1e308"],
                                   "--from -1e+308 to --to 1e+308 spans more than the largest double"),
    "sweep-eps-tilde-span-overflow": (None, [*EPS_SWEEP, "--from", "1e308", "--to", "-1e308"],
                                      "--from 1e+308 to --to -1e+308 spans more than the largest double"),
    "sweep-log-from-zero": (None, [*SWEEP, "--from", "0", "--to", "1", "--log"],
                            "--from must be positive and finite, got 0.0"),
    "sweep-log-to-inf": (None, [*SWEEP, "--from", "1", "--to", "inf", "--log"], "--to must be positive and finite, got inf"),
    "sweep-negative-exponent": (None, [*EPS_SWEEP, "--from", "-5e-1", "--to", "0.5"],
                                "eps_tilde must be a real number in [0, 1), got -0.5"),
    "sweep-eps-tilde-out-of-box": (None, [*EPS_SWEEP, "--from", "0", "--to", "1.5"],
                                   "eps_tilde must be a real number in [0, 1), got 1.5"),
    "sweep-no-successful-point": ('{"Lambda": 1.0}', [*SWEEP, "--from", "1e305", "--to", "1e306", "--log"],
                                  "sweep produced no successful points"),
    "sweep-points-zero": (None, ["sweep", "--axis", "k_omega", "--from", "1", "--to", "2", "--points", "0"], None),
    "optimize-bracket-inf": (None, ["optimize", "--bracket", "1e-2", "inf"], None),
    "optimize-rel-tol-negative": (None, ["optimize", "--rel-tol", "-1e-3"], None),
    "optimize-config-negative-arm": ('{"L": -1}', ["optimize"], None),
    "optimize-motionless": ('{"eps_tilde": 0.0}', ["optimize"], MOTIONLESS),
    "analytic-samples-negative": (None, ["analytic", "--samples", "-1"], None),
    "analytic-config-eps-tilde-negative": ('{"eps_tilde": -0.1}', ["analytic"], None),
    "analytic-delta-overflow": ('{"n_springs": 1, "k_tilde": 1e-170}', ["analytic", "--samples", "2"],
                                "k_omega=5.960859291831286e-164, n=1: chain mode out of float range "
                                "(delta=(-inf+6.710441908067798e+163j))"),
    # k_omega ~ 6e-310: c = i/(k_omega n^2) overflows, so s is not finite and neither closed-form command runs
    "simulate-chain-overflow": ('{"n_springs": 1, "omega": 1e308}', ["simulate", "--samples", "2"],
                                "k_omega=5.9608592918313e-310, n=1: chain mode out of float range "
                                "(s=(nan+nanj), b_d=(nan+nanj))"),
    # numeric blow-ups, each refused where its value is formed: a head velocity past the float range (an
    # infinite a_tilde*K times a zero sum, an infinite a1*omega, an infinite coupling*K), and stencils that
    # overflow in Python floats, (inf, inf, -inf), which no numpy flag sees
    "simulate-velocity-invalid": (
        '{"a_tilde": 7.208166483600289e+224, "a1": 9.406300878363314e+50, "Lambda": 761409092.1376953, '
        '"L": 6.897820557790091e+275, "k_tilde": 4.4336706824525126e+63, "mu": 6.605892088843597e-290, '
        '"n_springs": 2, "eps_tilde": 0.0}',
        ["simulate", "--samples", "4"],
        "head velocity out of float range: eps*omega, a1*omega, a_tilde*K, coupling*K = "
        "(0.0, 9.406300878363314e+50, inf, 1.8927008276640372e+300)"),
    "simulate-head-speed-overflow": (
        '{"a_tilde": 4.347341912231095e+85, "a1": 2.422417003525057e+206, "mu": 8.169247772155393e-159, '
        '"omega": 7.9919892572058e+191, "n_springs": 1, "eps_tilde": 0.3}',
        ["simulate", "--scheme", "lumped", "--samples", "8"],
        "head velocity out of float range: eps*omega, a1*omega, a_tilde*K, coupling*K = "
        "(7.192790331485221e+186, inf, 6.494067651874045e+148, 1.3404107637999561e-58)"),
    "simulate-head-coupling-overflow": (
        '{"a_tilde": 1.5019633762098877e+130, "a1": 2.5950562856382177e-83, "Lambda": 4.5631510819824566e+103, '
        '"L": 5.461339908555718e+272, "k_tilde": 4.509251569180649e+137, "mu": 2.5943731107541185e-147, '
        '"n_springs": 2, "eps_tilde": 0.3}',
        ["simulate", "--samples", "8"],
        "head velocity out of float range: eps*omega, a1*omega, a_tilde*K, coupling*K = "
        "(1.6384019725667155e+272, 2.5950562856382177e-83, 9.22084894555224e+282, inf)"),
    "simulate-lumped-stiffness-overflow": (
        STENCIL_OVERFLOW, ["simulate", "--scheme", "lumped", "--samples", "8"],
        "Crank-Nicolson system must not contain infs or NaNs"),
    # refused on the stencil scalars by the harmonic solve, before numpy forms a band
    "converge-harmonic-overflow": (STENCIL_OVERFLOW, ["converge", "--n-list", "8,16,32"],
                                   "harmonic system must not contain infs or NaNs"),
    "optimize-harmonic-overflow": (STENCIL_OVERFLOW, ["optimize"], "harmonic system must not contain infs or NaNs"),
    # 2 k_omega coupling overflows, so the continuum reference's b is NaN; the study builds that reference at
    # Lambda/4**m, near 1 (here 3.18e81/4**135), and eps/2**p: the message names those scales and the coupling
    "converge-reference-overflow": (
        '{"a1": 3.394796927451234e-183, "Lambda": 3.1848274932758444e+81, "k_tilde": 3.1177957698374256e+273, '
        '"n_springs": 50, "eps_tilde": 0.7}',
        ["converge", "--n-list", "8,16,32"],
        "continuum reference at Lambda/4**135, eps/2**-15, coupling=1.4728421483973506e+177: "
        "k_omega=1.8584741884667697e+280, Lambda=1.6787540924578315: continuous mode out of float range "
        "(r=(3.0897237478293325e-141+3.0897237478293325e-141j), b=(nan+nanj))"),
    # derived scalars refused at load, where SwimmerParams forms them
    "analytic-infinite-coupling": ('{"n_springs": 3, "a1": 1e-320}', ["analytic", "--samples", "2"],
                                   "config {config}: coupling a_tilde/(2 a1) must be finite, got inf"),
    "sweep-zero-spacing": ('{"Lambda": 5e-324, "n_springs": 3}', [*SWEEP, "--from", "0.1", "--to", "1"],
                           "config {config}: h must be positive and finite, got 0.0"),
}


class TestErrorHandling:
    def test_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["shake"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.rstrip("\n")

    def test_bad_flag_value_exits_2(self, tmp_path, capsys, subtests):
        cases = [
            ["sweep", "--axis", "spin", "--from", "1", "--to", "2", "--points", "3"],
            ["sweep", "--axis", "k_omega", "--from", "1", "--to", "2", "--points", "0"],
            ["analytic", "--samples", "-1"],
            ["simulate", "--scheme", "lumped", "--samples", "0"],
            ["simulate", "--scheme", "lumped", "--dt", "0"],
            ["simulate", "--scheme", "lumped", "--dt", "-1e-3"],
            ["simulate", "--scheme", "lumped", "--dt", "nan"],
            ["simulate", "--scheme", "lumped", "--dt", "inf"],
            ["simulate", "--t-end", "0"],
            ["simulate", "--dt", "1e-3"],
            ["simulate", "--scheme", "analytic", "--dt", "1e-3"],
            ["converge", "--steps-per-period", "0"],
            ["converge", "--scheme", "nspring", "--steps-per-period", "4096"],
            ["optimize", "--bracket", "1e-2", "inf"],
            ["optimize", "--bracket", "0", "1e2"],
            ["optimize", "--bracket", "-1", "1e2"],
            ["optimize", "--rel-tol", "0"],
            ["optimize", "--rel-tol", "nan"],
            ["converge", "--n-list", "25,abc,50"],
            ["converge", "--n-list", "25,25,50"],
            ["converge", "--n-list", "0,25,50"],
        ]
        for i, case in enumerate(cases):
            with subtests.test(" ".join(case)):
                out = tmp_path / f"case{i}"
                with pytest.raises(SystemExit) as excinfo:
                    run([*case, "--out", out])
                assert excinfo.value.code == 2
                err = capsys.readouterr().err
                assert err.startswith("error: argument ")
                assert "\n" not in err.rstrip("\n")
                assert not out.exists()

    @pytest.mark.parametrize("label", FAILURES)
    def test_failure_prints_one_line_and_makes_no_path(self, tmp_path, capsys, monkeypatch, label):
        # into a directory two levels below any that exists: neither level may be left behind
        config, argv, message = FAILURES[label]
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv = [*argv, "--config", tmp_path / "config.json"]
        if label == "simulate-mid-stream":
            monkeypatch.setattr(cli, "instantaneous_v1", fail_on_second_block())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run([*argv, "--out", tmp_path / "new" / "out"])
            except SystemExit as exc:
                code = exc.code
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        if message is not None:
            assert err == f"error: {message}\n".replace("{config}", str(tmp_path / "config.json"))
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("config, argv", [
        # a product of lengths in metres overflowed: omega M in converge's harmonic solve, the stiffness stencil
        # of the lumped scheme, and a1 dL0/dt in the head velocity of both simulate schemes
        ('{"a_tilde": 1.3851714533727236e+23, "Lambda": 4.1904315550649165e+194, "L": 6.094858334111226e+87, '
         '"omega": 2.6476524888807593e+204, "n_springs": 1, "eps_tilde": 0.999}', ["converge", "--n-list", "8,16,32"]),
        ('{"Lambda": 3.263154194182222e+182, "L": 2.4786994078256837e+67, "k_tilde": 1.6393304886730294e-148, '
         '"omega": 9.96544660707212e-178, "n_springs": 1, "eps_tilde": 0.7}',
         ["simulate", "--scheme", "lumped", "--samples", "8"]),
        *[('{"a1": 4.7309180829802365e+53, "L": 3.092800865972206e+282, "k_tilde": 1.1978645524870567e+263, '
           '"n_springs": 5, "eps_tilde": 0.7}', ["simulate", "--scheme", scheme, "--samples", "8"])
          for scheme in ("analytic", "lumped")],
        # Lambda sqrt(2 k_omega) underflows, so the continuum reference's r = (r Lambda)/Lambda overflowed in 1/m
        ('{"Lambda": 1e-200, "k_tilde": 1e-250, "n_springs": 2}', ["converge", "--n-list", "8,16,32"]),
    ], ids=["converge", "simulate-lumped", "simulate-analytic-head", "simulate-lumped-head", "converge-boundary-layer"])
    def test_lengths_far_from_a_metre_succeed(self, tmp_path, capsys, config, argv):
        # each failed while fem, the head velocity or the convergence study formed products of lengths in metres
        (tmp_path / "config.json").write_text(config)
        assert run([*argv, "--config", tmp_path / "config.json", "--out", tmp_path / "out"]) == 0
        for path in (tmp_path / "out").iterdir():
            assert not {"nan", "inf"} & set(path.read_text().replace(",", " ").split()), path.name

    def test_no_blow_up_escapes_the_contract(self, tmp_path, capsys):
        # valid configs with lengths, radii, stiffness, viscosity and frequency anywhere in the float range:
        # no RuntimeWarning reaches the user, a failure is one error line and no path, and a success
        # writes no nan, except the NaN that marks a failed point of a sweep
        rng = random.Random(2)
        commands = [
            ["simulate", "--samples", "8"],
            ["simulate", "--scheme", "lumped", "--samples", "8"],
            ["analytic", "--samples", "4"],
            ["converge", "--n-list", "8,16,32"],
            ["sweep", "--axis", "k_omega", "--from", "1e-3", "--to", "1e3", "--points", "4", "--log"],
            ["sweep", "--axis", "eps_tilde", "--from", "0.1", "--to", "0.9", "--points", "3"],
            ["optimize"],
        ]
        violations = []
        for i in range(40):
            config = {key: 10 ** rng.uniform(-300, 300)
                      for key in ("a_tilde", "a1", "Lambda", "L", "k_tilde", "mu", "omega") if rng.random() < 0.5}
            config["n_springs"] = rng.choice([1, 2, 5, 50, 300])
            config["eps_tilde"] = rng.choice([0.0, 0.3, 0.7, 0.99, 0.999])
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config))
            for j, argv in enumerate(commands):
                out = tmp_path / f"out{i}_{j}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = run([*argv, "--config", path, "--out", out])
                err = capsys.readouterr().err
                case = f"{argv[0]} {config}"
                violations += [f"{case}: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
                if code != 0:
                    if not (err.startswith("error: ") and err.count("\n") == 1) or out.exists():
                        violations.append(f"{case}: exit {code}, {err!r}, out left: {out.exists()}")
                else:
                    violations += [f"{case}: nan in {f.name}" for f in out.iterdir()
                                   if not f.name.startswith("sweep_") and "nan" in f.read_text()]
        assert violations == []

    def test_m_quad_flag_removed(self, capsys):
        for command in (["sweep", "--axis", "k_omega", "--from", "1", "--to", "2", "--points", "3"], ["optimize"]):
            with pytest.raises(SystemExit) as excinfo:
                run(command + ["--m-quad", "256"])
            assert excinfo.value.code == 2

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"young_modulus": 3}')
        assert run(["analytic", "--config", config, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config {config}: unknown config keys: young_modulus\n"

    def test_json_boolean_exits_1(self, tmp_path, capsys):
        # true used to pass as n_springs = 1 and failed inside numpy
        config = write_config(tmp_path, n_springs=True)
        sweep = ["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "1", "--points", "3"]
        assert run([*sweep, "--config", config, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == f"error: config {config}: n_springs must be an integer >= 1, got True\n"

    @pytest.mark.parametrize(
        "arm, message",
        [
            (-1, "L_ref must be positive and finite, got -1"),
            pytest.param(True, "L_ref must be positive and finite, got True", id="True"),
        ],
    )
    def test_bad_arm_length_exits_1(self, tmp_path, capsys, arm, message):
        # the config key L is validated as Forcing.L_ref, the one arm length the drift reads
        config = write_config(tmp_path, L=arm)
        assert run(["optimize", "--config", config, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == f"error: config {config}: {message}\n"


COLD_PATHS = """
import json, sys
from springswim.cli import main

def loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

config, out = sys.argv[1], sys.argv[2]
for command in (["simulate"], ["analytic"]):
    assert main([*command, "--config", config, "--out", out]) == 0
report = {"cold": loaded()}
solving = {
    "optimize": ["optimize"],
    "sweep": ["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "1", "--points", "3"],
    "simulate lumped": ["simulate", "--scheme", "lumped", "--samples", "4"],
    "converge nspring": ["converge", "--scheme", "nspring", "--n-list", "8,16,32"],
}
for name, command in solving.items():
    assert main([*command, "--config", config, "--out", out]) == 0
    report[name] = loaded()
print(json.dumps(report))
"""

IMPORT_ORDER = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg
from springswim import MassVariant, assemble, fem, harmonic_state
from springswim.model import config_from_mapping

params, forcing = config_from_mapping({"n_springs": 8})
meta_path = list(sys.meta_path)
harmonic_state(assemble(params, forcing, MassVariant.NSPRING))
assert sys.meta_path == meta_path  # no import hook is left behind
if sys.argv[1] == "solve-first":
    assert "scipy.linalg" not in sys.modules
import scipy.linalg.lapack
assert sys.modules["scipy.linalg._flapack"] is fem._lapack()
if sys.argv[1] == "scipy-first":
    assert scipy.linalg._flapack is fem._lapack()  # set by scipy's own import, which the solve reused
assert scipy.linalg.lapack.zgtsv is fem._lapack().zgtsv
"""


class TestConsoleEntry:
    def test_closed_form_paths_load_no_scipy(self, tmp_path):
        # simulate (analytic) and analytic never solve, so they must not import scipy; the solving
        # commands, converge (nspring) among them, load scipy's compiled LAPACK wrappers and nothing else
        config = write_config(tmp_path, n_springs=8)
        result = subprocess.run(
            [sys.executable, "-c", COLD_PATHS, str(config), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report.pop("cold") == []
        assert report == {
            "optimize": ["scipy.linalg._flapack"],
            "sweep": ["scipy.linalg._flapack"],
            "simulate lumped": ["scipy.linalg._flapack"],
            "converge nspring": ["scipy.linalg._flapack"],
        }

    @pytest.mark.parametrize("order", ["solve-first", "scipy-first"])
    def test_lapack_module_shared_with_scipy_linalg(self, order):
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_ORDER, order], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_console_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"] == {"springswim": "springswim.__main__:main"}

    def test_entry_freezes_the_heap_before_the_cli_runs(self, monkeypatch):
        from springswim import __main__ as entry

        frozen = []
        monkeypatch.setattr(cli, "main", lambda: frozen.append(gc.get_freeze_count()) or 7)
        gc.unfreeze()
        try:
            assert entry.main() == 7
        finally:
            gc.unfreeze()
        assert len(frozen) == 1 and frozen[0] > 0

    def test_module_invocation(self, tmp_path):
        config = write_config(tmp_path, n_springs=6)
        result = subprocess.run(
            [
                sys.executable, "-m", "springswim", "analytic",
                "--config", str(config), "--out", str(tmp_path), "--samples", "4",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "analytic.csv").exists()
