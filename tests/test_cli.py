"""Command-line artifacts: shapes, determinism, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from springswim.cli import main


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
                "--scheme", "nspring", "--samples", "7",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.rstrip("\n")


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

    def test_short_n_list_rejected(self, tmp_path, capsys):
        assert run(["converge", "--out", tmp_path, "--n-list", "25,50"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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


class TestOptimize:
    def test_json_record(self, tmp_path):
        config = write_config(tmp_path, n_springs=80)
        code = run(
            [
                "optimize", "--config", config, "--out", tmp_path,
                "--bracket", "1e-2", "1e2", "--rel-tol", "1e-3",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "optimize.json").read_text())
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

    def test_mode_constants(self, tmp_path):
        config = write_config(tmp_path, n_springs=20)
        run(["analytic", "--config", config, "--out", tmp_path])
        payload = json.loads((tmp_path / "analytic.json").read_text())
        gp = complex(*payload["gamma_plus"])
        gm = complex(*payload["gamma_minus"])
        assert abs(gp * gm - 1.0) < 1e-12
        assert payload["n"] == 20
        assert payload["k_omega"] == pytest.approx(0.05960859291831286, rel=1e-12)


class TestErrorHandling:
    def test_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["shake"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.rstrip("\n")

    def test_bad_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["sweep", "--axis", "spin", "--from", "1", "--to", "2", "--points", "3"])
        assert excinfo.value.code == 2

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
        assert err == "error: unknown config keys: young_modulus\n"

    def test_seed_flag_accepted(self, tmp_path):
        config = write_config(tmp_path, n_springs=6)
        assert run(["analytic", "--config", config, "--out", tmp_path, "--seed", "7"]) == 0


class TestConsoleEntry:
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
