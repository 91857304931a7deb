"""Command-line artifacts: shapes, determinism, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springswim.cli import _format, _write_csv, main


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


def assert_formats_like_percent(row):
    assert _format(np.asarray(row, dtype=float)).split(",") == percent_join(row).split(",")


class TestCsvWriter:
    @pytest.mark.parametrize("width", [len(SPECIAL_VALUES), 600])
    def test_line_is_percent_17g_join(self, tmp_path, width):
        rng = np.random.default_rng(width)
        table = rng.standard_normal((3, width)) * 10.0 ** rng.integers(-300, 300, (3, width))
        table[0] = np.resize(SPECIAL_VALUES, width)
        path = tmp_path / "table.csv"
        _write_csv(path, "header", table)
        expected = ["header"] + [percent_join(row) for row in table] + [""]
        assert path.read_text().split("\n") == expected

    def test_powers_of_ten_and_neighbours(self):
        # every power of ten a double reaches, with its 1 and 2 ulp neighbours, both signs
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = (powers.view(np.int64)[:, None] + np.arange(-2, 3)).ravel().view(np.float64)
        assert_formats_like_percent(np.concatenate([values, -values]))

    def test_exact_ties_and_wide_integers(self):
        rng = np.random.default_rng(17)
        # odd N/1024, N in [1e10, 1e11), ends in a 5 at the 10th decimal; from N = 1.024e10 on
        # that is the 18th significant digit, so rounding to 17 is an exact tie
        ties = (2 * rng.integers(5 * 10**9, 5 * 10**10, 20000) + 1) / 1024.0
        # 53-bit mantissas times 2**3..2**5: integers around 1e17, where the digit count steps
        wide = (rng.integers(2**52, 2**53, 20000)[:, None] * 2.0 ** np.arange(3, 6)).ravel()
        assert_formats_like_percent(np.concatenate([ties, -ties, wide]))

    def test_random_bit_patterns(self):
        # includes NaN payloads, subnormals and infinities
        bits = np.random.default_rng(2026).integers(0, 2**64, 200_000, dtype=np.uint64)
        for row in bits.view(np.float64).reshape(100, 2000):
            assert_formats_like_percent(row)

    def test_double_nearest_one_millionth(self):
        # log10 gives e = -6, but the 17 digits need e = -7: floor(y) < 1e16 although round(y) = 1e16
        assert _format(np.array([4e-4 / 400])) == "9.9999999999999995e-07" == "%.17g" % (4e-4 / 400)

    @pytest.mark.parametrize("row", [[], [0.1], [-2.5e-300], [0.0]])
    def test_short_rows(self, row):
        assert _format(np.array(row, dtype=float)) == percent_join(row)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=600))
    def test_any_floats(self, xs):
        assert _format(np.array(xs, dtype=float)) == percent_join(xs)


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

    def test_pinned_node_prints_unsigned_zero(self, tmp_path):
        # both closed-form tables print the pinned far end as "0", never "-0"
        config = write_config(tmp_path, n_springs=20)
        assert run(["analytic", "--config", config, "--out", tmp_path]) == 0
        assert run(["simulate", "--config", config, "--out", tmp_path]) == 0
        for name in ("analytic.csv", "elongations.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert len(rows) == 201
            assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}, name

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
            ["converge", "--steps-per-period", "0"],
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

    def test_json_boolean_exits_1(self, tmp_path, capsys):
        # true used to pass as n_springs = 1 and failed inside numpy
        config = write_config(tmp_path, n_springs=True)
        sweep = ["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "1", "--points", "3"]
        assert run([*sweep, "--config", config, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == "error: n_springs must be an integer >= 1, got True\n"


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
harmonic_state(assemble(params, forcing, MassVariant.NSPRING))
if sys.argv[1] == "solve-first":
    assert "scipy.linalg" not in sys.modules
import scipy.linalg.lapack
assert sys.modules["scipy.linalg._flapack"] is fem._lapack()
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
