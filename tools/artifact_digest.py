"""Digest the artifacts of a fixed list of springswim CLI commands, run from one checkout.

    python3 tools/artifact_digest.py CHECKOUT > digest.txt

Every command runs with CHECKOUT/src as the only PYTHONPATH entry, in its own directory under a
fresh temporary directory, and with PYTHONPYCACHEPREFIX set to a fresh directory there, so no
bytecode compiled from another checkout is reused. The output has one line per artifact,
"sha256 label file", then one line per command, "exit=N label first-stderr-line", each group
sorted; the temporary directory is written as <tmp> in stderr lines. Two checkouts that write
the same bytes and fail the same way give the same output, so `diff` of two digests is the
byte-identity check of a change (for example against `git archive` of its parent). The commands
run concurrently, one per core; each has its own directory, so the order they finish in is unread.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# (label, config JSON value or None for the defaults, CLI arguments)
COMMANDS = [
    ("simulate_analytic", None, ["simulate", "--scheme", "analytic"]),
    ("simulate_nspring", None, ["simulate", "--scheme", "nspring"]),
    ("simulate_lumped", None, ["simulate", "--scheme", "lumped"]),
    ("simulate_galerkin", None, ["simulate", "--scheme", "galerkin"]),
    ("analytic", None, ["analytic"]),
    ("converge_nspring", None, ["converge", "--scheme", "nspring"]),
    ("converge_lumped", None, ["converge", "--scheme", "lumped"]),
    ("converge_galerkin", None, ["converge", "--scheme", "galerkin"]),
    ("converge_nspring_two_level_refit", None, ["converge", "--scheme", "nspring", "--n-list", "1,2,3,4,5"]),
    ("sweep_k_omega", None, ["sweep", "--axis", "k_omega", "--from", "1e-3", "--to", "1e3", "--points", "25", "--log"]),
    ("sweep_eps_tilde", None, ["sweep", "--axis", "eps_tilde", "--from", "0", "--to", "0.99", "--points", "12"]),
    ("optimize", None, ["optimize"]),
    ("simulate_lumped_two_periods", None, ["simulate", "--scheme", "lumped", "--t-end", "12.566370614359172"]),
    # an explicit dt that divides the period into 2048 steps, sampled every 32nd
    ("simulate_galerkin_dt", None,
     ["simulate", "--scheme", "galerkin", "--dt", "0.0030679615757712823", "--samples", "64"]),
    # eps_tilde = 0 moves no point: every displacement is zero and the sweep has no peak
    ("sweep_k_omega_motionless", {"eps_tilde": 0.0, "n_springs": 50},
     ["sweep", "--axis", "k_omega", "--from", "1e-2", "--to", "1e2", "--points", "5", "--log"]),
    # a log grid whose ends, 0.3 and 5.1, are not powers of ten: it starts and ends exactly there
    ("sweep_k_omega_log_ends", None,
     ["sweep", "--axis", "k_omega", "--from", "0.3", "--to", "5.1", "--points", "5", "--log"]),
    # nothing moves and the last point fails (harmonic_state rejects k_omega = 1e306): still no peak
    ("sweep_k_omega_motionless_failing", {"eps_tilde": 0.0, "Lambda": 1.0},
     ["sweep", "--axis", "k_omega", "--from", "1e-2", "--to", "1e306", "--points", "3", "--log"]),
    # rows of 20002 values, each spanning several formatting slices of cli._SLICE values
    ("analytic_wide_rows", {"n_springs": 20000}, ["analytic", "--samples", "4"]),
    # a stiff chain (k_omega about 5.96e27): gamma_plus is about 1 and |b_d| about 1e-33
    ("analytic_stiff", {"n_springs": 300, "k_tilde": 1e21}, ["analytic"]),
    # an arm length whose square overflows: the drift is the one at any other large arm length
    ("sweep_eps_tilde_arm_1e155", {"L": 1e155},
     ["sweep", "--axis", "eps_tilde", "--from", "0.1", "--to", "0.5", "--points", "2"]),
    # small chains with a_tilde/a1 = 1/3: the Robin term is a large share of row 0 and the coupling
    # a_tilde/(2 a1) is rounded, so a change in how either is computed shows here
    *[
        (f"{label}_n{n}", {"n_springs": n, "a1": 3e-5}, args)
        for n in (1, 3)
        for label, args in (
            ("sweep_k_omega",
             ["sweep", "--axis", "k_omega", "--from", "1e-3", "--to", "1e3", "--points", "25", "--log"]),
            ("simulate_nspring", ["simulate", "--scheme", "nspring"]),
            ("analytic", ["analytic"]),
        )
    ],
    # errors near 1e182 whose squares overflow: the norms scale before squaring, so the table is finite
    ("converge_norm_past_square_range",
     {"a1": 1.95983915425917e+30, "L": 5.200198134116831e+60, "mu": 3.248851748672497e+269,
      "omega": 1.396156436588351e-25, "n_springs": 300, "eps_tilde": 0.7},
     ["converge", "--n-list", "8,16,32"]),
    # error paths: each exits nonzero with one stderr line and should leave no file or directory
    ("error_sweep_no_successful_point", {"Lambda": 1.0},
     ["sweep", "--axis", "k_omega", "--from", "1e305", "--to", "1e306", "--points", "2", "--log"]),
    ("error_sweep_eps_tilde_no_successful_point", {"Lambda": 1.0, "k_tilde": 1.7e298},
     ["sweep", "--axis", "eps_tilde", "--from", "0.1", "--to", "0.5", "--points", "3"]),
    ("error_sweep_k_tilde_underflow", None,
     ["sweep", "--axis", "k_omega", "--from", "1e-320", "--to", "1", "--points", "3", "--log"]),
    # a linear grid with an infinite end: refused before numpy spaces it into NaN points, warning
    ("error_sweep_linear_inf", None, ["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "inf", "--points", "3"]),
    # finite ends whose span overflows: refused before numpy spaces them, warning, into NaN points
    ("error_sweep_linear_span_overflow", None,
     ["sweep", "--axis", "k_omega", "--from", "-1e308", "--to", "1e308", "--points", "3"]),
    # a negative value in exponent form reaches the range check rather than reading as an option
    ("error_sweep_negative_exponent", None,
     ["sweep", "--axis", "eps_tilde", "--from", "-5e-1", "--to", "0.5", "--points", "3"]),
    ("error_config_zero_springs", {"n_springs": 0}, ["optimize"]),
    ("error_simulate_dt_not_dividing", None, ["simulate", "--scheme", "nspring", "--dt", "0.3"]),
    ("error_converge_bad_n_list", None, ["converge", "--n-list", "25,abc,50"]),
    ("error_config_unknown_key", {"stiffness": 1.0}, ["analytic"]),
    ("error_config_root_not_object", [1], ["analytic"]),
    # eps_tilde = 0: every error is zero and has no rate, refused before any table is computed
    ("error_converge_motionless", {"eps_tilde": 0.0}, ["converge", "--n-list", "8,16,32"]),
    # k_omega about 5.96e-164: s and b_d are finite, but the discriminant c (c + 4) overflows
    ("error_analytic_delta_overflow", {"n_springs": 1, "k_tilde": 1e-170}, ["analytic", "--samples", "2"]),
    # lengths far from a metre, whose products in metres overflowed: a lumped stiffness stencil and a converge
    # omega M; fem divides its equation by powers of two near Lambda and eps, so both now succeed
    ("simulate_lumped_lengths_far_from_a_metre",
     {"Lambda": 3.263154194182222e+182, "L": 2.4786994078256837e+67, "k_tilde": 1.6393304886730294e-148,
      "omega": 9.96544660707212e-178, "n_springs": 1, "eps_tilde": 0.7},
     ["simulate", "--scheme", "lumped", "--samples", "8"]),
    ("converge_lengths_far_from_a_metre",
     {"a_tilde": 1.3851714533727236e+23, "Lambda": 4.1904315550649165e+194, "L": 6.094858334111226e+87,
      "omega": 2.6476524888807593e+204, "n_springs": 1, "eps_tilde": 0.999},
     ["converge", "--n-list", "8,16,32"]),
    # a boundary layer far below a metre: its r in 1/m overflows, but the study runs at Lambda/4**m
    ("converge_boundary_layer_underflow", {"Lambda": 1e-200, "k_tilde": 1e-250, "n_springs": 2},
     ["converge", "--n-list", "8,16,32"]),
    ("converge_boundary_layer_far_below_a_metre", {"Lambda": 1e-250, "omega": 1e200},
     ["converge", "--n-list", "8,16,32"]),
    # s and b_d are finite, but the discriminant delta = c (c + 4) is not: simulate, which writes no delta, succeeds
    *[(label, {"n_springs": 2, "omega": 1e160}, args)
      for label, args in (("simulate_delta_overflow", ["simulate", "--samples", "8"]),
                          ("error_analytic_delta_overflow_n2", ["analytic", "--samples", "2"]))],
    # every length (and k_tilde, so that K stays) times 1e-250: the L2 errors pass the float range, refused by name
    ("error_converge_lengths_1e-250",
     {"a_tilde": 1e-255, "a1": 1e-255, "Lambda": 4e-254, "L": 3e-255, "k_tilde": 1e-258},
     ["converge", "--n-list", "8,16,32"]),
    # eps_tilde = 0: every error and every drift is exactly 0, refused up front
    ("error_optimize_motionless", {"eps_tilde": 0.0}, ["optimize"]),
    # numeric blow-ups fail with one line: a head velocity past the float range, and stiffness stencils whose
    # K n overflows in Python floats at Lambda = 1 m (refused by Crank-Nicolson and by the harmonic solve on
    # its stencil scalars)
    ("error_simulate_velocity_invalid",
     {"a_tilde": 7.208166483600289e+224, "a1": 9.406300878363314e+50, "Lambda": 761409092.1376953,
      "L": 6.897820557790091e+275, "k_tilde": 4.4336706824525126e+63, "mu": 6.605892088843597e-290,
      "n_springs": 2, "eps_tilde": 0.0},
     ["simulate", "--samples", "4"]),
    ("error_simulate_lumped_stiffness_overflow", {"Lambda": 1.0, "k_tilde": 1e301, "omega": 1e306},
     ["simulate", "--scheme", "lumped", "--samples", "8"]),
    ("error_converge_harmonic_overflow", {"Lambda": 1.0, "k_tilde": 1e301, "omega": 1e306},
     ["converge", "--n-list", "8,16,32"]),
    # the continuum reference's b is NaN (2 k_omega coupling overflows): refused, naming the study's scales
    ("error_converge_reference_overflow",
     {"a1": 3.394796927451234e-183, "Lambda": 3.1848274932758444e+81, "k_tilde": 3.1177957698374256e+273,
      "n_springs": 50, "eps_tilde": 0.7},
     ["converge", "--n-list", "8,16,32"]),
    # derived scalars refused at load: a coupling a_tilde/(2 a1) that overflows and a spacing Lambda/N that underflows
    ("error_analytic_infinite_coupling", {"n_springs": 3, "a1": 1e-320}, ["analytic", "--samples", "2"]),
    ("error_sweep_zero_spacing", {"Lambda": 5e-324, "n_springs": 3},
     ["sweep", "--axis", "k_omega", "--from", "0.1", "--to", "1", "--points", "3"]),
]


def digest(checkout: Path) -> list[str]:
    src = (checkout / "src").resolve()
    if not (src / "springswim").is_dir():
        raise SystemExit(f"error: no springswim package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": os.path.join(tmp, "pycache")}

        def run(command) -> tuple[list[str], str]:
            """The artifact lines and the command line of one command."""
            label, config, args = command
            out = Path(tmp, label)
            out.mkdir()
            if config is not None:
                (out / "config.json").write_text(json.dumps(config))
                args = [*args, "--config", "config.json"]
            proc = subprocess.run(
                [sys.executable, "-m", "springswim", *args, "--out", "artifacts"],
                cwd=out, env=env, capture_output=True, text=True, check=False,
            )
            lines = []
            for path in sorted(out.rglob("*")):
                if path.is_file() and path.name != "config.json":
                    sha = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{sha} {label} {path.relative_to(out).as_posix()}")
            first = (proc.stderr.splitlines() or [""])[0].replace(tmp, "<tmp>")
            return lines, f"exit={proc.returncode} {label} {first}".rstrip()

        with ThreadPoolExecutor(os.cpu_count()) as pool:
            results = list(pool.map(run, COMMANDS))
    return sorted(line for lines, _ in results for line in lines) + sorted(line for _, line in results)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/artifact_digest.py CHECKOUT")
    print("\n".join(digest(Path(sys.argv[1]))))
