"""Tally how a seeded set of configs ends on the CLI, from one checkout.

    python3 tools/failure_tally.py CHECKOUT > tally.txt

It builds 250 configs from random.Random(2), drawn as in
tests/test_cli.py::TestErrorHandling::test_no_blow_up_escapes_the_contract: each of a_tilde,
a1, Lambda, L, k_tilde, mu and omega is 10**uniform(-300, 300) with probability 1/2 and the
default otherwise, n_springs is one of 1, 2, 5, 50 and 300, and eps_tilde one of 0, 0.3, 0.7,
0.99 and 0.999. It runs each config through that test's 7 commands in this process, through
springswim.cli.main from CHECKOUT/src, so under the CLI's own float policy. The output has, per
command, its count of successes and one line per distinct stderr line with its count; numbers
are written as # and the temporary directory as <tmp>, so lines that differ only in values are
one line. Then the totals, and the count of failures in numpy's words ("encountered in"), which
name no value. One line per run follows, "config# command: outcome" in the order the runs were
made, the outcome written as in the summary, so a diff names each run that flipped.
Two runs give the same bytes, so `diff` of two tallies (for example against `git archive` of the
parent) shows what a change did to the failure surface.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    ["simulate", "--samples", "8"],
    ["simulate", "--scheme", "lumped", "--samples", "8"],
    ["analytic", "--samples", "4"],
    ["converge", "--n-list", "8,16,32"],
    ["sweep", "--axis", "k_omega", "--from", "1e-3", "--to", "1e3", "--points", "4", "--log"],
    ["sweep", "--axis", "eps_tilde", "--from", "0.1", "--to", "0.9", "--points", "3"],
    ["optimize"],
]
CONFIGS = 250
# a decimal or exponent number, inf or nan, optionally the imaginary part of a complex number
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)j?(?![\w.])", re.IGNORECASE)


def configs(count: int = CONFIGS):
    """The seeded configs, drawn in the order the blow-up test draws them."""
    rng = random.Random(2)
    for _ in range(count):
        config = {key: 10 ** rng.uniform(-300, 300)
                  for key in ("a_tilde", "a1", "Lambda", "L", "k_tilde", "mu", "omega") if rng.random() < 0.5}
        config["n_springs"] = rng.choice([1, 2, 5, 50, 300])
        config["eps_tilde"] = rng.choice([0.0, 0.3, 0.7, 0.99, 0.999])
        yield config


def tally(checkout: Path) -> list[str]:
    src = (checkout / "src").resolve()
    if not (src / "springswim").is_dir():
        raise SystemExit(f"error: no springswim package under {src}")
    sys.path.insert(0, str(src))
    from springswim.cli import main

    outcomes, run_lines = collections.Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "config.json"), Path(tmp, "out")
        for index, config in enumerate(configs()):
            path.write_text(json.dumps(config))
            for argv in COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([*argv, "--config", str(path), "--out", str(out)])
                line = "ok" if code == 0 else NUMBER.sub("#", err.getvalue().strip().replace(tmp, "<tmp>"))
                outcomes[" ".join(argv), line] += 1
                run_lines.append(f"{index} {' '.join(argv)}: {line}")
                shutil.rmtree(out, ignore_errors=True)
    lines = []
    for argv in COMMANDS:
        command = " ".join(argv)
        rows = sorted((line, count) for (label, line), count in outcomes.items() if label == command)
        lines.append(f"{command}: {outcomes[command, 'ok']} ok")
        lines += [f"  {count:4d} {line}" for line, count in rows if line != "ok"]
    ok = sum(count for (_, line), count in outcomes.items() if line == "ok")
    numpy_worded = sum(count for (_, line), count in outcomes.items() if "encountered in" in line)
    lines.append(f"total: {ok} of {sum(outcomes.values())} runs succeed, {numpy_worded} fail in numpy's words")
    return lines + run_lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/failure_tally.py CHECKOUT")
    print("\n".join(tally(Path(sys.argv[1]))))
