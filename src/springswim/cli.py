"""Command-line front end writing deterministic CSV/JSON artifacts.

Subcommands: simulate (stroke time series and sphere positions), converge (error tables with
fitted slopes), sweep (displacement along a parameter axis), optimize (best k_omega), analytic
(closed-form node values). Each returns its files' leading bytes and CSV row blocks, and one writer
makes them all, so a failed command leaves no path. Output is data only; plotting is left to
external tools. Identical inputs give byte-identical files: floats are printed with 17
significant digits, CSV uses '.' decimals, ',' separators and LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analytic import build_discrete_mode
from .displacement import BRACKET, REL_TOL, SWEEP_AXES, instantaneous_v1, optimize_k_omega, sweep
from .fem import CrankNicolson, MassVariant, assemble, step_count
from .metrics import STEPS_PER_PERIOD, RateEstimate, convergence_study, fit_rate
from .model import Forcing, SwimmerParams, config_from_mapping, load_config, positive_count, positive_real


def _split(x):
    """Dekker split: x == big + small, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    big = c - (c - x)
    return big, x - big


@functools.cache
def _format_tables():
    """Tables of _format, built on first use, by e = floor(log10|x|) = -271..270 (|x| in
    [1e-270, 1e270), one wider each side for log10 rounding; every product in _round17 is
    then a normal double), by sign and first digit, by 4-digit group, and by layout and significant digits."""
    exps = np.arange(-271, 271)
    hi, lo = [], []
    for e in exps.tolist():
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi.append(num / den)  # integer true division rounds correctly
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    # A value's 48 template bytes in print order: 0 sign, 1-5 '0.000', 6-39 its 17 digits each
    # followed by a '.' slot, 40-44 'e', exponent sign and 3 digits, 45 ',' or '\n', 46-47 NUL.
    heads = np.frombuffer(b"".join(s + b"0.000%d." % d for s in (b"\0", b"-") for d in range(10)), np.uint64)
    words = np.full((10**4, 8), 46, np.uint8)  # 'd.d.d.d.' for each 4-digit group
    words[:, ::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48
    tails = np.frombuffer(b"".join(b"e%+04d,\0\0" % e for e in exps.tolist()), np.uint64)
    # keep[layout, k - 1]: the template bytes '%.17g' prints of a value with k significant digits.
    # Layouts 0-20 are fixed point for exponents -4..16; 21 and 22 have 2 and 3 exponent digits.
    keep = np.zeros((23, 17, 48), bool)
    k = np.arange(1, 18)
    for layout, rows in enumerate(keep):
        exp = layout - 4 if layout < 21 else 0  # an exponent form places the point as exponent 0 does
        rows[:, [0, 45]] = True  # the sign slot (NUL when positive) and the separator
        rows[:, 1 : 2 - min(exp, 0)] = exp < 0  # below 1: '0.' and -exp - 1 zeros ahead of the first digit
        rows[:, 6:40:2] = np.arange(17) < np.maximum(k, exp + 1)[:, None]  # integer digits, no trailing zero
        rows[:, 7 + 2 * max(exp, 0)] = (exp >= 0) & (k > exp + 1)  # the point, where a digit follows it
        rows[:, [40, 41, 43, 44]] = layout >= 21  # 'e', the exponent's sign and its last two digits
        rows[:, 42] = layout == 22  # its hundreds digit
    layouts = np.where((exps >= -4) & (exps < 17), exps + 4, 21 + (np.abs(exps) >= 100))
    keep = (keep.view(np.uint8) * 255).view(np.uint64).reshape(-1, 6)
    return hi, lo, *_split(hi), heads, words.view(np.uint64).ravel(), tails, layouts * 17 - 1, keep


def _round17(a, e):
    """q = round(y) for y = a * 10**(16 - e), e as table index, and where q is certified.

    y is formed in double-double arithmetic to about 1e-14, so q = floor(y) + (frac(y) > 1/2)
    is exact when floor(y) is in [1e16, 1e17), q < 1e17 and |frac(y) - 1/2| > 1e-9.
    """
    hi, lo, big, small = _format_tables()[:4]
    p = a * hi[e]
    a_big, a_small = _split(a)
    big, small = big[e], small[e]
    low = (((a_big * big - p) + a_big * small + a_small * big) + a_small * small) + a * lo[e]
    y_hi = p + low
    y_lo = low - (y_hi - p)  # y_hi + y_lo == p + low exactly; y_hi is an integer when certified
    floor_lo = np.floor(y_lo)
    whole = y_hi.astype(np.int64) + floor_lo.astype(np.int64)
    frac = y_lo - floor_lo
    q = whole + (frac > 0.5)
    return q, (np.abs(frac - 0.5) > 1e-9) & (whole >= 10**16) & (q < 10**17)


_SLICE = 8192  # values per formatting pass; a pass holds about 230 bytes of temporaries a value
_BLOCK = 32768  # values per block of rows that simulate and analytic compute and write at once


def _format(block: np.ndarray):
    """Yield the ASCII '%.17g' text of a 2-D float block, _SLICE values at a time, byte for byte.

    Values in a row are separated by ',' and each row ends in '\n'. The 17 digits of |x| are
    q = round(|x| * 10**(16 - e)) for e = floor(log10|x|), used when _round17 certifies them.
    Any other value (0, -0, inf, nan, |x| outside [1e-270, 1e270), near-ties, a wrong e) is
    printed by Python's '%.17g' in its own slot.
    """
    heads, words, tails, first_row, keep = _format_tables()[4:]
    rows, width = np.shape(block)
    if width == 0:
        yield b"\n" * rows
    flat = np.asarray(block, dtype=float).ravel()
    for start in range(0, flat.size, _SLICE):
        x = flat[start : start + _SLICE]
        a = np.abs(x)
        bad = ~((a >= 1e-270) & (a < 1e270))
        a[bad] = 1.0  # log10 and the int64 casts see only positive finite values
        e = np.floor(np.log10(a)).astype(np.intp) + 271  # table index
        q, certified = _round17(a, e)
        bad |= ~certified
        q[bad] = 10**16  # keeps the digit groups of the values printed by Python in range
        text = np.empty((len(x), 6), np.uint64)  # each value's template, 8 bytes a word
        for j in range(4, 0, -1):
            q, group = np.divmod(q, 10**4)
            text[:, j] = words.take(group)
        text[:, 0] = heads.take(q + 10 * (x < 0))
        text[:, 5] = tails.take(e)
        chars = text.view(np.uint8)
        chars[(width - 1 - start) % width :: width, 45] = 10  # '\n' ends a row
        k = 17 - np.argmax(chars[:, 38:5:-2] != 48, axis=1)  # significant digits
        text &= keep.take(first_row.take(e) + k, axis=0)
        bad = np.flatnonzero(bad)
        chars[bad, :45] = np.array(["%.17g" % v for v in x[bad].tolist()], "S45").view(np.uint8).reshape(-1, 45)
        yield text.tobytes().translate(None, b"\0")


def _write(out: Path, files: dict[str, bytes], blocks) -> list[Path]:
    """Write each named file under out, made with its missing parents: its leading bytes, then the rows of the
    CSV files, which come first; each item of blocks holds one 2-D table per CSV file. The paths are returned.
    If anything fails, every file opened and then every directory made, innermost first, is removed.
    """
    made = [path for path in (out, *out.parents) if not path.exists()]  # innermost first
    paths, handles = [out / name for name in files], []
    try:
        out.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:
            for path, head in zip(paths, files.values()):
                handles.append(stack.enter_context(open(path, "wb")))
                handles[-1].write(head)
            for tables in blocks:
                for fh, table in zip(handles, tables):
                    fh.writelines(_format(table))
    except BaseException:
        for path in paths[: len(handles)]:
            path.unlink(missing_ok=True)
        for path in made:
            with contextlib.suppress(OSError):  # not made after all, or no longer empty
                path.rmdir()
        raise
    return paths


def _json(payload: dict) -> bytes:
    """A JSON file's whole text; NaN and infinities are not JSON, so they raise."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _node_header(params: SwimmerParams) -> bytes:
    """The 't,<node positions>' header line of a table of node values."""
    return b"t," + b"".join(_format((np.arange(params.n_springs + 1) * params.h)[None]))


def _closed_form(params: SwimmerParams, forcing: Forcing, t_end: float, samples: int):
    """The closed-form chain mode and its (t, node values) rows at samples + 1 even times in [0, t_end]."""
    mode = build_discrete_mode(params, forcing)
    return mode, ((t, mode.node_values(t)) for t in np.linspace(0.0, t_end, samples + 1))


def _row_blocks(samples, width: int):
    """(times, rows) blocks of about _BLOCK values from (t, row) samples whose table rows hold width values."""
    samples, step = iter(samples), max(1, _BLOCK // width)
    return iter(lambda: tuple(map(np.array, zip(*itertools.islice(samples, step)))), ())  # () ends it


def _simulation_blocks(params: SwimmerParams, forcing: Forcing, blocks):
    """(elongations, positions) table blocks from (times, node elongations) blocks in time order.

    The head starts at the origin and integrates its velocity with the trapezoid rule on the
    sample grid, as one sequential sum carried from block to block; every other sphere hangs
    off the head by the active arm plus the cumulative spring lengths.
    """
    n = params.n_springs
    carry = None
    for t, ell in blocks:
        v1 = instantaneous_v1(params, forcing, ell, t)
        t_prev, v_prev, x_prev = carry or (t[0], v1[0], 0.0)  # first block: a zero-length step from its first sample
        terms = 0.5 * np.diff(np.concatenate([[t_prev], t])) * (np.concatenate([[v_prev], v1[:-1]]) + v1)
        x1 = np.cumsum(np.concatenate([[x_prev], terms]))[1:]
        carry = t[-1], v1[-1], x1[-1]
        arm = np.asarray(forcing.arm_length(t))
        tail = x1[:, None] - arm[:, None] - np.cumsum(ell[:, :n] / n + params.h, axis=1)
        yield np.column_stack([t, ell]), np.column_stack([t, x1, x1 - arm, tail])


def cmd_simulate(args, params: SwimmerParams, forcing: Forcing):
    t_end = forcing.period if args.t_end is None else args.t_end

    if args.scheme == "analytic":
        _, samples = _closed_form(params, forcing, t_end, args.samples)
    else:
        system = assemble(params, forcing, MassVariant(args.scheme))
        dt = t_end / (math.ceil(1024 / args.samples) * args.samples) if args.dt is None else args.dt
        nsteps = step_count(t_end, dt)
        if nsteps % args.samples != 0:
            raise ValueError(
                f"samples={args.samples} must divide the {nsteps} time steps; adjust --samples or --dt"
            )
        samples = CrankNicolson(system, dt).samples(np.zeros(params.n_springs), nsteps, nsteps // args.samples)

    pos_header = ",".join(["t"] + [f"x{j}" for j in range(1, params.n_springs + 3)]) + "\n"
    files = {"elongations.csv": _node_header(params), "positions.csv": pos_header.encode()}
    return files, _simulation_blocks(params, forcing, _row_blocks(samples, params.n_springs + 3))


def _rate_payload(estimate: RateEstimate) -> dict:
    """The fit's fields as JSON; a refit key appears only where there is a refit, at any depth."""
    return asdict(estimate, dict_factory=lambda items: {key: value for key, value in items if value is not None})


def cmd_converge(args, params: SwimmerParams, forcing: Forcing):
    steps = args.steps_per_period or STEPS_PER_PERIOD  # flag not given: the stepped schemes' default
    records = convergence_study(params, forcing, MassVariant(args.scheme), args.n_list, steps_per_period=steps)
    payload = {
        "scheme": args.scheme,
        "n": args.n_list,
        "steps_per_period": None if args.scheme == MassVariant.NSPRING.value else steps,
        "l2": _rate_payload(fit_rate(records, "l2")),
        "h1": _rate_payload(fit_rate(records, "h1")),
    }
    table = np.array([[r.n, params.Lambda / r.n, r.l2_error, r.h1_error] for r in records])
    name = f"convergence_{args.scheme}"
    return {f"{name}.csv": b"n,h,l2_error,h1_error\n", f"{name}.json": _json(payload)}, [(table,)]


def cmd_sweep(args, params: SwimmerParams, forcing: Forcing):
    for flag, end in (("--from", args.start), ("--to", args.stop)):  # numpy would space a non-finite end into NaNs
        if not math.isfinite(positive_real(flag, end) if args.log else end):
            raise ValueError(f"{flag} must be finite, got {end!r}")
    if not math.isfinite(args.stop - args.start):  # nor a span past the largest double: numpy warns of overflow
        raise ValueError(f"--from {args.start!r} to --to {args.stop!r} spans more than the largest double")
    values = (np.geomspace if args.log else np.linspace)(args.start, args.stop, args.points)  # ends exact
    table = sweep(params, forcing, args.axis, values)
    best = table.argbest()  # on either axis: no successful point raises, before any file is written
    displacements = [None if result is None else result.displacement for result in table.results]
    payload = {
        "axis": table.axis,
        "n": params.n_springs,
        "omega": forcing.omega,
        "params": {**asdict(params), "L": forcing.L_ref},
        "values": list(table.values),
        "displacements": displacements,
        "failures": list(table.failures),
    }
    if table.axis == "k_omega":
        payload["eps_tilde"] = forcing.eps_tilde
        payload["peak"] = None if best is None else {"k_omega": table.values[best], "displacement_m": displacements[best]}
    else:  # a log-log fit: a failed point or a zero on either axis has no logarithm
        ok = [(v, abs(d)) for v, d in zip(table.values, displacements) if v > 0 and d]
        payload["log_log_slope"] = float(np.polyfit(*map(np.log, zip(*ok)), 1)[0]) if len(ok) >= 2 else None
    files = {f"sweep_{args.axis}.csv": b"parameter,displacement_m\n", f"sweep_{args.axis}.json": _json(payload)}
    return files, [(np.column_stack([table.values, table.displacements()]),)]


def cmd_optimize(args, params: SwimmerParams, forcing: Forcing):
    result = optimize_k_omega(params, forcing, bracket=tuple(args.bracket), rel_tol=args.rel_tol)
    payload = asdict(result)
    payload["displacement_m"] = payload.pop("displacement")
    return {"optimize.json": _json(payload)}, ()


def cmd_analytic(args, params: SwimmerParams, forcing: Forcing):
    mode, samples = _closed_form(params, forcing, forcing.period, args.samples)
    # the mode's fields but its root s; complex constants go to JSON as [real, imag]
    payload = {k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in asdict(mode).items() if k != "s"}
    # map, unlike a generator expression, keeps no block alive while its table is written
    blocks = map(lambda block: (np.column_stack(block),), _row_blocks(samples, params.n_springs + 2))
    return {"analytic.csv": _node_header(params), "analytic.json": _json(payload)}, blocks


def _argument(check, value):
    """value through a model check; its error becomes argparse's one-line error, exit code 2."""
    try:
        return check("value", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def positive_int(text: str) -> int:
    return _argument(positive_count, int(text))


def grid_sizes(text: str) -> list[int]:
    values = [positive_int(piece) for piece in text.split(",")]
    if len(values) < 3 or len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"a rate fit needs at least 3 distinct sizes, got {text}")
    return values


def positive_float(text: str) -> float:
    return _argument(positive_real, float(text))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are single-line and machine-parsable."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)  # -5e-1, -inf: values, not options

    def error(self, message: str) -> None:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON parameter file")
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")

    parser = _Parser(prog="springswim", description=__doc__.splitlines()[0])
    schemes = [variant.value for variant in MassVariant]
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", parents=[common], help="stroke time series and positions")
    p.add_argument(
        "--scheme",
        choices=["analytic", *schemes],
        default="analytic",
        help="closed-form periodic mode or a time-stepped mass variant",
    )
    p.add_argument("--samples", type=positive_int, default=200, help="sample rows after t=0")
    p.add_argument("--t-end", type=positive_float, default=None, help="default: one period")
    p.add_argument("--dt", type=positive_float, default=None, help="time step for stepped schemes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", parents=[common], help="error table and fitted slopes")
    p.add_argument("--scheme", choices=schemes, default=MassVariant.NSPRING.value)
    p.add_argument(
        "--n-list", type=grid_sizes, default="25,50,100,200,400,800", help="comma-separated grid sizes"
    )
    p.add_argument("--steps-per-period", type=positive_int, default=None, help=f"default: {STEPS_PER_PERIOD}")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("sweep", parents=[common], help="displacement along one parameter axis")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=positive_int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic spacing")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", parents=[common], help="maximize |displacement| over k_omega")
    p.add_argument("--bracket", nargs=2, type=positive_float, default=BRACKET, metavar=("LO", "HI"))
    p.add_argument("--rel-tol", type=positive_float, default=REL_TOL)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("analytic", parents=[common], help="closed-form node values on a time grid")
    p.add_argument("--samples", type=positive_int, default=200, help="sample rows after t=0")
    p.set_defaults(func=cmd_analytic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_simulate and args.scheme == "analytic" and args.dt is not None:
        parser.error("argument --dt: only the stepped schemes take a time step, not --scheme analytic")
    if args.func is cmd_converge and args.scheme == MassVariant.NSPRING.value and args.steps_per_period is not None:
        parser.error("argument --steps-per-period: only lumped and galerkin are stepped, not --scheme nspring")
    try:  # an overflow, division by zero or invalid operation raises FloatingPointError; underflow is legitimate
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            params, forcing = config_from_mapping({}) if args.config is None else load_config(args.config)
            written = _write(args.out, *args.func(args, params, forcing))
    except Exception as exc:  # single-line diagnostics, nonzero exit
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0
