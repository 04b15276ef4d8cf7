"""Command-line front end.

Subcommands::

    delaymat fundamental --system sys.json --kind {cont,disc} \
        [--from T0] --to T [--step DT] [--format csv|json] [--out PATH] \
        [--dump-q PATH] [--dump-z PATH]
    delaymat solve --system sys.json --history hist.json \
        [--forcing g.json] --to T|N [--step DT] [--format csv|json] \
        [--out PATH] [--allow-noncommuting-data] [--dump-q] [--dump-z]
    delaymat verify [--system ... --history ... [--forcing ...] | \
        --random [--kind {cont,disc}] [--d D]] [--to T|N] [--seed S] \
        [--substeps N] [--tol X] [--allow-noncommuting-data]
    delaymat example {1,2}

Exit codes: 0 success; 1 tolerance or hypothesis failure; 2 schema
violation, or data that does not fit the system or the horizon (with a
file-, line- or pointer-anchored message on stderr).  When an
output path is given, the effective configuration is echoed into a
``run-manifest.json`` next to it.  The environment variable
``DELAYMAT_LOG`` in {error, info, debug} controls log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataMismatch, DelayMatError, SchemaError
from .fixtures import run_example
from .fundamental import DiscreteFundamental, build_fundamental_continuous
from .generators import (
    random_discrete_scalar_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from .oracle import IntegratorConfig, integrate_continuous, step_discrete
from .qseq import build_q_table
from .serialize import (
    dump_json,
    load_forcing,
    load_history,
    load_system,
    ppoly_to_node,
    qtable_to_node,
    trajectory_to_node,
    write_json,
    write_trajectory_csv,
)
from .solve import (
    HYPOTHESIS_TOL,
    solve_continuous,
    solve_discrete,
    validate_hypotheses,
)
from .system import TrajectoryTable

__all__ = ["build_parser", "main"]

log = logging.getLogger(__name__)


def _configure_logging():
    name = os.environ.get("DELAYMAT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if name not in levels:
        print(
            f"warning: DELAYMAT_LOG={name!r} is not one of error/info/debug; "
            f"using error",
            file=sys.stderr,
        )
    logging.basicConfig(
        level=levels.get(name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaymat",
        description=(
            "Closed-form solutions of linear matrix delay equations "
            "X'(t) = A0 X(t-s) + X(t-s) A1 + G(t) and their discrete "
            "analogues, cross-checked against brute-force integrators."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fund = sub.add_parser(
        "fundamental", help="sample the fundamental solution Z on a grid"
    )
    fund.add_argument("--system", required=True, metavar="FILE")
    fund.add_argument(
        "--kind", required=True, choices=("cont", "disc"),
        help="continuous or discrete fundamental solution",
    )
    fund.add_argument(
        "--from", dest="start", type=float, default=None, metavar="T0",
        help="first sample (default: left edge of the delay window)",
    )
    fund.add_argument("--to", dest="stop", type=float, required=True, metavar="T")
    fund.add_argument(
        "--step", type=float, default=None, metavar="DT",
        help="sampling step (required for cont; integer >= 1 for disc, default 1)",
    )
    _add_output_flags(fund)
    _add_dump_flags(fund)

    solve = sub.add_parser(
        "solve", help="solve an initial value problem via the closed form"
    )
    solve.add_argument("--system", required=True, metavar="FILE")
    solve.add_argument("--history", required=True, metavar="FILE")
    solve.add_argument("--forcing", default=None, metavar="FILE")
    solve.add_argument(
        "--to", dest="stop", type=float, required=True, metavar="T|N",
        help="horizon (continuous) or step count (discrete)",
    )
    solve.add_argument(
        "--step", type=float, default=None, metavar="DT",
        help="output sampling step (continuous only)",
    )
    solve.add_argument(
        "--hypothesis-tol", type=float, default=HYPOTHESIS_TOL, metavar="X",
        help="relative tolerance of the data commutation check",
    )
    solve.add_argument(
        "--allow-noncommuting-data", action="store_true",
        help="evaluate the formula even if the commutation check fails "
        "(the run manifest and JSON output are tagged)",
    )
    _add_output_flags(solve)
    _add_dump_flags(solve)

    verify = sub.add_parser(
        "verify",
        help="run the closed form and the brute-force oracle on the same "
        "inputs and report per-window differences",
    )
    verify.add_argument("--system", default=None, metavar="FILE")
    verify.add_argument("--history", default=None, metavar="FILE")
    verify.add_argument("--forcing", default=None, metavar="FILE")
    verify.add_argument(
        "--random", action="store_true",
        help="generate a seeded random system with commuting data instead "
        "of reading files",
    )
    verify.add_argument(
        "--kind", choices=("cont", "disc"), default="cont",
        help="system family for --random (default cont)",
    )
    verify.add_argument(
        "--d", type=int, default=2, help="dimension for --random (default 2)"
    )
    verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    verify.add_argument(
        "--to", dest="stop", type=float, default=None, metavar="T|N",
        help="horizon / step count (default: five delay windows)",
    )
    verify.add_argument(
        "--substeps", type=int, default=2048,
        help="rows per delay window at which the exact continuous oracle "
        "is sampled and compared (default 2048, at least 16)",
    )
    verify.add_argument(
        "--tol", type=float, default=None, metavar="X",
        help="failure threshold on each window's gap relative to "
        "max(|oracle|, 1) (default 1e-10 continuous, 1e-9 discrete)",
    )
    verify.add_argument("--allow-noncommuting-data", action="store_true")

    example = sub.add_parser(
        "example", help="run a bundled worked example and print its report"
    )
    example.add_argument("number", type=int, choices=(1, 2))

    return parser


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, metavar="PATH")


def _add_dump_flags(sub):
    sub.add_argument(
        "--dump-q", default=None, metavar="PATH",
        help="write the coefficient table q_r as JSON",
    )
    sub.add_argument(
        "--dump-z", default=None, metavar="PATH",
        help="write the fundamental solution as JSON",
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _flag_error(msg, flag):
    raise SchemaError(msg, location=flag)


def _as_index(value, flag):
    if abs(value - round(value)) > 1e-9:
        _flag_error(f"expected an integer, got {value}", flag)
    return int(round(value))


def _sample_times(start, stop, step):
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _discrete_z_table(sys_, us):
    """``Z(u)`` at the ascending indices ``us`` (one table, then a slice)."""
    first = int(us[0])
    z = DiscreteFundamental(sys_).table(first, int(us[-1]))
    return TrajectoryTable(
        kind="discrete", times=us.astype(float), values=z[us - first]
    )


def _write_dumps(args, sys_, horizon, z_node, outputs):
    """Write ``--dump-z`` (the node ``z_node()``, built only when asked
    for) and ``--dump-q`` (the q table deep enough to reach ``horizon``,
    a time for continuous systems or a step index for discrete ones)."""
    if args.dump_z:
        write_json(z_node(), args.dump_z)
        outputs.append(args.dump_z)
    if args.dump_q:
        if sys_.is_continuous:
            depth = max(1, int(math.ceil(horizon / sys_.sigma - 1e-12)))
        else:
            depth = max(1, -(-int(max(horizon, 1)) // (sys_.m + 1)))
        write_json(
            qtable_to_node(build_q_table(sys_.a0, sys_.a1, depth)), args.dump_q
        )
        outputs.append(args.dump_q)


def _emit_table(args, table, json_extra, outputs):
    if args.format == "csv":
        if args.out:
            with open(args.out, "w") as fh:
                write_trajectory_csv(table, fh)
            outputs.append(args.out)
        else:
            write_trajectory_csv(table, sys.stdout)
        return
    node = trajectory_to_node(table)
    node.update(json_extra)
    if args.out:
        write_json(node, args.out)
        outputs.append(args.out)
    else:
        dump_json(node, sys.stdout)


def _utf8(value):
    """A command-line string as valid UTF-8 for JSON: bytes that do not
    decode (kept by Python as lone surrogates) are spelled ``\\xNN``."""
    if isinstance(value, str):
        return os.fsencode(value).decode("utf-8", "backslashreplace")
    return value


def _write_manifest(args, outputs, extra):
    """Echo the effective configuration next to the first output file."""
    if not outputs:
        return
    options = {
        key: _utf8(value)
        for key, value in sorted(vars(args).items())
        if key != "command"
    }
    manifest = {
        "tool": "delaymat",
        "version": __version__,
        "command": args.command,
        "options": options,
        "outputs": [_utf8(str(Path(p))) for p in outputs],
    }
    manifest.update(extra)
    write_json(manifest, Path(outputs[0]).resolve().parent / "run-manifest.json")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_fundamental(args):
    sys_ = load_system(args.system)
    want = "continuous" if args.kind == "cont" else "discrete"
    if sys_.kind != want:
        raise SchemaError(
            f"system kind is {sys_.kind!r} but --kind asked for {want!r}",
            location=f"{args.system}: /kind",
        )
    outputs = []
    if sys_.is_continuous:
        sigma = sys_.sigma
        if args.stop <= 0:
            _flag_error("--to must be positive", "--to")
        if args.step is None or args.step <= 0:
            _flag_error("continuous sampling needs --step > 0", "--step")
        start = -sigma if args.start is None else args.start
        if start >= args.stop:
            _flag_error(f"--from {start} must lie left of --to {args.stop}", "--from")
        z = build_fundamental_continuous(sys_, args.stop)
        times = _sample_times(start, args.stop, args.step)
        table = TrajectoryTable(
            kind="continuous", times=times, values=z.eval(times)
        )
        _write_dumps(args, sys_, args.stop, lambda: ppoly_to_node(z), outputs)
    else:
        m = sys_.m
        stop = _as_index(args.stop, "--to")
        if stop <= 0:
            _flag_error("--to must be positive", "--to")
        start = -(m + 1) if args.start is None else _as_index(args.start, "--from")
        step = 1 if args.step is None else _as_index(args.step, "--step")
        if step < 1:
            _flag_error("--step must be a positive integer", "--step")
        if start > stop:
            _flag_error(f"--from {start} must not exceed --to {stop}", "--from")
        table = _discrete_z_table(sys_, np.arange(start, stop + 1, step))
        _write_dumps(
            args, sys_, stop, lambda: trajectory_to_node(table), outputs
        )
    _emit_table(args, table, {}, outputs)
    _write_manifest(args, outputs, {})
    return 0


def _cmd_solve(args):
    sys_ = load_system(args.system)
    history = load_history(args.history, sys_)
    forcing = load_forcing(args.forcing, sys_) if args.forcing else None
    outputs = []
    report = validate_hypotheses(sys_, history, forcing, tol=args.hypothesis_tol)
    if sys_.is_continuous:
        if args.stop <= 0:
            _flag_error("--to must be positive", "--to")
        if args.step is None or args.step <= 0:
            _flag_error("continuous output sampling needs --step > 0", "--step")
        x = solve_continuous(
            sys_, history, forcing, args.stop,
            allow_noncommuting_data=args.allow_noncommuting_data,
            hypothesis_tol=args.hypothesis_tol,
        )
        times = _sample_times(-sys_.sigma, args.stop, args.step)
        table = TrajectoryTable(
            kind="continuous", times=times, values=x.eval(times)
        )
        # the formula reads Z one delay past the horizon
        z_end = args.stop + sys_.sigma
        _write_dumps(
            args, sys_, z_end,
            lambda: ppoly_to_node(build_fundamental_continuous(sys_, z_end)),
            outputs,
        )
    else:
        n_steps = _as_index(args.stop, "--to")
        if n_steps < 0:
            _flag_error("--to must be >= 0", "--to")
        table = solve_discrete(
            sys_, history, forcing, n_steps,
            allow_noncommuting_data=args.allow_noncommuting_data,
            hypothesis_tol=args.hypothesis_tol,
        )
        us = np.arange(-(sys_.m + 1), n_steps + 1)
        _write_dumps(
            args, sys_, n_steps,
            lambda: trajectory_to_node(_discrete_z_table(sys_, us)),
            outputs,
        )
    tagged = bool(args.allow_noncommuting_data and not report.ok)
    extra = {
        "hypothesis_check": report.summary(),
        "hypothesis_ok": report.ok,
        "forced_past_hypothesis": tagged,
    }
    if tagged:
        print(
            "note: commutation hypothesis violated; output is a formal "
            "evaluation of the representation formula",
            file=sys.stderr,
        )
    _emit_table(args, table, extra, outputs)
    _write_manifest(args, outputs, extra)
    return 0


def _verify_inputs(args, rng):
    """System + data for `verify`, either from files or seeded random."""
    if args.random:
        kind = "continuous" if args.kind == "cont" else "discrete"
        sys_ = random_system(rng, args.d, kind, entry_scale=1.0 / args.d)
        if sys_.is_continuous:
            horizon = 5.0 * sys_.sigma if args.stop is None else float(args.stop)
            history = random_scalar_history(rng, sys_)
            forcing = random_scalar_forcing(rng, sys_, horizon)
        else:
            horizon = (
                5 * (sys_.m + 1) if args.stop is None
                else _as_index(args.stop, "--to")
            )
            history, forcing = random_discrete_scalar_data(rng, sys_, int(horizon))
        return sys_, history, forcing, horizon
    if not (args.system and args.history):
        _flag_error("verify needs --system and --history, or --random", "--system")
    sys_ = load_system(args.system)
    history = load_history(args.history, sys_)
    forcing = load_forcing(args.forcing, sys_) if args.forcing else None
    if args.stop is not None:
        horizon = (
            float(args.stop) if sys_.is_continuous else _as_index(args.stop, "--to")
        )
    else:
        horizon = 5.0 * sys_.sigma if sys_.is_continuous else 5 * (sys_.m + 1)
    return sys_, history, forcing, horizon


def _cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    sys_, history, forcing, horizon = _verify_inputs(args, rng)
    if sys_.is_continuous:
        if horizon <= 0:
            _flag_error("--to must be positive", "--to")
        tol = 1e-10 if args.tol is None else args.tol
        x = solve_continuous(
            sys_, history, forcing, horizon,
            allow_noncommuting_data=args.allow_noncommuting_data,
        )
        oracle = integrate_continuous(
            sys_, history, forcing, horizon,
            IntegratorConfig(substeps_per_delay=args.substeps),
        )
        closed = x.eval(oracle.times)
        sigma = sys_.sigma
        windows = []
        k = 0
        while k * sigma < horizon - 1e-12 * sigma:
            a, b = k * sigma, min((k + 1) * sigma, horizon)
            rows = slice(
                np.searchsorted(oracle.times, a - 1e-12 * sigma, side="left"),
                np.searchsorted(oracle.times, b + 1e-12 * sigma, side="right"),
            )
            windows.append(
                (f"window [{a:g}, {b:g}]: max |closed form - integrator|", rows)
            )
            k += 1
    else:
        n_steps = int(horizon)
        if n_steps <= 0:
            _flag_error("--to must be positive", "--to")
        tol = 1e-9 if args.tol is None else args.tol
        x = solve_discrete(
            sys_, history, forcing, n_steps,
            allow_noncommuting_data=args.allow_noncommuting_data,
        )
        oracle = step_discrete(sys_, history, forcing, n_steps)
        closed = x.values
        m = sys_.m
        windows = []
        for a in range(0, n_steps + 1, m + 1):
            b = min(a + m + 1, n_steps + 1)
            rows = slice(*np.searchsorted(oracle.times, [a, b], side="left"))
            if rows.stop > rows.start:
                windows.append(
                    (f"window u in [{a}, {b}): max |closed form - stepper|", rows)
                )
    labels, rows = zip(*windows)
    gaps, ok = _compare_windows(closed, oracle.values, rows, tol)
    for label, (gap, rel) in zip(labels, gaps):
        print(f"{label} = {gap:.3e} (relative {rel:.3e})")
    worst = max(gap for gap, _ in gaps)
    worst_rel = max(rel for _, rel in gaps)
    print(f"max difference {worst:.3e}, relative {worst_rel:.3e} "
          f"(tolerance {tol:g}) -> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _compare_windows(closed, oracle, masks, tol):
    """Compare closed-form values with oracle values window by window.

    ``closed`` and ``oracle`` are ``(rows, d, d)`` stacks on the same
    rows; each entry of ``masks`` selects one window's rows.  Returns the
    per-window ``(absolute, relative)`` gaps and whether every relative
    gap is within ``tol``.  The relative gap is ``max|closed - oracle|``
    divided by ``max(max|oracle|, 1)`` over the window: solutions grow
    geometrically, so past magnitude 1 the gap is judged against the
    window's size, and up to magnitude 1 it is the absolute gap.
    """
    gaps = []
    for mask in masks:
        ref = oracle[mask]
        gap = float(np.max(np.abs(closed[mask] - ref)))
        gaps.append((gap, gap / max(float(np.max(np.abs(ref))), 1.0)))
    return gaps, all(rel <= tol for _, rel in gaps)


def _cmd_example(args):
    report = run_example(args.number)
    print(report.render())
    return 0 if report.ok else 1


_COMMANDS = {
    "fundamental": _cmd_fundamental,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "example": _cmd_example,
}


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataMismatch as exc:
        # a data file loaded but does not fit the system or the horizon
        print(f"error: {getattr(args, exc.role)}: {exc}", file=sys.stderr)
        return 2
    except DelayMatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
