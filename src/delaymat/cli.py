"""Command-line front end.

Subcommands::

    delaymat fundamental --system sys.json [--from T0] --to T|N \
        [--step DT] [--format csv|json] [--out PATH] [--dump-q PATH] \
        [--dump-z PATH]
    delaymat solve --system sys.json --history hist.json \
        [--forcing g.json] --to T|N [--step DT] [--format csv|json] \
        [--out PATH]
    delaymat verify [--system ... --history ... [--forcing ...] | \
        --random [--kind {cont,disc}] [--d D] [--seed S]] [--to T|N] \
        [--tol X]
    delaymat example {1,2}

Exit codes: 0 success; 1 a failed tolerance, a solution that leaves
the float range or the degree cap, or an array too large to allocate;
2 schema violation, data that does not fit the system or the horizon
(with a file-, line- or pointer-anchored message on stderr), or an
output path that cannot be opened (naming its flag).
When the first output is a regular file, the effective configuration
is echoed into a ``run-manifest.json`` next to it.  The environment
variable ``DELAYMAT_LOG`` in {error, info, debug} controls log
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataMismatch, DelayMatError, SchemaError, UnwritablePath
from .fundamental import DiscreteFundamental, build_q_table
from .generators import random_matrix_data, random_system
from .oracle import continuous_pieces, step_discrete, window_gaps
from .serialize import (
    dump_json,
    load_forcing,
    load_history,
    load_system,
    ppoly_to_node,
    qtable_to_node,
    replace_on_success,
    trajectory_to_node,
    write_json,
    write_trajectory_csv,
)
from .solve import (
    build_fundamental_continuous,
    delay_windows,
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
        "--from", dest="start", type=float, default=None, metavar="T0",
        help="first sample (default: left edge of the delay window)",
    )
    fund.add_argument("--to", dest="stop", type=float, required=True, metavar="T|N")
    fund.add_argument(
        "--step", type=float, default=None, metavar="DT",
        help="sampling step (required for a continuous system; an integer "
        ">= 1 for a discrete one, default 1)",
    )
    _add_output_flags(fund)
    fund.add_argument(
        "--dump-q", default=None, metavar="PATH",
        help="write the coefficient table q[0] .. q[r] as JSON, r the "
        "delay windows that --to reaches",
    )
    fund.add_argument(
        "--dump-z", default=None, metavar="PATH",
        help="write the fundamental solution as JSON",
    )

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
        help="output sampling step (required for cont; refused for disc, "
        "which writes every row)",
    )
    _add_output_flags(solve)

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
        help="generate a seeded random system with general matrix data "
        "instead of reading files",
    )
    verify.add_argument(
        "--kind", choices=("cont", "disc"), default=None,
        help="system family for --random (default cont)",
    )
    verify.add_argument(
        "--d", type=int, default=None, help="dimension for --random (default 2)"
    )
    verify.add_argument(
        "--seed", type=int, default=None, help="RNG seed for --random (default 0)"
    )
    verify.add_argument(
        "--to", dest="stop", type=float, default=None, metavar="T|N",
        help="horizon / step count (default: five delay windows)",
    )
    verify.add_argument(
        "--tol", type=float, default=None, metavar="X",
        help="failure threshold on each window's gap relative to "
        "max(|oracle|, 1), |oracle| taken at the window's knots (continuous) "
        "or rows (discrete) (default 1e-10 continuous, 1e-9 discrete)",
    )

    example = sub.add_parser(
        "example", help="run a bundled worked example and print its report"
    )
    example.add_argument("number", type=int, choices=(1, 2))

    return parser


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, metavar="PATH")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _flag_error(msg, flag):
    raise SchemaError(msg, location=flag)


#: Every float flag: its name and whether it must be positive as well as
#: finite.
_FLOAT_FLAGS = {
    "start": ("--from", False),
    "stop": ("--to", True),
    "step": ("--step", True),
    "tol": ("--tol", True),
}


def _check_flags(args):
    """Refuse a float flag that is not finite (or not positive, where it
    must be) before any data is read or drawn."""
    for dest, (flag, positive) in _FLOAT_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if not math.isfinite(value) or (positive and value <= 0):
            need = "positive and finite" if positive else "finite"
            _flag_error(f"{flag} must be {need}", flag)


#: The most float64 entries numpy can describe in one array; it refuses
#: a larger shape before allocating anything.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _as_index(value, flag):
    if not math.isfinite(value) or abs(value - round(value)) > 1e-9:
        _flag_error(f"expected an integer, got {value}", flag)
    if abs(value) > _MAX_ENTRIES:
        _flag_error(f"{value:g} is out of the range of an array index", flag)
    return int(round(value))


def _check_rows(rows, d, flag):
    """Refuse ``rows`` matrices of ``d x d`` entries when no one array
    can hold them; ``rows`` may be a float past any count, even inf."""
    if rows * d * d > _MAX_ENTRIES:
        _flag_error(
            f"{rows:.3g} rows of {d}x{d} matrices do not fit in one array", flag
        )


def _step_count(value, sys_):
    """``--to`` as a discrete step count: the rows ``-m .. N`` of the
    solution must fit in an array."""
    n_steps = _as_index(value, "--to")
    _check_rows(n_steps + sys_.m + 1, sys_.dim, "--to")
    return n_steps


def _sample_times(start, stop, step, d):
    """The times ``start, start + step, ..`` up to ``stop``."""
    spans = (stop - start) / step
    _check_rows(spans + 1, d, "--step")
    return start + step * np.arange(int(math.floor(spans + 1e-9)) + 1)


@contextmanager
def _output(flag):
    """Refuse an output path that cannot be opened as a ``flag`` error."""
    try:
        yield
    except UnwritablePath as exc:
        _flag_error(str(exc), flag)


def _write_dumps(args, sys_, z, depth, outputs):
    """Write ``--dump-z`` (``z``: the pieces of a continuous fundamental
    solution, the sampled table of a discrete one) and ``--dump-q``
    (``q[0] .. q[depth]``)."""
    if args.dump_z:
        to_node = ppoly_to_node if sys_.is_continuous else trajectory_to_node
        with _output("--dump-z"):
            write_json(to_node(z), args.dump_z)
        outputs.append(args.dump_z)
    if args.dump_q:
        with _output("--dump-q"):
            write_json(
                qtable_to_node(build_q_table(sys_.a0, sys_.a1, depth)), args.dump_q
            )
        outputs.append(args.dump_q)


def _emit_table(args, table, json_extra, outputs):
    if args.format == "csv":
        if args.out:
            with _output("--out"), replace_on_success(args.out) as fh:
                write_trajectory_csv(table, fh)
            outputs.append(args.out)
        else:
            write_trajectory_csv(table, sys.stdout)
        return
    node = trajectory_to_node(table)
    node.update(json_extra)
    if args.out:
        with _output("--out"):
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
    """Echo the effective configuration next to the first output, when
    that is a regular file (not, say, ``/dev/stdout``)."""
    if not outputs or not Path(outputs[0]).is_file():
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
    if sys_.is_continuous:
        if args.step is None:
            _flag_error("continuous sampling needs --step", "--step")
        start = -sys_.sigma if args.start is None else args.start
        if start >= args.stop:
            _flag_error(f"--from {start} must lie left of --to {args.stop}", "--from")
        z = build_fundamental_continuous(sys_, args.stop)
        times = _sample_times(start, args.stop, args.step, sys_.dim)
        table = TrajectoryTable(kind="continuous", times=times, values=z.eval(times))
        depth = delay_windows(args.stop, sys_.sigma)
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
        # Z is computed on the rows -m .. stop, and kept on start .. stop
        _check_rows(stop + m + 1, sys_.dim, "--to")
        _check_rows(stop - start + 1, sys_.dim, "--from")
        us = np.arange(start, stop + 1, step)
        values = DiscreteFundamental(sys_).table(start, stop)[us - start]
        z = table = TrajectoryTable(
            kind="discrete", times=us.astype(float), values=values
        )
        depth = -(-stop // (m + 1))
    outputs = []
    _write_dumps(args, sys_, z, depth, outputs)
    _emit_table(args, table, {}, outputs)
    _write_manifest(args, outputs, {})
    return 0


def _cmd_solve(args):
    sys_ = load_system(args.system)
    if not sys_.is_continuous and args.step is not None:
        _flag_error("a discrete solve writes every row; --step is for "
                    "continuous systems only", "--step")
    history = load_history(args.history, sys_)
    forcing = load_forcing(args.forcing, sys_) if args.forcing else None
    report = validate_hypotheses(sys_, history, forcing)
    if sys_.is_continuous:
        if args.step is None:
            _flag_error("continuous output sampling needs --step", "--step")
        x = solve_continuous(sys_, history, forcing, args.stop)
        times = _sample_times(-sys_.sigma, args.stop, args.step, sys_.dim)
        table = TrajectoryTable(kind="continuous", times=times, values=x.eval(times))
    else:
        table = solve_discrete(sys_, history, forcing, _step_count(args.stop, sys_))
    # informational: whether the paper's q-form applies term by term
    extra = {"hypothesis_check": report.summary(), "hypothesis_ok": report.ok}
    outputs = []
    _emit_table(args, table, extra, outputs)
    _write_manifest(args, outputs, extra)
    return 0


def _verify_inputs(args):
    """System + data for `verify`, either from files or seeded random."""
    if args.random:
        d = 2 if args.d is None else args.d
        if d < 1:
            _flag_error("--d must be at least 1", "--d")
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        kind = "discrete" if args.kind == "disc" else "continuous"
        sys_ = random_system(rng, d, kind, entry_scale=1.0 / d)
        horizon = _verify_horizon(args, sys_)
        history, forcing = random_matrix_data(rng, sys_, horizon)
        return sys_, history, forcing, horizon
    for flag in ("--kind", "--d", "--seed"):
        if getattr(args, flag[2:]) is not None:
            _flag_error(f"{flag} applies only with --random", flag)
    if not (args.system and args.history):
        _flag_error("verify needs --system and --history, or --random", "--system")
    sys_ = load_system(args.system)
    history = load_history(args.history, sys_)
    forcing = load_forcing(args.forcing, sys_) if args.forcing else None
    return sys_, history, forcing, _verify_horizon(args, sys_)


def _verify_horizon(args, sys_):
    """``--to`` for `verify`, five delay windows by default."""
    if args.stop is None:
        return 5.0 * sys_.sigma if sys_.is_continuous else 5 * (sys_.m + 1)
    return float(args.stop) if sys_.is_continuous else _step_count(args.stop, sys_)


def _cmd_verify(args):
    sys_, history, forcing, horizon = _verify_inputs(args)
    if sys_.is_continuous:
        tol = 1e-10 if args.tol is None else args.tol
        x = solve_continuous(sys_, history, forcing, horizon)
        pieces = continuous_pieces(sys_, history, forcing, horizon)
        gaps = window_gaps(pieces, x, horizon)
        ok = all(rel <= tol for _, rel in gaps)
        labels = [
            f"window [{knots[0]:g}, {min(knots[-1], horizon):g}]: "
            f"bound on |closed form - integrator|"
            for knots, _ in pieces
        ]
    else:
        n_steps = int(horizon)
        if n_steps <= 0:
            _flag_error("--to must be positive", "--to")
        tol = 1e-9 if args.tol is None else args.tol
        x = solve_discrete(sys_, history, forcing, n_steps)
        oracle = step_discrete(sys_, history, forcing, n_steps)
        # both tables hold u = -m .. n_steps at row u + m
        m, labels, windows = sys_.m, [], []
        for a in range(0, n_steps + 1, m + 1):
            b = min(a + m + 1, n_steps + 1)
            labels.append(f"window u in [{a}, {b}): max |closed form - stepper|")
            windows.append(slice(a + m, b + m))
        gaps, ok = _compare_windows(x.values, oracle.values, windows, tol)
    for label, (gap, rel) in zip(labels, gaps):
        print(f"{label} = {gap:.3e} (relative {rel:.3e})")
    worst = max(gap for gap, _ in gaps)
    worst_rel = max(rel for _, rel in gaps)
    print(f"max difference {worst:.3e}, relative {worst_rel:.3e} "
          f"(tolerance {tol:g}) -> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _compare_windows(closed, oracle, windows, tol):
    """Compare closed-form values with oracle values window by window.

    ``closed`` and ``oracle`` are ``(rows, d, d)`` stacks on the same
    rows; each entry of ``windows`` is a slice of one window's rows.
    Returns the per-window ``(absolute, relative)`` gaps and whether
    every relative gap is within ``tol``.  The relative gap is
    ``max|closed - oracle|`` divided by ``max(max|oracle|, 1)`` over the
    window: solutions grow geometrically, so past magnitude 1 the gap is
    judged against the window's size, and up to magnitude 1 it is the
    absolute gap.
    """
    gaps = []
    for rows in windows:
        ref = oracle[rows]
        gap = float(np.max(np.abs(closed[rows] - ref)))
        gaps.append((gap, gap / max(float(np.max(np.abs(ref))), 1.0)))
    return gaps, all(rel <= tol for _, rel in gaps)


def _cmd_example(args):
    # imported here: the examples' data and exact arithmetic are no part
    # of the other commands
    from .fixtures import run_example

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
        _check_flags(args)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that went away shows here
        return code
    except BrokenPipeError:
        # stdout is a pipe whose reader has exited (``delaymat ... | head``):
        # point it at /dev/null, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
    except MemoryError as exc:
        # a row count numpy can describe but not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
