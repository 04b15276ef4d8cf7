"""Bundled worked examples with independently verified expectations.

Two small 2x2 systems with noncommuting coefficients exercise the whole
pipeline end to end:

* **Example 1** (continuous): ``A0 = [[0,1],[0,0]]``, ``A1 =
  [[1,0],[0,2]]``, delay 1, history ``Psi(t) = t I``, forcing ``G = I``.
  The solution is piecewise polynomial with displayed entries on
  ``[-1, 3)``.
* **Example 2** (discrete): the same matrices with ``m = 1``, history
  ``Psi(u) = u I`` on ``u in {-1, 0}``, forcing ``G = I``.

Expected values carry a provenance label.  ``tabulated`` entries match
the worked hand tabulation these fixtures were transcribed from and were
re-verified against the defining equations.  ``recomputed`` entries are
the cases where the hand tabulation **fails** the defining equation;
the stored value is recomputed from the generating recursion /
method-of-steps reduction and cross-checked against the independent
stepping oracles, while the rejected value is kept (``superseded``) so
the reports can document the adjudication: each rejected polynomial is
shown to violate the defining equation by a macroscopic margin, and
each accepted one to satisfy it.

:func:`run_example1` / :func:`run_example2` execute the solvers against
these expectations and return an :class:`ExampleReport` with one
pass/fail line per check; the command-line ``example`` subcommand prints
exactly that report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .fundamental import DiscreteFundamental, build_fundamental_continuous
from .oracle import IntegratorConfig, integrate_continuous, step_discrete
from .ppoly import MatrixPolynomial, PiecewiseMatrixPolynomial
from .solve import solve_continuous, solve_discrete
from .system import DelaySystem, ForcingSpec, HistorySpec

__all__ = [
    "TABULATED",
    "RECOMPUTED",
    "SegmentEntry",
    "TableEntry",
    "CheckLine",
    "ExampleReport",
    "example1_system",
    "example1_history",
    "example1_forcing",
    "example2_system",
    "example2_history",
    "example2_forcing",
    "EXAMPLE1_Z_ENTRIES",
    "EXAMPLE1_X_ENTRIES",
    "EXAMPLE2_Z_TABLE",
    "EXAMPLE2_X_TABLE",
    "segment_samples",
    "rejected_entry_residual",
    "run_example1",
    "run_example2",
    "run_example",
]

#: Entry matches the hand tabulation (and the defining equation).
TABULATED = "tabulated"
#: Hand-tabulated entry failed the defining equation and was replaced by
#: the value recomputed from the recursion; the rejected value is kept
#: in ``superseded`` for the adjudication demos.
RECOMPUTED = "recomputed"


@dataclass(frozen=True)
class SegmentEntry:
    """Expected scalar entry of a piecewise-polynomial matrix solution.

    ``coeffs`` are ascending global-basis coefficients of the accepted
    polynomial for entry ``(row, col)`` (0-based) on ``[lo, hi)``;
    ``superseded`` keeps the rejected hand-tabulated coefficients when
    ``provenance == RECOMPUTED``.
    """

    row: int
    col: int
    lo: float
    hi: float
    coeffs: tuple
    provenance: str
    superseded: tuple | None = None

    def eval(self, ts):
        return npoly.polyval(np.asarray(ts, dtype=float), np.asarray(self.coeffs))

    def label(self, name):
        return f"{name}[{self.row + 1},{self.col + 1}] on [{self.lo:g},{self.hi:g})"


@dataclass(frozen=True)
class TableEntry:
    """Expected matrix at one discrete index.

    ``superseded`` maps 0-based ``(row, col)`` positions to rejected
    hand-tabulated scalar values where the tabulation disagrees with the
    stepping recursion.
    """

    u: int
    value: tuple
    superseded: dict | None = None

    @property
    def matrix(self):
        return np.asarray(self.value, dtype=float)

    @property
    def provenance(self):
        return RECOMPUTED if self.superseded else TABULATED


@dataclass(frozen=True)
class CheckLine:
    """One pass/fail line of an example report.

    ``relation`` is ``"<="`` for agreement checks (measured deviation at
    most ``tol``) and ``">="`` for violation demos (the rejected value
    must miss the defining equation by at least ``tol``).
    """

    label: str
    provenance: str
    measured: float
    tol: float
    relation: str = "<="

    @property
    def ok(self):
        if self.relation == "<=":
            return self.measured <= self.tol
        return self.measured >= self.tol

    def render(self):
        mark = "PASS" if self.ok else "FAIL"
        return (
            f"{mark}  [{self.provenance:<10}] {self.label}: "
            f"{self.measured:.3e} {self.relation} {self.tol:g}"
        )


@dataclass(frozen=True)
class ExampleReport:
    """Pass/fail lines plus per-entry adjudication notes."""

    title: str
    lines: tuple
    notes: tuple

    @property
    def ok(self):
        return all(line.ok for line in self.lines)

    def render(self):
        out = [f"{self.title}: {'PASS' if self.ok else 'FAIL'}"]
        out.extend("  " + line.render() for line in self.lines)
        if self.notes:
            out.append("  adjudication notes:")
            out.extend("    * " + note for note in self.notes)
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Example 1 (continuous)
# ---------------------------------------------------------------------------

_A0 = ((0.0, 1.0), (0.0, 0.0))
_A1 = ((1.0, 0.0), (0.0, 2.0))


def example1_system():
    """Continuous system: ``X'(t) = A0 X(t-1) + X(t-1) A1 + G(t)``."""
    return DelaySystem(a0=_A0, a1=_A1, delay=1.0, kind="continuous")


def example1_history():
    """History ``Psi(t) = t I`` on ``[-1, 0]``."""
    d = 2
    ramp = MatrixPolynomial(np.stack([np.zeros((d, d)), np.eye(d)]))
    ppoly = PiecewiseMatrixPolynomial.from_global(
        [-1.0, 0.0], [ramp], left_value=-np.eye(d)
    )
    return HistorySpec.from_ppoly(ppoly)


def example1_forcing(horizon=3.0):
    """Constant forcing ``G(t) = I`` on ``[0, horizon]`` (and beyond)."""
    const = MatrixPolynomial.constant(np.eye(2))
    return ForcingSpec.from_ppoly(
        PiecewiseMatrixPolynomial([0.0, float(horizon)], [const], right_extension=True)
    )


#: Fundamental solution of Example 1, entry by entry and segment by
#: segment on [-1, 3).  Off-diagonal (2,1) stays identically zero
#: because both coefficient matrices are upper triangular.
EXAMPLE1_Z_ENTRIES = (
    # [-1, 0): identity history of the fundamental solution
    SegmentEntry(0, 0, -1.0, 0.0, (1.0,), TABULATED),
    SegmentEntry(0, 1, -1.0, 0.0, (0.0,), TABULATED),
    SegmentEntry(1, 0, -1.0, 0.0, (0.0,), TABULATED),
    SegmentEntry(1, 1, -1.0, 0.0, (1.0,), TABULATED),
    # [0, 1)
    SegmentEntry(0, 0, 0.0, 1.0, (1.0, 1.0), TABULATED),
    SegmentEntry(0, 1, 0.0, 1.0, (0.0, 1.0), TABULATED),
    SegmentEntry(1, 0, 0.0, 1.0, (0.0,), TABULATED),
    SegmentEntry(1, 1, 0.0, 1.0, (1.0, 2.0), TABULATED),
    # [1, 2)
    SegmentEntry(0, 0, 1.0, 2.0, (3 / 2, 0.0, 1 / 2), TABULATED),
    SegmentEntry(
        0, 1, 1.0, 2.0, (2.0, -3.0, 2.0), RECOMPUTED, superseded=(3 / 2, -2.0, 3 / 2)
    ),
    SegmentEntry(1, 0, 1.0, 2.0, (0.0,), TABULATED),
    SegmentEntry(1, 1, 1.0, 2.0, (3.0, -2.0, 2.0), TABULATED),
    # [2, 3)
    SegmentEntry(0, 0, 2.0, 3.0, (1 / 6, 2.0, -1 / 2, 1 / 6), TABULATED),
    SegmentEntry(
        0, 1, 2.0, 3.0,
        (-14.0, 21.0, -10.0, 2.0), RECOMPUTED,
        superseded=(-13 / 2, 10.0, -9 / 2, 1.0),
    ),
    SegmentEntry(1, 0, 2.0, 3.0, (0.0,), TABULATED),
    SegmentEntry(
        1, 1, 2.0, 3.0,
        (-23 / 3, 14.0, -6.0, 4 / 3), RECOMPUTED,
        superseded=(-13.0, 22.0, -10.0, 2.0),
    ),
)

#: Solution of Example 1 with history t*I and forcing I, same layout.
EXAMPLE1_X_ENTRIES = (
    # [-1, 0): the prescribed history t*I
    SegmentEntry(0, 0, -1.0, 0.0, (0.0, 1.0), TABULATED),
    SegmentEntry(0, 1, -1.0, 0.0, (0.0,), TABULATED),
    SegmentEntry(1, 0, -1.0, 0.0, (0.0,), TABULATED),
    SegmentEntry(1, 1, -1.0, 0.0, (0.0, 1.0), TABULATED),
    # [0, 1)
    SegmentEntry(0, 0, 0.0, 1.0, (0.0, 0.0, 1 / 2), TABULATED),
    SegmentEntry(0, 1, 0.0, 1.0, (0.0, -1.0, 1 / 2), TABULATED),
    SegmentEntry(1, 0, 0.0, 1.0, (0.0,), TABULATED),
    SegmentEntry(1, 1, 0.0, 1.0, (0.0, -1.0, 1.0), TABULATED),
    # [1, 2)
    SegmentEntry(0, 0, 1.0, 2.0, (-2 / 3, 3 / 2, -1 / 2, 1 / 6), TABULATED),
    SegmentEntry(
        0, 1, 1.0, 2.0,
        (-8 / 3, 5.0, -7 / 2, 2 / 3), RECOMPUTED,
        superseded=(-2.0, 7 / 2, -5 / 2, 1 / 2),
    ),
    SegmentEntry(1, 0, 1.0, 2.0, (0.0,), TABULATED),
    SegmentEntry(1, 1, 1.0, 2.0, (-8 / 3, 5.0, -3.0, 2 / 3), TABULATED),
    # [2, 3)
    SegmentEntry(
        0, 0, 2.0, 3.0, (4 / 3, -11 / 6, 3 / 2, -1 / 3, 1 / 24), TABULATED
    ),
    SegmentEntry(
        0, 1, 2.0, 3.0,
        (64 / 3, -35.0, 41 / 2, -16 / 3, 1 / 2), RECOMPUTED,
        superseded=(10.0, -33 / 2, 19 / 2, -5 / 2, 1 / 4),
    ),
    SegmentEntry(1, 0, 2.0, 3.0, (0.0,), TABULATED),
    SegmentEntry(
        1, 1, 2.0, 3.0,
        (40 / 3, -65 / 3, 13.0, -10 / 3, 1 / 3), RECOMPUTED,
        superseded=(64 / 3, -35.0, 21.0, -16 / 3, 1 / 2),
    ),
)


# ---------------------------------------------------------------------------
# Example 2 (discrete)
# ---------------------------------------------------------------------------


def example2_system():
    """Discrete system: ``ΔX(u) = A0 X(u-1) + X(u-1) A1 + G(u)``."""
    return DelaySystem(a0=_A0, a1=_A1, delay=1, kind="discrete")


def example2_history():
    """History ``Psi(u) = u I`` on ``u in {-1, 0}``."""
    return HistorySpec.from_values(np.stack([-np.eye(2), np.zeros((2, 2))]))


def example2_forcing():
    """Constant forcing ``G(u) = I``."""
    return ForcingSpec.from_callable(lambda u: np.eye(2))


#: Discrete fundamental solution values (identity history).
EXAMPLE2_Z_TABLE = (
    TableEntry(-2, ((0.0, 0.0), (0.0, 0.0))),
    TableEntry(-1, ((1.0, 0.0), (0.0, 1.0))),
    TableEntry(0, ((1.0, 0.0), (0.0, 1.0))),
    TableEntry(1, ((2.0, 1.0), (0.0, 3.0))),
    TableEntry(2, ((3.0, 2.0), (0.0, 5.0))),
    TableEntry(3, ((5.0, 7.0), (0.0, 11.0)), superseded={(0, 1): 6.0}),
    TableEntry(4, ((8.0, 16.0), (0.0, 21.0)), superseded={(0, 1): 13.0}),
    TableEntry(5, ((13.0, 41.0), (0.0, 43.0)), superseded={(0, 1): 30.0}),
    TableEntry(6, ((21.0, 94.0), (0.0, 85.0)), superseded={(0, 1): 64.0}),
)

#: Solution values for history u*I and forcing I.
EXAMPLE2_X_TABLE = (
    TableEntry(-1, ((-1.0, 0.0), (0.0, -1.0))),
    TableEntry(0, ((0.0, 0.0), (0.0, 0.0))),
    TableEntry(1, ((0.0, -1.0), (0.0, -1.0))),
    TableEntry(2, ((1.0, -1.0), (0.0, 0.0))),
    TableEntry(3, ((2.0, -4.0), (0.0, -1.0)), superseded={(0, 1): -3.0}),
    TableEntry(4, ((4.0, -6.0), (0.0, 0.0)), superseded={(0, 1): -4.0}),
    TableEntry(5, ((7.0, -15.0), (0.0, -1.0)), superseded={(0, 1): -8.0}),
    TableEntry(6, ((12.0, -27.0), (0.0, 0.0)), superseded={(0, 1): -12.0}),
)


# ---------------------------------------------------------------------------
# Report machinery
# ---------------------------------------------------------------------------


def segment_samples(lo, hi, n):
    """``n`` midpoint samples strictly inside ``[lo, hi)`` (knots carry
    the half-open convention, so checks sample away from them)."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def rejected_entry_residual(solution, sys, entry, forcing_value, at, coeffs=None):
    """Defining-equation residual of one candidate scalar entry at ``at``.

    Holds every other entry at the accepted ``solution`` (the delayed
    argument lands on the previous, uncontested segment) and measures
    ``|p'(at) - [A0 X(at-sigma) + X(at-sigma) A1 + G(at)][row, col]|``
    for the candidate polynomial ``p`` — by default the rejected
    ``entry.superseded`` coefficients; pass ``coeffs`` to test another
    candidate (e.g. the accepted one, whose residual vanishes).
    """
    if coeffs is None:
        coeffs = entry.superseded
    dcoeffs = npoly.polyder(np.asarray(coeffs, dtype=float))
    slope = npoly.polyval(at, dcoeffs)
    delayed = solution.eval(at - sys.sigma)
    rhs = sys.a0 @ delayed + delayed @ sys.a1 + forcing_value
    return float(abs(slope - rhs[entry.row, entry.col]))


def _entry_lines(name, ppoly, entries, samples_per_segment, tol):
    lines = []
    for entry in entries:
        ts = segment_samples(entry.lo, entry.hi, samples_per_segment)
        got = ppoly.eval(ts)[:, entry.row, entry.col]
        err = float(np.max(np.abs(got - entry.eval(ts))))
        lines.append(CheckLine(entry.label(name), entry.provenance, err, tol))
    return lines


def _violation_lines(name, ppoly, sys, entries, forcing_value, margin):
    """Violation demos and matching accepted-value confirmations for
    every recomputed entry: the rejected polynomial must miss the
    defining equation by at least ``margin`` at the segment midpoint,
    where the accepted polynomial satisfies it."""
    lines = []
    notes = []
    for entry in entries:
        if entry.superseded is None:
            continue
        at = 0.5 * (entry.lo + entry.hi)
        bad = rejected_entry_residual(ppoly, sys, entry, forcing_value, at)
        good = rejected_entry_residual(
            ppoly, sys, entry, forcing_value, at, coeffs=entry.coeffs
        )
        lines.append(
            CheckLine(
                f"rejected {entry.label(name)} violates the defining equation "
                f"at t={at:g}",
                RECOMPUTED,
                bad,
                margin,
                relation=">=",
            )
        )
        lines.append(
            CheckLine(
                f"accepted {entry.label(name)} satisfies the defining equation "
                f"at t={at:g}",
                entry.provenance,
                good,
                1e-9,
            )
        )
        notes.append(
            f"{entry.label(name)}: hand-tabulated coefficients "
            f"{list(entry.superseded)} fail the defining equation "
            f"(residual {bad:.3g} at t={at:g}); replaced by the recomputed "
            f"coefficients {list(entry.coeffs)} (residual {good:.3g})."
        )
    return lines, notes


def run_example1(
    samples_per_segment=50,
    entry_tol=1e-9,
    oracle_tol=1e-10,
    violation_margin=0.1,
    substeps=4096,
):
    """Solve Example 1 and check it against the stored expectations.

    Checks, in order: the fundamental solution entry by entry, the
    solution entry by entry, history reproduction, agreement with the
    exact method-of-steps integrator (per delay window, relative to
    ``max(|oracle|, 1)``), and the adjudication demos for every
    recomputed entry (rejected value violates the defining equation by
    at least ``violation_margin``; accepted value satisfies it).
    """
    sys = example1_system()
    history = example1_history()
    forcing = example1_forcing()
    horizon = 3.0

    z = build_fundamental_continuous(sys, horizon)
    x = solve_continuous(sys, history, forcing, horizon)

    lines = _entry_lines("Z", z, EXAMPLE1_Z_ENTRIES, samples_per_segment, entry_tol)
    lines += _entry_lines("X", x, EXAMPLE1_X_ENTRIES, samples_per_segment, entry_tol)

    ts = segment_samples(-1.0, 0.0, samples_per_segment)
    hist_err = float(
        np.max(np.abs(x.eval(ts) - history.ppoly.eval(ts)))
    )
    lines.append(
        CheckLine("X reproduces the history on [-1,0)", TABULATED, hist_err, entry_tol)
    )

    oracle = integrate_continuous(
        sys, history, forcing, horizon, IntegratorConfig(substeps_per_delay=substeps)
    )
    closed = x.eval(oracle.times)
    window = np.floor(oracle.times / sys.sigma + 1e-9)
    oracle_err = max(
        float(np.max(np.abs(closed[rows] - oracle.values[rows])))
        / max(float(np.max(np.abs(oracle.values[rows]))), 1.0)
        for rows in (window == k for k in np.unique(window))
    )
    lines.append(
        CheckLine(
            f"X agrees with the exact method-of-steps integrator "
            f"({substeps} rows per delay, relative per window)",
            RECOMPUTED,
            oracle_err,
            oracle_tol,
        )
    )

    eye = np.eye(2)
    zero = np.zeros((2, 2))
    z_viol, z_notes = _violation_lines(
        "Z", z, sys, EXAMPLE1_Z_ENTRIES, zero, violation_margin
    )
    x_viol, x_notes = _violation_lines(
        "X", x, sys, EXAMPLE1_X_ENTRIES, eye, violation_margin
    )
    lines += z_viol + x_viol

    return ExampleReport(
        title="Example 1 (continuous, sigma=1)",
        lines=tuple(lines),
        notes=tuple(z_notes + x_notes),
    )


def run_example2(n_steps=6, tol=1e-9):
    """Solve Example 2 and check it against the stored expectations.

    Checks the discrete fundamental solution and the solution table
    index by index, then whole-trajectory agreement with the stepping
    oracle; notes document every entry where the hand tabulation was
    rejected (it disagrees with the exact recursion).
    """
    sys = example2_system()
    history = example2_history()
    forcing = example2_forcing()

    fund = DiscreteFundamental(sys)
    lines = []
    notes = []
    for entry in EXAMPLE2_Z_TABLE:
        err = float(np.max(np.abs(fund.value(entry.u) - entry.matrix)))
        lines.append(
            CheckLine(f"Z({entry.u})", entry.provenance, err, tol)
        )

    x = solve_discrete(sys, history, forcing, n_steps)
    for entry in EXAMPLE2_X_TABLE:
        err = float(np.max(np.abs(x.at_time(entry.u) - entry.matrix)))
        lines.append(
            CheckLine(f"X({entry.u})", entry.provenance, err, tol)
        )

    oracle = step_discrete(sys, history, forcing, n_steps)
    oracle_err = float(np.max(np.abs(x.values - oracle.values)))
    lines.append(
        CheckLine(
            "X agrees with the stepping recursion for every index",
            RECOMPUTED,
            oracle_err,
            tol,
        )
    )

    for name, table in (("Z", EXAMPLE2_Z_TABLE), ("X", EXAMPLE2_X_TABLE)):
        for entry in table:
            if not entry.superseded:
                continue
            for (r, c), bad in sorted(entry.superseded.items()):
                notes.append(
                    f"{name}[{r + 1},{c + 1}]({entry.u}): hand-tabulated value "
                    f"{bad:g} disagrees with the exact recursion; accepted "
                    f"value {entry.matrix[r, c]:g}."
                )

    return ExampleReport(
        title="Example 2 (discrete, m=1)",
        lines=tuple(lines),
        notes=tuple(notes),
    )


def run_example(number, **kwargs):
    """Dispatch ``run_example1`` / ``run_example2`` by number."""
    if number == 1:
        return run_example1(**kwargs)
    if number == 2:
        return run_example2(**kwargs)
    raise ValueError(f"no example {number}; choose 1 or 2")
