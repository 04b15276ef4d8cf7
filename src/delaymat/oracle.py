"""Brute-force reference integrators.

These are the independent checks on the closed forms: a fixed-step
method-of-steps integrator for the continuous family and the literal
one-step recursion for the discrete family.  Neither touches the
coefficient tables, fundamental solutions, or representation formulas —
they know only the defining equations — so agreement with the
closed-form path is meaningful evidence rather than a tautology.

The continuous integrator aligns its grid to the delay (``n`` substeps
per delay window, knots landing exactly on window boundaries), which
keeps the piecewise solution polynomial smooth within every span the
scheme touches and preserves the full 4th order of the RK4/Simpson
sweep; see :mod:`delaymat._kernels` for the sweep itself and the
half-grid interpolation stencils.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ppoly import PiecewiseMatrixPolynomial
from .system import ForcingSpec, HistorySpec, TrajectoryTable

__all__ = ["IntegratorConfig", "integrate_continuous", "step_discrete"]

log = logging.getLogger(__name__)

#: Fewest substeps per delay window the integrator accepts (the half-grid
#: stencils need 4 grid points, and coarser grids defeat the purpose of a
#: reference oracle).
MIN_SUBSTEPS = 16


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    ``substeps_per_delay`` is the number of steps per delay window
    (``>= 16``).
    """

    substeps_per_delay: int = 2048

    def __post_init__(self):
        n = int(self.substeps_per_delay)
        if n < MIN_SUBSTEPS:
            raise ValueError(
                f"substeps_per_delay must be >= {MIN_SUBSTEPS}, got {n}"
            )
        object.__setattr__(self, "substeps_per_delay", n)


def _history_ppoly(history):
    if isinstance(history, HistorySpec):
        if history.kind != "continuous":
            raise ValueError("integrate_continuous needs a continuous history")
        return history.ppoly
    if isinstance(history, PiecewiseMatrixPolynomial):
        return history
    raise TypeError(f"unsupported history type {type(history).__name__}")


def _forcing_ppoly(forcing):
    if forcing is None:
        return None
    if isinstance(forcing, ForcingSpec):
        if forcing.kind != "continuous":
            raise ValueError("integrate_continuous needs continuous forcing")
        return forcing.ppoly
    if isinstance(forcing, PiecewiseMatrixPolynomial):
        return forcing
    raise TypeError(f"unsupported forcing type {type(forcing).__name__}")


def integrate_continuous(sys, history, forcing, horizon, config=None):
    """Integrate the continuous equation to ``horizon`` and return dense
    output on ``[-sigma, horizon]`` (uniform grid, ``substeps_per_delay``
    rows per window).

    ``history`` must cover ``[-sigma, 0]`` and ``forcing`` (when given)
    ``[0, horizon]``; both are evaluated exactly on the grid.  A substep
    that *ends* at a forcing knot closes with the forcing's left limit
    there (the jump belongs to the next substep), so forcing jumps that
    land on grid nodes cost no accuracy and the only error source is the
    4th-order sweep itself.
    """
    if not sys.is_continuous:
        raise ValueError("integrate_continuous needs a continuous system")
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    config = config or IntegratorConfig()
    psi = _history_ppoly(history)
    g = _forcing_ppoly(forcing)
    sigma = sys.sigma
    if psi.start > -sigma + 1e-12 * sigma or psi.end < -1e-12 * sigma:
        raise ValueError(
            f"history domain [{psi.start}, {psi.end}] does not cover "
            f"[-{sigma}, 0]"
        )
    if g is not None and (g.start > 1e-12 * sigma or g.end < horizon - 1e-12 * sigma):
        raise ValueError(
            f"forcing domain [{g.start}, {g.end}] does not cover [0, {horizon}]"
        )

    n = config.substeps_per_delay
    windows = max(1, math.ceil(horizon / sigma - 1e-12))
    h = sigma / n
    grid = -sigma + h * np.arange((windows + 1) * n + 1)
    hist = psi.eval(grid[: n + 1])
    hist_mid = psi.eval(grid[:n] + 0.5 * h)
    window_forcing = None
    if g is not None:

        def window_forcing(k):
            # window k's substeps run from grid node (k + 1) n to (k + 2) n
            t = grid[(k + 1) * n : (k + 2) * n + 1]
            return g.eval(t[:-1]), g.eval(t[:-1] + 0.5 * h), g.eval_left(t[1:])

    x = _kernels.sweep(sys.a0, sys.a1, hist, hist_mid, window_forcing, n, windows, h)
    # the kept rows are a prefix of the increasing grid: return views
    stop = int(np.searchsorted(grid, horizon + 1e-9 * sigma, side="right"))
    return TrajectoryTable(kind="continuous", times=grid[:stop], values=x[:stop])


def step_discrete(sys, history, forcing, n_steps):
    """Run the one-step recursion ``X(u+1) = X(u) + A0 X(u-m) +
    X(u-m) A1 + G(u)`` and return the table for ``u = -m .. n_steps``."""
    if sys.is_continuous:
        raise ValueError("step_discrete needs a discrete system")
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    m = sys.m
    d = sys.dim
    if isinstance(history, HistorySpec):
        if history.kind != "discrete":
            raise ValueError("step_discrete needs a discrete history")
        hist = history.values
    else:
        hist = np.asarray(history, dtype=float)
    if hist.shape != (m + 1, d, d):
        raise ValueError(
            f"history must have shape ({m + 1}, {d}, {d}), got {hist.shape}"
        )
    if forcing is None:
        g = np.zeros((n_steps, d, d))
    elif isinstance(forcing, ForcingSpec):
        g = forcing.table(n_steps, d)
    else:
        g = np.asarray(forcing, dtype=float)[:n_steps]
        if g.shape != (n_steps, d, d):
            raise ValueError(
                f"forcing must cover u = 0..{n_steps - 1}, got shape {g.shape}"
            )

    x = np.empty((m + n_steps + 1, d, d))
    x[: m + 1] = hist
    a0, a1 = sys.a0, sys.a1
    for u in range(n_steps):
        cur = x[u + m]
        delayed = x[u]  # row u holds X(u - m)
        x[u + m + 1] = cur + a0 @ delayed + delayed @ a1 + g[u]
    times = np.arange(-m, n_steps + 1, dtype=float)
    return TrajectoryTable(kind="discrete", times=times, values=x)
