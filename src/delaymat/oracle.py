"""Brute-force reference integrators.

These are the independent checks on the closed forms: an exact method of
steps for the continuous family and the literal one-step recursion for
the discrete family.  Neither touches the coefficient tables, fundamental
solutions, or representation formulas — they know only the defining
equations — so agreement with the closed-form path is meaningful
evidence rather than a tautology.

Continuous data is piecewise polynomial, so every delay window of the
solution is too, and the method of steps integrates the defining
equation exactly, one window at a time::

    X(t) = X(k sigma) + \\int_{k sigma}^t (A0 D(s) + D(s) A1 + G(s)) ds

where ``D`` is the previous window delayed by ``sigma``.  Every piece is
a polynomial in its local variable ``t - knot``, so ``D`` reuses the
previous window's coefficients at its knots moved by ``sigma``.  The
delayed knots and the forcing knots are merged, and a piece is
re-expanded (a Taylor shift by synthetic division) only where a knot of
the other family splits it.  Each merged piece is integrated term by
term, and the value at its right end, by Horner's rule, starts the next
piece.

The piece arithmetic is written once over the coefficient dtype: it runs
on floats, and unchanged on ``fractions.Fraction`` object arrays, which
the tests and the worked example use as exact ground truth.

A closed form is checked against the pieces themselves
(:func:`window_gaps`): both are re-expanded on the common refinement of
their knots, and the coefficient differences bound the gap on every
interval, not only at sample rows.  For dense output
(:func:`integrate_continuous`) the pieces are sampled on a uniform grid
aligned to the delay, in place into one output stack: each piece's rows
are one product of their power table with the piece's coefficients.
From :mod:`delaymat.ppoly` the oracle reads only the ``breakpoints``,
the coefficient arrays ``pieces`` and (of the data) ``left_value``; it
re-expands, integrates and evaluates with its own loops.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .system import TrajectoryTable, continuous_data, discrete_data

__all__ = [
    "IntegratorConfig", "continuous_pieces", "integrate_continuous",
    "step_discrete", "window_gaps",
]

log = logging.getLogger(__name__)

#: Fewest output rows per delay window the integrator accepts.  The
#: pieces are exact whatever the grid, but a closed form compared with
#: the dense output is compared only at the rows, and a coarser grid
#: would sample each window's polynomials too sparsely to expose a wrong
#: one.
MIN_SUBSTEPS = 16


@dataclass(frozen=True)
class IntegratorConfig:
    """Dense-output settings of the continuous oracle.

    ``substeps_per_delay`` is the number of output rows per delay window
    (``>= 16``); it sets the sampling grid only, not the accuracy of the
    exact pieces behind it.
    """

    substeps_per_delay: int = 2048

    def __post_init__(self):
        n = int(self.substeps_per_delay)
        if n < MIN_SUBSTEPS:
            raise ValueError(
                f"substeps_per_delay must be >= {MIN_SUBSTEPS}, got {n}"
            )
        object.__setattr__(self, "substeps_per_delay", n)


def _data(ppoly):
    """``(knots, coefficient stacks, left value)`` of piecewise data: the
    only fields of it that the oracle reads."""
    return ppoly.breakpoints.tolist(), ppoly.pieces, ppoly.left_value


def _horner(c, tau):
    """``sum_m c[m] tau**m`` for an ``(n, d, d)`` coefficient stack."""
    acc = c[-1]
    for cm in c[-2::-1]:
        acc = acc * tau + cm
    return acc


def _value_at(data, t):
    """The data's value at ``t``: its pieces are closed on the left, the
    last one extends to the right, and ``left`` applies below the first
    knot."""
    knots, coeffs, left = data
    j = min(bisect_right(knots, t), len(coeffs)) - 1
    return left if j < 0 else _horner(coeffs[j], t - knots[j])


def _merge(knots, lo, hi):
    """``lo``, the knots strictly inside ``(lo, hi)`` in order, ``hi``.
    Knots within a relative 1e-12 of one already kept are the images of
    one knot along different rounding routes, and are dropped."""
    tol = 1e-12 * max(abs(lo), abs(hi))
    out = [lo]
    for b in sorted(knots):
        if b - out[-1] > tol and hi - b > tol:
            out.append(b)
    out.append(hi)
    return out


def _taylor_shift(c, s):
    """Local coefficients of ``p(tau + s[i])`` from those of ``p`` in
    ``c[i]`` (a ``(P, n, d, d)`` stack), by repeated synthetic division."""
    c = c.copy()
    s = s[:, None, None]
    n = c.shape[1]
    for i in range(n - 1):
        for j in range(n - 1, i, -1):
            c[:, j - 1] += s * c[:, j]
    return c


def _recut(data, cuts):
    """The data as local coefficients on the intervals between ``cuts``,
    a ``(len(cuts) - 1, n, d, d)`` stack.  Each interval takes the piece
    that holds its midpoint, re-expanded at the interval's start where
    that is not the piece's own knot."""
    knots, coeffs, left = data
    n = max(c.shape[0] for c in coeffs)
    dtype = coeffs[0].dtype
    out = np.zeros((len(cuts) - 1, n) + coeffs[0].shape[1:], dtype=dtype)
    split, shifts = [], []
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        j = min(bisect_right(knots, (a + b) / 2), len(coeffs)) - 1
        if j < 0:
            out[i, 0] = left
            continue
        out[i, : coeffs[j].shape[0]] = coeffs[j]
        if a != knots[j]:
            split.append(i)
            shifts.append(a - knots[j])
    if split:
        out[split] = _taylor_shift(out[split], np.array(shifts, dtype=dtype))
    return out


def _window_pieces(a0, a1, sigma, history, forcing, windows):
    """The exact solution on ``[-sigma, 0]`` and the ``windows`` delay
    windows after it, as one ``(knots, coeffs)`` pair per window: the
    knots run from the window's start to its end, and ``coeffs[j]`` is
    the ``(n, d, d)`` stack of local coefficients on
    ``[knots[j], knots[j + 1])``.

    ``history`` and ``forcing`` (or ``None``) are ``(knots, coefficient
    stacks, left value)`` triples.  Everything is computed in the dtype of
    the data, so ``fractions.Fraction`` object arrays (with ``sigma`` a
    ``Fraction``) give the pieces exactly.
    """
    knots = _merge(history[0], -sigma, 0 * sigma)
    out = [(knots, _recut(history, knots))]
    x = _value_at(history, 0 * sigma)
    for k in range(windows):
        prev_knots, prev = out[-1]
        lo, hi = k * sigma, (k + 1) * sigma
        # the previous window moved by sigma: same coefficients, and its
        # first knot is this window's start (so no left value is read)
        delayed = ([lo] + [b + sigma for b in prev_knots[1:-1]], prev, None)
        cuts = _merge(delayed[0] + (forcing[0] if forcing else []), lo, hi)
        dc = _recut(delayed, cuts)
        # the integrand A0 D + D A1 + G, integrated term by term
        terms = [np.matmul(a0, dc) + np.matmul(dc, a1)]
        if forcing is not None:
            terms.append(_recut(forcing, cuts))
        n = max(t.shape[1] for t in terms)
        c = np.zeros((len(cuts) - 1, n + 1) + dc.shape[2:], dtype=dc.dtype)
        for t in terms:
            c[:, 1 : t.shape[1] + 1] += t
        c[:, 1:] /= np.arange(1, n + 1).astype(c.dtype)[:, None, None]
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            c[i, 0] = x
            x = _horner(c[i], b - a)
        out.append((cuts, c))
    return out


def _sample(pieces, times, n, out):
    """Write the pieces' values at ``times`` into ``out`` in place.

    Window ``w`` of ``pieces`` owns rows ``w n`` up to ``(w + 1) n``
    (the last window also the row after), and within it each piece the
    rows from its first knot on; ``out`` may hold fewer rows than the
    windows cover.  ``out`` is C-contiguous, so that each piece's rows
    are one ``(rows, d * d)`` view, filled by one product of their power
    table ``tau**0 .. tau**(k - 1)`` with the piece's ``(k, d * d)``
    coefficients.  On floats that product may run through BLAS, whose
    blocking depends on the number of rows: a row's last bits can depend
    on how many rows its piece has, but the same grid gives the same
    bits.  On ``Fraction`` object arrays the product is exact.
    """
    if not out.flags.c_contiguous:
        # a reshape of anything else would be a copy, and the values lost
        raise ValueError("out must be C-contiguous")
    # spelled out, since a piece may own no rows and -1 is not inferred
    # from an empty slice
    cols = math.prod(out.shape[1:])
    for w, (knots, c) in enumerate(pieces):
        first = w * n
        if first >= len(times):
            break
        last = min(first + n + (w == len(pieces) - 1), len(times))
        inner = first + np.searchsorted(times[first:last], knots[1:-1])
        cuts = [first, *inner, last]
        k = c.shape[1]
        for j, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            np.matmul(
                np.vander(times[lo:hi] - knots[j], k, increasing=True),
                c[j].reshape(k, cols),
                out=out[lo:hi].reshape(hi - lo, cols),
            )


def continuous_pieces(sys, history, forcing, horizon):
    """The exact solution to ``horizon`` as one ``(knots, coeffs)`` pair
    per window: ``[-sigma, 0]`` first, then every delay window up to the
    first that reaches ``horizon`` (see :func:`_window_pieces`).

    ``history`` must cover ``[-sigma, 0]`` and ``forcing`` (when given)
    ``[0, horizon]``, or extend to the right
    (:func:`~delaymat.system.continuous_data` decides).
    """
    psi, g = continuous_data(sys, history, forcing, horizon)
    windows = max(1, math.ceil(float(horizon) / sys.sigma - 1e-12))
    return _window_pieces(
        sys.a0, sys.a1, sys.sigma, _data(psi), None if g is None else _data(g), windows
    )


def window_gaps(pieces, x, horizon):
    """How far the piecewise polynomial ``x`` is from the oracle's
    ``pieces``: one ``(absolute, relative)`` pair per window, the last
    window cut at ``horizon``.

    Each window is split at the oracle's knots and at ``x.breakpoints``;
    on every sub-interval ``[a, b]`` both sides are re-expanded at ``a``,
    and the entrywise maximum of ``sum_j |dc_j| (b - a)**j`` over the
    coefficient differences ``dc`` bounds ``|x - oracle|`` on the whole
    interval, not only at sample rows.  The relative gap divides by
    ``max(|oracle|, 1)`` with ``|oracle|`` taken at every sub-interval
    end: a lower bound of the window's maximum, so the relative gap can
    only read high.  Of ``x`` only ``breakpoints`` and the coefficient
    arrays ``pieces`` are read.
    """
    closed = (x.breakpoints.tolist(), x.pieces, None)
    gaps = []
    for knots, coeffs in pieces:
        cuts = _merge(knots[1:-1] + closed[0], knots[0], min(knots[-1], horizon))
        ref = _recut((knots, coeffs, None), cuts)
        got = _recut(closed, cuts)
        n = max(ref.shape[1], got.shape[1])
        diff = np.zeros((len(cuts) - 1, n) + ref.shape[2:])
        diff[:, : ref.shape[1]] = ref
        diff[:, : got.shape[1]] -= got
        widths = np.diff(cuts)[:, None, None]
        gap = float(np.max(_horner(np.abs(diff).swapaxes(0, 1), widths)))
        ends = np.abs([ref[:, 0], _horner(ref.swapaxes(0, 1), widths)])
        gaps.append((gap, gap / max(float(np.max(ends)), 1.0)))
    return gaps


def integrate_continuous(sys, history, forcing, horizon, config=None):
    """Integrate the continuous equation exactly to ``horizon`` and return
    dense output on ``[-sigma, horizon]`` (uniform grid,
    ``substeps_per_delay`` rows per window).

    The solution is :func:`continuous_pieces`, built piece by piece by
    the method of steps (see the module docstring), so the only errors
    are those of float arithmetic on the pieces, and knots or forcing
    jumps anywhere, on grid nodes or between them, cost no accuracy.
    """
    pieces = continuous_pieces(sys, history, forcing, horizon)
    sigma = sys.sigma
    n = (config or IntegratorConfig()).substeps_per_delay
    grid = -sigma + (sigma / n) * np.arange(len(pieces) * n + 1)
    # the kept rows are a prefix of the increasing grid
    stop = int(np.searchsorted(grid, float(horizon) + 1e-9 * sigma, side="right"))
    log.debug("oracle method of steps: windows=%d rows=%d", len(pieces) - 1, stop)
    values = np.empty((stop, sys.dim, sys.dim))
    _sample(pieces, grid[:stop], n, values)
    return TrajectoryTable(kind="continuous", times=grid[:stop], values=values)


def step_discrete(sys, history, forcing, n_steps):
    """Run the one-step recursion ``X(u+1) = X(u) + A0 X(u-m) +
    X(u-m) A1 + G(u)`` and return the table for ``u = -m .. n_steps``."""
    hist, g = discrete_data(sys, history, forcing, n_steps)
    n_steps, m, d = g.shape[0], sys.m, sys.dim
    x = np.empty((m + n_steps + 1, d, d))
    x[: m + 1] = hist
    a0, a1 = sys.a0, sys.a1
    for u in range(n_steps):
        cur = x[u + m]
        delayed = x[u]  # row u holds X(u - m)
        x[u + m + 1] = cur + a0 @ delayed + delayed @ a1 + g[u]
    times = np.arange(-m, n_steps + 1, dtype=float)
    return TrajectoryTable(kind="discrete", times=times, values=x)
