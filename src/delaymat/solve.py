"""Closed-form solution of initial value problems as one repeated sum.

Let ``L(M) = A0 M + M A1``.  The continuous solution on ``[-sigma, T]``
is

    X(t) = sum_{r=0}^{U} Theta_r(t - r sigma),

where ``Theta_0`` is ``Psi`` on ``[-sigma, 0]``, ``Psi(0) + \\int_0^x G``
on ``[0, T]`` and zero below ``-sigma``, and ``Theta_{r+1}`` is the
antiderivative of ``L(Theta_r)`` taken from ``-sigma``.  Differentiating
the sum term by term gives ``G + L(X(t - sigma))``, since ``L`` commutes
with integration, so the sum solves the equation for any history and
forcing, commuting with ``A1`` or not, jumps included: the proof never
reads ``Psi'``.  In vectorized form it is the delayed matrix exponential
of ``I (x) A0 + A1^T (x) I`` (Khusainov and Shuklin, 2003).
:func:`solve_continuous` builds ``Theta_0`` from the data and hands it to
:func:`~delaymat.ppoly.convolve_kernel`, which evaluates the sum by
repeated integration.  The fundamental solution ``Z`` is the solve with
history ``I`` and no forcing (:func:`build_fundamental_continuous`).

The discrete solution for ``u = -m .. N`` is, in the same way,

    X(u) = sum_{r} Theta_r(u - r (m + 1)),

where ``Theta_0`` is ``Psi`` on ``-m .. 0``, ``Psi(0) + G(0) + .. + G(u -
1)`` for ``u >= 1`` and zero below ``-m``, and ``Theta_{r+1}`` is the
cumulative sum of ``L(Theta_r)`` (the discrete analogue of Diblík and
Khusainov, 2006).  :func:`solve_discrete` hands the history and the
forcing to :func:`~delaymat.fundamental.discrete_kernel`, which restarts
the sum every few delay windows, with the last ``m + 1`` rows it has
computed as the history and the forcing from there on: the same rows in
exact arithmetic, at most a few terms per row, no cancellation across
a long horizon, and no binomial coefficients.  The kernel works in the
``(rows, d, d)`` table it returns and applies ``L`` one row at a time,
so a row has the same bits whatever ``n_steps``.

When ``A1`` commutes with every history and forcing value, ``L^r`` acts
on the data as ``q[r] = L^r(I)`` from the left, ``Theta_r = q[r]
Phi_r`` with ``Phi_r`` the plain repeated integral or sum of the data,
and the sum is the paper's variation-of-constants formula term by term.
:func:`validate_hypotheses` reports whether that holds, on the matrices
the data is made of: a polynomial's values commute with ``A1`` exactly
when its coefficients do, so the continuous check reads each piece's
local coefficients and the discrete check the values.  The report is
informational (the CLI records it in the run manifest); the solvers do
not read it.  Which data fits a system and a horizon is decided in
:mod:`delaymat.system`, once for the solvers and the oracles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeCapExceeded
from .fundamental import discrete_kernel
from .linalg import max_abs
from .ppoly import (
    MAX_DEGREE,
    PiecewiseMatrixPolynomial,
    _padded,
    _power_sum,
    convolve_kernel,
    running_antiderivative,
)
from .system import TrajectoryTable, continuous_data, discrete_data

__all__ = [
    "HypothesisReport",
    "validate_hypotheses",
    "solve_continuous",
    "build_fundamental_continuous",
    "solve_discrete",
]

log = logging.getLogger(__name__)

#: Relative tolerance of the data commutation report.
HYPOTHESIS_TOL = 1e-10


@dataclass(frozen=True)
class HypothesisReport:
    """Whether the data commutes with ``A1``, so that the paper's
    ``q``-form of the sum applies term by term.

    Residuals are max-abs values of ``A1 V - V A1`` over the matrices
    ``V`` the history and forcing are made of (piece coefficients for
    continuous data, values for discrete data); ``scale`` is the max-abs
    of the products entering them, so ``ok`` means every residual is
    within ``tol`` relative to ``scale`` (with a floor of 1).
    """

    kind: str
    tol: float
    scale: float
    history_residual: float
    forcing_residual: float | None
    ok: bool

    def summary(self):
        parts = [f"history residual {self.history_residual:.3e}"]
        if self.forcing_residual is not None:
            parts.append(f"forcing residual {self.forcing_residual:.3e}")
        verdict = "ok" if self.ok else "VIOLATED"
        return (
            f"commutation check ({self.kind}): {', '.join(parts)}, "
            f"tol {self.tol:g} x scale {self.scale:.3e} -> {verdict}"
        )


def _commutation_residual(a1, mats):
    """(residual, scale) of ``A1 V - V A1`` over a matrix stack."""
    if mats.shape[0] == 0:
        return 0.0, 1.0
    left = a1 @ mats
    right = mats @ a1
    return max_abs(left - right), max(1.0, max_abs(left), max_abs(right))


def _coefficients(ppoly, lo, hi):
    """The local coefficients of every piece of ``ppoly`` on ``[lo, hi)``
    as one ``(rows, d, d)`` stack."""
    return np.concatenate([c for _, _, c in ppoly.pieces_in(lo, hi)])


def validate_hypotheses(sys, history, forcing=None, tol=HYPOTHESIS_TOL, steps=None):
    """Check that ``A1`` commutes with the history and forcing data.

    The check is exact for the data's own matrices: the local
    coefficients of the history pieces on ``[-sigma, 0]`` and of every
    forcing piece for continuous data, and every value for discrete data.
    ``steps`` is the solve's horizon, a time or a step count, which the
    data must cover; without it the forcing is checked over its own
    domain.
    """
    if sys.is_continuous:
        psi, g = continuous_data(sys, history, forcing, steps)
        hist = _coefficients(psi, -sys.sigma, 0.0)
        g = None if g is None else _coefficients(g, g.start, g.end)
    else:
        hist, g = discrete_data(sys, history, forcing, steps)
        g = None if forcing is None else g
    h_res, h_scale = _commutation_residual(sys.a1, hist)
    f_res = f_scale = None
    if g is not None:
        f_res, f_scale = _commutation_residual(sys.a1, g)

    scale = max(h_scale, f_scale or 0.0)
    ok = h_res <= tol * scale and (f_res is None or f_res <= tol * scale)
    report = HypothesisReport(
        kind=sys.kind,
        tol=tol,
        scale=scale,
        history_residual=h_res,
        forcing_residual=f_res,
        ok=ok,
    )
    log.debug("%s", report.summary())
    return report


def delay_windows(horizon, sigma):
    """The number ``U = ceil(horizon / sigma)`` (at least 1) of delay
    windows that cover ``[0, horizon]``, ``horizon`` positive and finite.
    Each window adds one polynomial degree, so more than
    :data:`~delaymat.ppoly.MAX_DEGREE` of them raise
    :class:`~delaymat.errors.DegreeCapExceeded`."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive, got {horizon}")
    spans = horizon / sigma - 1e-12
    if spans > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"horizon {horizon:g} spans more than {MAX_DEGREE} delay windows "
            f"of {sigma:g}; the degree cap allows at most {MAX_DEGREE}"
        )
    return max(1, math.ceil(spans))


def _data_integral(psi, g, sigma, horizon):
    """``Theta_0``: the history on ``[-sigma, 0]``, then ``Psi(0) +
    \\int_0^t G`` on ``[0, horizon]`` (constant without forcing), where
    ``Psi(0)`` is the left limit: the last history piece at its width."""
    segs = psi.pieces_in(-sigma, 0.0)
    lo, hi, last = segs[-1]
    start = np.empty((1,) + last.shape[1:])
    _power_sum(last, np.array([hi - lo]), start)
    if g is None:
        segs.append((0.0, horizon, start))
    else:
        gsegs = g.pieces_in(0.0, horizon)
        coeffs = _padded([c for _, _, c in gsegs])
        widths = [b - a for a, b, _ in gsegs]
        integral = running_antiderivative(coeffs, widths, start)
        segs += [(a, b, c) for (a, b, _), c in zip(gsegs, integral)]
    return PiecewiseMatrixPolynomial(
        [a for a, _, _ in segs] + [horizon], [c for _, _, c in segs]
    )


def solve_continuous(sys, history, forcing, horizon):
    """Exact solution of the continuous initial value problem on
    ``[-sigma, horizon]`` as a piecewise matrix polynomial."""
    psi, g = continuous_data(sys, history, forcing, horizon)
    horizon = float(horizon)
    sigma = sys.sigma
    delay_windows(horizon, sigma)  # refuses a horizon past the degree cap
    x = convolve_kernel(sys.a0, sys.a1, sigma, _data_integral(psi, g, sigma, horizon),
                        horizon)
    log.info(
        "solve(continuous): d=%d sigma=%g horizon=%g segments=%d degree=%d",
        sys.dim, sigma, horizon, len(x.pieces), x.degree,
    )
    return x


def build_fundamental_continuous(sys, horizon):
    """The continuous fundamental solution ``Z``: the solution with history
    ``I`` on ``[-sigma, 0]`` and no forcing, on ``[-sigma, U sigma)`` with
    ``U =`` :func:`delay_windows`, zero below ``-sigma``."""
    sigma = sys.sigma
    end = delay_windows(float(horizon), sigma) * sigma
    identity = PiecewiseMatrixPolynomial([-sigma, 0.0], np.eye(sys.dim)[None, None])
    return solve_continuous(sys, identity, None, end)


def solve_discrete(sys, history, forcing, n_steps):
    """Exact solution of the discrete initial value problem for
    ``u = -m .. n_steps`` via the repeated sum, restarted every
    :data:`~delaymat.fundamental.BLOCK_WINDOWS` delay windows: about
    ``(BLOCK_WINDOWS + 1) / 2`` applications of ``L`` per row, so the cost
    is linear in ``n_steps``."""
    hist, g = discrete_data(sys, history, forcing, n_steps)
    n_steps, m, d = g.shape[0], sys.m, sys.dim
    out = discrete_kernel(sys.a0, sys.a1, hist, g, m)
    times = np.arange(-m, n_steps + 1, dtype=float)
    log.info("solve(discrete): d=%d m=%d steps=%d", d, m, n_steps)
    return TrajectoryTable(kind="discrete", times=times, values=out)
