"""Closed-form solution of initial value problems via the
representation formulas.

With ``Z`` the matching fundamental solution, the continuous solution on
``[-sigma, T]`` is

    X(t) = Z(t) Psi(-sigma)
         + \\int_{-sigma}^{0} Z(t - sigma - s) Psi'(s) ds
         + \\int_{0}^{t}      Z(t - sigma - s) G(s) ds.

Each window of ``Z`` is a sum of scalar truncated powers,
``Z(v) = sum_r q[r] (v - (r-1) sigma)_+**r / r!`` for ``v >= -sigma``, so
Cauchy's formula for repeated integration collapses the whole formula to

    X(t) = sum_{r=0}^{U} q[r] Phi_r(t - r sigma),

where ``Phi_0`` is ``Psi`` on ``[-sigma, 0]``, ``Psi(0) + \\int_0^x G`` on
``[0, T]`` and zero below ``-sigma``, and ``Phi_{r+1}`` is the
antiderivative of ``Phi_r`` taken from ``-sigma``.
:func:`solve_continuous` builds ``Phi_0`` from the data and hands it to
:func:`~delaymat.ppoly.convolve_kernel`, which evaluates the sum by
repeated integration; ``Z`` itself is the case ``Phi_0 = I``.

The discrete solution for ``u = -m .. N`` is

    X(u) = Z(u) Psi(-m)
         + sum_{r=-m+1}^{0} Z(u - m - r) (Psi(r) - Psi(r - 1))
         + sum_{r=1}^{u}    Z(u - m - r) G(r - 1).

``Z(v) = sum_r q[r] C(v - (r-1) m, r)`` for ``v >= -m``, that binomial is
the ``r``-fold repeated sum of ones, and the data enter as steps, so the
formula collapses in the same way to

    X(u) = sum_{r} q[r] Phi_r(u - r (m + 1)),

where ``Phi_0`` is ``Psi`` on ``-m .. 0``, ``Psi(0) + G(0) + .. + G(u -
1)`` for ``u >= 1`` and zero below ``-m``, and ``Phi_{r+1}`` is the
cumulative sum of ``Phi_r``.  :func:`solve_discrete` hands ``Phi_0`` to
:func:`~delaymat.fundamental.discrete_kernel`: ``(N + m) // (m + 1) + 1``
cumulative sums and products, and no binomial coefficients.

Both formulas place the data to the *right* of the kernel: in both sums
``q[r]`` multiplies ``Phi_r`` from the left, term by term, so each sum
equals its representation formula for any data.  The formula
solves the equation only when the right coefficient ``A1`` commutes with
every history and forcing value, since ``A1`` acts on ``Z`` from the
right and would otherwise have to pass the data (scalar multiples of the
identity always qualify).  :func:`validate_hypotheses` checks exactly
that, on the matrices the data is made of: a polynomial's values commute
with ``A1`` exactly when its coefficients do, so the continuous check
reads each piece's local coefficients and the discrete check the values,
and neither samples anything.  Which data fits a system and a horizon
is decided in :mod:`delaymat.system`, once for the solvers and the
oracles.  A failed check raises
:class:`~delaymat.errors.HypothesisViolation` unless the caller forces
the evaluation with ``allow_noncommuting_data=True``, in which case the
result is a formal plug-in of the formula and an
:class:`~delaymat.errors.UnsupportedHypothesisWarning` is emitted.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, UnsupportedHypothesisWarning
from .fundamental import (  # noqa: F401
    build_fundamental_continuous,  # unused: perfbench traces it (ROADMAP item 5)
    delay_windows,
    discrete_kernel,
)
from .linalg import max_abs
from .ppoly import (
    MatrixPolynomial,
    PiecewiseMatrixPolynomial,
    convolve_kernel,
    running_antiderivative,
)
from .qseq import build_q_table
from .system import HistorySpec, TrajectoryTable, continuous_data, discrete_data

__all__ = [
    "HypothesisReport",
    "validate_hypotheses",
    "solve_continuous",
    "solve_discrete",
]

log = logging.getLogger(__name__)

#: Default commutation tolerance for the data hypothesis check.
HYPOTHESIS_TOL = 1e-10


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the data commutation check.

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
    return np.concatenate([p.coeffs for _, _, p in ppoly.pieces_in(lo, hi)])


def validate_hypotheses(sys, history, forcing=None, tol=HYPOTHESIS_TOL, steps=None):
    """Check that ``A1`` commutes with the history and forcing data.

    The check is exact for the data's own matrices: the local
    coefficients of the history pieces on ``[-sigma, 0]`` and of every
    forcing piece for continuous data, and every value for discrete data.
    ``steps`` is the solve's horizon, a time or a step count, which the
    data must cover; without it the forcing is checked over its own
    domain, and a callable discrete forcing, which has none, is refused.
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


def _enforce_hypotheses(report, allow):
    if report.ok:
        return
    if not allow:
        raise HypothesisViolation(
            f"{report.summary()}; pass allow_noncommuting_data=True to "
            f"evaluate the formula anyway"
        )
    warnings.warn(
        f"forcing the representation formula past a failed commutation "
        f"check ({report.summary()}); the result need not solve the equation",
        UnsupportedHypothesisWarning,
        stacklevel=3,
    )


def _data_integral(psi, g, sigma, horizon):
    """``Phi_0``: the history on ``[-sigma, 0]``, then ``Psi(0) +
    \\int_0^t G`` on ``[0, horizon]`` (constant without forcing)."""
    segs = psi.pieces_in(-sigma, 0.0)
    start = psi.eval_left(0.0)
    if g is None:
        tail = [(0.0, horizon, MatrixPolynomial.constant(start))]
    else:
        gsegs = g.pieces_in(0.0, horizon)
        n = max(p.degree for _, _, p in gsegs) + 1
        coeffs = np.zeros((len(gsegs), n, psi.dim, psi.dim))
        for k, (_, _, p) in enumerate(gsegs):
            coeffs[k, : p.coeffs.shape[0]] = p.coeffs
        widths = [b - a for a, b, _ in gsegs]
        integral = running_antiderivative(coeffs, widths, start)
        tail = [(a, b, MatrixPolynomial(c)) for (a, b, _), c in zip(gsegs, integral)]
    segs = segs + tail
    return PiecewiseMatrixPolynomial(
        [a for a, _, _ in segs] + [horizon], [p for _, _, p in segs]
    )


def solve_continuous(
    sys,
    history,
    forcing,
    horizon,
    *,
    allow_noncommuting_data=False,
    hypothesis_tol=HYPOTHESIS_TOL,
):
    """Exact solution of the continuous initial value problem on
    ``[-sigma, horizon]`` as a piecewise matrix polynomial."""
    psi, g = continuous_data(sys, history, forcing, horizon)
    # the formula reads the history's derivative, so it must be C^1
    HistorySpec.from_ppoly(psi)
    report = validate_hypotheses(sys, psi, g, tol=hypothesis_tol, steps=horizon)
    _enforce_hypotheses(report, allow_noncommuting_data)

    horizon = float(horizon)
    sigma = sys.sigma
    windows = delay_windows(horizon, sigma)
    q = build_q_table(sys.a0, sys.a1, windows)
    x = convolve_kernel(q.mats, sigma, _data_integral(psi, g, sigma, horizon),
                        -sigma, horizon)
    log.info(
        "solve(continuous): d=%d sigma=%g horizon=%g segments=%d degree=%d",
        sys.dim, sigma, horizon, len(x.pieces), x.degree,
    )
    return x


def solve_discrete(
    sys,
    history,
    forcing,
    n_steps,
    *,
    allow_noncommuting_data=False,
    hypothesis_tol=HYPOTHESIS_TOL,
):
    """Exact solution of the discrete initial value problem for
    ``u = -m .. n_steps`` via the closed-form sums."""
    hist, g = discrete_data(sys, history, forcing, n_steps)
    n_steps, m, d = g.shape[0], sys.m, sys.dim
    report = validate_hypotheses(sys, hist, g, tol=hypothesis_tol, steps=n_steps)
    _enforce_hypotheses(report, allow_noncommuting_data)

    # Phi_0: the history on -m .. 0, then Psi(0) + G(0) + .. + G(u - 1)
    running = np.cumsum(np.concatenate([hist[-1:], g]), axis=0)
    phi0 = np.concatenate([hist[:-1], running])
    q = build_q_table(sys.a0, sys.a1, (n_steps + m) // (m + 1))
    out = discrete_kernel(q.mats, phi0, m)
    times = np.arange(-m, n_steps + 1, dtype=float)
    log.info("solve(discrete): d=%d m=%d steps=%d", d, m, n_steps)
    return TrajectoryTable(kind="discrete", times=times, values=out)
