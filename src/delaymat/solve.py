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
right and would otherwise have to pass the data
(:func:`validate_hypotheses` checks exactly that; scalar multiples of the
identity always qualify).  A failed check raises
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
from .system import ForcingSpec, HistorySpec, TrajectoryTable

__all__ = [
    "HypothesisReport",
    "validate_hypotheses",
    "solve_continuous",
    "solve_continuous_homogeneous",
    "solve_discrete",
    "solve_discrete_homogeneous",
]

log = logging.getLogger(__name__)

#: Default commutation tolerance for the data hypothesis check.
HYPOTHESIS_TOL = 1e-10

#: Sample count for the continuous commutation check (plus all knots).
_CHECK_GRID = 201


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the data commutation check.

    Residuals are max-abs values of ``A1 V - V A1`` over the sampled
    history/forcing matrices ``V``; ``scale`` is the max-abs of the
    products entering them, so ``ok`` means every residual is within
    ``tol`` relative to ``scale`` (with a floor of 1).
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


def _continuous_samples(ppoly, lo, hi):
    lo = max(lo, ppoly.start)
    hi = min(hi, ppoly.end)
    knots = ppoly.breakpoints
    ts = np.concatenate([np.linspace(lo, hi, _CHECK_GRID), knots])
    ts = ts[(ts >= lo) & (ts <= hi)]
    return ppoly.eval(np.unique(ts))


def validate_hypotheses(sys, history, forcing=None, tol=HYPOTHESIS_TOL, steps=None):
    """Check that ``A1`` commutes with the history and forcing data.

    Continuous data is sampled on a 201-point uniform grid plus every
    knot; discrete data is checked value by value (``steps`` bounds the
    range materialized from a callable forcing; solvers pass their own
    horizon).
    """
    a1 = sys.a1
    if sys.is_continuous:
        psi = history.ppoly if isinstance(history, HistorySpec) else history
        h_res, h_scale = _commutation_residual(
            a1, _continuous_samples(psi, -sys.sigma, 0.0)
        )
        f_res = f_scale = None
        if forcing is not None:
            g = forcing.ppoly if isinstance(forcing, ForcingSpec) else forcing
            f_res, f_scale = _commutation_residual(
                a1, _continuous_samples(g, g.start, g.end)
            )
    else:
        hist = history.values if isinstance(history, HistorySpec) else np.asarray(history, dtype=float)
        h_res, h_scale = _commutation_residual(a1, hist)
        f_res = f_scale = None
        if forcing is not None:
            if isinstance(forcing, ForcingSpec):
                if forcing.values is not None:
                    table = forcing.values
                elif steps is None:
                    raise ValueError(
                        "callable forcing needs steps= to bound the check"
                    )
                else:
                    table = forcing.table(steps, sys.dim)
            else:
                table = np.asarray(forcing, dtype=float)
            f_res, f_scale = _commutation_residual(a1, table)

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


def _as_history_ppoly(history):
    if isinstance(history, HistorySpec):
        if history.kind != "continuous":
            raise ValueError("continuous solve needs a continuous history")
        return history.ppoly
    if isinstance(history, PiecewiseMatrixPolynomial):
        # wrap to get the C^1 certification
        return HistorySpec.from_ppoly(history).ppoly
    raise TypeError(f"unsupported history type {type(history).__name__}")


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
    if not sys.is_continuous:
        raise ValueError("solve_continuous needs a continuous system")
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    sigma = sys.sigma
    psi = _as_history_ppoly(history)
    if psi.dim != sys.dim:
        raise ValueError(
            f"history dimension {psi.dim} does not match system {sys.dim}"
        )
    tiny = 1e-12 * sigma
    if psi.start > -sigma + tiny or psi.end < -tiny:
        raise ValueError(
            f"history domain [{psi.start}, {psi.end}] does not cover "
            f"[-{sigma}, 0]"
        )
    g = None
    if forcing is not None:
        g = forcing.ppoly if isinstance(forcing, ForcingSpec) else forcing
        if g.dim != sys.dim:
            raise ValueError(
                f"forcing dimension {g.dim} does not match system {sys.dim}"
            )
        if g.start > tiny or (g.end < horizon - tiny and not g.right_extension):
            raise ValueError(
                f"forcing domain [{g.start}, {g.end}] does not cover "
                f"[0, {horizon}]"
            )

    report = validate_hypotheses(sys, psi, g, tol=hypothesis_tol)
    _enforce_hypotheses(report, allow_noncommuting_data)

    windows = delay_windows(horizon, sigma)
    q = build_q_table(sys.a0, sys.a1, windows)
    x = convolve_kernel(q.mats, sigma, _data_integral(psi, g, sigma, horizon),
                        -sigma, horizon)
    log.info(
        "solve(continuous): d=%d sigma=%g horizon=%g segments=%d degree=%d",
        sys.dim, sigma, horizon, len(x.pieces), x.degree,
    )
    return x


def solve_continuous_homogeneous(
    sys,
    history,
    horizon,
    *,
    allow_noncommuting_data=False,
    hypothesis_tol=HYPOTHESIS_TOL,
):
    """Homogeneous special case of :func:`solve_continuous`."""
    return solve_continuous(
        sys,
        history,
        None,
        horizon,
        allow_noncommuting_data=allow_noncommuting_data,
        hypothesis_tol=hypothesis_tol,
    )


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
    if sys.is_continuous:
        raise ValueError("solve_discrete needs a discrete system")
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    m = sys.m
    d = sys.dim
    if isinstance(history, HistorySpec):
        if history.kind != "discrete":
            raise ValueError("discrete solve needs a discrete history")
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
        g = np.asarray(forcing, dtype=float)
        if g.shape[0] < n_steps:
            raise ValueError(
                f"forcing must cover u = 0..{n_steps - 1}, got {g.shape[0]} rows"
            )
        g = g[:n_steps]

    report = validate_hypotheses(sys, hist, g, tol=hypothesis_tol)
    _enforce_hypotheses(report, allow_noncommuting_data)

    # Phi_0: the history on -m .. 0, then Psi(0) + G(0) + .. + G(u - 1)
    running = np.cumsum(np.concatenate([hist[-1:], g]), axis=0)
    phi0 = np.concatenate([hist[:-1], running])
    q = build_q_table(sys.a0, sys.a1, (n_steps + m) // (m + 1))
    out = discrete_kernel(q.mats, phi0, m)
    times = np.arange(-m, n_steps + 1, dtype=float)
    log.info("solve(discrete): d=%d m=%d steps=%d", d, m, n_steps)
    return TrajectoryTable(kind="discrete", times=times, values=out)


def solve_discrete_homogeneous(
    sys,
    history,
    n_steps,
    *,
    allow_noncommuting_data=False,
    hypothesis_tol=HYPOTHESIS_TOL,
):
    """Homogeneous special case of :func:`solve_discrete`."""
    return solve_discrete(
        sys,
        history,
        None,
        n_steps,
        allow_noncommuting_data=allow_noncommuting_data,
        hypothesis_tol=hypothesis_tol,
    )
