"""Calculus on matrix polynomials, for the residual and continuity
checks of the test suite: derivatives, antiderivatives and the value
jumps at the knots of a piecewise polynomial.  A polynomial is its
``(n, d, d)`` array of coefficients in ascending powers."""

from __future__ import annotations

import numpy as np

from delaymat.ppoly import PiecewiseMatrixPolynomial, _power_sum


def derivative(c):
    """``p'`` (the zero polynomial for a constant)."""
    n = c.shape[0]
    if n == 1:
        return np.zeros_like(c)
    return c[1:] * np.arange(1.0, n)[:, None, None]


def antiderivative(c):
    """The antiderivative of ``p`` with zero constant term."""
    n = c.shape[0]
    out = np.zeros((n + 1,) + c.shape[1:])
    out[1:] = c / np.arange(1.0, n + 1)[:, None, None]
    return out


def value(c, t):
    """``p(t)`` at a scalar ``t`` (a ``(d, d)`` matrix) or at a 1-D array
    of times (a stack), by the library's power-table contraction."""
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    out = np.empty((ts.size,) + c.shape[1:])
    _power_sum(c, ts, out)
    return out[0] if t.ndim == 0 else out


def differentiate(ppoly):
    """The derivative piece by piece: zero left of the first knot, and
    the jumps at the knots left out."""
    return PiecewiseMatrixPolynomial(
        ppoly.breakpoints,
        [derivative(c) for c in ppoly.pieces],
        right_extension=ppoly.right_extension,
    )


def knot_jumps(ppoly):
    """The max-abs jump of the value at each interior knot."""
    widths = np.diff(ppoly.breakpoints)
    return np.array([
        float(np.max(np.abs(value(right, 0.0) - value(left, width))))
        for left, right, width in zip(ppoly.pieces, ppoly.pieces[1:], widths)
    ])


def zero_poly(d):
    """The zero ``d x d`` polynomial."""
    return np.zeros((1, d, d))
