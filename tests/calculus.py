"""Calculus on matrix polynomials, for the residual and continuity
checks of the test suite: derivatives, antiderivatives and the value
jumps at the knots of a piecewise polynomial."""

from __future__ import annotations

import numpy as np

from delaymat.ppoly import MatrixPolynomial, PiecewiseMatrixPolynomial


def derivative(poly):
    """``p'`` (the zero polynomial for a constant)."""
    n = poly.coeffs.shape[0]
    if n == 1:
        return MatrixPolynomial(np.zeros_like(poly.coeffs))
    return MatrixPolynomial(poly.coeffs[1:] * np.arange(1.0, n)[:, None, None])


def antiderivative(poly):
    """The antiderivative of ``p`` with zero constant term."""
    n = poly.coeffs.shape[0]
    out = np.zeros((n + 1,) + poly.coeffs.shape[1:])
    out[1:] = poly.coeffs / np.arange(1.0, n + 1)[:, None, None]
    return MatrixPolynomial(out)


def differentiate(ppoly):
    """The derivative piece by piece: zero left of the first knot, and
    the jumps at the knots left out."""
    return PiecewiseMatrixPolynomial(
        ppoly.breakpoints,
        [derivative(p) for p in ppoly.pieces],
        right_extension=ppoly.right_extension,
    )


def knot_jumps(ppoly):
    """The max-abs jump of the value at each interior knot."""
    widths = np.diff(ppoly.breakpoints)
    return np.array([
        float(np.max(np.abs(right.eval(0.0) - left.eval(width))))
        for left, right, width in zip(ppoly.pieces, ppoly.pieces[1:], widths)
    ])


def zero_poly(d):
    """The zero ``d x d`` polynomial."""
    return MatrixPolynomial(np.zeros((1, d, d)))
