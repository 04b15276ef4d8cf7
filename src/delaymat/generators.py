"""Seeded random problem generators for self-checks and the CLI's
``verify --random`` mode.

Magnitude notes: discrete solutions grow geometrically with the step
count, so generators that feed long-horizon equality checks scale the
coefficient entries down (see ``entry_scale``) to keep the values well
inside the range where float64 absolute comparisons at 1e-9 are
meaningful.
"""

from __future__ import annotations

import numpy as np

from .ppoly import MatrixPolynomial, PiecewiseMatrixPolynomial
from .system import DelaySystem, ForcingSpec, HistorySpec

__all__ = [
    "random_system",
    "random_commuting_polynomial_pair",
    "random_scalar_history",
    "random_scalar_forcing",
    "random_discrete_scalar_data",
]


def random_system(rng, d, kind, *, sigma=1.0, m=None, entry_scale=1.0):
    """A random system with entries uniform in ``entry_scale * [-1, 1]``
    (``m`` defaults to a draw from {1, 2, 3} for discrete systems)."""
    a0 = entry_scale * rng.uniform(-1.0, 1.0, size=(d, d))
    a1 = entry_scale * rng.uniform(-1.0, 1.0, size=(d, d))
    if kind == "continuous":
        return DelaySystem(a0=a0, a1=a1, delay=sigma, kind=kind)
    if m is None:
        m = int(rng.integers(1, 4))
    return DelaySystem(a0=a0, a1=a1, delay=m, kind=kind)


def random_commuting_polynomial_pair(rng, d, *, integer=False):
    """A pair ``(a0, a1)`` with ``a1`` a quadratic polynomial in ``a0``
    — commuting by construction but generally full matrices.

    With ``integer=True`` all entries are small integers, so every
    product is exact in float64 and the pair commutes with residual
    exactly zero.
    """
    if integer:
        a0 = rng.integers(-2, 3, size=(d, d)).astype(float)
        c = rng.integers(-2, 3, size=3).astype(float)
    else:
        a0 = rng.uniform(-1.0, 1.0, size=(d, d))
        c = rng.uniform(-1.0, 1.0, size=3)
    eye = np.eye(d)
    a1 = c[0] * eye + c[1] * a0 + c[2] * (a0 @ a0)
    return a0, a1


def _scalar_ppoly(rng, d, lo, hi, deg, n_pieces=1, c1=False):
    """Scalar-multiple-of-identity piecewise polynomial on [lo, hi],
    drawn in the global variable and converted to local pieces.

    With ``c1=True`` the pieces are glued C^1 (value and slope matched
    at the knots) so the result qualifies as a continuous history.
    """
    eye = np.eye(d)
    bks = np.linspace(lo, hi, n_pieces + 1)
    pieces = []
    prev = None
    for k in range(n_pieces):
        coef = rng.uniform(-1.0, 1.0, size=deg + 1)
        if c1 and prev is not None:
            # match value and slope of the previous piece at the knot
            t = bks[k]
            val = sum(c * t**j for j, c in enumerate(prev))
            slope = sum(j * c * t ** (j - 1) for j, c in enumerate(prev) if j)
            coef[0] += val - sum(c * t**j for j, c in enumerate(coef))
            want = slope - sum(
                j * c * t ** (j - 1) for j, c in enumerate(coef) if j
            )
            if deg >= 1:
                coef[1] += want
                coef[0] -= want * t
        pieces.append(MatrixPolynomial(coef[:, None, None] * eye))
        prev = pieces[-1].coeffs[:, 0, 0]
    return PiecewiseMatrixPolynomial.from_global(
        bks, pieces, left_value=pieces[0].eval(lo), right_extension=False
    )


def random_scalar_history(rng, sys, deg=2, n_pieces=2):
    """A C^1 scalar-multiple-of-identity history on ``[-sigma, 0]``
    (commutes with any coefficient pair)."""
    return HistorySpec.from_ppoly(
        _scalar_ppoly(rng, sys.dim, -sys.sigma, 0.0, deg, n_pieces, c1=True)
    )


def random_scalar_forcing(rng, sys, horizon, deg=2, n_pieces=2):
    """A scalar-multiple-of-identity forcing on ``[0, horizon]``."""
    return ForcingSpec.from_ppoly(
        _scalar_ppoly(rng, sys.dim, 0.0, float(horizon), deg, n_pieces)
    )


def random_discrete_scalar_data(rng, sys, n_steps):
    """Scalar-multiple-of-identity history (u = -m..0) and forcing
    (u = 0..n_steps-1) for a discrete system."""
    eye = np.eye(sys.dim)
    hist = rng.uniform(-1.0, 1.0, size=sys.m + 1)[:, None, None] * eye
    g = rng.uniform(-1.0, 1.0, size=max(n_steps, 0))[:, None, None] * eye
    return HistorySpec.from_values(hist), ForcingSpec.from_values(g)
