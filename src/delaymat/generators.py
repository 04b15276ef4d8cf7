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

from .ppoly import PiecewiseMatrixPolynomial, _power_sum
from .system import DelaySystem, ForcingSpec, HistorySpec

__all__ = [
    "random_system",
    "random_scalar_history",
    "random_scalar_forcing",
    "random_discrete_scalar_data",
    "random_matrix_data",
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


def _scalar_ppoly(rng, d, lo, hi, deg, n_pieces=1, c1=False):
    """Scalar-multiple-of-identity piecewise polynomial on [lo, hi],
    drawn in the global variable and converted to local pieces.

    With ``c1=True`` the pieces are glued C^1 (value and slope matched
    at the knots).
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
        pieces.append(coef[:, None, None] * eye)
        prev = coef
    left = np.empty((1, d, d))
    _power_sum(pieces[0], np.array([lo]), left)
    return PiecewiseMatrixPolynomial.from_global(
        bks, pieces, left_value=left[0], right_extension=False
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


def random_matrix_data(rng, sys, horizon):
    """General history and forcing for either family, with entries
    uniform in ``[-1, 1]`` and no relation to the coefficients.

    Continuous: a history of three cubic pieces on ``[-sigma, 0]`` that
    need not join, split at random points, and a forcing of five cubic
    pieces on ``[0, horizon]`` with random knots.  Discrete: matrices for
    ``u = -m .. 0`` and ``u = 0 .. horizon - 1``.
    """
    d = sys.dim
    if not sys.is_continuous:
        hist = rng.uniform(-1.0, 1.0, size=(sys.m + 1, d, d))
        g = rng.uniform(-1.0, 1.0, size=(max(int(horizon), 0), d, d))
        return HistorySpec.from_values(hist), ForcingSpec.from_values(g)

    def cubic_pieces(lo, hi, count):
        knots = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, count - 1)), [hi]])
        coeffs = rng.uniform(-1.0, 1.0, size=(count, 4, d, d))
        return PiecewiseMatrixPolynomial(knots, coeffs)

    return (
        HistorySpec.from_ppoly(cubic_pieces(-sys.sigma, 0.0, 3)),
        ForcingSpec.from_ppoly(cubic_pieces(0.0, float(horizon), 5)),
    )
