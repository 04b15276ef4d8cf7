"""Fundamental solutions of the two delay equation families.

The continuous fundamental solution ``Z`` solves ``Z'(t) = A0 Z(t -
sigma) + Z(t - sigma) A1`` with ``Z = 0`` below ``-sigma`` and ``Z = I``
on ``[-sigma, 0)``.  On each delay window ``[(u-1) sigma, u sigma)`` it
is the polynomial

    Z(t) = sum_{r=0}^{u} q[r] (t - (r - 1) sigma)**r / r!

with ``q`` from :func:`~delaymat.qseq.build_q_table` — a delayed matrix
exponential whose coefficients are the operator iterates instead of the
powers of a single matrix (those coincide only when ``A0`` and ``A1``
commute, or when one of them vanishes).

The discrete fundamental solution solves ``ΔZ(u) = A0 Z(u - m) +
Z(u - m) A1`` with ``Z = 0`` for ``u <= -m - 1`` and ``Z = I`` for
``-m <= u <= 0``; for ``u >= 1`` it is the finite binomial sum

    Z(u) = sum_{r=0}^{n} C(u - (r - 1) m, r) q[r],   n = ceil(u / (m+1)).

Commutative-case evaluators (`fundamental_commutative_*`) compute the
same windows from powers of ``A0`` and ``A1`` alone; they require a
commuting pair and exist as independently-derived cross-checks.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import CommutationError, DegreeCapExceeded
from .linalg import binomial, commutes
from .ppoly import MAX_DEGREE, MatrixPolynomial, PiecewiseMatrixPolynomial
from .qseq import build_q_table, q_commutative_closed_form

__all__ = [
    "build_fundamental_continuous",
    "DiscreteFundamental",
    "fundamental_commutative_continuous",
    "fundamental_commutative_discrete",
]

log = logging.getLogger(__name__)


def build_fundamental_continuous(sys, horizon):
    """The continuous fundamental solution as a piecewise polynomial
    covering ``[-sigma, U sigma)`` with ``U = ceil(horizon / sigma)``.

    Evaluation below ``-sigma`` returns the zero matrix; the last window
    extends polynomially past the horizon.
    """
    if not sys.is_continuous:
        raise ValueError("build_fundamental_continuous needs a continuous system")
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    sigma = sys.sigma
    d = sys.dim
    windows = max(1, math.ceil(horizon / sigma - 1e-12))
    if windows > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"horizon {horizon} spans {windows} delay windows; the degree "
            f"cap allows at most {MAX_DEGREE}"
        )
    q = build_q_table(sys.a0, sys.a1, windows)
    log.debug(
        "fundamental(continuous): d=%d sigma=%g windows=%d", d, sigma, windows
    )

    breakpoints = sigma * np.arange(-1, windows + 1, dtype=float)
    pieces = [MatrixPolynomial.constant(np.eye(d))]
    for u in range(1, windows + 1):
        coeffs = np.zeros((u + 1, d, d))
        for r in range(u + 1):
            # q[r] (t - (r-1) sigma)^r / r!, expanded into global powers
            qr = q[r] / math.factorial(r)
            c = -(r - 1) * sigma
            cpow = 1.0
            for j in range(r, -1, -1):
                coeffs[j] += (binomial(r, j) * cpow) * qr
                cpow *= c
        pieces.append(MatrixPolynomial(coeffs))
    return PiecewiseMatrixPolynomial(
        breakpoints, pieces, left_value=np.zeros((d, d)), right_extension=False
    )


class DiscreteFundamental:
    """Lazy evaluator for the discrete fundamental solution.

    Grows its coefficient table on demand and memoizes values by index;
    both caches are pure-function style (an index always maps to the
    same matrix), so sharing an instance across callers is safe.
    """

    def __init__(self, sys):
        if sys.is_continuous:
            raise ValueError("DiscreteFundamental needs a discrete system")
        self.system = sys
        self._q = [np.eye(sys.dim)]
        self._cache = {}

    def _q_upto(self, depth):
        while len(self._q) <= depth:
            m = self._q[-1]
            self._q.append(self.system.a0 @ m + m @ self.system.a1)
        return self._q

    def value(self, u):
        """``Z(u)`` for any integer ``u``."""
        u = int(u)
        m = self.system.m
        d = self.system.dim
        if u <= -m - 1:
            return np.zeros((d, d))
        if u <= 0:
            return np.eye(d)
        hit = self._cache.get(u)
        if hit is not None:
            return hit
        n = -(-u // (m + 1))  # ceil(u / (m + 1))
        q = self._q_upto(n)
        out = np.zeros((d, d))
        for r in range(n + 1):
            c = binomial(u - (r - 1) * m, r)
            if c:
                out += float(c) * q[r]
        out.setflags(write=False)
        self._cache[u] = out
        return out


def _require_commuting(a0, a1, tol):
    if not commutes(a0, a1, tol):
        raise CommutationError(
            "coefficients do not commute; the commutative closed form "
            "does not apply (use the general construction)"
        )


def fundamental_commutative_continuous(sys, t, tol=None):
    """Commutative-case value of the continuous fundamental solution at
    scalar ``t``, from powers of ``A0`` and ``A1`` alone.

    Raises :class:`~delaymat.errors.CommutationError` when ``A0`` and
    ``A1`` fail the commutation check at ``tol``.
    """
    if not sys.is_continuous:
        raise ValueError("needs a continuous system")
    _require_commuting(sys.a0, sys.a1, tol)
    sigma = sys.sigma
    d = sys.dim
    t = float(t)
    if t < -sigma:
        return np.zeros((d, d))
    if t < 0:
        return np.eye(d)
    u = int(math.floor(t / sigma)) + 1
    out = np.zeros((d, d))
    for r in range(u + 1):
        term = q_commutative_closed_form(sys.a0, sys.a1, r)
        out += term * ((t - (r - 1) * sigma) ** r / math.factorial(r))
    return out


def fundamental_commutative_discrete(fund, u, tol=None):
    """Commutative-case value of the discrete fundamental solution at
    integer ``u``, from powers of ``A0`` and ``A1`` alone."""
    sys = fund.system
    _require_commuting(sys.a0, sys.a1, tol)
    u = int(u)
    m = sys.m
    d = sys.dim
    if u <= -m - 1:
        return np.zeros((d, d))
    if u <= 0:
        return np.eye(d)
    n = -(-u // (m + 1))
    out = np.zeros((d, d))
    for r in range(n + 1):
        c = binomial(u - (r - 1) * m, r)
        if c:
            out += float(c) * q_commutative_closed_form(sys.a0, sys.a1, r)
    return out
