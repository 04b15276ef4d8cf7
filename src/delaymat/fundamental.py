"""Fundamental solutions of the two delay equation families.

The continuous fundamental solution ``Z`` solves ``Z'(t) = A0 Z(t -
sigma) + Z(t - sigma) A1`` with ``Z = 0`` below ``-sigma`` and ``Z = I``
on ``[-sigma, 0)``.  On each delay window ``[(u-1) sigma, u sigma)`` it
is the polynomial

    Z(t) = sum_{r=0}^{u} q[r] (t - (r - 1) sigma)**r / r!

with ``q[r] = L^r(I)`` the iterates of ``L(M) = A0 M + M A1``
(:func:`~delaymat.qseq.build_q_table`) — a delayed matrix exponential
whose coefficients are the operator iterates instead of the powers of a
single matrix (those coincide only when ``A0`` and ``A1`` commute, or
when one of them vanishes).  :func:`build_fundamental_continuous` is the
case ``Theta_0 = I`` of the solver's repeated sum
:func:`~delaymat.ppoly.convolve_kernel`: there ``Theta_r`` is ``q[r]``
times the ``r``-fold integral of 1, so window ``u`` is stored in its
local variable ``tau = t - (u-1) sigma`` as ``sum_r q[r] (tau + (u - r)
sigma)**r / r!``.

The discrete fundamental solution solves ``ΔZ(u) = A0 Z(u - m) +
Z(u - m) A1`` with ``Z = 0`` for ``u <= -m - 1`` and ``Z = I`` for
``-m <= u <= 0``; for ``u >= 1`` it is the finite binomial sum

    Z(u) = sum_{r=0}^{n} C(u - (r - 1) m, r) q[r],   n = ceil(u / (m+1)).

The binomial is a repeated sum, so :meth:`DiscreteFundamental.table` is
the case ``Theta_0 = I`` of :func:`discrete_kernel`, which evaluates
``sum_r Theta_r(u - r (m + 1))`` with ``Theta_{r+1}`` the cumulative sum
of ``L(Theta_r)``, for the fundamental solution and the data alike.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DegreeCapExceeded
from .ppoly import (
    MAX_DEGREE,
    MatrixPolynomial,
    PiecewiseMatrixPolynomial,
    convolve_kernel,
)
from .qseq import (  # noqa: F401
    build_q_table,  # unused: perfbench traces it (ROADMAP item 7)
)

__all__ = [
    "build_fundamental_continuous",
    "DiscreteFundamental",
    "discrete_kernel",
]

log = logging.getLogger(__name__)


def delay_windows(horizon, sigma):
    """The number ``U = ceil(horizon / sigma)`` (at least 1) of delay
    windows that cover ``[0, horizon]``.  Each window adds one polynomial
    degree, so more than :data:`~delaymat.ppoly.MAX_DEGREE` of them raise
    :class:`~delaymat.errors.DegreeCapExceeded`."""
    windows = max(1, math.ceil(horizon / sigma - 1e-12))
    if windows > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"horizon {horizon} spans {windows} delay windows; the degree "
            f"cap allows at most {MAX_DEGREE}"
        )
    return windows


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
    windows = delay_windows(horizon, sigma)
    log.debug(
        "fundamental(continuous): d=%d sigma=%g windows=%d", d, sigma, windows
    )
    # Z(t) = sum_r Theta_r(t - r sigma) with Theta_0 = I from -sigma on
    identity = PiecewiseMatrixPolynomial(
        [-sigma, windows * sigma],
        [MatrixPolynomial.constant(np.eye(d))],
        right_extension=True,
    )
    return convolve_kernel(sys.a0, sys.a1, sigma, identity, -sigma, windows * sigma)


class DiscreteFundamental:
    """Evaluator for the discrete fundamental solution.

    :meth:`table` computes ``Z(u)`` over a whole index range with
    :func:`discrete_kernel`, ``Theta_0 = I`` from ``-m`` on; :meth:`value`
    reads single indices from it and memoizes them.  The cache is
    pure-function style (an index always maps to the same matrix), so
    sharing an instance across callers is safe.
    """

    def __init__(self, sys):
        if sys.is_continuous:
            raise ValueError("DiscreteFundamental needs a discrete system")
        self.system = sys
        self._cache = {}

    def table(self, lo, hi):
        """``Z(u)`` for ``u = lo .. hi`` as a ``(hi - lo + 1, d, d)`` stack.

        Raises :class:`~delaymat.errors.DegreeCapExceeded` when a row
        from ``-m`` up to ``hi`` leaves the float range.
        """
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty index range {lo} .. {hi}")
        m = self.system.m
        d = self.system.dim
        out = np.zeros((hi - lo + 1, d, d))
        if hi >= -m:
            # each row sums its terms in the same order whatever the
            # range, so table and value agree bit for bit
            identity = np.broadcast_to(np.eye(d), (hi + m + 1, d, d))
            z = discrete_kernel(self.system.a0, self.system.a1, identity, m, name="Z")
            first = max(lo, -m)
            out[first - lo :] = z[first + m :]
        return out

    def value(self, u):
        """``Z(u)`` for any integer ``u`` (memoized, read-only)."""
        u = int(u)
        hit = self._cache.get(u)
        if hit is None:
            hit = self.table(u, u)[0]
            hit.setflags(write=False)
            self._cache[u] = hit
        return hit


def discrete_kernel(a0, a1, phi0, m, name="X"):
    """``X(u) = sum_r Theta_r(u - r (m + 1))`` for ``u = -m .. -m + L - 1``.

    ``phi0`` is the ``(L, d, d)`` stack ``Theta_0(-m) .. Theta_0(-m + L -
    1)``, ``Theta_r`` is zero below ``-m`` and ``Theta_{r+1}`` is the
    inclusive cumulative sum of ``L(Theta_r)``, ``L(M) = A0 M + M A1``.
    Term ``r`` needs ``Theta_r`` only on the first ``L - r (m + 1)`` rows,
    and every row adds its terms in order of ``r``.  Raises
    :class:`~delaymat.errors.DegreeCapExceeded` naming the first row
    (``name(u)``) that leaves the float range.
    """
    rows, d = phi0.shape[0], phi0.shape[1]
    # (d, d, rows) layout: A0 Theta is one (d, d) @ (d, d * n) product,
    # Theta A1 one batch of d products, and each cumulative sum runs along
    # the contiguous last axis
    theta = np.transpose(phi0, (1, 2, 0)).copy()
    out = theta.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, -(-rows // (m + 1))):
            n = rows - r * (m + 1)
            theta = theta[:, :, :n]
            image = (a0 @ theta.reshape(d, d * n)).reshape(d, d, n)
            image += np.matmul(a1.T, theta)
            theta = np.cumsum(image, axis=2)
            out[:, :, r * (m + 1) :] += theta
    finite = np.isfinite(out).all(axis=(0, 1))
    if not finite.all():
        u = int(np.argmin(finite)) - m
        raise DegreeCapExceeded(
            f"{name}(u) at u = {u} with delay m = {m} leaves the float range"
        )
    return np.ascontiguousarray(out.transpose(2, 0, 1))
