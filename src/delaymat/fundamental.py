"""Fundamental solutions of the two delay equation families.

The continuous fundamental solution ``Z`` solves ``Z'(t) = A0 Z(t -
sigma) + Z(t - sigma) A1`` with ``Z = 0`` below ``-sigma`` and ``Z = I``
on ``[-sigma, 0)``.  On each delay window ``[(u-1) sigma, u sigma)`` it
is the polynomial

    Z(t) = sum_{r=0}^{u} q[r] (t - (r - 1) sigma)**r / r!

with ``q`` from :func:`~delaymat.qseq.build_q_table` — a delayed matrix
exponential whose coefficients are the operator iterates instead of the
powers of a single matrix (those coincide only when ``A0`` and ``A1``
commute, or when one of them vanishes).  :func:`build_fundamental_continuous`
obtains it from the repeated-integration routine
:func:`~delaymat.ppoly.convolve_kernel` with ``Phi_0 = I`` from ``-sigma``
on, which stores window ``u`` in its local variable ``tau = t - (u-1)
sigma`` as ``sum_r q[r] (tau + (u - r) sigma)**r / r!``.

The discrete fundamental solution solves ``ΔZ(u) = A0 Z(u - m) +
Z(u - m) A1`` with ``Z = 0`` for ``u <= -m - 1`` and ``Z = I`` for
``-m <= u <= 0``; for ``u >= 1`` it is the finite binomial sum

    Z(u) = sum_{r=0}^{n} C(u - (r - 1) m, r) q[r],   n = ceil(u / (m+1)).

The binomial is a repeated sum: with ``Phi_0 = I`` from ``-m`` on and
``Phi_{r+1}`` the cumulative sum of ``Phi_r``, ``Phi_r(v) = C(v + m + r,
r)``.  :func:`discrete_kernel` evaluates ``sum_r q[r] Phi_r(u - r (m+1))``
for ``Phi_0 = I`` (:meth:`DiscreteFundamental.table`) and for the data.

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
from .ppoly import (
    MAX_DEGREE,
    MatrixPolynomial,
    PiecewiseMatrixPolynomial,
    convolve_kernel,
)
from .qseq import build_q_table, q_commutative_closed_form

__all__ = [
    "build_fundamental_continuous",
    "DiscreteFundamental",
    "discrete_kernel",
    "fundamental_commutative_continuous",
    "fundamental_commutative_discrete",
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
    q = build_q_table(sys.a0, sys.a1, windows)
    log.debug(
        "fundamental(continuous): d=%d sigma=%g windows=%d", d, sigma, windows
    )
    # Z(t) = sum_r q[r] Phi_r(t - r sigma) with Phi_0 = I from -sigma on
    identity = PiecewiseMatrixPolynomial(
        [-sigma, windows * sigma],
        [MatrixPolynomial.constant(np.eye(d))],
        right_extension=True,
    )
    return convolve_kernel(q.mats, sigma, identity, -sigma, windows * sigma)


class DiscreteFundamental:
    """Evaluator for the discrete fundamental solution.

    :meth:`table` computes ``Z(u)`` over a whole index range with
    :func:`discrete_kernel`, ``Phi_0 = I`` from ``-m`` on; :meth:`value`
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
            q = build_q_table(self.system.a0, self.system.a1, (hi + m) // (m + 1))
            identity = np.broadcast_to(np.eye(d), (hi + m + 1, d, d))
            z = discrete_kernel(q.mats, identity, m, name="Z")
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


def discrete_kernel(q, phi0, m, name="X"):
    """``X(u) = sum_r q[r] Phi_r(u - r (m + 1))`` for ``u = -m .. -m + L - 1``.

    ``phi0`` is the ``(L, d, d)`` stack ``Phi_0(-m) .. Phi_0(-m + L - 1)``,
    ``Phi_r`` is zero below ``-m`` and ``Phi_{r+1}`` is the inclusive
    cumulative sum of ``Phi_r``; ``q`` must reach depth ``(L - 1) // (m +
    1)``.  Term ``r`` needs ``Phi_r`` only on the first ``L - r (m + 1)``
    rows, and every row adds its terms in order of ``r``.  Raises
    :class:`~delaymat.errors.DegreeCapExceeded` naming the first row
    (``name(u)``) that leaves the float range.
    """
    rows, d = phi0.shape[0], phi0.shape[1]
    # (d, d, rows) layout: a term is one (d, d) @ (d, d * n) product, and
    # each cumulative sum runs along the contiguous last axis
    phi = np.transpose(phi0, (1, 2, 0)).copy()
    out = np.zeros_like(phi)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(-(-rows // (m + 1))):
            n = rows - r * (m + 1)
            if r:
                phi = np.cumsum(phi[:, :, :n], axis=2)
            term = q[r] @ phi.reshape(d, d * n)
            out[:, :, r * (m + 1) :] += term.reshape(d, d, n)
    finite = np.isfinite(out).all(axis=(0, 1))
    if not finite.all():
        u = int(np.argmin(finite)) - m
        raise DegreeCapExceeded(
            f"{name}(u) at u = {u} with delay m = {m} leaves the float range"
        )
    return np.ascontiguousarray(out.transpose(2, 0, 1))


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
