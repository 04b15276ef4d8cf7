"""The coefficient table ``q`` and the discrete fundamental solution.

``q[r] = L^r(I)`` are the iterates of ``L(M) = A0 M + M A1``
(:func:`build_q_table`).  On the delay window ``[(u-1) sigma, u sigma)``
the continuous fundamental solution is the polynomial

    Z(t) = sum_{r=0}^{u} q[r] (t - (r - 1) sigma)**r / r!,

a delayed matrix exponential whose coefficients are the operator
iterates instead of the powers of a single matrix (those coincide only
when ``A0`` and ``A1`` commute, or when one of them vanishes).  ``Z`` is
the solution with history ``I`` and no forcing, so the solver builds it
(:func:`~delaymat.solve.build_fundamental_continuous`).

The discrete fundamental solution solves ``ΔZ(u) = A0 Z(u - m) +
Z(u - m) A1`` with ``Z = 0`` for ``u <= -m - 1`` and ``Z = I`` for
``-m <= u <= 0``; for ``u >= 1`` it is the finite binomial sum

    Z(u) = sum_{r=0}^{n} C(u - (r - 1) m, r) q[r],   n = ceil(u / (m+1)).

The binomial is a repeated sum, so :meth:`DiscreteFundamental.table` is
the case ``Theta_0 = I`` (history ``I``, no forcing) of
:func:`discrete_kernel`, which evaluates ``sum_r Theta_r(u - r (m + 1))``
with ``Theta_{r+1}`` the cumulative sum of ``L(Theta_r)``, for the
fundamental solution and the data alike.  Summed from ``0``, row ``u``
would take ``u / (m + 1)`` terms, whose sizes can exceed the row's by
many orders when they cancel.  The equation is shift-invariant, so the
kernel restarts the sum every :data:`BLOCK_WINDOWS` delay windows from
the last ``m + 1`` rows it has computed: every row takes at most that
many terms, and a table of ``N`` rows costs ``O(N d**3)``.  The kernel
holds its table as ``(rows, d, d)``, like every other discrete table,
and applies ``L`` with one product per row, so for every ``d`` a row
has the same bits whatever ``N``, and :meth:`DiscreteFundamental.table`
and :meth:`DiscreteFundamental.value` agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeCapExceeded, DimensionMismatch
from .linalg import as_square_matrix

__all__ = [
    "build_q_table",
    "DiscreteFundamental",
    "discrete_kernel",
]

#: Delay windows per block of :func:`discrete_kernel`: a row adds at most
#: this many terms of the repeated sum.
BLOCK_WINDOWS = 4


def build_q_table(a0, a1, depth):
    """Iterate ``q[r + 1] = A0 q[r] + q[r] A1`` from ``q[0] = I`` up to
    ``q[depth]``, returned as one ``(depth + 1, d, d)`` array; an iterate
    past the float range raises :class:`~delaymat.errors.DegreeCapExceeded`.

    These are the coefficients of both fundamental solutions as the paper
    writes them, and ``--dump-q`` writes them out; the solvers apply
    ``L`` itself."""
    a0 = as_square_matrix(a0, "a0")
    a1 = as_square_matrix(a1, "a1")
    if a0.shape != a1.shape:
        raise DimensionMismatch(
            f"a0 and a1 must match, got {a0.shape} and {a1.shape}"
        )
    depth = int(depth)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    d = a0.shape[0]
    mats = np.empty((depth + 1, d, d))
    mats[0] = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(depth):
            mats[r + 1] = a0 @ mats[r] + mats[r] @ a1
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise DegreeCapExceeded(
            f"q[{int(np.argmin(finite))}] of depth {depth} leaves the float range"
        )
    return mats


class DiscreteFundamental:
    """Evaluator for the discrete fundamental solution.

    :meth:`table` computes ``Z(u)`` over a whole index range with
    :func:`discrete_kernel`, ``Theta_0 = I`` from ``-m`` on; :meth:`value`
    is the one-index range.
    """

    def __init__(self, sys):
        if sys.is_continuous:
            raise ValueError("DiscreteFundamental needs a discrete system")
        self.system = sys

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
            # a row has the same bits whatever the range, so table and
            # value agree bit for bit
            identity = np.broadcast_to(np.eye(d), (m + 1, d, d))
            no_forcing = np.zeros((max(hi, 0), d, d))
            z = discrete_kernel(
                self.system.a0, self.system.a1, identity, no_forcing, m, name="Z"
            )
            first = max(lo, -m)
            out[first - lo :] = z[first + m : hi + m + 1]
        return out

    def value(self, u):
        """``Z(u)`` for any integer ``u``."""
        return self.table(u, u)[0]


def discrete_kernel(a0, a1, hist, g, m, name="X"):
    """``X(u)`` for ``u = -m .. N`` as an ``(N + m + 1, d, d)`` stack.

    ``hist`` holds ``X(-m) .. X(0)`` and ``g`` the forcing ``G(0) ..
    G(N - 1)``.  The rows after ``0`` are the repeated sum ``sum_r
    Theta_r(u - r (m + 1))`` restarted every ``BLOCK_WINDOWS`` delay
    windows: a block that starts at ``T0`` takes ``Theta_0`` to be the
    rows ``T0 - m .. T0`` already computed, then ``X(T0) + G(T0) + .. +
    G(u - 1)``, and ``Theta_{r+1}`` the inclusive cumulative sum of
    ``L(Theta_r)``, ``L(M) = A0 M + M A1``.  The equation is
    shift-invariant, so in exact arithmetic every block gives the rows
    of the sum started at ``0``; in floats a row adds at most
    ``BLOCK_WINDOWS`` terms, in order of ``r``, so the cost is linear in
    ``N`` and no block runs long enough to cancel.  Blocks start at
    fixed rows and ``L`` is one product per row, so for every ``d`` a
    row has the same bits whatever ``N``.  Raises
    :class:`~delaymat.errors.DegreeCapExceeded` naming the first row
    (``name(u)``) that leaves the float range.
    """
    steps, w = g.shape[0], m + 1
    # row j holds u = j - m, as in every other discrete table
    out = np.empty((steps + w,) + a0.shape)
    out[:w] = hist
    out[w:] = g
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, steps, BLOCK_WINDOWS * w):
            rows = min(BLOCK_WINDOWS * w, steps - t0) + w
            # Theta_0 from X(T0) on is the forcing rows summed in place
            new = out[t0 + m : t0 + rows]
            np.add.accumulate(new, axis=0, out=new)
            theta = out[t0 : t0 + rows]
            for r in range(1, (rows - 1) // w + 1):
                theta = theta[: rows - r * w]
                # one product per row, so a row's bits do not depend on
                # how many rows share the call
                image = a0 @ theta
                image += theta @ a1
                theta = np.add.accumulate(image, axis=0, out=image)
                out[t0 + r * w : t0 + rows] += theta
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        u = int(np.argmin(finite)) - m
        raise DegreeCapExceeded(
            f"{name}(u) at u = {u} with delay m = {m} leaves the float range"
        )
    return out
