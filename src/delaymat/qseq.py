"""Coefficient tables for the closed forms.

Both fundamental solutions are organized around the iterates of the
two-sided multiplication operator ``L(M) = A0 M + M A1`` applied to the
identity::

    q[0] = I,   q[r + 1] = A0 q[r] + q[r] A1.

These are the only nonzero entries of the underlying two-index
coefficient family (everything off its diagonal vanishes), so the table
is the ``(depth + 1, d, d)`` stack ``q[0..depth]``.

They are the coefficients of both fundamental solutions as the paper
writes them, and ``--dump-q`` writes them out; the solvers apply ``L``
itself (see :mod:`delaymat.solve`).
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeCapExceeded, DimensionMismatch
from .linalg import as_square_matrix

__all__ = ["build_q_table"]


def build_q_table(a0, a1, depth):
    """Iterate ``q[r + 1] = A0 q[r] + q[r] A1`` from ``q[0] = I`` up to
    ``q[depth]``, returned as one ``(depth + 1, d, d)`` array; an iterate
    past the float range raises :class:`~delaymat.errors.DegreeCapExceeded`."""
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
