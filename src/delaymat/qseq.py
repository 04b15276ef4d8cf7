"""Coefficient tables for the closed forms.

Both fundamental solutions are organized around the iterates of the
two-sided multiplication operator ``L(M) = A0 M + M A1`` applied to the
identity::

    q[0] = I,   q[r + 1] = A0 q[r] + q[r] A1.

These are the only nonzero entries of the underlying two-index
coefficient family (everything off its diagonal vanishes), so the table
is stored as the one-dimensional stack ``q[0..depth]``.

Because left multiplication by ``A0`` and right multiplication by ``A1``
commute as operators, the iterates admit the binomial expansion

    q[r] = sum_l C(r, l) A0**(r - l) A1**l

for *every* coefficient pair, commuting or not.
:func:`q_commutative_closed_form` evaluates that expansion directly; it
is retained as an independently-computed cross-check and fast path,
while the recursion above is the product of record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeCapExceeded, DimensionMismatch
from .linalg import as_square_matrix, binomial

__all__ = ["QTable", "build_q_table", "q_commutative_closed_form"]


@dataclass(frozen=True)
class QTable:
    """The stack ``mats[r] = q[r]`` for ``r = 0 .. depth``."""

    mats: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatch(
                f"table must have shape (depth + 1, d, d), got {mats.shape}"
            )
        object.__setattr__(self, "mats", mats)

    @property
    def dim(self):
        return self.mats.shape[1]

    @property
    def depth(self):
        return self.mats.shape[0] - 1

    def __len__(self):
        return self.mats.shape[0]

    def __getitem__(self, r):
        return self.mats[r]


def build_q_table(a0, a1, depth):
    """Iterate ``q[r + 1] = A0 q[r] + q[r] A1`` from ``q[0] = I`` up to
    ``q[depth]``; an iterate past the float range raises
    :class:`~delaymat.errors.DegreeCapExceeded`."""
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
    return QTable(mats)


def q_commutative_closed_form(a0, a1, r):
    """Binomial form ``sum_l C(r, l) A0**(r-l) A1**l`` of ``q[r]``.

    Evaluated power-by-power with exact integer binomials; for commuting
    pairs this is the familiar ``(A0 + A1)**r`` expansion discussed with
    the scalar theory, and it agrees with the recursion of
    :func:`build_q_table` in general.
    """
    a0 = as_square_matrix(a0, "a0")
    a1 = as_square_matrix(a1, "a1")
    if a0.shape != a1.shape:
        raise DimensionMismatch(
            f"a0 and a1 must match, got {a0.shape} and {a1.shape}"
        )
    r = int(r)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    d = a0.shape[0]
    pow0 = [np.eye(d)]
    pow1 = [np.eye(d)]
    for _ in range(r):
        pow0.append(pow0[-1] @ a0)
        pow1.append(pow1[-1] @ a1)
    out = np.zeros((d, d))
    for l in range(r + 1):
        out += float(binomial(r, l)) * (pow0[r - l] @ pow1[l])
    return out
