"""Dense matrix helpers shared by every other module.

Everything here operates on plain ``(d, d)`` float64 ndarrays.
:func:`binomial` is an exact integer binomial (negative upper arguments
too); the closed forms build their binomial weights as repeated sums or
integrals, so it serves only the commutative cross-checks and
:func:`~delaymat.qseq.q_commutative_closed_form`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "as_square_matrix",
    "max_abs",
    "commutes",
    "binomial",
]

#: Default relative tolerance for commutation checks.
COMMUTE_RTOL = 1e-10


def as_square_matrix(value, name="matrix"):
    """Coerce ``value`` to a square float64 ndarray, validating shape
    and finiteness."""
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def max_abs(mat):
    """Max-abs (Chebyshev) norm of a matrix or stack of matrices."""
    mat = np.asarray(mat, dtype=float)
    return 0.0 if mat.size == 0 else float(np.max(np.abs(mat)))


def commutes(p, q, tol=None):
    """True if ``p @ q`` and ``q @ p`` agree.

    With ``tol=None`` the comparison uses ``COMMUTE_RTOL`` relative to
    the larger product max-norm; pass an explicit absolute ``tol``
    (possibly 0) to override.
    """
    p = as_square_matrix(p, "p")
    q = as_square_matrix(q, "q")
    if p.shape != q.shape:
        raise DimensionMismatch(
            f"operands must share one square shape, got {p.shape}, {q.shape}"
        )
    pq = p @ q
    qp = q @ p
    if tol is None:
        tol = COMMUTE_RTOL * max(max_abs(pq), max_abs(qp))
    return max_abs(pq - qp) <= tol


def binomial(n, k):
    """Exact integer binomial coefficient ``C(n, k)`` for integer ``n``
    of either sign and integer ``k >= 0``.

    For ``n >= 0`` this is the ordinary coefficient (zero when
    ``k > n``).  For ``n < 0`` it is the generalized coefficient
    ``(-1)**k * C(k - n - 1, k)``, i.e. the falling-factorial product
    ``n (n-1) ... (n-k+1) / k!``, which is what the start-up terms of the
    discrete fundamental solution require.  Results are exact Python
    integers; callers convert to float as late as possible.
    """
    n = int(n)
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if n >= 0:
        return math.comb(n, k)
    sign = -1 if k % 2 else 1
    return sign * math.comb(k - n - 1, k)
