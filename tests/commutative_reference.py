"""Reference closed forms for commuting coefficient pairs, used only to
cross-check the general construction.

When ``A0`` and ``A1`` commute, the operator iterates ``q[r] = L^r(I)``
of ``L(M) = A0 M + M A1`` have the binomial form ``sum_l C(r, l)
A0**(r-l) A1**l`` (which holds for every pair, since left and right
multiplication commute as operators), and both fundamental solutions
collapse to sums over those powers.  These evaluators compute them from
powers of ``A0`` and ``A1`` alone, with exact integer binomials, and
share no code with the library's repeated sums.
"""

from __future__ import annotations

import math

import numpy as np

from delaymat.errors import DimensionMismatch
from delaymat.linalg import as_square_matrix, max_abs

#: Default relative tolerance for commutation checks.
COMMUTE_RTOL = 1e-10


class CommutationError(Exception):
    """A closed form that requires commuting coefficients got a
    noncommuting pair."""


def binomial(n, k):
    """Exact integer binomial coefficient ``C(n, k)`` for integer ``n``
    of either sign and integer ``k >= 0``.

    For ``n >= 0`` this is the ordinary coefficient (zero when
    ``k > n``).  For ``n < 0`` it is the generalized coefficient
    ``(-1)**k * C(k - n - 1, k)``, i.e. the falling-factorial product
    ``n (n-1) ... (n-k+1) / k!``, which is what the start-up terms of the
    discrete fundamental solution require.
    """
    n = int(n)
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if n >= 0:
        return math.comb(n, k)
    sign = -1 if k % 2 else 1
    return sign * math.comb(k - n - 1, k)


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


def q_commutative_closed_form(a0, a1, r):
    """Binomial form ``sum_l C(r, l) A0**(r-l) A1**l`` of ``q[r]``."""
    a0 = as_square_matrix(a0, "a0")
    a1 = as_square_matrix(a1, "a1")
    if a0.shape != a1.shape:
        raise DimensionMismatch(f"a0 and a1 must match, got {a0.shape} and {a1.shape}")
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


def _require_commuting(a0, a1):
    if not commutes(a0, a1):
        raise CommutationError(
            "coefficients do not commute; the commutative closed form "
            "does not apply"
        )


def fundamental_commutative_continuous(sys, t):
    """The continuous fundamental solution at scalar ``t``, ``sum_r
    q[r] (t - (r - 1) sigma)**r / r!`` with ``q`` in binomial form.

    Raises :class:`CommutationError` when ``A0`` and ``A1`` do not
    commute.
    """
    _require_commuting(sys.a0, sys.a1)
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


def fundamental_commutative_discrete(sys, u):
    """The discrete fundamental solution at integer ``u``, ``sum_r
    C(u - (r - 1) m, r) q[r]`` with ``q`` in binomial form."""
    _require_commuting(sys.a0, sys.a1)
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


def random_commuting_polynomial_pair(rng, d):
    """A pair ``(a0, a1)`` with ``a1`` a quadratic polynomial in ``a0``:
    commuting by construction, but generally full matrices."""
    a0 = rng.uniform(-1.0, 1.0, size=(d, d))
    c = rng.uniform(-1.0, 1.0, size=3)
    return a0, c[0] * np.eye(d) + c[1] * a0 + c[2] * (a0 @ a0)
