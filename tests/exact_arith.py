"""Exact rational arithmetic on float arrays for test references.

Every float is an integer over a power of two, so a float array is held
exactly as an object array of Python ints over one common ``2**k``.
Sums and products of such arrays stay exact, and integer arithmetic is
far faster than ``fractions.Fraction``.
"""

from __future__ import annotations

import numpy as np


def exact(a):
    """``a`` as ``(ints, k)`` with ``a == ints / 2**k`` exactly."""
    a = np.asarray(a, dtype=float)
    pairs = [x.as_integer_ratio() for x in a.ravel().tolist()]
    k = max([den.bit_length() - 1 for _, den in pairs], default=0)
    ints = np.empty(a.size, dtype=object)
    ints[:] = [num << (k - den.bit_length() + 1) for num, den in pairs]
    return ints.reshape(a.shape), k


def rounded(ints, k):
    """``ints / 2**k`` rounded to the nearest float, entry by entry."""
    ints = np.asarray(ints, dtype=object)
    scale = 1 << k
    return np.array([v / scale for v in ints.ravel()], dtype=float).reshape(ints.shape)


def repeated_sum(a0, a1, theta0, m):
    """``sum_r Theta_r(u - r (m + 1))`` for the rows ``u = -m ..`` of
    ``theta0`` (a float stack, or an ``exact`` pair) in exact arithmetic,
    rounded once, and the same sum run on ``|A0|``, ``|A1|`` and
    ``|Theta_0|``, entry by entry: a bound on every quantity a float
    evaluation of the sum rounds.

    ``Theta_r`` is zero above its rows and ``Theta_{r+1}`` is the
    cumulative sum of ``A0 Theta_r + Theta_r A1``.  With ``A0``, ``A1``
    held as integers over ``2**ka`` and ``Theta_0`` over ``2**kp``,
    ``Theta_r`` is exact over ``2**(kp + r ka)``, and each term is brought
    to the last term's denominator before it is added."""
    coef, ka = exact(np.stack([a0, a1]))
    theta, kp = theta0 if isinstance(theta0, tuple) else exact(theta0)
    rows = len(theta)
    depth = -(-rows // (m + 1)) - 1
    value = np.zeros(theta.shape, dtype=object)
    terms = np.zeros(theta.shape, dtype=object)
    chains = [(coef[0], coef[1], theta, value),
              (abs(coef[0]), abs(coef[1]), abs(theta), terms)]
    for b0, b1, term, total in chains:
        for r in range(depth + 1):
            if r:
                term = term[: rows - r * (m + 1)]
                term = np.cumsum(np.matmul(b0, term) + np.matmul(term, b1), axis=0)
            total[r * (m + 1) :] += term * (1 << ((depth - r) * ka))
    k = kp + depth * ka
    return rounded(value, k), rounded(terms, k)


def solution_sum(a0, a1, hist, g, m):
    """:func:`repeated_sum` of a discrete problem's ``Theta_0``: the
    history rows ``u = -m .. 0``, then ``Psi(0) + G(0) + .. + G(u - 1)``,
    built exactly from the float ``hist`` and ``g``."""
    data, k = exact(np.concatenate([hist, g]))
    theta0 = np.concatenate([data[:m], np.cumsum(data[m:], axis=0)])
    return repeated_sum(a0, a1, (theta0, k), m)


def stepper(a0, a1, hist, g, m):
    """The defining recursion ``X(u + 1) = X(u) + A0 X(u - m) + X(u - m)
    A1 + G(u)`` in exact arithmetic on the float coefficients and data,
    each row rounded once.  Row ``u`` is held over its own ``2**k``, which
    grows by the coefficients' exponent once per delay window."""
    coef, ka = exact(np.stack([a0, a1]))
    data, k = exact(np.concatenate([hist, g]))
    rows = [(x, k) for x in data[: m + 1]]
    for gu in data[m + 1 :]:
        (last, kl), (delayed, kd) = rows[-1], rows[-1 - m]
        top = max(kl, kd + ka)
        image = np.matmul(coef[0], delayed) + np.matmul(delayed, coef[1])
        rows.append((
            last * (1 << (top - kl)) + image * (1 << (top - kd - ka))
            + gu * (1 << (top - k)),
            top,
        ))
    return np.array([rounded(x, kx) for x, kx in rows])
