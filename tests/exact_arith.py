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
