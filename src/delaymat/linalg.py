"""Dense matrix helpers shared by every other module.

Everything here operates on plain ``(d, d)`` float64 ndarrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = ["as_square_matrix", "max_abs"]


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
