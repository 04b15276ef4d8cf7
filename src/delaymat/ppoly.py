"""Piecewise polynomials with square-matrix coefficients.

The closed-form solutions produced by this package are exactly piecewise
polynomial in time: matrix-valued polynomials on half-open segments
``[t_k, t_{k+1})`` glued at delay-multiple knots.  This module supplies
that representation, pointwise evaluation and differentiation, and the
one nontrivial primitive, :func:`convolve_kernel`: the convolution of
the fundamental kernel with piecewise-polynomial data, evaluated by
repeated integration.

Representation choices:

* each segment's coefficients are stored in the monomial basis of its
  *local* variable ``tau = t - breakpoints[k]`` (the convention of
  ``scipy.interpolate.PPoly``), so a coefficient never carries powers of
  the distance to the origin; :meth:`PiecewiseMatrixPolynomial.from_global`
  converts pieces written in the global variable once, on construction;
* segments are half-open on the right, a constant ``left_value`` applies
  strictly below the first breakpoint, and the last segment's polynomial
  extends beyond the last breakpoint (evaluation is total on the reals);
* degrees are capped at :data:`MAX_DEGREE`; the closed forms gain one
  polynomial degree per delay window, so the cap bounds the horizon, and
  exceeding it raises :class:`~delaymat.errors.DegreeCapExceeded` rather
  than silently losing precision.

The calculus is array algebra over the coefficient stacks.  Every
binomial comes from one small float Pascal table built at import, and
every re-expansion of a polynomial at another point is one product with
a binomial-power matrix.  Evaluation sorts the times once and fills each
piece's contiguous run in place with one power-table contraction (see
:meth:`MatrixPolynomial.eval`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeCapExceeded, DimensionMismatch

__all__ = [
    "MAX_DEGREE",
    "MatrixPolynomial",
    "PiecewiseMatrixPolynomial",
    "convolve_kernel",
]

#: Largest supported polynomial degree per segment.
MAX_DEGREE = 64

#: ``_PASCAL[n, k] = C(n, k)`` as floats (zero for ``k > n``), for every
#: binomial the re-expansions use.
_PASCAL = np.array(
    [[math.comb(n, k) for k in range(MAX_DEGREE + 1)] for n in range(MAX_DEGREE + 1)],
    dtype=float,
)


def _shift_matrices(s, n):
    """``S[m, i, j] = C(j, i) s[m]**(j - i)`` (zero below the diagonal):
    ``S[m] @ c`` re-expands the coefficients ``c`` of ``p(x)`` as those of
    ``p(x + s[m])``.  ``s = 0`` gives the identity exactly."""
    e = np.arange(n)
    powers = np.asarray(s, dtype=float)[:, None] ** e
    return _PASCAL[:n, :n].T * powers[:, np.maximum(e[None, :] - e[:, None], 0)]


class MatrixPolynomial:
    """``p(t) = sum_j coeffs[j] t**j`` with ``(d, d)`` matrix coefficients.

    ``coeffs`` has shape ``(n, d, d)`` in ascending powers.  Trailing
    all-zero coefficients are trimmed on construction (the zero
    polynomial keeps a single zero coefficient).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise DimensionMismatch(
                f"coefficients must have shape (n, d, d), got {coeffs.shape}"
            )
        n = coeffs.shape[0]
        if n == 0:
            raise DimensionMismatch("need at least one coefficient")
        nonzero = np.flatnonzero(coeffs.reshape(n, -1).any(axis=1))
        coeffs = coeffs[: nonzero[-1] + 1 if nonzero.size else 1]
        if coeffs.shape[0] - 1 > MAX_DEGREE:
            raise DegreeCapExceeded(
                f"degree {coeffs.shape[0] - 1} exceeds the cap {MAX_DEGREE}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("polynomial coefficients contain non-finite entries")
        self.coeffs = coeffs

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=float)
        return cls(mat[None, :, :])

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros((1, dim, dim)))

    @property
    def dim(self):
        return self.coeffs.shape[1]

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def eval(self, t, out=None):
        """Evaluate at a scalar (returns ``(d, d)``) or 1-D array of
        times (returns ``(n, d, d)``).

        The power table ``t**j`` is contracted with the coefficient stack
        in one fixed-order ``einsum``, never through BLAS, whose blocking
        depends on the batch size: every row is bit-identical to the
        scalar call.  ``out``, when given, is a C-contiguous
        ``(n, d, d)`` array (such as a row slice of a larger stack) that
        receives the values in place.
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        ts = np.atleast_1d(t)
        n, d, _ = self.coeffs.shape
        if out is None:
            out = np.empty((ts.size, d, d))
        elif out.shape != (ts.size, d, d) or not out.flags.c_contiguous:
            # a reshape of anything else would be a copy, and the values lost
            raise ValueError(f"out must be a C-contiguous ({ts.size}, {d}, {d}) array")
        np.einsum(
            "pk,kj->pj",
            np.vander(ts, n, increasing=True),
            self.coeffs.reshape(n, d * d),
            optimize=False,
            out=out.reshape(ts.size, d * d),
        )
        return out[0] if scalar else out

    def derivative(self):
        if self.coeffs.shape[0] == 1:
            return MatrixPolynomial.zero(self.dim)
        j = np.arange(1, self.coeffs.shape[0], dtype=float)
        return MatrixPolynomial(self.coeffs[1:] * j[:, None, None])

    def antiderivative(self):
        """Antiderivative with zero constant term."""
        n = self.coeffs.shape[0]
        out = np.zeros((n + 1,) + self.coeffs.shape[1:])
        out[1:] = self.coeffs / np.arange(1, n + 1, dtype=float)[:, None, None]
        return MatrixPolynomial(out)

    def shift(self, s):
        """Return ``q(t) = p(t + s)``: one product with the matrix
        ``S[i, j] = C(j, i) s**(j - i)`` (zero below the diagonal)."""
        if s == 0.0:
            return self
        n = self.coeffs.shape[0]
        flat = self.coeffs.reshape(n, -1)
        shifted = _shift_matrices([s], n)[0] @ flat
        return MatrixPolynomial(shifted.reshape(self.coeffs.shape))

    def lmul(self, mat):
        """Constant left factor: ``mat @ p(t)``."""
        return MatrixPolynomial(np.asarray(mat, dtype=float) @ self.coeffs)

    def rmul(self, mat):
        """Constant right factor: ``p(t) @ mat``."""
        return MatrixPolynomial(self.coeffs @ np.asarray(mat, dtype=float))

    def __repr__(self):
        return f"MatrixPolynomial(degree={self.degree}, dim={self.dim})"


class PiecewiseMatrixPolynomial:
    """Matrix-valued piecewise polynomial on half-open segments.

    ``pieces[k]`` applies on ``[breakpoints[k], breakpoints[k+1])`` as a
    polynomial in the local variable ``t - breakpoints[k]``; the constant
    ``left_value`` applies for ``t < breakpoints[0]``; the last piece
    extends for ``t >= breakpoints[-1]`` (``right_extension`` records
    whether that extension is semantically exact, e.g. a constant forcing
    term, or merely the natural polynomial continuation).
    """

    __slots__ = ("breakpoints", "pieces", "left_value", "right_extension")

    def __init__(self, breakpoints, pieces, left_value=None, right_extension=False):
        bp = np.array(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = list(pieces)
        if len(pieces) != bp.size - 1:
            raise ValueError(
                f"{bp.size} breakpoints require {bp.size - 1} pieces, "
                f"got {len(pieces)}"
            )
        dims = {p.dim for p in pieces}
        if len(dims) != 1:
            raise DimensionMismatch(f"pieces mix dimensions {sorted(dims)}")
        d = dims.pop()
        if left_value is None:
            left_value = np.zeros((d, d))
        left_value = np.asarray(left_value, dtype=float)
        if left_value.shape != (d, d):
            raise DimensionMismatch(
                f"left_value shape {left_value.shape} does not match dim {d}"
            )
        if not np.all(np.isfinite(left_value)):
            raise ValueError("left_value contains non-finite entries")
        self.breakpoints = bp
        self.pieces = pieces
        self.left_value = left_value
        self.right_extension = bool(right_extension)

    @classmethod
    def from_global(cls, breakpoints, pieces, left_value=None, right_extension=False):
        """Build from pieces written in the global variable ``t``: each
        piece is re-expanded once at its own breakpoint."""
        out = cls(breakpoints, pieces, left_value, right_extension)
        out.pieces = [p.shift(b) for p, b in zip(out.pieces, out.breakpoints)]
        return out

    @property
    def dim(self):
        return self.pieces[0].dim

    @property
    def start(self):
        return float(self.breakpoints[0])

    @property
    def end(self):
        return float(self.breakpoints[-1])

    @property
    def degree(self):
        return max(p.degree for p in self.pieces)

    # -- evaluation ----------------------------------------------------

    def piece_index(self, t):
        """Index of the piece active at scalar ``t`` (-1 for the left
        constant region; the last piece owns everything past the end)."""
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(idx, len(self.pieces) - 1)

    def eval(self, t):
        """Evaluate at a scalar or 1-D array of times; total on the
        reals per the extension rules above."""
        return self._eval(t, "left")

    def eval_left(self, t):
        """Left-limit evaluation: at a breakpoint this returns the value
        of the piece to the *left* (elsewhere it matches :meth:`eval`).
        Quadrature that closes a subinterval at a knot where the data
        jumps needs this one-sided value."""
        return self._eval(t, "right")

    def _eval(self, t, side):
        """Shared body of :meth:`eval` (``side="left"``) and
        :meth:`eval_left` (``side="right"``).

        In sorted times each piece owns one contiguous run, which starts
        at the first time that belongs to it: ``t >= breakpoints[k]`` for
        :meth:`eval`, ``t > breakpoints[k]`` for :meth:`eval_left`.  Each
        run is evaluated in place at its local times ``t - breakpoints[k]``;
        unsorted input is sorted once (stably) and scattered back at the
        end.
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        ts = np.atleast_1d(t)
        order = None
        if not np.all(ts[1:] >= ts[:-1]):
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
        d = self.dim
        out = np.empty((ts.size, d, d))
        cuts = np.searchsorted(ts, self.breakpoints[:-1], side=side)
        out[: cuts[0]] = self.left_value
        for piece, origin, lo, hi in zip(
            self.pieces, self.breakpoints, cuts, [*cuts[1:], ts.size]
        ):
            if hi > lo:
                piece.eval(ts[lo:hi] - origin, out=out[lo:hi])
        if order is not None:
            sorted_out, out = out, np.empty_like(out)
            out[order] = sorted_out
        return out[0] if scalar else out

    # -- calculus ------------------------------------------------------

    def differentiate(self):
        """Segment-wise derivative (the left constant region
        differentiates to zero; knot jumps are ignored, matching the
        piecewise-classical reading of the equations)."""
        return PiecewiseMatrixPolynomial(
            self.breakpoints,
            [p.derivative() for p in self.pieces],
            left_value=np.zeros((self.dim, self.dim)),
            right_extension=self.right_extension,
        )

    def pieces_in(self, lo, hi):
        """Cover ``[lo, hi)`` by ``(seg_lo, seg_hi, polynomial)`` triples,
        each polynomial in the local variable ``t - seg_lo``, materializing
        the constant left region and the right extension."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        bp = self.breakpoints
        out = []
        if lo < bp[0]:
            out.append(
                (lo, min(hi, bp[0]), MatrixPolynomial.constant(self.left_value))
            )
        last = len(self.pieces) - 1
        for k, poly in enumerate(self.pieces):
            seg_lo = bp[k]
            seg_hi = bp[k + 1] if k < last else max(bp[-1], hi)
            a = max(seg_lo, lo)
            b = min(seg_hi, hi)
            if b > a:
                out.append((float(a), float(b), poly.shift(a - seg_lo)))
        return out

    def knot_jumps(self):
        """Max-abs value jump at each interior breakpoint (useful for
        continuity diagnostics)."""
        widths = np.diff(self.breakpoints)
        return np.asarray([
            float(np.max(np.abs(
                self.pieces[k].eval(0.0) - self.pieces[k - 1].eval(widths[k - 1])
            )))
            for k in range(1, len(self.pieces))
        ])

    def __repr__(self):
        return (
            f"PiecewiseMatrixPolynomial(dim={self.dim}, "
            f"segments={len(self.pieces)}, degree={self.degree}, "
            f"domain=[{self.start}, {self.end}))"
        )


def _merge_breakpoints(values, lo, hi):
    """Sorted breakpoints spanning [lo, hi], with near-duplicates merged
    (floating-point images of one knot reached along different arithmetic
    routes)."""
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    vals = np.sort(np.asarray(values, dtype=float))
    keep = [float(lo)]
    for v in vals:
        if v - keep[-1] > tol and hi - v > tol:
            keep.append(float(v))
    keep.append(float(hi))
    return np.asarray(keep)


def running_antiderivative(coeffs, widths, start=None):
    """Local coefficients of ``x -> start + \\int_{b_0}^x p`` for the
    piecewise polynomial ``p`` whose piece ``k`` has the local
    coefficients ``coeffs[k]`` (shape ``(K, n, d, d)``) and the width
    ``widths[k]``: each piece's own antiderivative plus the integral over
    the pieces before it.  Returns a ``(K, n + 1, d, d)`` stack."""
    n = coeffs.shape[1]
    out = np.zeros((coeffs.shape[0], n + 1) + coeffs.shape[2:])
    out[:, 1:] = coeffs / np.arange(1, n + 1, dtype=float)[:, None, None]
    powers = np.asarray(widths, dtype=float)[:, None] ** np.arange(1, n + 1)
    totals = np.einsum("kj,kjab->kab", powers, out[:, 1:])
    out[1:, 0] = np.cumsum(totals[:-1], axis=0)
    if start is not None:
        out[:, 0] += start
    return out


def convolve_kernel(q, sigma, phi0, lo, hi):
    """The convolution of the fundamental kernel with piecewise
    polynomial data, ``X(t) = sum_r q[r] Phi_r(t - r sigma)``, on
    ``[lo, hi)``.

    ``q`` is the ``(U + 1, d, d)`` stack of operator iterates.  ``Phi_0``
    is ``phi0`` on and after its first breakpoint and zero before it (its
    ``left_value`` is not used), and ``Phi_{r+1}`` is the antiderivative
    of ``Phi_r`` taken from that breakpoint.  Every ``Phi_r`` shares the
    data knots, so they are one ``(U + 1, K, n, d, d)`` array of local
    coefficients, each built from the one before by
    :func:`running_antiderivative`.

    The output knots are the data knots shifted by every ``r sigma``.  On
    an output interval starting at ``t0``, term ``r`` is the ``Phi_r``
    piece that holds ``t0 - r sigma``, re-expanded at that point: a shift
    shorter than one data piece, and exactly zero where the knots line
    up.  The terms are added for one ``r`` at a time over all output
    intervals, so memory stays at one coefficient stack per interval.
    ``q[r]`` multiplies the data from the left, as in the representation
    formula.
    """
    q = np.asarray(q, dtype=float)
    d = phi0.dim
    if q.ndim != 3 or q.shape[1:] != (d, d):
        raise DimensionMismatch(
            f"q must have shape (U + 1, {d}, {d}) to match the data, got {q.shape}"
        )
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    windows = q.shape[0] - 1
    n = max(p.degree for p in phi0.pieces) + windows + 1
    if n - 1 > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"{windows} repeated integrals of degree-{n - 1 - windows} data "
            f"reach degree {n - 1}, above the cap {MAX_DEGREE}"
        )
    bks = phi0.breakpoints
    widths = np.diff(bks)
    phi = np.zeros((windows + 1, len(phi0.pieces), n, d, d))
    for k, p in enumerate(phi0.pieces):
        phi[0, k, : p.coeffs.shape[0]] = p.coeffs
    for r in range(windows):
        phi[r + 1] = running_antiderivative(phi[r, :, : n - 1], widths)

    shifts = sigma * np.arange(windows + 1)
    out_bks = _merge_breakpoints((bks[None, :] + shifts[:, None]).ravel(), lo, hi)
    t0 = out_bks[:-1]
    tm = 0.5 * (t0 + out_bks[1:])
    acc = np.zeros((t0.size, n, d, d))
    base_degree = n - 1 - windows
    for r in range(windows + 1):
        # Phi_r is zero left of its first knot, so the active intervals
        # are a suffix; it has degree base_degree + r at most
        first = int(np.searchsorted(tm, bks[0] + shifts[r], side="right"))
        if first == t0.size:
            break
        m = base_degree + r + 1
        k = np.clip(np.searchsorted(bks, tm[first:] - shifts[r], side="right") - 1,
                    0, len(widths) - 1)
        # q[r] acts on the matrix rows and the re-expansion on the powers,
        # so the product is taken once per data piece, before the gather
        terms = (q[r] @ phi[r, :, :m])[k].reshape(-1, m, d * d)
        s = (t0[first:] - shifts[r]) - bks[k]
        acc[first:, :m] += (_shift_matrices(s, m) @ terms).reshape(-1, m, d, d)
    return PiecewiseMatrixPolynomial(
        out_bks,
        [MatrixPolynomial(c) for c in acc],
        left_value=np.zeros((d, d)),
        right_extension=False,
    )
