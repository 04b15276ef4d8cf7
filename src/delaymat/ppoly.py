"""Piecewise polynomials with square-matrix coefficients.

The closed-form solutions produced by this package are exactly piecewise
polynomial in time: matrix-valued polynomials on half-open segments
``[t_k, t_{k+1})`` glued at delay-multiple knots.  This module supplies
that representation plus the exact calculus the solver needs — pointwise
evaluation, differentiation, definite integration, argument shifts and
reflections, products, and the one nontrivial primitive, an exact
sliding-window convolution against a piecewise-polynomial kernel.

Representation choices:

* coefficients are stored in the monomial basis of the global time
  variable, one coefficient stack per segment (conversion from shifted
  powers happens once, at construction);
* segments are half-open on the right, a constant ``left_value`` applies
  strictly below the first breakpoint, and the last segment's polynomial
  extends beyond the last breakpoint (evaluation is total on the reals);
* degrees are capped at :data:`MAX_DEGREE`; the closed forms gain one
  polynomial degree per delay window, so the cap bounds the horizon, and
  exceeding it raises :class:`~delaymat.errors.DegreeCapExceeded` rather
  than silently losing precision.

The calculus is array algebra over the coefficient stacks.  Every
binomial comes from one small float Pascal table built at import.  An
argument shift is one product with a binomial-power matrix, and the
convolution does one tensor contraction per active piece pair, with
scalar tables that depend only on the two piece degrees and are cached
per degree pair (see :func:`convolve_kernel`).  Evaluation sorts the
times once and fills each piece's contiguous run in place with one
power-table contraction (see :meth:`MatrixPolynomial.eval`).
"""

from __future__ import annotations

import functools
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
#: binomial the shifts and the convolution pair kernel use.
_PASCAL = np.array(
    [[math.comb(n, k) for k in range(MAX_DEGREE + 4)] for n in range(MAX_DEGREE + 4)],
    dtype=float,
)


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
        while n > 1 and not coeffs[n - 1].any():
            n -= 1
        coeffs = coeffs[:n]
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
        e = np.arange(n)
        spow = float(s) ** np.maximum(e[None, :] - e[:, None], 0)
        smat = _PASCAL[:n, :n].T * spow
        flat = self.coeffs.reshape(n, -1)
        return MatrixPolynomial((smat @ flat).reshape(self.coeffs.shape))

    def reflect(self):
        """Return ``q(t) = p(-t)``."""
        out = self.coeffs.copy()
        out[1::2] *= -1.0
        return MatrixPolynomial(out)

    def scale(self, c):
        return MatrixPolynomial(self.coeffs * float(c))

    def lmul(self, mat):
        """Constant left factor: ``mat @ p(t)``."""
        return MatrixPolynomial(np.asarray(mat, dtype=float) @ self.coeffs)

    def rmul(self, mat):
        """Constant right factor: ``p(t) @ mat``."""
        return MatrixPolynomial(self.coeffs @ np.asarray(mat, dtype=float))

    def matmul(self, other):
        """Pointwise matrix product ``p(t) @ q(t)`` (order preserved)."""
        if self.dim != other.dim:
            raise DimensionMismatch("polynomial dimensions differ")
        n = self.coeffs.shape[0] + other.coeffs.shape[0] - 1
        out = np.zeros((n, self.dim, self.dim))
        for i, ci in enumerate(self.coeffs):
            if not ci.any():
                continue
            out[i : i + other.coeffs.shape[0]] += ci @ other.coeffs
        return MatrixPolynomial(out)

    def __add__(self, other):
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((n, self.dim, self.dim))
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] += other.coeffs
        return MatrixPolynomial(out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __repr__(self):
        return f"MatrixPolynomial(degree={self.degree}, dim={self.dim})"


class PiecewiseMatrixPolynomial:
    """Matrix-valued piecewise polynomial on half-open segments.

    ``pieces[k]`` applies on ``[breakpoints[k], breakpoints[k+1])``; the
    constant ``left_value`` applies for ``t < breakpoints[0]``; the last
    piece extends for ``t >= breakpoints[-1]`` (``right_extension``
    records whether that extension is semantically exact, e.g. a
    constant forcing term, or merely the natural polynomial
    continuation).
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

    def piece_at(self, t):
        """The polynomial active at scalar ``t`` (the left region is a
        constant polynomial)."""
        k = self.piece_index(t)
        if k < 0:
            return MatrixPolynomial.constant(self.left_value)
        return self.pieces[k]

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
        run is evaluated in place; unsorted input is sorted once (stably)
        and scattered back at the end.
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
        for piece, lo, hi in zip(self.pieces, cuts, [*cuts[1:], ts.size]):
            if hi > lo:
                piece.eval(ts[lo:hi], out=out[lo:hi])
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

    def integrate(self, a, b):
        """Exact ``\\int_a^b`` as a ``(d, d)`` matrix; requires ``a <= b``."""
        if not np.isfinite(a) or not np.isfinite(b):
            raise ValueError("integration bounds must be finite")
        if b < a:
            raise ValueError(f"need a <= b, got a={a}, b={b}")
        total = np.zeros((self.dim, self.dim))
        hi = min(b, self.start)
        if hi > a:
            total += self.left_value * (hi - a)
        lo = max(a, self.start)
        if b > lo:
            for seg_lo, seg_hi, poly in self.pieces_in(lo, b):
                anti = poly.antiderivative()
                total += anti.eval(seg_hi) - anti.eval(seg_lo)
        return total

    # -- reparametrizations ---------------------------------------------

    def shift(self, s):
        """Return ``q(t) = p(t + s)`` (a piece on ``[0, 1)`` with
        ``s = 1`` becomes a piece on ``[-1, 0)``)."""
        return PiecewiseMatrixPolynomial(
            self.breakpoints - s,
            [p.shift(s) for p in self.pieces],
            left_value=self.left_value,
            right_extension=self.right_extension,
        )

    def reflect(self, center, lo, hi):
        """Materialize ``q(s) = p(center - s)`` on ``[lo, hi)``.

        Reflection swaps the roles of the two extension rules, so the
        result is built over an explicit finite window (with the left
        region and right extension of ``p`` expanded into concrete
        segments).  Values at the new knots follow the half-open-on-the-
        right convention; for continuous ``p`` this is the pointwise
        reflection everywhere.
        """
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        segs = self.pieces_in(center - hi, center - lo)
        bks = [lo]
        pieces = []
        for seg_lo, seg_hi, poly in reversed(segs):
            bks.append(min(center - seg_lo, hi))
            pieces.append(poly.reflect().shift(-center))
        bks[-1] = hi
        return PiecewiseMatrixPolynomial(
            bks, pieces, left_value=pieces[0].eval(lo), right_extension=False
        )

    def restrict(self, lo, hi):
        """The same function re-anchored on breakpoints spanning
        exactly ``[lo, hi)``."""
        segs = self.pieces_in(lo, hi)
        bks = [seg[0] for seg in segs] + [hi]
        return PiecewiseMatrixPolynomial(
            bks,
            [seg[2] for seg in segs],
            left_value=self.left_value,
            right_extension=self.right_extension and hi >= self.end,
        )

    def pieces_in(self, lo, hi):
        """Cover ``[lo, hi)`` by ``(seg_lo, seg_hi, polynomial)`` triples,
        materializing the constant left region and the right extension."""
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
                out.append((float(a), float(b), poly))
        return out

    # -- algebra ---------------------------------------------------------

    def _binary(self, other, combine, left):
        if self.dim != other.dim:
            raise DimensionMismatch("operand dimensions differ")
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if not lo < hi:
            raise ValueError("operand domains do not overlap")
        knots = np.concatenate(
            [
                [lo, hi],
                self.breakpoints[(self.breakpoints > lo) & (self.breakpoints < hi)],
                other.breakpoints[(other.breakpoints > lo) & (other.breakpoints < hi)],
            ]
        )
        bks = _merge_breakpoints(knots, lo, hi)
        pieces = []
        for k in range(len(bks) - 1):
            tm = 0.5 * (bks[k] + bks[k + 1])
            pieces.append(combine(self.piece_at(tm), other.piece_at(tm)))
        return PiecewiseMatrixPolynomial(bks, pieces, left_value=left)

    def __add__(self, other):
        return self._binary(
            other, lambda p, q: p + q, self.left_value + other.left_value
        )

    def __sub__(self, other):
        return self._binary(
            other, lambda p, q: p - q, self.left_value - other.left_value
        )

    def matmul(self, other):
        """Pointwise product ``p(t) @ q(t)`` on the common domain."""
        return self._binary(
            other, lambda p, q: p.matmul(q), self.left_value @ other.left_value
        )

    def scale(self, c):
        return PiecewiseMatrixPolynomial(
            self.breakpoints,
            [p.scale(c) for p in self.pieces],
            left_value=self.left_value * float(c),
            right_extension=self.right_extension,
        )

    def lmul(self, mat):
        """Constant left factor: ``mat @ p(t)``."""
        mat = np.asarray(mat, dtype=float)
        return PiecewiseMatrixPolynomial(
            self.breakpoints,
            [p.lmul(mat) for p in self.pieces],
            left_value=mat @ self.left_value,
            right_extension=self.right_extension,
        )

    def rmul(self, mat):
        """Constant right factor: ``p(t) @ mat``."""
        mat = np.asarray(mat, dtype=float)
        return PiecewiseMatrixPolynomial(
            self.breakpoints,
            [p.rmul(mat) for p in self.pieces],
            left_value=self.left_value @ mat,
            right_extension=self.right_extension,
        )

    def knot_jumps(self):
        """Max-abs value jump at each interior breakpoint (useful for
        continuity diagnostics)."""
        jumps = []
        for k in range(1, len(self.pieces)):
            t = self.breakpoints[k]
            jumps.append(
                float(np.max(np.abs(self.pieces[k].eval(t) - self.pieces[k - 1].eval(t))))
            )
        return np.asarray(jumps)

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


def convolve_kernel(kernel, data, c, a, b, out_lo, out_hi):
    """Exact ``H(t) = \\int_a^b kernel(t - c - s) @ data(s) ds`` on
    ``[out_lo, out_hi)``.

    This is the sliding-window convolution behind the solution formulas:
    the kernel is a fundamental solution evaluated at a shifted,
    reflected argument, and the data is a history derivative or forcing
    term.  Both factors are piecewise polynomial, so the integral is one
    too: its breakpoints are the admissible sums ``c + (kernel knot) +
    (data knot)``, and between consecutive breakpoints the active piece
    pair is fixed while the integration bounds are affine in ``t`` with
    slope 0 or 1.

    Everything is expanded exactly.  Per-interval work happens in
    interval-local coordinates (local output time ``tau = t - t0``,
    data-piece-local integration variable ``z = s - ql``) so the binomial
    expansions stay well conditioned; each resulting piece is converted
    to the global time variable once.

    Each active piece pair is one tensor contraction.  With the kernel
    piece ``P(x) = sum_i P_i x**i`` (degree ``p``) written so that its
    argument is ``tau - z``, and the data piece ``Q(z) = sum_j Q_j z**j``
    (degree ``q``),

        acc[o] += sum_{i, j} W[i, j, o] (P_i @ Q_j),

    where ``W[i, j, :]`` holds the tau-coefficients of
    ``\\int_lo^hi (tau - z)**i z**j dz``.  ``W`` is the z-antiderivative
    at the upper bound minus the same at the lower bound, and each bound
    term has a closed form without any sum:

    * a fixed bound ``z = h`` contributes
      ``(-1)**(i-g) C(i, g) h**(i-g+j+1) / (i-g+j+1)`` to ``tau**g``;
    * a moving bound ``z = tau + h`` (where the kernel argument is the
      constant ``-h``) contributes ``(-1)**i C(j, o) h**(i+j-o+1) /
      (i+j-o+1)`` to ``tau**o`` for ``o <= j``, plus the Beta value
      ``i! j! / (i+j+1)!`` to ``tau**(i+j+1)``.

    The signed binomials, the exponents and the Beta values depend only
    on ``(p, q)`` and are cached per degree pair.  A pair then costs one
    power of each bound, one batched product ``P[:, None] @ Q[None]`` and
    one matrix product ``W.T @ M``.  Matrix factor order is preserved:
    kernel values multiply data values from the left.
    """
    if kernel.dim != data.dim:
        raise DimensionMismatch("kernel and data dimensions differ")
    if not out_lo < out_hi:
        raise ValueError(f"need out_lo < out_hi, got [{out_lo}, {out_hi})")
    if b < a:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    d = kernel.dim
    if b == a:
        return PiecewiseMatrixPolynomial(
            [out_lo, out_hi],
            [MatrixPolynomial.zero(d)],
            left_value=np.zeros((d, d)),
        )

    qsegs = data.pieces_in(a, b)
    psegs = kernel.pieces_in(out_lo - c - b, out_hi - c - a)

    knots = {float(out_lo), float(out_hi)}
    pedges = sorted({s[0] for s in psegs} | {s[1] for s in psegs})
    qedges = sorted({s[0] for s in qsegs} | {s[1] for s in qsegs})
    for pe in pedges:
        for qe in qedges:
            th = c + pe + qe
            if out_lo < th < out_hi:
                knots.add(float(th))
    bks = _merge_breakpoints(np.asarray(sorted(knots)), out_lo, out_hi)

    max_deg = (
        max(s[2].degree for s in psegs) + max(s[2].degree for s in qsegs) + 1
    )
    if max_deg > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"convolution degree {max_deg} exceeds the cap {MAX_DEGREE}"
        )

    # data pieces in their local variable z = s - ql, once per segment
    qlocal = [(ql, qr, qpoly.shift(ql).coeffs) for ql, qr, qpoly in qsegs]
    width_tol = 1e-13 * max(1.0, abs(a), abs(b))
    pieces = []
    for k in range(len(bks) - 1):
        t0, t1 = bks[k], bks[k + 1]
        tm = 0.5 * (t0 + t1)
        acc = np.zeros((max_deg + 2, d, d))
        for ql, qr, qcoef in qlocal:
            for pl, pr, ppoly in psegs:
                # s-window where this piece pair is active, probed at the
                # interval midpoint (pair boundaries only cross at knots)
                lo_mov = tm - c - pr
                hi_mov = tm - c - pl
                lo = max(ql, lo_mov)
                hi = min(qr, hi_mov)
                if hi - lo <= width_tol:
                    continue
                # integration bounds in data-local z, affine in tau with
                # slope 0 or 1
                lo_aff = (0.0, 0) if ql >= lo_mov else (t0 - c - pr - ql, 1)
                hi_aff = (qr - ql, 0) if qr <= hi_mov else (t0 - c - pl - ql, 1)
                pcoef = ppoly.shift(t0 - c - ql).coeffs  # argument tau - z
                weights = _pair_weights(
                    pcoef.shape[0] - 1, qcoef.shape[0] - 1, lo_aff, hi_aff
                )
                pair = pcoef[:, None] @ qcoef[None]
                n = weights.shape[2]
                acc[:n] += (
                    weights.reshape(-1, n).T @ pair.reshape(-1, d * d)
                ).reshape(n, d, d)
        pieces.append(MatrixPolynomial(acc).shift(-t0))
    return PiecewiseMatrixPolynomial(
        bks, pieces, left_value=np.zeros((d, d)), right_extension=False
    )


@functools.lru_cache(maxsize=128)
def _pair_tables(p, q):
    """Scalar tables of :func:`convolve_kernel` for a kernel piece of
    degree ``p`` against a data piece of degree ``q``: coefficients and
    exponents of a fixed and of a moving bound, and the Beta values with
    their ``(i, j, i + j + 1)`` positions.  Read-only, as they are shared."""
    i = np.arange(p + 1)[:, None, None]
    j = np.arange(q + 1)[None, :, None]
    g = np.arange(p + 1)[None, None, :]
    fixed_exp = np.maximum(i - g, 0) + j + 1
    fixed_coef = (-1.0) ** (i - g) * _PASCAL[i, g] / fixed_exp
    o = np.arange(q + 1)[None, None, :]
    moving_exp = i + np.maximum(j - o, 0) + 1
    moving_coef = (-1.0) ** i * _PASCAL[j, o] / moving_exp
    i, j = i[:, :, 0], j[:, :, 0]
    beta = 1.0 / ((i + j + 1) * _PASCAL[i + j, i])
    top = tuple(np.broadcast_arrays(i, j, i + j + 1))
    for arr in (fixed_coef, fixed_exp, moving_coef, moving_exp, beta, *top):
        arr.flags.writeable = False
    return fixed_coef, fixed_exp, moving_coef, moving_exp, beta, top


def _pair_weights(p, q, lo_aff, hi_aff):
    """``W[i, j, o]``: the ``tau**o`` coefficient of ``\\int_{lo(tau)}^
    {hi(tau)} (tau - z)**i z**j dz`` for bounds ``(h, slope)``."""
    fixed_coef, fixed_exp, moving_coef, moving_exp, beta, top = _pair_tables(p, q)
    w = np.zeros((p + 1, q + 1, p + q + 2))
    for (h, slope), sign in ((hi_aff, 1.0), (lo_aff, -1.0)):
        if slope:
            w[:, :, : q + 1] += sign * moving_coef * h**moving_exp
        else:
            w[:, :, : p + 1] += sign * fixed_coef * h**fixed_exp
    slopes = hi_aff[1] - lo_aff[1]
    if slopes:
        w[top] += slopes * beta
    return w
