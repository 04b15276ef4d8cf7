"""Piecewise polynomials with square-matrix coefficients.

The closed-form solutions produced by this package are exactly piecewise
polynomial in time: matrix-valued polynomials on half-open segments
``[t_k, t_{k+1})`` glued at delay-multiple knots.  This module supplies
that representation, pointwise evaluation, and the one nontrivial
primitive, :func:`convolve_kernel`: the solution's
repeated sum ``sum_r Theta_r(t - r sigma)`` over piecewise-polynomial
data, evaluated by repeated integration.

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

Each piece is stored as its ``(n_k, d, d)`` array of coefficients in
ascending powers, a read-only view of one zero-padded ``(K, n, d, d)``
stack, as ``scipy.interpolate.PPoly`` keeps one coefficient array.  The
constructor takes such a stack as it is (the result of
:func:`convolve_kernel` or of a running antiderivative) or pads a
sequence of arrays into one, and then checks the whole stack in one
pass: one finiteness check, the trim of trailing all-zero coefficients
(the zero polynomial keeps one) and one degree check, with no copy and
no per-piece object.

The calculus is array algebra over the coefficient stacks.  Every
binomial comes from one small float Pascal table built at import, and
every re-expansion of a polynomial at another point (:func:`_shift`) is
one product with a binomial-power matrix, built from the powers of the
shift by one gather through a fixed table of exponents and one in-place
product with the Pascal table.

Evaluation sorts the times once, builds one power table for all of
them and fills each piece's contiguous run in place with BLAS products
of exactly :data:`_TILE` rows (see :func:`_tile_products`).  Every row
meets a product of the shape and strides a scalar call at its time
would use, so its bits do not depend on the batch it is evaluated in:
a row of a batched evaluation is the scalar call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeCapExceeded, DimensionMismatch

__all__ = [
    "MAX_DEGREE",
    "PiecewiseMatrixPolynomial",
    "convolve_kernel",
]

#: Largest supported polynomial degree per segment.
MAX_DEGREE = 64

#: Rows per BLAS product in evaluation (see :func:`_tile_products`).
_TILE = 64

#: ``_PASCAL[n, k] = C(n, k)`` as floats (zero for ``k > n``), for every
#: binomial the re-expansions use.
_PASCAL = np.array(
    [[math.comb(n, k) for k in range(MAX_DEGREE + 1)] for n in range(MAX_DEGREE + 1)],
    dtype=float,
)


#: ``_SPAN[i, j] = max(j - i, 0)``, the power of the shift in row ``i``,
#: column ``j`` of a re-expansion matrix.
_SPAN = np.maximum(np.arange(MAX_DEGREE + 1) - np.arange(MAX_DEGREE + 1)[:, None], 0)

#: ``1, 2, .., MAX_DEGREE + 1``: the divisors of an antiderivative.
_COUNTS = np.arange(1, MAX_DEGREE + 2, dtype=float)


def _shift_matrices(s, n):
    """``S[m, i, j] = C(j, i) s[m]**(j - i)`` (zero below the diagonal):
    ``S[m] @ c`` re-expands the coefficients ``c`` of ``p(x)`` as those of
    ``p(x + s[m])``.  ``s = 0`` gives the identity exactly.

    Three steps: the powers ``s**e``, one gather through :data:`_SPAN`
    and an in-place product with the Pascal table.  The gather fills an
    ``(n, n, len(s))`` array and ``S`` is its transposed view, which
    numpy multiplies in its own loop rather than through BLAS.  That
    does not make a solve's bits independent of the BLAS build:
    :func:`convolve_kernel` applies ``L`` with BLAS products
    (``np.matmul(a0, live)`` and ``live @ a1``), whose sums differ from
    a fixed-order sum in many entries at every ``d >= 2``."""
    powers = np.asarray(s, dtype=float)[:, None] ** np.arange(n)
    gathered = powers.T.take(_SPAN[:n, :n], axis=0)
    gathered *= _PASCAL[:n, :n].T[:, :, None]
    return gathered.transpose(2, 0, 1)


def _tile_products(x, width, runs, out):
    """``out[p] = sum_j coeffs[j] x[p]**j`` for the rows ``p`` in
    ``lo:hi`` of every ``(coeffs, lo, hi)`` in ``runs``, where ``coeffs``
    is an ``(n, d, d)`` stack with ``n <= width`` and ``out`` a
    C-contiguous ``(len(x), d, d)`` array that receives the values in
    place.

    One power table ``x**0 .. x**(width - 1)`` by repeated products
    (``np.vander``) serves every run: a run with ``n`` coefficients reads
    its first ``n`` columns.  Each run is multiplied by its ``(n, d*d)``
    coefficients in BLAS products of exactly :data:`_TILE` rows, read
    from one zeroed ``(_TILE, width)`` buffer.  A full tile writes
    straight into ``out``; the last, partial one goes through a
    temporary.  Every row thus meets a product of one shape and one set
    of strides, and a GEMM of one shape computes each output element
    with the same arithmetic wherever its row sits, so a row's bits do
    not depend on the rows evaluated with it.  Values past the float
    range come back as ``inf`` or ``nan`` without a warning."""
    rows, d, _ = out.shape
    flat = out.reshape(rows, d * d)
    tile = np.zeros((_TILE, width))
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.vander(x, width, increasing=True)
        for coeffs, lo, hi in runs:
            n = coeffs.shape[0]
            c = coeffs.reshape(n, -1)
            a = tile[:, :n]
            for s in range(lo, hi, _TILE):
                e = min(s + _TILE, hi)
                a[: e - s] = table[s:e, :n]
                if e - s == _TILE:
                    np.matmul(a, c, out=flat[s:e])
                else:
                    flat[s:e] = (a @ c)[: e - s]


def _power_sum(coeffs, t, out):
    """``out[p] = sum_j coeffs[j] t[p]**j`` for the ``(n, d, d)`` stack
    ``coeffs``, through the same tiles as
    :meth:`PiecewiseMatrixPolynomial.eval` (see :func:`_tile_products`),
    so every row is bit-identical to a scalar call.  ``out`` is a
    C-contiguous ``(len(t), d, d)`` array and receives the values in
    place."""
    _tile_products(t, coeffs.shape[0], [(coeffs, 0, t.size)], out)


def _shift(c, s):
    """The coefficients of ``p(x + s)`` from the ``(n, d, d)`` coefficients
    ``c`` of ``p(x)``: one product with the matrix ``S[i, j] = C(j, i)
    s**(j - i)`` (zero below the diagonal); ``c`` itself for ``s = 0``.
    Coefficients past the float range come back as ``inf`` or ``nan``,
    without a warning: the constructor refuses them, naming the interval."""
    if s == 0.0:
        return c
    n = c.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = _shift_matrices([s], n)[0] @ c.reshape(n, -1)
    return shifted.reshape(c.shape)


def _padded(pieces):
    """The ``(n_k, d, d)`` coefficient arrays ``pieces`` zero-padded into
    one ``(K, n, d, d)`` stack."""
    pieces = [np.asarray(c, dtype=float) for c in pieces]
    for c in pieces:
        if c.ndim != 3 or c.shape[1] != c.shape[2] or not c.shape[0]:
            raise DimensionMismatch(
                f"coefficients must have shape (n, d, d) with n >= 1, got {c.shape}"
            )
    dims = {c.shape[1] for c in pieces}
    if len(dims) > 1:
        raise DimensionMismatch(f"pieces mix dimensions {sorted(dims)}")
    d = dims.pop() if dims else 0
    stack = np.zeros((len(pieces), max((c.shape[0] for c in pieces), default=1), d, d))
    for k, c in enumerate(pieces):
        stack[k, : c.shape[0]] = c
    return stack


class PiecewiseMatrixPolynomial:
    """Matrix-valued piecewise polynomial on half-open segments.

    ``pieces[k]``, an ``(n_k, d, d)`` array of coefficients in ascending
    powers, applies on ``[breakpoints[k], breakpoints[k+1])`` as a
    polynomial in the local variable ``t - breakpoints[k]``; the constant
    ``left_value`` applies for ``t < breakpoints[0]``; the last piece
    extends for ``t >= breakpoints[-1]`` (``right_extension`` records
    whether that extension is semantically exact, e.g. a constant forcing
    term, or merely the natural polynomial continuation).

    ``pieces`` is a sequence of ``(n_k, d, d)`` arrays, zero-padded into
    one stack, or a ``(K, n, d, d)`` float stack, taken as it is.  Each
    piece is trimmed of trailing all-zero coefficients (the zero
    polynomial keeps one) and is a view of the stack, which is made
    read-only.  A non-finite coefficient raises
    :class:`~delaymat.errors.DegreeCapExceeded` naming the first such
    interval, and so does a trimmed degree above :data:`MAX_DEGREE`.
    """

    __slots__ = ("breakpoints", "pieces", "left_value", "right_extension")

    def __init__(self, breakpoints, pieces, left_value=None, right_extension=False):
        bp = np.array(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if isinstance(pieces, np.ndarray) and pieces.ndim == 4:
            stack = np.asarray(pieces, dtype=float)
            if stack.shape[2] != stack.shape[3] or not stack.shape[1]:
                raise DimensionMismatch(
                    f"coefficient stack must have shape (K, n, d, d) with n >= 1, "
                    f"got {stack.shape}"
                )
        else:
            stack = _padded(pieces)
        if stack.shape[0] != bp.size - 1:
            raise ValueError(
                f"{bp.size} breakpoints require {bp.size - 1} pieces, "
                f"got {stack.shape[0]}"
            )
        d = stack.shape[2]
        if left_value is None:
            left_value = np.zeros((d, d))
        left_value = np.asarray(left_value, dtype=float)
        if left_value.shape != (d, d):
            raise DimensionMismatch(
                f"left_value shape {left_value.shape} does not match dim {d}"
            )
        if not np.all(np.isfinite(left_value)):
            raise ValueError("left_value contains non-finite entries")
        # the whole stack in one pass
        flat = stack.reshape(stack.shape[0], -1)
        finite = np.isfinite(flat).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DegreeCapExceeded(
                f"the coefficients on [{bp[i]:g}, {bp[i + 1]:g}) "
                f"leave the float range"
            )
        # one past the last nonzero coefficient of each piece, at least 1
        nonzero = flat != 0
        last = flat.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
        lengths = np.where(nonzero.any(axis=1), last // (d * d) + 1, 1)
        if lengths.max() - 1 > MAX_DEGREE:
            raise DegreeCapExceeded(
                f"degree {lengths.max() - 1} exceeds the cap {MAX_DEGREE}"
            )
        stack.flags.writeable = False
        self.breakpoints = bp
        self.pieces = [stack[i, :n] for i, n in enumerate(lengths.tolist())]
        self.left_value = left_value
        self.right_extension = bool(right_extension)

    @classmethod
    def from_global(cls, breakpoints, pieces, left_value=None, right_extension=False):
        """Build from pieces written in the global variable ``t``: the
        pieces are checked and trimmed, so that no trailing zero meets a
        power of a shift, each is re-expanded once at its own breakpoint,
        and the re-expanded pieces are checked again."""
        glob = cls(breakpoints, pieces, left_value, right_extension)
        bp = glob.breakpoints
        return cls(bp, [_shift(c, b) for c, b in zip(glob.pieces, bp)],
                   glob.left_value, right_extension)

    @property
    def dim(self):
        return self.left_value.shape[0]

    @property
    def start(self):
        return float(self.breakpoints[0])

    @property
    def end(self):
        return float(self.breakpoints[-1])

    @property
    def degree(self):
        return max(c.shape[0] for c in self.pieces) - 1

    # -- evaluation ----------------------------------------------------

    def eval(self, t):
        """Evaluate at a scalar or 1-D array of times; total on the
        reals per the extension rules above.

        In sorted times each piece owns one contiguous run, which starts
        at the first time ``t >= breakpoints[k]``.  One ``searchsorted``
        finds the runs, and every row past the constant left region is
        evaluated in place at its local time ``t - breakpoints[k]``, from
        one power table in fixed-shape BLAS tiles
        (:func:`_tile_products`); unsorted input is sorted once (stably)
        and scattered back at the end.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError(
                f"times must be a scalar or a 1-D array, got shape {t.shape}"
            )
        scalar = t.ndim == 0
        ts = np.atleast_1d(t)
        order = None
        if not np.all(ts[1:] >= ts[:-1]):
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
        d = self.dim
        out = np.empty((ts.size, d, d))
        bp = self.breakpoints[:-1]
        cuts = np.searchsorted(ts, bp)
        first = cuts[0]
        out[:first] = self.left_value
        ends = [*cuts[1:], ts.size]
        local = ts[first:] - np.repeat(bp, np.subtract(ends, cuts))
        runs = [(c, lo - first, hi - first)
                for c, lo, hi in zip(self.pieces, cuts, ends) if hi > lo]
        _tile_products(local, self.degree + 1, runs, out[first:])
        if order is not None:
            sorted_out, out = out, np.empty_like(out)
            out[order] = sorted_out
        return out[0] if scalar else out

    # -- restriction ---------------------------------------------------

    def pieces_in(self, lo, hi):
        """Cover ``[lo, hi)`` by ``(seg_lo, seg_hi, coefficients)`` triples,
        each ``(n, d, d)`` array the coefficients of a polynomial in the
        local variable ``t - seg_lo``, materializing the constant left
        region and the right extension."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        bp = self.breakpoints
        out = []
        if lo < bp[0]:
            out.append((lo, min(hi, bp[0]), self.left_value[None]))
        last = len(self.pieces) - 1
        for k, c in enumerate(self.pieces):
            seg_lo = bp[k]
            seg_hi = bp[k + 1] if k < last else max(bp[-1], hi)
            a = max(seg_lo, lo)
            b = min(seg_hi, hi)
            if b > a:
                out.append((float(a), float(b), _shift(c, a - seg_lo)))
        return out

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


def _width_powers(widths, n):
    """``widths[k]**j`` for ``j = 1 .. n`` as a ``(K, n)`` table."""
    return np.asarray(widths, dtype=float)[:, None] ** np.arange(1, n + 1)


def _integrate_into(out, coeffs, powers):
    """Write into ``out`` (``(K, n + 1, d, d)``) the local coefficients
    of ``x -> \\int_{b_0}^x p``, where piece ``k`` of ``p`` has the
    coefficients ``coeffs[k]`` and ``powers = _width_powers(widths, n)``:
    each piece's own antiderivative plus the integral over the pieces
    before it."""
    n = coeffs.shape[1]
    out[0, 0] = 0.0
    # a division, not a product with reciprocals, which would change last bits
    np.divide(coeffs, _COUNTS[:n, None, None], out=out[:, 1:])
    totals = np.einsum("kj,kjab->kab", powers, out[:, 1:])
    np.add.accumulate(totals[:-1], axis=0, out=out[1:, 0])


def running_antiderivative(coeffs, widths, start):
    """Local coefficients of ``x -> start + \\int_{b_0}^x p`` for the
    piecewise polynomial ``p`` whose piece ``k`` has the local
    coefficients ``coeffs[k]`` (shape ``(K, n, d, d)``) and the width
    ``widths[k]``.  Returns a ``(K, n + 1, d, d)`` stack."""
    n = coeffs.shape[1]
    out = np.empty((coeffs.shape[0], n + 1) + coeffs.shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):
        _integrate_into(out, coeffs, _width_powers(widths, n))
    out[:, 0] += start
    return out


def convolve_kernel(a0, a1, sigma, phi0, hi):
    """The solution's repeated sum ``X(t) = sum_r Theta_r(t - r sigma)``
    on ``[b_0, hi)``, ``b_0`` the first breakpoint of ``phi0``.

    ``Theta_0`` is ``phi0`` on and after ``b_0`` and zero before it (its
    ``left_value`` is not used), and ``Theta_{r+1}`` is the
    antiderivative, taken from that breakpoint, of ``L(Theta_r)`` with
    ``L(M) = A0 M + M A1``.  ``L`` acts on the matrix values and the
    antiderivative on the powers, so every ``Theta_r`` shares the ``K``
    data pieces and is one ``(K, n, d, d)`` array of local coefficients.
    The window count follows from ``hi - b_0`` and ``sigma``: term ``r``
    is live where ``t - r sigma`` has reached ``b_0``.
    The output knots are the data knots shifted by every ``r sigma``.  On
    an output interval starting at ``t0``, term ``r`` is the ``Theta_r``
    piece that holds ``t0 - r sigma``, re-expanded at that point: a shift
    shorter than one data piece, and exactly zero where the knots line up.

    Once per solve: the output knots; for every (window, output interval)
    pair, the data piece that holds ``t0 - r sigma`` and the shift into
    it, as two ``(windows + 1, intervals)`` arrays; the widths' powers and the
    divisors of the running antiderivative.

    Once per window ``r``: ``L`` on the live coefficients of
    ``Theta_{r-1}``, into one buffer, and its running antiderivative,
    ``Theta_r``, written over ``Theta_{r-2}``, so two are held at a time
    (``K n d**3`` per window); the gather of ``Theta_r`` onto the
    intervals where it is nonzero (a suffix, since ``Theta_r`` is zero
    left of its first knot); their re-expansion matrices
    (:func:`_shift_matrices`); and one batched product added into the
    ``(intervals, n, d, d)`` output stack, so memory stays at one
    coefficient stack per interval.

    The stack becomes the output pieces as it is, in the constructor's
    one checked pass: coefficients past the float range raise
    :class:`~delaymat.errors.DegreeCapExceeded` naming the interval.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    d = phi0.dim
    if a0.shape != (d, d) or a1.shape != (d, d):
        raise DimensionMismatch(
            f"a0 and a1 must have shape ({d}, {d}) to match the data, "
            f"got {a0.shape} and {a1.shape}"
        )
    bks = phi0.breakpoints
    if not bks[0] < hi:
        raise ValueError(f"need hi > {bks[0]:g}, got {hi}")
    last = len(phi0.pieces) - 1
    # every window whose first knot could fall inside [b_0, hi), up to one
    # past the cap; the knots past hi are dropped by the merge, and their
    # windows below
    reach = min(max(0, math.ceil((hi - bks[0]) / sigma)), MAX_DEGREE + 1)
    shifts = sigma * np.arange(reach + 1)
    out_bks = _merge_breakpoints((bks[None, :] + shifts[:, None]).ravel(), bks[0], hi)
    t0 = out_bks[:-1]
    tm = 0.5 * (t0 + out_bks[1:])
    # Theta_r is zero left of its first knot, so its intervals are a
    # suffix, empty for the windows past hi
    firsts = np.searchsorted(tm, bks[0] + shifts, side="right")
    firsts = firsts[firsts < t0.size].tolist()
    windows = max(0, len(firsts) - 1)
    shifts = shifts[: windows + 1]
    n = phi0.degree + windows + 1
    if n - 1 > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"{windows} repeated integrals of degree-{n - 1 - windows} data "
            f"reach degree {n - 1}, above the cap {MAX_DEGREE}"
        )
    # the data piece that holds t0 - r sigma, and the shift into it
    held = np.searchsorted(bks, tm - shifts[:, None], side="right") - 1
    np.clip(held, 0, last, out=held)
    offsets = (t0 - shifts[:, None]) - bks[held]

    acc = np.zeros((t0.size, n, d, d))
    # Theta_r, the buffer that receives Theta_{r+1}, and L(Theta_r)
    theta, spare, image = np.zeros((3, last + 1, n, d, d))
    for k, c in enumerate(phi0.pieces):
        theta[k, : c.shape[0]] = c
    base_degree = n - 1 - windows
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _width_powers(np.diff(bks), n - 1)
        for r, first in enumerate(firsts):
            # Theta_r has degree base_degree + r at most
            m = base_degree + r + 1
            if r:
                live = theta[:, : m - 1]
                np.matmul(a0, live, out=image[:, : m - 1])
                image[:, : m - 1] += live @ a1
                _integrate_into(spare, image[:, : n - 1], powers)
                theta, spare = spare, theta
            terms = theta[held[r, first:], :m].reshape(-1, m, d * d)
            shifted = _shift_matrices(offsets[r, first:], m) @ terms
            acc[first:, :m] += shifted.reshape(-1, m, d, d)
            del terms, shifted  # not alive while the next window's are built
    return PiecewiseMatrixPolynomial(out_bks, acc, left_value=np.zeros((d, d)))
