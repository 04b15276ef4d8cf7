"""Hot loops for the brute-force continuous integrator.

The method-of-steps sweep below is the one genuinely hot numeric path in
the package.  It vectorizes each delay window: the right-hand side
depends only on already-known delayed values, so the window's increments
are batched and then summed into the state by one running row sum.

Grid layout: ``x[i]`` holds the state at ``t = -sigma + i * h`` with
``h = sigma / n``; window ``k`` integrates ``[k sigma, (k+1) sigma]``
(rows ``(k+1) n .. (k+2) n``) reading delayed values from rows
``k n .. (k+1) n``.  Because the right-hand side never references the
current state, a classical RK4 step collapses to Simpson's rule::

    x[i+1] = x[i] + h/6 (F(t_i) + 4 F(t_i + h/2) + F(t_i + h))

which needs delayed values at half-grid points; those are interpolated
from the stored grid by 4-point cubics (centered stencil
``(-1, 9, 9, -1)/16``, one-sided ``(5, 15, -5, 1)/16`` and its mirror at
window edges).  The scheme stays 4th-order accurate.

The forcing may jump at grid nodes (piecewise data with knots on the
grid), so each substep opens with the forcing value *at* its left node
(right-limit semantics) but closes with the forcing's left limit at its
right node: the one-sided values keep Simpson's rule exact per smooth
span instead of smearing a jump into an O(h) error.  The delayed state
is continuous, so it needs no such split.

Memory: the forcing arrives one window at a time, and each window's
Simpson increments are built in place in three ``(n, d, d)`` buffers
that all windows reuse.  Beyond the state stack itself the sweep holds
only those buffers and the current window's forcing, whatever the
horizon.  The running sum adds the increments row by row in the same
order as ``np.cumsum``, so it gives the same result, in place and in a
fraction of the time the axis-0 reduction takes on ``(n, d, d)`` stacks.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)


def sweep(a0, a1, hist, hist_mid, forcing, n, windows, h):
    """Run the method-of-steps sweep; returns the full state stack
    ``((windows + 1) n + 1, d, d)`` including the history rows.

    ``forcing`` is ``None`` (no forcing term) or a callable that maps a
    window ``k`` to three ``(n, d, d)`` stacks, one row per substep of
    that window: the forcing at the substep's left node, at its
    midpoint, and the forcing's left limit at its right node."""
    log.debug("oracle sweep: n=%d windows=%d", n, windows)
    d = a0.shape[0]
    x = np.zeros(((windows + 1) * n + 1, d, d))
    x[: n + 1] = hist
    fx = np.empty((n + 1, d, d))
    f_mid = np.empty((n, d, d))
    inc = np.empty((n, d, d))
    for k in range(windows):
        base = (k + 1) * n
        xd = x[k * n : (k + 1) * n + 1]
        # f_mid = A0 xd_mid + xd_mid A1 (+ g_mid); inc holds the
        # midpoints and fx is workspace until fx is formed below
        if k == 0:
            xd_mid = hist_mid
        else:
            xd_mid = _midpoints(xd, out=inc)
        np.matmul(a0, xd_mid, out=f_mid)
        np.matmul(xd_mid, a1, out=fx[:-1])
        f_mid += fx[:-1]
        # fx = A0 xd + xd A1 on the n + 1 window nodes; inc is workspace
        np.matmul(a0, xd, out=fx)
        np.matmul(xd[:-1], a1, out=inc)
        fx[:-1] += inc
        fx[-1] += xd[-1] @ a1
        # inc = h/6 ((fx_lo + g_lo) + 4 f_mid + (fx_hi + g_hi))
        inc[:] = fx[:-1]
        if forcing is not None:
            g_lo, g_mid, g_hi = forcing(k)
            f_mid += g_mid
            inc += g_lo
            fx[1:] += g_hi
        f_mid *= 4.0
        inc += f_mid
        inc += fx[1:]
        inc *= h / 6.0
        for i in range(1, n):
            inc[i] += inc[i - 1]
        np.add(x[base], inc, out=x[base + 1 : base + n + 1])
    return x


def _midpoints(y, out):
    """Half-grid values from grid values by 4-point cubic interpolation
    (needs len(y) >= 4 rows), written into ``out`` (len(y) - 1 rows)."""
    mid = out[1:-1]
    np.add(y[1:-2], y[2:-1], out=mid)
    mid *= 9.0
    mid -= y[:-3]
    mid -= y[3:]
    mid /= 16.0
    out[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
    out[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0
    return out
