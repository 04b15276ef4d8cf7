"""Hot loops for the brute-force continuous integrator.

The method-of-steps sweep below is the one genuinely hot numeric path in
the package.  It vectorizes each delay window: the right-hand side
depends only on already-known delayed values, so the window's increments
are batched and cumulative-summed.

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
(``g_grid``, right-limit semantics) but closes with the forcing's left
limit at its right node (``g_end``): the one-sided values keep Simpson's
rule exact per smooth span instead of smearing a jump into an O(h)
error.  The delayed state is continuous, so it needs no such split.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)


def sweep(a0, a1, hist, hist_mid, g_grid, g_mid, g_end, n, windows, h):
    """Run the method-of-steps sweep; returns the full state stack
    ``((windows + 1) n + 1, d, d)`` including the history rows.

    ``g_end[p]`` is the forcing's left limit at grid node ``p + 1`` of the
    forced range (one row per substep), used to close that substep."""
    log.debug("oracle sweep: n=%d windows=%d", n, windows)
    d = a0.shape[0]
    x = np.zeros(((windows + 1) * n + 1, d, d))
    x[: n + 1] = hist
    for k in range(windows):
        base = (k + 1) * n
        xd = x[k * n : (k + 1) * n + 1]
        xd_mid = hist_mid if k == 0 else _midpoints(xd)
        fx = a0 @ xd + xd @ a1
        f_mid = a0 @ xd_mid + xd_mid @ a1 + g_mid[k * n : (k + 1) * n]
        f_lo = fx[:-1] + g_grid[k * n : (k + 1) * n]
        f_hi = fx[1:] + g_end[k * n : (k + 1) * n]
        inc = (h / 6.0) * (f_lo + 4.0 * f_mid + f_hi)
        x[base + 1 : base + n + 1] = x[base] + np.cumsum(inc, axis=0)
    return x


def _midpoints(y):
    """Half-grid values from grid values by 4-point cubic interpolation
    (needs len(y) >= 4 rows)."""
    mid = np.empty((y.shape[0] - 1,) + y.shape[1:])
    mid[1:-1] = (-y[:-3] + 9.0 * y[1:-2] + 9.0 * y[2:-1] - y[3:]) / 16.0
    mid[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
    mid[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0
    return mid
