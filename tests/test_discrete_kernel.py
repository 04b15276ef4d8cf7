"""Property sweep of the discrete repeated-sum kernel: ``Z`` and ``X``
against the exact value of ``sum_r Theta_r(u - r (m + 1))`` for the same
float ``A0``, ``A1``, history and forcing, row by row, within a few
rounding units of the same sum over magnitudes.  The kernel restarts the
sum every few delay windows and the reference never does, so horizons of
up to 60 steps put every ``m`` across at least two block seams."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from delaymat import DelaySystem, DiscreteFundamental  # noqa: E402
from delaymat.fundamental import discrete_kernel  # noqa: E402
from exact_arith import solution_sum  # noqa: E402

EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    n_steps=st.integers(0, 60),
    scale=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_z_and_x_match_the_exact_sum(d, m, n_steps, scale, seed):
    rng = np.random.default_rng(seed)
    sys = DelaySystem(
        a0=rng.uniform(-scale, scale, size=(d, d)),
        a1=rng.uniform(-scale, scale, size=(d, d)),
        delay=m,
        kind="discrete",
    )
    identity = np.broadcast_to(np.eye(d), (m + 1, d, d))
    no_forcing = np.zeros((n_steps, d, d))
    hist = rng.uniform(-1.0, 1.0, size=(m + 1, d, d))
    g = rng.uniform(-1.0, 1.0, size=(n_steps, d, d))
    cases = (
        ("Z", DiscreteFundamental(sys).table(-m, n_steps), identity, no_forcing),
        ("X", discrete_kernel(sys.a0, sys.a1, hist, g, m), hist, g),
    )
    for name, got, h, f in cases:
        want, terms = solution_sum(sys.a0, sys.a1, h, f, m)
        gap = np.abs(got - want).max(axis=(1, 2))
        bound = 8 * EPS * terms.max(axis=(1, 2))
        assert np.all(gap <= bound), (name, int(np.argmax(gap - bound)) - m)
