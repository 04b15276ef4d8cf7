"""Property sweep of the discrete repeated-sum kernel: ``Z`` and ``X``
against the exact value of ``sum_r q[r] Phi_r(u - r (m + 1))`` for the
same float ``q`` and ``Phi_0``, row by row, within a few rounding units
of the sum of the terms' magnitudes."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from delaymat import DelaySystem, DiscreteFundamental  # noqa: E402
from delaymat.fundamental import discrete_kernel  # noqa: E402
from delaymat.qseq import build_q_table  # noqa: E402
from exact_arith import exact, rounded  # noqa: E402

EPS = np.finfo(float).eps


def exact_sum(q, phi0, m):
    """The kernel's sum in exact arithmetic, rounded once, and the sum
    of the terms' magnitudes ``sum_r |q[r]| |Phi_r|``, entry by entry."""
    qi, kq = exact(q)
    phi, kp = exact(phi0)
    value = np.zeros(phi.shape, dtype=object)
    terms = np.zeros(phi.shape, dtype=object)
    for r in range(-(-len(phi) // (m + 1))):
        if r:
            phi = np.cumsum(phi[: len(phi) - (m + 1)], axis=0)
        value[r * (m + 1) :] += qi[r] @ phi
        terms[r * (m + 1) :] += np.abs(qi[r]) @ np.abs(phi)
    return rounded(value, kq + kp), rounded(terms, kq + kp)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    n_steps=st.integers(0, 40),
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
    rows = m + n_steps + 1
    q = build_q_table(sys.a0, sys.a1, (rows - 1) // (m + 1)).mats
    identity = np.broadcast_to(np.eye(d), (rows, d, d))
    data = rng.uniform(-1.0, 1.0, size=(rows, d, d))
    cases = (
        ("Z", DiscreteFundamental(sys).table(-m, n_steps), identity),
        ("X", discrete_kernel(q, data, m), data),
    )
    for name, got, phi0 in cases:
        want, terms = exact_sum(q, phi0, m)
        gap = np.abs(got - want).max(axis=(1, 2))
        bound = 8 * EPS * terms.max(axis=(1, 2))
        assert np.all(gap <= bound), (name, int(np.argmax(gap - bound)) - m)
