"""Fundamental solutions: window-by-window displays for the worked
examples, the defining equations as residual checks, start-up
conventions, and the commutative-case reductions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from delaymat import (
    DelaySystem,
    DiscreteFundamental,
    build_fundamental_continuous,
    fixtures,
    fundamental_commutative_continuous,
    fundamental_commutative_discrete,
)
from delaymat.errors import CommutationError, DegreeCapExceeded
from delaymat.generators import random_system
from delaymat.linalg import binomial, max_abs
from delaymat.ppoly import MAX_DEGREE
from delaymat.qseq import build_q_table


class TestContinuousWindows:
    def test_worked_example_segment_displays(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 3.0)
        for entry in fixtures.EXAMPLE1_Z_ENTRIES:
            ts = fixtures.segment_samples(entry.lo, entry.hi, 25)
            got = z.eval(ts)[:, entry.row, entry.col]
            want = entry.eval(ts)
            assert max_abs(got - want) <= 1e-12, entry.label("Z")

    def test_lower_triangle_entry_stays_zero(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 3.0)
        ts = np.linspace(-1.0, 2.999, 200)
        assert max_abs(z.eval(ts)[:, 1, 0]) == 0.0

    def test_continuity_across_knots(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 5.0)
        assert np.all(z.knot_jumps() <= 1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_defining_equation_residual(self, seed, d):
        rng = np.random.default_rng(300 + seed)
        a0 = rng.uniform(-1.0, 1.0, size=(d, d))
        a1 = rng.uniform(-1.0, 1.0, size=(d, d))
        sigma = float(rng.uniform(0.5, 2.0))
        sys = DelaySystem(a0=a0, a1=a1, delay=sigma, kind="continuous")
        z = build_fundamental_continuous(sys, 4.0 * sigma)
        rate = z.differentiate()
        ts = np.concatenate(
            [np.linspace(k * sigma + 0.05 * sigma, (k + 1) * sigma - 0.05 * sigma, 9)
             for k in range(4)]
        )
        delayed = z.eval(ts - sigma)
        rhs = a0 @ delayed + delayed @ a1
        resid = max_abs(rate.eval(ts) - rhs)
        scale = max(1.0, max_abs(rhs))
        assert resid <= 1e-12 * scale

    def test_startup_conventions(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 2.0)
        np.testing.assert_array_equal(z.eval(-5.0), np.zeros((2, 2)))
        np.testing.assert_array_equal(z.eval(-1.0), np.eye(2))
        np.testing.assert_array_equal(z.eval(-1e-12), np.eye(2))

    def test_degree_cap_limits_the_horizon(self, ex1_system):
        with pytest.raises(DegreeCapExceeded):
            build_fundamental_continuous(ex1_system, 65.0)

    def test_partial_window_rounds_up(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 2.5)
        assert z.end == pytest.approx(3.0)

    def test_rejects_discrete_systems_and_bad_horizons(self, ex2_system, ex1_system):
        with pytest.raises(ValueError):
            build_fundamental_continuous(ex2_system, 3.0)
        with pytest.raises(ValueError):
            build_fundamental_continuous(ex1_system, 0.0)

    def test_window_expansion_matches_exact_fractions(self):
        """Local coefficients of window ``u``, ``sum_r q[r] (tau + (u-r)
        sigma)^r / r!`` with ``tau = t - (u-1) sigma``, against exact
        rationals of the same float inputs, up to degree 25, within 8 eps
        of the sum of the terms' magnitudes."""
        rng = np.random.default_rng(24)
        d, sigma, windows = 2, 0.7, 25
        sys = DelaySystem(
            a0=rng.uniform(-0.5, 0.5, size=(d, d)),
            a1=rng.uniform(-0.5, 0.5, size=(d, d)),
            delay=sigma,
            kind="continuous",
        )
        z = build_fundamental_continuous(sys, windows * sigma)
        q = build_q_table(sys.a0, sys.a1, windows).mats
        exact_q = [[[Fraction(x) for x in row] for row in mat] for mat in q]
        for u in (2, 13, 24, 25):
            got = z.pieces[u].coeffs
            assert got.shape == (u + 1, d, d)
            for j in range(u + 1):
                for a in range(d):
                    for b in range(d):
                        terms = [
                            math.comb(r, j)
                            * ((u - r) * Fraction(sigma)) ** (r - j)
                            / math.factorial(r)
                            * exact_q[r][a][b]
                            for r in range(j, u + 1)
                        ]
                        exact = float(sum(terms))
                        bound = 8 * np.finfo(float).eps * float(
                            sum(abs(t) for t in terms)
                        )
                        assert abs(got[j, a, b] - exact) <= bound, (
                            f"window {u}, t^{j}, entry ({a}, {b})"
                        )


def shifted_form(q, sigma, u, ts):
    """Window ``u`` of ``Z`` at the exact rationals ``ts`` by the shifted
    form ``sum_r q[r] (t - (r-1) sigma)**r / r!``: the exact value for
    the float ``q``, and the sum of the terms' magnitudes."""
    exact = np.empty((len(ts),) + q.shape[1:])
    terms = np.empty_like(exact)
    fq = [[[Fraction(x) for x in row] for row in mat] for mat in q[: u + 1]]
    for i, t in enumerate(ts):
        powers = [(t - (r - 1) * Fraction(sigma)) ** r / math.factorial(r)
                  for r in range(u + 1)]
        for a in range(q.shape[1]):
            for b in range(q.shape[2]):
                parts = [fq[r][a][b] * powers[r] for r in range(u + 1)]
                exact[i, a, b] = float(sum(parts))
                terms[i, a, b] = float(sum(abs(x) for x in parts))
    return exact, terms


class TestShiftedFormUpToTheCap:
    """Each window of ``Z`` against the shifted form, at every window
    count up to :data:`MAX_DEGREE`."""

    def test_every_window_count_on_a_cancelling_system(self):
        # the system of ROADMAP item 1: the shifted form cancels, sum of
        # |terms| / |Z| reaches ~1e14 at 64 windows, so Z is checked
        # against the exact value of that sum within 16 eps of |terms|
        sys = random_system(np.random.default_rng(5), 2, "continuous", entry_scale=0.5)
        eps = np.finfo(float).eps
        for u in range(1, MAX_DEGREE + 1):
            z = build_fundamental_continuous(sys, float(u))
            q = build_q_table(sys.a0, sys.a1, u).mats
            ts = [Fraction(u - 1) + Fraction(k, 4) for k in range(4)]
            exact, terms = shifted_form(q, 1.0, u, ts)
            err = np.abs(z.eval(np.array(ts, dtype=float)) - exact)
            assert np.all(err <= 16 * eps * terms), u

    def test_every_window_count_within_1e_12_of_the_value(self):
        sys = random_system(
            np.random.default_rng(7), 2, "continuous", sigma=0.7, entry_scale=0.5
        )
        sigma = sys.sigma
        for u in range(1, MAX_DEGREE + 1):
            z = build_fundamental_continuous(sys, u * sigma)
            q = build_q_table(sys.a0, sys.a1, u).mats
            ts = (u - 1) * sigma + sigma * np.linspace(0.0, 1.0, 9)[:-1]
            ref = np.zeros((ts.size, 2, 2))
            for r in range(u + 1):
                power = (ts - (r - 1) * sigma) ** r / math.factorial(r)
                ref += q[r] * power[:, None, None]
            assert max_abs(z.eval(ts) - ref) <= 1e-12 * max_abs(ref), u


class TestDiscreteValues:
    def test_worked_example_table(self, ex2_system):
        fund = DiscreteFundamental(ex2_system)
        for entry in fixtures.EXAMPLE2_Z_TABLE:
            np.testing.assert_array_equal(
                fund.value(entry.u), entry.value,
                err_msg=f"Z({entry.u})",
            )

    def test_startup_conventions(self, ex2_system):
        fund = DiscreteFundamental(ex2_system)
        np.testing.assert_array_equal(fund.value(-5), np.zeros((2, 2)))
        np.testing.assert_array_equal(fund.value(-2), np.zeros((2, 2)))
        np.testing.assert_array_equal(fund.value(-1), np.eye(2))
        np.testing.assert_array_equal(fund.value(0), np.eye(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_defining_recursion(self, seed, m):
        rng = np.random.default_rng(400 + seed)
        d = int(rng.integers(2, 5))
        sys = DelaySystem(
            a0=rng.uniform(-1.0, 1.0, size=(d, d)),
            a1=rng.uniform(-1.0, 1.0, size=(d, d)),
            delay=m,
            kind="discrete",
        )
        fund = DiscreteFundamental(sys)
        for u in range(0, 6 * (m + 1)):
            step = fund.value(u + 1) - fund.value(u)
            delayed = fund.value(u - m)
            rhs = sys.a0 @ delayed + delayed @ sys.a1
            scale = max(1.0, max_abs(rhs))
            assert max_abs(step - rhs) <= 1e-12 * scale, f"u={u}"

    def test_values_are_memoized_and_write_protected(self, ex2_system):
        fund = DiscreteFundamental(ex2_system)
        first = fund.value(5)
        assert fund.value(5) is first
        with pytest.raises(ValueError):
            first[0, 0] = 99.0

    def test_rejects_continuous_systems(self, ex1_system):
        with pytest.raises(ValueError):
            DiscreteFundamental(ex1_system)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_equals_stacked_values(self, m):
        rng = np.random.default_rng(30 + m)
        sys = DelaySystem(
            a0=rng.uniform(-1.0, 1.0, size=(3, 3)),
            a1=rng.uniform(-1.0, 1.0, size=(3, 3)),
            delay=m,
            kind="discrete",
        )
        fund = DiscreteFundamental(sys)
        lo, hi = -m - 3, 40
        table = fund.table(lo, hi)
        assert table.shape == (hi - lo + 1, 3, 3)
        # fresh instances, so neither side reads the other's caches
        values = DiscreteFundamental(sys)
        np.testing.assert_array_equal(
            table, np.stack([values.value(u) for u in range(lo, hi + 1)])
        )
        for cut in ((lo, -m - 1), (-m, 0), (1, 1), (-1, 7), (5, 40)):
            np.testing.assert_array_equal(
                DiscreteFundamental(sys).table(*cut),
                table[cut[0] - lo : cut[1] - lo + 1],
                err_msg=f"table{cut}",
            )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_follows_the_binomial_sum(self, m):
        a0 = np.array([[0.5, 1.0], [0.0, -0.25]])
        sys = DelaySystem(a0=a0, a1=np.zeros((2, 2)), delay=m, kind="discrete")
        table = DiscreteFundamental(sys).table(1, 30)
        for u in range(1, 31):
            want = sum(
                float(binomial(u - (r - 1) * m, r)) * np.linalg.matrix_power(a0, r)
                for r in range(-(-u // (m + 1)) + 1)
            )
            scale = max(1.0, max_abs(want))
            assert max_abs(table[u - 1] - want) <= 1e-14 * scale, f"u={u}"

    def test_empty_range_is_rejected(self, ex2_system):
        with pytest.raises(ValueError):
            DiscreteFundamental(ex2_system).table(3, 2)

    def test_float_overflow_of_the_binomials_refuses(self):
        # C(u - (r - 1), r) first exceeds the float range at u = 1482; the
        # refusal names that row whichever later row was asked for
        sys = DelaySystem(
            a0=0.1 * np.eye(2), a1=np.zeros((2, 2)), delay=1, kind="discrete"
        )
        fund = DiscreteFundamental(sys)
        assert np.all(np.isfinite(fund.value(1481)))
        with pytest.raises(DegreeCapExceeded, match=r"u = 1482 with delay m = 1"):
            fund.value(1600)
        with pytest.raises(DegreeCapExceeded, match=r"u = 1482 with delay m = 1"):
            fund.table(-2, 1600)


    @pytest.mark.parametrize("m, top", [(1, 1481), (2, 1400), (3, 1400)])
    def test_float_binomials_keep_the_precision_of_exact_ones(self, m, top):
        # Z(u) = sum_r C(u - (r - 1) m, r) q[r] with q[r] = 0.1**r I, up to
        # the float range: the binomials pass 2**53 long before u = top
        sys = DelaySystem(
            a0=0.1 * np.eye(2), a1=np.zeros((2, 2)), delay=m, kind="discrete"
        )
        z = DiscreteFundamental(sys).table(1, top)
        q = build_q_table(sys.a0, sys.a1, (top + m) // (m + 1)).mats[:, 0, 0]
        eps = np.finfo(float).eps
        for u in [*range(1, top, 37), top]:
            exact = sum(
                math.comb(u - (r - 1) * m, r) * Fraction(q[r])
                for r in range(-(-u // (m + 1)) + 1)
            )
            assert abs(Fraction(z[u - 1, 0, 0]) - exact) <= 16 * eps * exact, u


class TestCommutativeReduction:
    def test_continuous_agrees_for_a_commuting_pair(self):
        a0 = np.array([[1.0, 2.0], [0.0, 1.0]])
        a1 = 0.5 * np.eye(2) - 0.25 * a0
        sys = DelaySystem(a0=a0, a1=a1, delay=1.0, kind="continuous")
        z = build_fundamental_continuous(sys, 4.0)
        for t in np.linspace(-1.5, 3.9, 56):
            direct = fundamental_commutative_continuous(sys, t)
            scale = max(1.0, max_abs(direct))
            assert max_abs(direct - z.eval(t)) <= 1e-10 * scale, f"t={t}"

    def test_discrete_agrees_for_a_commuting_pair(self):
        rng = np.random.default_rng(77)
        a0 = rng.uniform(-0.8, 0.8, size=(3, 3))
        a1 = -0.3 * np.eye(3) + 0.4 * a0 + 0.2 * (a0 @ a0)
        sys = DelaySystem(a0=a0, a1=a1, delay=2, kind="discrete")
        fund = DiscreteFundamental(sys)
        for u in range(-3, 15):
            direct = fundamental_commutative_discrete(fund, u)
            scale = max(1.0, max_abs(direct))
            assert max_abs(direct - fund.value(u)) <= 1e-10 * scale, f"u={u}"

    def test_noncommuting_pair_is_rejected(self, ex1_system, ex2_system):
        with pytest.raises(CommutationError):
            fundamental_commutative_continuous(ex1_system, 1.0)
        noncomm = DelaySystem(
            a0=np.array([[0.0, 1.0], [0.0, 0.0]]),
            a1=np.array([[1.0, 0.0], [0.0, 2.0]]),
            delay=1,
            kind="discrete",
        )
        with pytest.raises(CommutationError):
            fundamental_commutative_discrete(DiscreteFundamental(noncomm), 3)

    def test_vanishing_right_coefficient_discrete_corollary(self):
        # with A1 = 0 the closed form collapses to a binomial sum in
        # powers of A0 alone; integer entries make every product exact
        a0 = np.array([[1.0, 1.0], [0.0, 2.0]])
        m = 1
        sys = DelaySystem(a0=a0, a1=np.zeros((2, 2)), delay=m, kind="discrete")
        fund = DiscreteFundamental(sys)
        from delaymat.linalg import binomial

        for u in range(1, 13):
            n = -(-u // (m + 1))
            expected = np.zeros((2, 2))
            power = np.eye(2)
            for j in range(n + 1):
                expected += float(binomial(u - (j - 1) * m, j)) * power
                power = power @ a0
            np.testing.assert_array_equal(fund.value(u), expected, err_msg=f"u={u}")

    def test_vanishing_right_coefficient_continuous_corollary(self):
        import math

        a0 = np.array([[0.5, 1.0], [0.0, -0.5]])
        sys = DelaySystem(a0=a0, a1=np.zeros((2, 2)), delay=1.0, kind="continuous")
        z = build_fundamental_continuous(sys, 3.0)
        for t in np.linspace(0.0, 2.99, 25):
            u = int(np.floor(t)) + 1
            expected = np.zeros((2, 2))
            power = np.eye(2)
            for r in range(u + 1):
                expected += power * ((t - (r - 1)) ** r / math.factorial(r))
                power = power @ a0
            assert max_abs(z.eval(t) - expected) <= 1e-12 * max(
                1.0, max_abs(expected)
            ), f"t={t}"

    def test_q_table_feeds_the_windows(self, ex1_system):
        # the u-th window polynomial has leading coefficient q[u] / u!
        import math

        z = build_fundamental_continuous(ex1_system, 3.0)
        q = build_q_table(ex1_system.a0, ex1_system.a1, 3)
        for u in (1, 2, 3):
            piece = z.pieces[u]  # pieces[0] is the identity window
            lead = piece.coeffs[-1] * math.factorial(u)
            np.testing.assert_allclose(lead, q[u], atol=1e-12)
