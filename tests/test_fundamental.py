"""Fundamental solutions: window-by-window displays for the worked
examples, the defining equations as residual checks, start-up
conventions, and the commutative-case reductions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from commutative_reference import (
    CommutationError,
    binomial,
    fundamental_commutative_continuous,
    fundamental_commutative_discrete,
)
from delaymat import (
    DelaySystem,
    DiscreteFundamental,
    PiecewiseMatrixPolynomial,
    build_fundamental_continuous,
    fixtures,
    oracle,
    solve_continuous,
)
from delaymat.errors import DegreeCapExceeded
from delaymat.fundamental import build_q_table
from delaymat.generators import random_system
from delaymat.linalg import max_abs
from delaymat.ppoly import MAX_DEGREE
from calculus import differentiate, knot_jumps


def entry_samples(entry, n):
    """``n`` midpoint samples inside a stored entry's segment (knots carry
    the half-open convention, so the samples keep away from them) and
    the entry's polynomial there, evaluated in floats."""
    ts = entry.lo + (entry.hi - entry.lo) * (np.arange(n) + 0.5) / n
    return ts, np.polynomial.polynomial.polyval(ts, [float(c) for c in entry.coeffs])


class TestContinuousWindows:
    def test_worked_example_segment_displays(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 3.0)
        for entry in fixtures.EXAMPLE1_Z_ENTRIES:
            ts, want = entry_samples(entry, 25)
            got = z.eval(ts)[:, entry.row, entry.col]
            assert max_abs(got - want) <= 1e-12, entry.label("Z")

    def test_lower_triangle_entry_stays_zero(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 3.0)
        ts = np.linspace(-1.0, 2.999, 200)
        assert max_abs(z.eval(ts)[:, 1, 0]) == 0.0

    def test_continuity_across_knots(self, ex1_system):
        z = build_fundamental_continuous(ex1_system, 5.0)
        assert np.all(knot_jumps(z) <= 1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_defining_equation_residual(self, seed, d):
        rng = np.random.default_rng(300 + seed)
        a0 = rng.uniform(-1.0, 1.0, size=(d, d))
        a1 = rng.uniform(-1.0, 1.0, size=(d, d))
        sigma = float(rng.uniform(0.5, 2.0))
        sys = DelaySystem(a0=a0, a1=a1, delay=sigma, kind="continuous")
        z = build_fundamental_continuous(sys, 4.0 * sigma)
        rate = differentiate(z)
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

    @pytest.mark.parametrize("horizon, windows", [(4.2, 6), (4.5, 7)])
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_is_the_solve_with_history_identity(self, d, horizon, windows):
        rng = np.random.default_rng(500 + d)
        sigma = 0.7
        sys = DelaySystem(
            a0=rng.uniform(-1.0, 1.0, size=(d, d)),
            a1=rng.uniform(-1.0, 1.0, size=(d, d)),
            delay=sigma,
            kind="continuous",
        )
        identity = PiecewiseMatrixPolynomial([-sigma, 0.0], np.eye(d)[None, None])
        x = solve_continuous(sys, identity, None, windows * sigma)
        z = build_fundamental_continuous(sys, horizon)
        np.testing.assert_array_equal(z.breakpoints, x.breakpoints)
        assert len(z.pieces) == len(x.pieces)
        for zc, xc in zip(z.pieces, x.pieces):
            np.testing.assert_array_equal(zc, xc)

    @pytest.mark.parametrize("windows, bound", [(20, 4e-13), (40, 6e-9)])
    def test_gap_to_the_method_of_steps_on_a_cancelling_system(self, windows, bound):
        # the system whose repeated sum cancels at long horizons: the
        # worst window's gap relative to max(|oracle|, 1)
        sys = random_system(np.random.default_rng(5), 2, "continuous", entry_scale=0.5)
        horizon = windows * sys.sigma
        identity = PiecewiseMatrixPolynomial([-sys.sigma, 0.0], np.eye(2)[None, None])
        pieces = oracle.continuous_pieces(sys, identity, None, horizon)
        z = build_fundamental_continuous(sys, horizon)
        assert max(rel for _, rel in oracle.window_gaps(pieces, z, horizon)) <= bound

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
        q = build_q_table(sys.a0, sys.a1, windows)
        exact_q = [[[Fraction(x) for x in row] for row in mat] for mat in q]
        for u in (2, 13, 24, 25):
            got = z.pieces[u]
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
            q = build_q_table(sys.a0, sys.a1, u)
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
            q = build_q_table(sys.a0, sys.a1, u)
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

    def test_rejects_continuous_systems(self, ex1_system):
        with pytest.raises(ValueError):
            DiscreteFundamental(ex1_system)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_equals_stacked_values(self, m):
        rng = np.random.default_rng(30 + m)
        for d in (3, 4, 8, 32):
            sys = DelaySystem(
                a0=rng.uniform(-1.0, 1.0, size=(d, d)),
                a1=rng.uniform(-1.0, 1.0, size=(d, d)),
                delay=m,
                kind="discrete",
            )
            fund = DiscreteFundamental(sys)
            lo, hi = -m - 3, 40
            table = fund.table(lo, hi)
            assert table.shape == (hi - lo + 1, d, d)
            np.testing.assert_array_equal(
                table, np.stack([fund.value(u) for u in range(lo, hi + 1)]),
                err_msg=f"d={d}",
            )
            for cut in ((lo, -m - 1), (-m, 0), (1, 1), (-1, 7), (5, 40)):
                np.testing.assert_array_equal(
                    fund.table(*cut),
                    table[cut[0] - lo : cut[1] - lo + 1],
                    err_msg=f"d={d}, table{cut}",
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

    def test_float_overflow_of_the_binomials_refuses(self, ex2_system):
        # the binomial sum Z(u) = sum_r C(u - (r - 1), r) q[r] of the second
        # worked example, exact in integers, first leaves the float range
        # (2**1024 - 2**970 is the smallest integer that rounds to inf) at
        # u = 1017; the refusal names that row whichever later row was
        # asked for
        a0, a1 = ex2_system.a0.astype(int), ex2_system.a1.astype(int)
        z = [np.eye(2, dtype=int).astype(object)] * 2
        while np.abs(z[-1]).max() < 2**1024 - 2**970:
            z.append(z[-1] + a0 @ z[-2] + z[-2] @ a1)
        first = len(z) - 2
        assert first == 1017
        fund = DiscreteFundamental(ex2_system)
        assert np.all(np.isfinite(fund.value(first - 1)))
        with pytest.raises(DegreeCapExceeded, match=rf"u = {first} with delay m = 1"):
            fund.value(first + 100)
        with pytest.raises(DegreeCapExceeded, match=rf"u = {first} with delay m = 1"):
            fund.table(-2, first + 100)

    def test_a_cancelling_sum_keeps_its_digits(self):
        # Z(u) of this scalar system decays far faster than the terms of
        # the sum started at 0, so that sum cancels (it had no correct
        # digit left by u = 100); the restarted sum holds every window to
        # the exact recursion of the same floats
        a0, a1, m = -0.1032, -0.1382, 2
        sys = DelaySystem(
            a0=np.array([[a0]]), a1=np.array([[a1]]), delay=m, kind="discrete"
        )
        z = DiscreteFundamental(sys).table(1, 600)[:, 0, 0]
        c = Fraction(a0) + Fraction(a1)
        exact = [Fraction(1)] * (m + 1)
        for _ in range(600):
            exact.append(exact[-1] + c * exact[-1 - m])
        exact = exact[m + 1 :]
        for a in range(0, 600, m + 1):
            window = range(a, min(a + m + 1, 600))
            gap = max(abs(Fraction(z[k]) - exact[k]) for k in window)
            size = max(abs(exact[k]) for k in window)
            assert gap <= Fraction(1, 10**12) * size, f"u = {a + 1}"

    @pytest.mark.parametrize("m, top", [(1, 1481), (2, 1400), (3, 1400)])
    def test_float_binomials_keep_the_precision_of_exact_ones(self, m, top):
        # Z(u) = sum_r C(u - (r - 1) m, r) a**r I with a the float 0.1, up
        # to where the binomials alone would leave the float range: they
        # pass 2**53 long before u = top, and the repeated sums carry them
        # times a**r, with a rounding of their own at every r
        sys = DelaySystem(
            a0=0.1 * np.eye(2), a1=np.zeros((2, 2)), delay=m, kind="discrete"
        )
        z = DiscreteFundamental(sys).table(1, top)
        num, den = sys.a0[0, 0].as_integer_ratio()
        eps = np.finfo(float).eps
        for u in [*range(1, top, 37), top]:
            depth = -(-u // (m + 1))
            exact = Fraction(sum(
                math.comb(u - (r - 1) * m, r) * num**r * den ** (depth - r)
                for r in range(depth + 1)
            ), den**depth)
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
            direct = fundamental_commutative_discrete(sys, u)
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
            fundamental_commutative_discrete(noncomm, 3)

    def test_vanishing_right_coefficient_discrete_corollary(self):
        # with A1 = 0 the closed form collapses to a binomial sum in
        # powers of A0 alone; integer entries make every product exact
        a0 = np.array([[1.0, 1.0], [0.0, 2.0]])
        m = 1
        sys = DelaySystem(a0=a0, a1=np.zeros((2, 2)), delay=m, kind="discrete")
        fund = DiscreteFundamental(sys)
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
            lead = piece[-1] * math.factorial(u)
            np.testing.assert_allclose(lead, q[u], atol=1e-12)
