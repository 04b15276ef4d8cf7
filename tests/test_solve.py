"""Closed-form initial value problem solvers: worked-example values,
structural identities, general (noncommuting, jumping) data against the
oracles, the informational commutation report, and agreement between
independent routes to the same solution."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest

from delaymat import (
    DelaySystem,
    ForcingSpec,
    HistorySpec,
    build_fundamental_continuous,
    fixtures,
    integrate_continuous,
    oracle,
    solve_continuous,
    solve_discrete,
    validate_hypotheses,
)
from delaymat.errors import DataMismatch, DegreeCapExceeded
from delaymat.fundamental import BLOCK_WINDOWS
from delaymat.generators import (
    random_discrete_scalar_data,
    random_matrix_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import max_abs
from delaymat.ppoly import PiecewiseMatrixPolynomial
from calculus import antiderivative, differentiate, knot_jumps, value, zero_poly
from exact_arith import solution_sum, stepper


def zero_history(d, sigma):
    return HistorySpec.from_ppoly(
        PiecewiseMatrixPolynomial(
            [-sigma, 0.0], [zero_poly(d)]
        )
    )


def entry_samples(entry, n):
    """``n`` midpoint samples inside a stored entry's segment (knots carry
    the half-open convention, so the samples keep away from them) and
    the entry's polynomial there, evaluated in floats."""
    ts = entry.lo + (entry.hi - entry.lo) * (np.arange(n) + 0.5) / n
    return ts, np.polynomial.polynomial.polyval(ts, [float(c) for c in entry.coeffs])


def integral_from_start(p, t):
    """``\\int_{p.start}^t p``, piece by piece in local coordinates."""
    total = np.zeros((p.dim, p.dim))
    for k, piece in enumerate(p.pieces):
        lo = p.breakpoints[k]
        if t <= lo:
            break
        hi = t if k == len(p.pieces) - 1 else min(t, p.breakpoints[k + 1])
        total += value(antiderivative(piece), hi - lo)
    return total


def oracle_gap(sys, history, forcing, horizon):
    """Largest per-window gap of the continuous solve to the exact
    method-of-steps oracle, relative to ``max(max|oracle|, 1)``."""
    x = solve_continuous(sys, history, forcing, horizon)
    ref = integrate_continuous(sys, history, forcing, horizon)
    got = x.eval(ref.times)
    window = np.floor(ref.times / sys.sigma + 1e-9)
    return max(
        max_abs(got[rows] - ref.values[rows]) / max(max_abs(ref.values[rows]), 1.0)
        for rows in (window == k for k in np.unique(window))
    )


class TestHypothesisCheck:
    def test_scalar_data_passes_exactly(self, ex1_system, ex1_history, ex1_forcing):
        report = validate_hypotheses(ex1_system, ex1_history, ex1_forcing)
        assert report.ok
        assert report.history_residual == 0.0
        assert report.forcing_residual == 0.0
        assert "ok" in report.summary()

    def test_noncommuting_forcing_is_flagged(self, ex1_system, ex1_history):
        bad = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0],
                [[[[0.0, 1.0], [0.0, 0.0]]]],
                right_extension=True,
            )
        )
        report = validate_hypotheses(ex1_system, ex1_history, bad)
        assert not report.ok
        assert report.forcing_residual > 0.1
        assert "VIOLATED" in report.summary()

    def test_solve_matches_the_oracle_on_noncommuting_data(
        self, ex1_system, ex1_history
    ):
        bad = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0],
                [[[[0.0, 1.0], [0.0, 0.0]]]],
                right_extension=True,
            )
        )
        assert not validate_hypotheses(ex1_system, ex1_history, bad).ok
        assert oracle_gap(ex1_system, ex1_history, bad, 2.0) <= 1e-10

    def test_tolerance_is_adjustable(self, ex1_system, ex1_history):
        slightly_off = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0],
                [[[[1.0, 1e-8], [0.0, 1.0]]]],
                right_extension=True,
            )
        )
        assert not validate_hypotheses(
            ex1_system, ex1_history.ppoly, slightly_off
        ).ok
        assert validate_hypotheses(
            ex1_system, ex1_history.ppoly, slightly_off, tol=1e-6
        ).ok
        assert oracle_gap(ex1_system, ex1_history, slightly_off, 1.0) <= 1e-10

    def test_history_is_checked_on_the_delay_window_only(self, ex1_system):
        # C^1 history on [-2, 0]: below -sigma = -1 it is I + N (t + 1)^2
        # with N not commuting with A1, on [-1, 0] it is I
        eye = np.eye(2)
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        hist = HistorySpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [-2.0, -1.0, 0.0],
                [
                    np.stack([eye + nil, -2.0 * nil, nil]),
                    eye[None],
                ],
            )
        )
        report = validate_hypotheses(ex1_system, hist)
        assert report.ok
        assert report.history_residual == 0.0

    def test_noncommuting_quadratic_coefficient_is_flagged(
        self, ex1_system, ex1_history
    ):
        # G(t) = I + t I + t^2 N: only the t^2 coefficient fails to commute
        eye = np.eye(2)
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        bad = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0], [np.stack([eye, eye, nil])]
            )
        )
        report = validate_hypotheses(ex1_system, ex1_history, bad)
        assert not report.ok
        assert report.history_residual == 0.0
        assert report.forcing_residual == 1.0


class TestContinuousWorkedExample:
    @pytest.fixture
    def x1(self, ex1_system, ex1_history, ex1_forcing):
        return solve_continuous(ex1_system, ex1_history, ex1_forcing, 3.0)

    def test_midwindow_value(self, x1):
        np.testing.assert_allclose(
            x1.eval(0.5), [[0.125, -0.375], [0.0, -0.25]], atol=1e-12
        )

    def test_second_window_value(self, x1):
        assert x1.eval(1.5)[0, 0] == pytest.approx(49.0 / 48.0, abs=1e-12)

    def test_all_segment_displays(self, x1):
        for entry in fixtures.EXAMPLE1_X_ENTRIES:
            ts, want = entry_samples(entry, 25)
            got = x1.eval(ts)[:, entry.row, entry.col]
            assert max_abs(got - want) <= 1e-11, entry.label("X")

    def test_reproduces_the_history(self, x1, ex1_history):
        ts = np.linspace(-1.0, -1e-9, 50)
        assert max_abs(x1.eval(ts) - ex1_history.ppoly.eval(ts)) <= 1e-12

    def test_continuous_at_zero(self, x1):
        assert max_abs(x1.eval(1e-12) - x1.eval(-1e-12)) <= 1e-9

    def test_alternative_route_via_the_fundamental_solution(
        self, ex1_system, x1
    ):
        # for this particular data the solution reduces to
        # X(t) = -Z(t) + int_{-sigma}^{t} Z(v) dv
        z = build_fundamental_continuous(ex1_system, 3.0)
        for t in np.linspace(-0.9, 2.9, 39):
            alt = -z.eval(t) + integral_from_start(z, t)
            assert max_abs(x1.eval(t) - alt) <= 1e-11, f"t={t}"


class TestContinuousStructure:
    def test_zero_data_gives_zero_solution(self, ex1_system):
        x = solve_continuous(ex1_system, zero_history(2, 1.0), None, 2.0)
        ts = np.linspace(-1.0, 1.999, 60)
        assert max_abs(x.eval(ts)) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_superposition(self, seed):
        rng = np.random.default_rng(500 + seed)
        sys = random_system(rng, 2, "continuous")
        hist = random_scalar_history(rng, sys)
        force = random_scalar_forcing(rng, sys, 3.0)
        full = solve_continuous(sys, hist, force, 3.0)
        hist_only = solve_continuous(sys, hist, None, 3.0)
        force_only = solve_continuous(sys, zero_history(2, 1.0), force, 3.0)
        ts = np.linspace(-1.0, 2.999, 77)
        combined = hist_only.eval(ts) + force_only.eval(ts)
        assert max_abs(full.eval(ts) - combined) <= 1e-9

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_defining_equation_residual(self, seed):
        rng = np.random.default_rng(600 + seed)
        d = int(rng.integers(2, 5))
        sys = random_system(rng, d, "continuous")
        hist = random_scalar_history(rng, sys)
        force = random_scalar_forcing(rng, sys, 3.0)
        x = solve_continuous(sys, hist, force, 3.0)
        rate = differentiate(x)
        knots = np.concatenate(
            [x.breakpoints, hist.ppoly.breakpoints, force.ppoly.breakpoints]
        )
        ts = np.linspace(-0.97, 2.97, 211)
        ts = ts[np.min(np.abs(ts[:, None] - knots[None, :]), axis=1) > 1e-3]
        delayed = x.eval(ts - sys.sigma)
        rhs = sys.a0 @ delayed + delayed @ sys.a1 + force.ppoly.eval(ts)
        mask = ts >= 0  # the equation constrains t >= 0 only
        resid = max_abs(rate.eval(ts)[mask] - rhs[mask])
        assert resid <= 1e-8 * max(1.0, max_abs(rhs[mask]))

    def test_domain_validation(self, ex1_system, ex1_history, ex1_forcing):
        short_hist = HistorySpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [-0.5, 0.0], [zero_poly(2)]
            )
        )
        with pytest.raises(ValueError):
            solve_continuous(ex1_system, short_hist, None, 1.0)
        short_force = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 1.0], [zero_poly(2)], right_extension=False
            )
        )
        with pytest.raises(ValueError):
            solve_continuous(ex1_system, ex1_history, short_force, 2.0)
        with pytest.raises(ValueError):
            solve_continuous(ex1_system, ex1_history, ex1_forcing, -1.0)
        with pytest.raises(ValueError):
            solve_continuous(fixtures.example2_system(), ex1_history, None, 1.0)


class TestDiscreteWorkedExample:
    @pytest.fixture
    def x2(self, ex2_system, ex2_history, ex2_forcing):
        return solve_discrete(ex2_system, ex2_history, ex2_forcing, 6)

    def test_table_values_are_exact(self, x2):
        for entry in fixtures.EXAMPLE2_X_TABLE:
            np.testing.assert_array_equal(
                x2.at_time(entry.u), entry.value, err_msg=f"X({entry.u})"
            )

    def test_rows_and_times(self, x2):
        np.testing.assert_array_equal(x2.times, np.arange(-1.0, 7.0))
        assert x2.values.shape == (8, 2, 2)

    def test_reproduces_the_history(self, x2, ex2_history):
        np.testing.assert_array_equal(x2.at_time(-1), ex2_history.values[0])
        np.testing.assert_array_equal(x2.at_time(0), ex2_history.values[1])


class TestDiscreteStructure:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_defining_recursion_residual(self, seed):
        rng = np.random.default_rng(700 + seed)
        d = int(rng.integers(2, 5))
        sys = random_system(rng, d, "discrete", entry_scale=0.5)
        hist, force = random_discrete_scalar_data(rng, sys, 20)
        x = solve_discrete(sys, hist, force, 20)
        g = force.values[:20]
        m = sys.m
        for u in range(20):
            lhs = x.at_time(u + 1) - x.at_time(u)
            delayed = x.at_time(u - m)
            rhs = sys.a0 @ delayed + delayed @ sys.a1 + g[u]
            scale = max(1.0, max_abs(rhs))
            assert max_abs(lhs - rhs) <= 1e-10 * scale, f"u={u}"

    def test_superposition(self, ex2_system, ex2_history, ex2_forcing):
        full = solve_discrete(ex2_system, ex2_history, ex2_forcing, 6)
        hist_only = solve_discrete(ex2_system, ex2_history, None, 6)
        zero_hist = HistorySpec.from_values(np.zeros((2, 2, 2)))
        force_only = solve_discrete(ex2_system, zero_hist, ex2_forcing, 6)
        np.testing.assert_array_equal(
            full.values, hist_only.values + force_only.values
        )

    def test_zero_steps_returns_the_history_rows(self, ex2_system, ex2_history):
        x = solve_discrete(ex2_system, ex2_history, None, 0)
        np.testing.assert_array_equal(x.times, [-1.0, 0.0])
        np.testing.assert_array_equal(x.values, ex2_history.values)

    def test_shape_validation(self, ex2_system, ex1_history):
        with pytest.raises(ValueError):
            solve_discrete(ex2_system, np.zeros((3, 2, 2)), None, 4)
        with pytest.raises(ValueError):
            solve_discrete(ex2_system, ex1_history, None, 4)
        with pytest.raises(ValueError):
            solve_discrete(ex2_system, np.zeros((2, 2, 2)), None, -1)

    @pytest.mark.parametrize("forced", [False, True])
    def test_rows_past_the_float_range_refuse(self, forced, ex2_system, ex2_history):
        # the exact integer solution leaves the float range (2**1024 -
        # 2**970 is the smallest integer that rounds to inf) at u = 1018
        # without forcing and at 1026 with G = I; the refusal may come
        # earlier, where a partial sum overflows, but never later
        a0, a1 = ex2_system.a0.astype(int), ex2_system.a1.astype(int)
        g = int(forced) * np.eye(2, dtype=int)
        x = [ex2_history.values[k].astype(int).astype(object) for k in range(2)]
        while np.abs(x[-1]).max() < 2**1024 - 2**970:
            x.append(x[-1] + a0 @ x[-2] + x[-2] @ a1 + g)
        first = len(x) - 2
        assert first == (1026 if forced else 1018)
        forcing = np.tile(np.eye(2), (1100, 1, 1)) if forced else None
        with pytest.raises(DegreeCapExceeded, match=r"X\(u\) at u = (\d+) ") as err:
            solve_discrete(ex2_system, ex2_history, forcing, 1100)
        u = int(re.search(r"u = (\d+)", str(err.value)).group(1))
        assert (u <= first) if forced else (u == first)


class TestDataThatDoesNotFit:
    """``continuous_data`` and ``discrete_data`` refuse data that does not
    fit, with :class:`DataMismatch`, for the solvers and the oracles alike,
    whether the data is wrapped in a spec or bare."""

    DISCRETE = [solve_discrete, oracle.step_discrete]
    CONTINUOUS = [solve_continuous, oracle.continuous_pieces]

    @pytest.mark.parametrize("run", DISCRETE)
    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("role", ["history", "forcing"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_discrete_data(
        self, run, wrap, role, bad, ex2_system, ex2_history, ex2_forcing
    ):
        hist, g = ex2_history.values.copy(), ex2_forcing.values.copy()
        if role == "history":
            hist[0, 1, 0] = bad
        else:
            g[3, 0, 0] = bad
        if wrap:
            hist, g = HistorySpec.from_values(hist), ForcingSpec.from_values(g)
        where = "u = -1" if role == "history" else "u = 3"
        msg = f"^{role} holds a non-finite entry at {where}$"
        with pytest.raises(DataMismatch, match=msg):
            run(ex2_system, hist, g, 6)

    @pytest.mark.parametrize("run", DISCRETE)
    def test_non_finite_forcing_past_the_horizon_is_not_read(
        self, run, ex2_system, ex2_history, ex2_forcing
    ):
        g = ex2_forcing.values.copy()
        g[5] = np.nan
        got = run(ex2_system, ex2_history, g, 5)
        want = solve_discrete(ex2_system, ex2_history, ex2_forcing, 5)
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("run", DISCRETE)
    @pytest.mark.parametrize("role", ["history", "forcing"])
    def test_a_piecewise_polynomial_for_a_discrete_system(
        self, run, role, ex2_system, ex2_history, ex1_history
    ):
        data = {"history": ex2_history, "forcing": None}
        data[role] = ex1_history.ppoly
        with pytest.raises(DataMismatch, match=f"^{role} is PiecewiseMatrixPolynomial; "
                           "a discrete system takes a table of matrices$"):
            run(ex2_system, data["history"], data["forcing"], 4)

    @pytest.mark.parametrize("run", CONTINUOUS)
    @pytest.mark.parametrize("role", ["history", "forcing"])
    def test_an_array_for_a_continuous_system(
        self, run, role, ex1_system, ex1_history, ex2_history
    ):
        data = {"history": ex1_history, "forcing": None}
        data[role] = ex2_history.values
        with pytest.raises(DataMismatch, match=f"^{role} is ndarray; "
                           "a continuous system takes a piecewise polynomial$"):
            run(ex1_system, data["history"], data["forcing"], 2.0)

    @pytest.mark.parametrize("run", DISCRETE)
    def test_a_short_forcing_gets_one_message(
        self, run, ex2_system, ex2_history, ex2_forcing
    ):
        short = ex2_forcing.values[:3]
        messages = set()
        for g in (short, ForcingSpec.from_values(short), short.tolist()):
            with pytest.raises(DataMismatch) as err:
                run(ex2_system, ex2_history, g, 5)
            messages.add(str(err.value))
        assert messages == {
            "forcing must hold at least 5 2x2 matrices for u = 0 .. 4, "
            "got shape (3, 2, 2)"
        }

    @pytest.mark.parametrize("run", DISCRETE)
    def test_a_history_of_the_wrong_length_names_its_rows(
        self, run, ex2_system, ex2_history
    ):
        long = np.concatenate([ex2_history.values, ex2_history.values[:1]])
        for hist in (long, HistorySpec.from_values(long)):
            with pytest.raises(DataMismatch, match=re.escape(
                "history must hold 2 2x2 matrices for u = -1 .. 0, got shape (3, 2, 2)"
            )):
                run(ex2_system, hist, None, 4)

    @pytest.mark.parametrize("run", DISCRETE)
    @pytest.mark.parametrize("hist, msg", [
        ([np.eye(2), np.eye(3)], "history is not a table of numbers"),
        ([[["a", "b"], ["c", "d"]]] * 2, "history is not a table of numbers"),
        (np.zeros((2, 3, 3)), re.escape(
            "history must hold 2 2x2 matrices for u = -1 .. 0, got shape (2, 3, 3)"
        )),
    ])
    def test_a_history_that_is_not_a_stack_of_d_by_d_matrices(
        self, run, hist, msg, ex2_system
    ):
        with pytest.raises(DataMismatch, match=f"^{msg}$"):
            run(ex2_system, hist, None, 4)


def exact_double_loop(sys, hist, g):
    """``sum_r Theta_r(u - r (m + 1))`` over ``r`` and ``u`` in exact
    arithmetic on the float coefficients and data, rounded once, and each
    row's scale: the largest entry of the same sum run on ``|A0|``,
    ``|A1|`` and ``|Theta_0|``.  ``Theta_0`` is the history, then
    ``Psi(0) + G(0) + .. + G(u - 1)``."""
    want, terms = solution_sum(sys.a0, sys.a1, hist, g, sys.m)
    return want, terms.max(axis=(1, 2))


def solve_general_data(sys, hist, g, kind, n_steps):
    """Solve with matrix (not scalar) data, the forcing given as
    ``kind``: none, a bare array, or a function of ``u`` that the caller
    tabulates into a :class:`ForcingSpec`."""
    forcing = {
        "none": None,
        "array": g,
        "callable": ForcingSpec.from_values(
            np.array([g[u] for u in range(n_steps)]).reshape(g.shape)
        ),
    }[kind]
    table = solve_discrete(sys, hist, forcing, n_steps)
    return table.values, (np.zeros_like(g) if kind == "none" else g)


class TestDiscreteConvolution:
    """The repeated-sum kernel on general data against the exact sum and
    the exact recursion."""

    @pytest.mark.parametrize("kind", ["none", "array", "callable"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_the_double_loop(self, d, m, kind):
        # the exact sum can cancel, so each row is held to the rounding
        # the kernel's terms allow, not to the size of the row
        eps = np.finfo(float).eps
        rng = np.random.default_rng([d, m])
        sys = random_system(rng, d, "discrete", m=m, entry_scale=1.0 / d)
        for n_steps in (0, 1, m, m + 1, 60):
            hist = rng.uniform(-1.0, 1.0, size=(m + 1, d, d))
            g = rng.uniform(-1.0, 1.0, size=(n_steps, d, d))
            got, g = solve_general_data(sys, hist, g, kind, n_steps)
            want, scale = exact_double_loop(sys, hist, g)
            assert got.shape == want.shape
            gap = np.abs(got - want).max(axis=(1, 2))
            worst = int(np.argmax(gap / scale))
            assert np.all(gap <= 8 * eps * scale), (
                f"N={n_steps}, u={worst - m}: {gap[worst]:.3e} against "
                f"scale {scale[worst]:.3e}"
            )

    @pytest.mark.parametrize("kind", ["none", "array", "callable"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_integer_systems_match_exactly(self, m, kind):
        rng = np.random.default_rng(90 + m)
        for d in (1, 2, 3, 4):
            sys = DelaySystem(
                a0=rng.integers(-1, 2, size=(d, d)).astype(float),
                a1=rng.integers(-1, 2, size=(d, d)).astype(float),
                delay=m,
                kind="discrete",
            )
            # past three blocks of the kernel's restarted sum
            for n_steps in (0, 1, m, m + 1, 16, 3 * BLOCK_WINDOWS * (m + 1) + 1):
                hist = rng.integers(-3, 4, size=(m + 1, d, d)).astype(float)
                g = rng.integers(-3, 4, size=(n_steps, d, d)).astype(float)
                got, g = solve_general_data(sys, hist, g, kind, n_steps)
                np.testing.assert_array_equal(
                    got, stepper(sys.a0, sys.a1, hist, g, m),
                    err_msg=f"d={d}, N={n_steps}",
                )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_block_seams_keep_the_exact_recursion(self, m):
        # the disc-long shape (d = 4, coefficients of size 1 / d, general
        # data): no steps, exactly one block of the restarted sum, one
        # block and a row, and a long run, held per delay window to the
        # size of the exact solution there
        block = BLOCK_WINDOWS * (m + 1)
        rng = np.random.default_rng(830 + m)
        sys = random_system(rng, 4, "discrete", m=m, entry_scale=0.25)
        for n_steps in (0, block, block + 1, 130):
            history, forcing = random_matrix_data(rng, sys, n_steps)
            got = solve_discrete(sys, history, forcing, n_steps).values
            want = stepper(sys.a0, sys.a1, history.values, forcing.values, m)
            assert got.shape == want.shape
            for a in range(0, n_steps + m + 1, m + 1):
                gap = max_abs(got[a : a + m + 1] - want[a : a + m + 1])
                size = max_abs(want[a : a + m + 1])
                assert gap <= 1e-12 * size, (n_steps, a - m, gap / size)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 4, 8, 32])
    def test_a_row_has_the_same_bits_whatever_the_horizon(self, d, m):
        rng = np.random.default_rng([840, d, m])
        sys = random_system(rng, d, "discrete", m=m, entry_scale=1.0 / d)
        history, forcing = random_matrix_data(rng, sys, 200)
        full = solve_discrete(sys, history, forcing, 200).values
        block = BLOCK_WINDOWS * (m + 1)
        for n_steps in (1, m, m + 1, block, block + 1, 37, 123, 199):
            got = solve_discrete(sys, history, forcing, n_steps).values
            np.testing.assert_array_equal(
                got, full[: n_steps + m + 1], err_msg=f"N={n_steps}"
            )


def jump_problem(d):
    """A continuous system with matrix data that commutes with neither
    coefficient: a history of three cubic pieces that jump at their
    knots, and a forcing of five pieces with random knots."""
    rng = np.random.default_rng([77, d])
    sigma, windows = 0.75, 4
    sys = random_system(rng, d, "continuous", sigma=sigma, entry_scale=1.0 / d)

    def pieces(knots, deg):
        return PiecewiseMatrixPolynomial(knots, [
            rng.uniform(-1.0, 1.0, size=(deg + 1, d, d)) for _ in knots[:-1]
        ])

    history = pieces([-sigma, -0.5, -0.25, 0.0], 3)
    inner = np.sort(rng.uniform(0.0, windows * sigma, size=4))
    forcing = pieces([0.0, *inner, windows * sigma], 2)
    return sys, history, forcing, windows


class TestGeneralContinuousData:
    """Noncommuting data with a jumping history, against the oracle's
    method of steps run in exact ``Fraction`` arithmetic."""

    @pytest.mark.parametrize("d", [2, 8])
    def test_matches_the_exact_method_of_steps(self, d):
        sys, history, forcing, windows = jump_problem(d)
        assert knot_jumps(history).min() > 1e-3
        assert not validate_hypotheses(sys, history, forcing).ok
        x = solve_continuous(sys, history, forcing, windows * sys.sigma)

        frac = np.vectorize(Fraction, otypes=[object])

        def data(p):
            knots, coeffs, left = oracle._data(p)
            return [Fraction(b) for b in knots], [frac(c) for c in coeffs], frac(left)

        pieces = oracle._window_pieces(
            frac(sys.a0), frac(sys.a1), Fraction(sys.sigma),
            data(history), data(forcing), windows,
        )
        for w, (knots, coeffs) in enumerate(pieces):
            ts, exact = [], []
            for j, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
                for t in (float(a + (b - a) * s) for s in (0, 0.3, 0.7)):
                    ts.append(t)
                    exact.append(oracle._horner(coeffs[j], Fraction(t) - a))
            exact = np.array(exact, dtype=float)
            gap = max_abs(x.eval(np.array(ts)) - exact)
            assert gap <= 1e-13 * max(max_abs(exact), 1.0), (w, gap)

    def test_a_history_past_zero_starts_from_its_left_limit(self):
        # X(0) is Psi(0-), the piece left of 0 at its width, not the
        # piece that starts at 0
        rng = np.random.default_rng(78)
        sigma = 0.75
        sys = random_system(rng, 2, "continuous", sigma=sigma, entry_scale=0.5)
        left, right = rng.uniform(-1.0, 1.0, size=(2, 3, 2, 2))
        history = PiecewiseMatrixPolynomial([-sigma, 0.0, 1.0], [left, right])
        x = solve_continuous(sys, history, None, 2 * sigma)
        np.testing.assert_array_equal(x.eval(0.0), value(left, sigma))
        assert max_abs(x.eval(0.0) - right[0]) > 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_long_delay_warns_of_no_overflow(self, seed):
        # the forcing piece is 6e5 wide, so its high powers pass the float
        # range although no coefficient of the solution does
        sigma = 1e4
        rng = np.random.default_rng(seed)
        sys = random_system(rng, 2, "continuous", sigma=sigma, entry_scale=0.5 / sigma)
        horizon = 60 * sigma
        cubics = rng.uniform(-1.0, 1.0, (2, 1, 4, 2, 2))
        history = PiecewiseMatrixPolynomial([-sigma, 0.0], cubics[0])
        forcing = PiecewiseMatrixPolynomial([0.0, horizon], cubics[1])
        x = solve_continuous(sys, history, forcing, horizon)
        pieces = oracle.continuous_pieces(sys, history, forcing, horizon)
        assert max(rel for _, rel in oracle.window_gaps(pieces, x, horizon)) <= 1e-10
