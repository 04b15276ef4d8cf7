"""Brute-force reference integrators: worked-example agreement, 4th-order
convergence, the vectorized sweep end to end, and the literal discrete
recursion."""

from __future__ import annotations

import numpy as np
import pytest

from delaymat import (
    DelaySystem,
    DiscreteFundamental,
    ForcingSpec,
    HistorySpec,
    IntegratorConfig,
    fixtures,
    integrate_continuous,
    solve_continuous,
    solve_discrete,
    step_discrete,
)
from delaymat.generators import (
    random_discrete_scalar_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import max_abs
from delaymat.ppoly import MatrixPolynomial, PiecewiseMatrixPolynomial


class TestContinuousIntegrator:
    def test_worked_example_midwindow_value(
        self, ex1_system, ex1_history, ex1_forcing
    ):
        table = integrate_continuous(
            ex1_system, ex1_history, ex1_forcing, 1.0
        )
        np.testing.assert_allclose(
            table.at_time(0.5), [[0.125, -0.375], [0.0, -0.25]], atol=1e-8
        )

    def test_agrees_with_the_closed_form_downstream(
        self, ex1_system, ex1_history, ex1_forcing
    ):
        table = integrate_continuous(
            ex1_system, ex1_history, ex1_forcing, 2.0
        )
        x = solve_continuous(ex1_system, ex1_history, ex1_forcing, 2.0)
        np.testing.assert_allclose(
            table.at_time(1.5), x.eval(1.5), atol=1e-8
        )

    def test_dense_output_grid(self, ex1_system, ex1_history):
        config = IntegratorConfig(substeps_per_delay=32)
        table = integrate_continuous(ex1_system, ex1_history, None, 2.0, config)
        assert table.times[0] == -1.0
        assert table.times[-1] == pytest.approx(2.0)
        assert len(table.times) == 3 * 32 + 1
        np.testing.assert_allclose(np.diff(table.times), 1.0 / 32, atol=1e-12)

    @pytest.mark.parametrize("horizon", [2.0, 2.5, 2.0 + 1e-10])
    def test_output_is_a_view_of_the_kept_prefix(
        self, monkeypatch, ex1_system, ex1_history, ex1_forcing, horizon
    ):
        # the rows kept are those of the old mask grid <= horizon (+ slack),
        # returned as views of the sweep's state stack instead of copies
        from delaymat import _kernels

        swept = []
        sweep = _kernels.sweep
        monkeypatch.setattr(
            _kernels, "sweep", lambda *a: swept.append(sweep(*a)) or swept[-1]
        )
        config = IntegratorConfig(substeps_per_delay=16)
        table = integrate_continuous(
            ex1_system, ex1_history, ex1_forcing, horizon, config
        )
        grid = -1.0 + np.arange(swept[0].shape[0]) / 16
        keep = grid <= horizon + 1e-9
        np.testing.assert_array_equal(table.values, swept[0][keep])
        np.testing.assert_array_equal(table.times, grid[keep])
        assert np.shares_memory(table.values, swept[0])

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(902)
        sys = random_system(rng, 3, "continuous", entry_scale=0.6)
        hist = random_scalar_history(rng, sys)
        exact = solve_continuous(sys, hist, None, 5.0)

        def err(n):
            table = integrate_continuous(
                sys, hist, None, 5.0, IntegratorConfig(substeps_per_delay=n)
            )
            return max_abs(table.at_time(4.5) - exact.eval(4.5))

        e32, e64, e128 = err(32), err(64), err(128)
        assert e32 > 1e-12, "coarse error too small to measure a rate"
        assert 10.0 <= e32 / e64 <= 24.0, (e32, e64)
        assert 10.0 <= e64 / e128 <= 24.0, (e64, e128)

    def test_forcing_jump_on_a_grid_node_costs_no_accuracy(self):
        # piecewise-constant forcing with a jump halfway through the
        # horizon: the integrator must close the substep ending at the
        # jump with the left limit, not the new value
        rng = np.random.default_rng(903)
        sys = random_system(rng, 2, "continuous", entry_scale=0.5)
        hist = random_scalar_history(rng, sys)
        eye = np.eye(2)
        force = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 2.5, 5.0],
                [
                    MatrixPolynomial.constant(1.0 * eye),
                    MatrixPolynomial.constant(-1.0 * eye),
                ],
                right_extension=True,
            )
        )
        exact = solve_continuous(sys, hist, force, 5.0)
        table = integrate_continuous(sys, hist, force, 5.0)
        diff = max_abs(table.values - exact.eval(table.times))
        assert diff <= 1e-6, f"max |closed form - integrator| = {diff:.3e}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_closed_form_on_random_commuting_data(self, seed):
        rng = np.random.default_rng(910 + seed)
        sys = random_system(rng, 2, "continuous", entry_scale=0.5)
        hist = random_scalar_history(rng, sys)
        force = random_scalar_forcing(rng, sys, 5.0)
        exact = solve_continuous(sys, hist, force, 5.0)
        table = integrate_continuous(sys, hist, force, 5.0)
        diff = max_abs(table.values - exact.eval(table.times))
        assert diff <= 1e-6, f"max |closed form - integrator| = {diff:.3e}"

    def test_domain_and_kind_validation(
        self, ex1_system, ex2_system, ex1_history, ex1_forcing
    ):
        with pytest.raises(ValueError):
            integrate_continuous(ex2_system, ex1_history, None, 2.0)
        with pytest.raises(ValueError):
            integrate_continuous(ex1_system, ex1_history, None, -1.0)
        short_hist = HistorySpec.from_ppoly(
            PiecewiseMatrixPolynomial([-0.25, 0.0], [MatrixPolynomial.zero(2)])
        )
        with pytest.raises(ValueError):
            integrate_continuous(ex1_system, short_hist, None, 1.0)
        short_force = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial([0.0, 0.5], [MatrixPolynomial.zero(2)])
        )
        with pytest.raises(ValueError):
            integrate_continuous(ex1_system, ex1_history, short_force, 2.0)

    def test_substep_floor(self):
        with pytest.raises(ValueError):
            IntegratorConfig(substeps_per_delay=8)
        IntegratorConfig(substeps_per_delay=16)  # the floor itself is fine


class TestDiscreteRecursion:
    def test_worked_example_values(self, ex2_system, ex2_history, ex2_forcing):
        table = step_discrete(ex2_system, ex2_history, ex2_forcing, 6)
        np.testing.assert_array_equal(
            table.at_time(1), [[0.0, -1.0], [0.0, -1.0]]
        )
        np.testing.assert_array_equal(
            table.at_time(3), [[2.0, -4.0], [0.0, -1.0]]
        )
        np.testing.assert_array_equal(
            table.at_time(6), [[12.0, -27.0], [0.0, 0.0]]
        )

    def test_full_table_matches_the_closed_form_exactly(
        self, ex2_system, ex2_history, ex2_forcing
    ):
        recursion = step_discrete(ex2_system, ex2_history, ex2_forcing, 6)
        closed = solve_discrete(ex2_system, ex2_history, ex2_forcing, 6)
        np.testing.assert_array_equal(recursion.values, closed.values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_agreement_long_horizon(self, seed):
        rng = np.random.default_rng(920 + seed)
        d = int(rng.integers(2, 5))
        sys = random_system(rng, d, "discrete", entry_scale=0.08 / d)
        hist, force = random_discrete_scalar_data(rng, sys, 40)
        recursion = step_discrete(sys, hist, force, 40)
        closed = solve_discrete(sys, hist, force, 40)
        assert max_abs(recursion.values - closed.values) <= 1e-9

    def test_reproduces_the_fundamental_solution_exactly(self):
        # identity history, no forcing: the recursion must walk straight
        # down the fundamental solution; integer entries keep both
        # routes exact, so equality is bitwise
        rng = np.random.default_rng(931)
        for _ in range(5):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            sys = DelaySystem(
                a0=rng.integers(-2, 3, size=(d, d)).astype(float),
                a1=rng.integers(-2, 3, size=(d, d)).astype(float),
                delay=m,
                kind="discrete",
            )
            hist = HistorySpec.from_values(
                np.broadcast_to(np.eye(d), (m + 1, d, d)).copy()
            )
            table = step_discrete(sys, hist, None, 12)
            fund = DiscreteFundamental(sys)
            for u in range(-m, 13):
                np.testing.assert_array_equal(
                    table.at_time(u), fund.value(u), err_msg=f"u={u}"
                )

    def test_shape_validation(self, ex2_system, ex1_system, ex2_history):
        with pytest.raises(ValueError):
            step_discrete(ex1_system, ex2_history, None, 3)
        with pytest.raises(ValueError):
            step_discrete(ex2_system, np.zeros((5, 2, 2)), None, 3)
        with pytest.raises(ValueError):
            step_discrete(ex2_system, ex2_history, np.zeros((1, 2, 2)), 3)
        with pytest.raises(ValueError):
            step_discrete(ex2_system, ex2_history, None, -2)


def random_ppoly(rng, d, lo, hi):
    """General (non-commuting) two-piece matrix data on ``[lo, hi]``."""
    pieces = [
        MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(3, d, d))) for _ in range(2)
    ]
    return PiecewiseMatrixPolynomial(np.linspace(lo, hi, 3), pieces)


def reference_integrate(sys, psi, g, horizon, n):
    """The sweep as it was before it went window-at-a-time: forcing on
    full-horizon arrays, ``f_lo + 4 f_mid + f_hi`` increments and
    ``np.cumsum``.  Returns the whole state stack and its grid."""
    sigma = sys.sigma
    windows = max(1, int(np.ceil(horizon / sigma - 1e-12)))
    h = sigma / n
    d = sys.dim
    grid = -sigma + h * np.arange((windows + 1) * n + 1)
    hist = psi.eval(grid[: n + 1])
    hist_mid = psi.eval(grid[:n] + 0.5 * h)
    if g is None:
        g_grid = np.zeros((windows * n + 1, d, d))
        g_mid = np.zeros((windows * n, d, d))
        g_end = np.zeros((windows * n, d, d))
    else:
        g_grid = g.eval(grid[n:])
        g_mid = g.eval(grid[n:-1] + 0.5 * h)
        g_end = g.eval_left(grid[n + 1 :])

    def midpoints(y):
        mid = np.empty((y.shape[0] - 1,) + y.shape[1:])
        mid[1:-1] = (-y[:-3] + 9.0 * y[1:-2] + 9.0 * y[2:-1] - y[3:]) / 16.0
        mid[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
        mid[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0
        return mid

    a0, a1 = sys.a0, sys.a1
    x = np.zeros(((windows + 1) * n + 1, d, d))
    x[: n + 1] = hist
    for k in range(windows):
        base = (k + 1) * n
        xd = x[k * n : (k + 1) * n + 1]
        xd_mid = hist_mid if k == 0 else midpoints(xd)
        fx = a0 @ xd + xd @ a1
        f_mid = a0 @ xd_mid + xd_mid @ a1 + g_mid[k * n : (k + 1) * n]
        f_lo = fx[:-1] + g_grid[k * n : (k + 1) * n]
        f_hi = fx[1:] + g_end[k * n : (k + 1) * n]
        inc = (h / 6.0) * (f_lo + 4.0 * f_mid + f_hi)
        x[base + 1 : base + n + 1] = x[base] + np.cumsum(inc, axis=0)
    return grid, x


class TestSweepAgainstReference:
    """The window-at-a-time sweep against the full-horizon reference
    above: same grid, and per delay window the same values to within
    8 eps of the window's magnitude (only the half-grid stencil sums in
    another order)."""

    @pytest.mark.parametrize("jump", [False, True])
    @pytest.mark.parametrize("windows", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("d", [1, 3, 8, 32])
    def test_matches_the_reference_sweep(self, d, n, windows, jump):
        rng = np.random.default_rng([950, d, n, windows, int(jump)])
        sys = random_system(rng, d, "continuous", sigma=0.75, entry_scale=1.0 / d)
        psi = random_ppoly(rng, d, -sys.sigma, 0.0)
        horizon = windows * sys.sigma
        g = None
        if jump:
            # general matrix pieces that jump on grid node n / 2 of the
            # last window
            knot = (windows - 0.5) * sys.sigma
            g = PiecewiseMatrixPolynomial(
                [0.0, knot, horizon],
                [
                    MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(3, d, d))),
                    MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(2, d, d))),
                ],
            )
        table = integrate_continuous(
            sys, psi, g, horizon, IntegratorConfig(substeps_per_delay=n)
        )
        grid, ref = reference_integrate(sys, psi, g, horizon, n)
        np.testing.assert_array_equal(table.times, grid)
        eps = np.finfo(float).eps
        for k in range(windows + 1):
            rows = slice(k * n, (k + 1) * n + 1)
            scale = max_abs(ref[rows])
            err = max_abs(table.values[rows] - ref[rows])
            assert err <= 8 * eps * scale, f"window {k}: {err / scale:.2e} rel"


class TestNumpySweep:
    """The vectorized numpy sweep, the integrator's only kernel."""

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(940)
        sys = random_system(rng, 3, "continuous", entry_scale=0.5)
        hist = random_scalar_history(rng, sys)
        force = random_scalar_forcing(rng, sys, 3.0)
        return sys, hist, force

    def test_runs_end_to_end(self, problem):
        sys, hist, force = problem
        table = integrate_continuous(
            sys, hist, force, 3.0, IntegratorConfig(substeps_per_delay=64)
        )
        exact = solve_continuous(sys, hist, force, 3.0)
        assert max_abs(table.at_time(2.5) - exact.eval(2.5)) <= 1e-4
