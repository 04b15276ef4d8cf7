"""Brute-force reference integrators: worked-example agreement, the
exact method of steps against its own ``Fraction`` run and against a
literal one-interval-at-a-time reference, grid independence, the import
set that keeps the oracle independent, and the literal discrete
recursion."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

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
    oracle,
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

EPS = np.finfo(float).eps


def window_rel_gaps(values, ref, n):
    """``max|values - ref| / max|ref|`` over each delay window of ``n``
    rows (both ends included), for stacks on one oracle grid."""
    return [
        max_abs(values[k * n : (k + 1) * n + 1] - ref[k * n : (k + 1) * n + 1])
        / max_abs(ref[k * n : (k + 1) * n + 1])
        for k in range((ref.shape[0] - 1 + n - 1) // n)
    ]


def closed_form_gap(table, exact, sigma):
    """Largest gap between the oracle table and the closed form over the
    delay windows, relative to ``max(|oracle|, 1)`` per window."""
    index = np.floor(table.times / sigma + 1e-9)
    closed = exact.eval(table.times)
    return max(
        max_abs(closed[index == k] - table.values[index == k])
        / max(max_abs(table.values[index == k]), 1.0)
        for k in np.unique(index)
    )


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
        self, ex1_system, ex1_history, ex1_forcing, horizon
    ):
        # the rows kept are those of the old mask grid <= horizon (+ slack),
        # and the output holds those rows and nothing beyond them
        config = IntegratorConfig(substeps_per_delay=16)
        table = integrate_continuous(
            ex1_system, ex1_history, ex1_forcing, horizon, config
        )
        windows = int(np.ceil(horizon - 1e-12))
        grid = -1.0 + np.arange((windows + 1) * 16 + 1) / 16
        keep = grid <= horizon + 1e-9
        np.testing.assert_array_equal(table.times, grid[keep])
        assert table.values.shape == (int(keep.sum()), 2, 2)
        assert table.values.base is None

    def test_grid_independence(self):
        # the pieces do not depend on the grid: at the times the grids
        # share, n = 16, 64 and 2048 agree to within 4 eps of each
        # window's size (sigma = 0.7 keeps the knots off binary fractions)
        rng = np.random.default_rng(902)
        sys = random_system(rng, 3, "continuous", sigma=0.7, entry_scale=0.6)
        hist = random_scalar_history(rng, sys)
        force = random_scalar_forcing(rng, sys, 3.5)
        tables = {
            n: integrate_continuous(
                sys, hist, force, 3.5, IntegratorConfig(substeps_per_delay=n)
            )
            for n in (16, 64, 2048)
        }
        coarse = tables[16]
        for n in (64, 2048):
            fine = tables[n]
            np.testing.assert_allclose(
                fine.times[:: n // 16], coarse.times, rtol=0, atol=1e-15
            )
            gaps = window_rel_gaps(fine.values[:: n // 16], coarse.values, 16)
            assert max(gaps) <= 4 * EPS, f"n={n}: {max(gaps) / EPS:.1f} eps"

    def test_forcing_jump_on_a_grid_node_costs_no_accuracy(self):
        # piecewise-constant forcing with a jump halfway through the
        # horizon: the jump is a knot of the exact pieces, wherever it
        # falls on the grid
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
        diff = closed_form_gap(table, exact, sys.sigma)
        assert diff <= 1e-10, f"|closed form - integrator| = {diff:.3e} rel"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_closed_form_on_random_commuting_data(self, seed):
        rng = np.random.default_rng(910 + seed)
        sys = random_system(rng, 2, "continuous", entry_scale=0.5)
        hist = random_scalar_history(rng, sys)
        force = random_scalar_forcing(rng, sys, 5.0)
        exact = solve_continuous(sys, hist, force, 5.0)
        table = integrate_continuous(sys, hist, force, 5.0)
        diff = closed_form_gap(table, exact, sys.sigma)
        assert diff <= 1e-10, f"|closed form - integrator| = {diff:.3e} rel"

    def test_right_extended_forcing_may_end_before_the_horizon(self):
        # the last forcing piece extends to the right, so the forcing
        # need not reach the horizon: the oracle takes it as the solver does
        rng = np.random.default_rng(912)
        sys = random_system(rng, 2, "continuous", entry_scale=0.5)
        hist = random_scalar_history(rng, sys)
        eye = np.eye(2)
        force = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 1.0],
                [MatrixPolynomial(np.stack([eye, -0.5 * eye]))],
                right_extension=True,
            )
        )
        exact = solve_continuous(sys, hist, force, 3.0)
        table = integrate_continuous(sys, hist, force, 3.0)
        diff = closed_form_gap(table, exact, sys.sigma)
        assert diff <= 1e-10, f"|closed form - integrator| = {diff:.3e} rel"

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


def padded_sum(*stacks):
    """Sum of coefficient stacks of different lengths."""
    out = np.zeros((max(c.shape[0] for c in stacks),) + stacks[0].shape[1:])
    for c in stacks:
        out[: c.shape[0]] += c
    return out


def reference_integrate(sys, psi, g, horizon, n):
    """A literal method of steps from ppoly's own calculus, one interval
    at a time: each interval's delayed piece is re-expanded with
    ``MatrixPolynomial.shift``, its forcing piece comes from
    ``pieces_in``, the integrand is integrated with ``antiderivative``,
    and each window is evaluated with ``PiecewiseMatrixPolynomial.eval``.
    Returns the oracle's grid and the values on it."""
    sigma = sys.sigma
    windows = max(1, int(np.ceil(horizon / sigma - 1e-12)))
    grid = -sigma + (sigma / n) * np.arange((windows + 1) * n + 1)
    x = np.zeros((grid.size,) + psi.left_value.shape)
    x[:n] = psi.eval(grid[:n])
    prev = psi
    x_start = psi.eval(0.0)
    for k in range(windows):
        lo, hi = k * sigma, (k + 1) * sigma
        delayed = [
            (a + sigma, b + sigma, poly)
            for a, b, poly in prev.pieces_in(lo - sigma, hi - sigma)
        ]
        knots = {lo, hi, *(a for a, _, _ in delayed)}
        if g is not None:
            knots.update(b for b in g.breakpoints if lo < b < hi)
        cuts = sorted(knots)
        pieces = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            da, _, poly = next(t for t in delayed if t[0] <= (a + b) / 2 < t[1])
            dpoly = poly.shift(a - da)
            terms = [dpoly.lmul(sys.a0).coeffs, dpoly.rmul(sys.a1).coeffs]
            if g is not None:
                terms.append(g.pieces_in(a, b)[0][2].coeffs)
            piece = MatrixPolynomial(padded_sum(*terms)).antiderivative()
            piece = MatrixPolynomial(padded_sum(piece.coeffs, x_start[None]))
            pieces.append(piece)
            x_start = piece.eval(b - a)
        prev = PiecewiseMatrixPolynomial(cuts, pieces)
        rows = slice((k + 1) * n, (k + 2) * n + (k == windows - 1))
        x[rows] = prev.eval(grid[rows])
    return grid, x


class TestSweepAgainstReference:
    """The oracle's batched method of steps (merged knots, re-expansion
    by synthetic division, blocked Horner sampling) against the literal
    reference above: same grid, and per delay window the same values to
    within 16 eps of the window's magnitude (the two re-expand and
    evaluate by different rules)."""

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
        gaps = window_rel_gaps(table.values, ref, n)
        assert max(gaps) <= 16 * EPS, [f"{gap / EPS:.1f} eps" for gap in gaps]


class TestNumpySweep:
    """The numpy method of steps end to end against the closed form."""

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
        assert closed_form_gap(table, exact, sys.sigma) <= 1e-10


def as_fractions(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def fraction_data(ppoly):
    """The oracle's ``(knots, coefficient stacks, left value)`` triple of
    piecewise data, as ``Fraction`` values."""
    knots, coeffs, left = oracle._data(ppoly)
    knots = [Fraction(b) for b in knots]
    return knots, [as_fractions(c) for c in coeffs], as_fractions(left)


def fraction_run(sys, psi, g, windows):
    """The oracle's pieces computed on ``Fraction`` object arrays."""
    return oracle._window_pieces(
        as_fractions(sys.a0), as_fractions(sys.a1), Fraction(sys.sigma),
        fraction_data(psi), fraction_data(g), windows,
    )


def knotty_problem(rng, windows):
    """d = 2, dyadic sigma = 0.75, history knots off the delay grid (and
    past 0), forcing knots off the grid and one forcing jump on grid
    node 8 of the last window when n = 16."""
    d, sigma = 2, 0.75
    sys = random_system(rng, d, "continuous", sigma=sigma)
    psi = PiecewiseMatrixPolynomial(
        [-0.75, -0.3, 0.1],
        [MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(3, d, d))) for _ in range(2)],
    )
    horizon = windows * sigma
    g = PiecewiseMatrixPolynomial(
        [0.0, 0.3 * windows, (windows - 0.5) * sigma, horizon + 0.2],
        [MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(k, d, d))) for k in (3, 1, 2)],
    )
    return sys, psi, g, horizon


class TestExactAgainstFraction:
    """The float oracle against the same method of steps run on
    ``Fraction`` object arrays, which is exact."""

    @pytest.mark.parametrize("windows", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_float_run_matches_the_exact_run(self, seed, windows):
        # per delay window within 16 eps of the window's magnitude
        n = 16
        sys, psi, g, horizon = knotty_problem(
            np.random.default_rng([960, seed, windows]), windows
        )
        table = integrate_continuous(
            sys, psi, g, horizon, IntegratorConfig(substeps_per_delay=n)
        )
        times = np.array([Fraction(t) for t in table.times.tolist()], dtype=object)
        exact = np.empty(table.values.shape, dtype=object)
        oracle._sample(fraction_run(sys, psi, g, windows), times, n, exact)
        gaps = window_rel_gaps(table.values, exact.astype(float), n)
        assert max(gaps) <= 16 * EPS, [f"{gap / EPS:.1f} eps" for gap in gaps]

    def test_exact_run_satisfies_the_defining_equation(self):
        # with no rounding, each piece's derivative equals
        # A0 X(t - sigma) + X(t - sigma) A1 + G(t) exactly, at the
        # piece's midpoint, and the pieces join without a gap
        windows = 3
        sys, psi, g, _ = knotty_problem(np.random.default_rng(961), windows)
        pieces = fraction_run(sys, psi, g, windows)
        a0, a1 = as_fractions(sys.a0), as_fractions(sys.a1)
        sigma = Fraction(sys.sigma)
        g_data = fraction_data(g)

        def value(window, t):
            knots, coeffs = pieces[window]
            j = min(np.searchsorted(knots, t, side="right"), len(coeffs)) - 1
            return oracle._horner(coeffs[j], t - knots[j])

        for w in range(1, windows + 1):
            knots, coeffs = pieces[w]
            for j, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
                t = (a + b) / 2
                slope = np.arange(1, coeffs.shape[1]).astype(object)[:, None, None]
                dx = oracle._horner(coeffs[j, 1:] * slope, t - a)
                delayed = value(w - 1, t - sigma)
                rhs = a0 @ delayed + delayed @ a1 + oracle._value_at(g_data, t)
                assert (dx == rhs).all(), f"window {w}, piece {j}"
                if j + 1 < len(coeffs):
                    after = coeffs[j + 1, 0]
                elif w < windows:
                    after = pieces[w + 1][1][0, 0]
                else:
                    continue
                end = oracle._horner(coeffs[j], b - a)
                assert (end == after).all(), f"window {w}, knot {b}"


class TestOracleIndependence:
    def test_imports_nothing_from_the_closed_form(self):
        # the oracle takes its data through delaymat.system, as the
        # solvers do, and nothing of the closed-form machinery
        tree = ast.parse(Path(oracle.__file__).read_text())
        banned = {"qseq", "fundamental", "solve", "linalg", "ppoly"}
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if module in ("", "delaymat"):
                        found.append((alias.name, None))
                    else:
                        found.append((module, alias.name))
            elif isinstance(node, ast.Import):
                found += [(a.name.rpartition(".")[2], None) for a in node.names]
        assert ("system", "continuous_data") in found
        assert ("system", "discrete_data") in found
        for module, name in found:
            if (module, name) != ("ppoly", "PiecewiseMatrixPolynomial"):
                assert module not in banned and module != "delaymat", (module, name)
