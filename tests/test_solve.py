"""Closed-form initial value problem solvers: worked-example values,
structural identities, the data commutation hypothesis, and agreement
between independent routes to the same solution."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from delaymat import (
    DelaySystem,
    DiscreteFundamental,
    ForcingSpec,
    HistorySpec,
    HypothesisViolation,
    UnsupportedHypothesisWarning,
    build_fundamental_continuous,
    fixtures,
    solve_continuous,
    solve_discrete,
    validate_hypotheses,
)
from delaymat.errors import DegreeCapExceeded
from delaymat.generators import (
    random_discrete_scalar_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import binomial, max_abs
from delaymat.ppoly import MatrixPolynomial, PiecewiseMatrixPolynomial
from delaymat.qseq import build_q_table
from exact_arith import exact, rounded


def zero_history(d, sigma):
    return HistorySpec.from_ppoly(
        PiecewiseMatrixPolynomial(
            [-sigma, 0.0], [MatrixPolynomial.zero(d)]
        )
    )


def integral_from_start(p, t):
    """``\\int_{p.start}^t p``, piece by piece in local coordinates."""
    total = np.zeros((p.dim, p.dim))
    for k, piece in enumerate(p.pieces):
        lo = p.breakpoints[k]
        if t <= lo:
            break
        hi = t if k == len(p.pieces) - 1 else min(t, p.breakpoints[k + 1])
        total += piece.antiderivative().eval(hi - lo)
    return total


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
                [MatrixPolynomial.constant([[0.0, 1.0], [0.0, 0.0]])],
                right_extension=True,
            )
        )
        report = validate_hypotheses(ex1_system, ex1_history, bad)
        assert not report.ok
        assert report.forcing_residual > 0.1
        assert "VIOLATED" in report.summary()

    def test_solve_refuses_noncommuting_data(self, ex1_system, ex1_history):
        bad = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0],
                [MatrixPolynomial.constant([[0.0, 1.0], [0.0, 0.0]])],
                right_extension=True,
            )
        )
        with pytest.raises(HypothesisViolation):
            solve_continuous(ex1_system, ex1_history, bad, 2.0)

    def test_override_warns_and_returns_a_formal_result(
        self, ex1_system, ex1_history
    ):
        bad = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0],
                [MatrixPolynomial.constant([[0.0, 1.0], [0.0, 0.0]])],
                right_extension=True,
            )
        )
        with pytest.warns(UnsupportedHypothesisWarning):
            x = solve_continuous(
                ex1_system, ex1_history, bad, 2.0, allow_noncommuting_data=True
            )
        assert x.dim == 2  # a formal evaluation is still produced

    def test_tolerance_is_adjustable(self, ex1_system, ex1_history):
        slightly_off = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 3.0],
                [MatrixPolynomial.constant([[1.0, 1e-8], [0.0, 1.0]])],
                right_extension=True,
            )
        )
        assert not validate_hypotheses(
            ex1_system, ex1_history.ppoly, slightly_off
        ).ok
        x = solve_continuous(
            ex1_system, ex1_history, slightly_off, 1.0, hypothesis_tol=1e-6
        )
        assert x.dim == 2

    def test_history_is_checked_on_the_delay_window_only(self, ex1_system):
        # C^1 history on [-2, 0]: below -sigma = -1 it is I + N (t + 1)^2
        # with N not commuting with A1, on [-1, 0] it is I
        eye = np.eye(2)
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        hist = HistorySpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [-2.0, -1.0, 0.0],
                [
                    MatrixPolynomial(np.stack([eye + nil, -2.0 * nil, nil])),
                    MatrixPolynomial.constant(eye),
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
                [0.0, 3.0], [MatrixPolynomial(np.stack([eye, eye, nil]))]
            )
        )
        report = validate_hypotheses(ex1_system, ex1_history, bad)
        assert not report.ok
        assert report.history_residual == 0.0
        assert report.forcing_residual == 1.0

    def test_callable_forcing_needs_a_step_bound(self, ex2_system, ex2_history):
        g = ForcingSpec.from_callable(lambda u: np.eye(2))
        with pytest.raises(ValueError):
            validate_hypotheses(ex2_system, ex2_history, g)
        report = validate_hypotheses(ex2_system, ex2_history, g, steps=6)
        assert report.ok


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
            ts = fixtures.segment_samples(entry.lo, entry.hi, 25)
            got = x1.eval(ts)[:, entry.row, entry.col]
            assert max_abs(got - entry.eval(ts)) <= 1e-11, entry.label("X")

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
        rate = x.differentiate()
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
                [-0.5, 0.0], [MatrixPolynomial.zero(2)]
            )
        )
        with pytest.raises(ValueError):
            solve_continuous(ex1_system, short_hist, None, 1.0)
        short_force = ForcingSpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [0.0, 1.0], [MatrixPolynomial.zero(2)], right_extension=False
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
        g = force.table(20, d)
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
    def test_rows_past_the_float_range_refuse(
        self, forced, ex2_system, ex2_history, ex2_forcing
    ):
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
        forcing = ex2_forcing if forced else None
        with pytest.raises(DegreeCapExceeded, match=r"X\(u\) at u = (\d+) ") as err:
            solve_discrete(ex2_system, ex2_history, forcing, 1100)
        u = int(re.search(r"u = (\d+)", str(err.value)).group(1))
        assert (u <= first) if forced else (u == first)


def double_loop_reference(sys, hist, g, n_steps):
    """The representation formula term by term from ``Z(u)`` values."""
    fund = DiscreteFundamental(sys)
    m, d = sys.m, sys.dim
    dpsi = np.diff(hist, axis=0)
    out = np.empty((m + n_steps + 1, d, d))
    for u in range(-m, n_steps + 1):
        acc = fund.value(u) @ hist[0]
        for r in range(-m + 1, 1):
            acc = acc + fund.value(u - m - r) @ dpsi[r + m - 1]
        for r in range(1, u + 1):
            acc = acc + fund.value(u - m - r) @ g[r - 1]
        out[u + m] = acc
    return out


def exact_representation(sys, hist, g, n_steps):
    """The representation formula in exact rational arithmetic on the
    float ``q``, history and forcing, rounded to float once, and the
    scale ``sum_r ||q[r]||_inf max|Phi_r(u - r (m + 1))|`` of each row.

    ``X(u) = Z(u) Psi(-m) + sum_k Z(u - 1 - k) D[k]`` with ``D`` the
    history differences, then ``G``, and ``Z(v) = sum_r C(v - (r - 1) m,
    r) q[r]`` from exact binomials.  ``Phi_0`` is the history, then
    ``Psi(0) + G(0) + .. + G(u - 1)``; ``Phi_{r+1}`` is its cumulative
    sum.
    """
    m, d = sys.m, sys.dim
    rows = m + n_steps + 1
    depth = (rows - 1) // (m + 1)
    qf = build_q_table(sys.a0, sys.a1, depth).mats
    q, kq = exact(qf)
    data, kd = exact(np.concatenate([hist, g]))
    psi, gq = data[: m + 1], data[m + 1 :]
    z = [q[0]] * (m + 1)
    for v in range(1, n_steps + 1):
        z.append(sum(binomial(v - (r - 1) * m, r) * q[r]
                     for r in range(-(-v // (m + 1)) + 1)))
    z = np.array(z)
    steps = np.concatenate([np.diff(psi, axis=0), gq])
    x = np.empty(z.shape, dtype=object)
    for i in range(rows):
        x[i] = z[i] @ psi[0]
        if i:
            lagged = z[i - 1 :: -1].transpose(1, 0, 2).reshape(d, -1)
            x[i] += lagged @ steps[:i].reshape(-1, d)
    want = rounded(x, kq + kd)

    running = np.cumsum(np.concatenate([psi[-1:], gq]), axis=0)
    phi = np.concatenate([psi[:-1], running])
    scale = np.zeros(rows)
    for r in range(depth + 1):
        n = rows - r * (m + 1)
        if r:
            phi = np.cumsum(phi[:n], axis=0)
        size = rounded(np.abs(phi).max(axis=(1, 2)), kd)
        scale[r * (m + 1) :] += np.abs(qf[r]).sum(axis=1).max() * size
    return want, scale


def solve_general_data(sys, hist, g, kind, n_steps):
    """Solve with matrix (not scalar) data; the commutation check is
    bypassed because the sums are compared as algebra here."""
    forcing = {
        "none": None,
        "array": g,
        "callable": ForcingSpec.from_callable(lambda u: g[u]),
    }[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnsupportedHypothesisWarning)
        table = solve_discrete(
            sys, hist, forcing, n_steps, allow_noncommuting_data=True
        )
    return table.values, (np.zeros_like(g) if kind == "none" else g)


class TestDiscreteConvolution:
    """The repeated-sum kernel against the representation formula."""

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
            want, scale = exact_representation(sys, hist, g, n_steps)
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
            for n_steps in (0, 1, m, m + 1, 16):
                hist = rng.integers(-3, 4, size=(m + 1, d, d)).astype(float)
                g = rng.integers(-3, 4, size=(n_steps, d, d)).astype(float)
                got, g = solve_general_data(sys, hist, g, kind, n_steps)
                np.testing.assert_array_equal(
                    got, double_loop_reference(sys, hist, g, n_steps),
                    err_msg=f"d={d}, N={n_steps}",
                )
