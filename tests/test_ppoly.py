"""Piecewise matrix polynomials: evaluation semantics in the local
basis, calculus, algebra, and the convolution by repeated integration."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from delaymat import (
    DelaySystem,
    IntegratorConfig,
    build_fundamental_continuous,
    fixtures,
    integrate_continuous,
    solve_continuous,
)
from delaymat.errors import DegreeCapExceeded, DimensionMismatch
from delaymat.fundamental import build_q_table
from delaymat.generators import (
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import max_abs
from delaymat.ppoly import (
    MAX_DEGREE,
    PiecewiseMatrixPolynomial,
    _shift,
    convolve_kernel,
    running_antiderivative,
)
from delaymat.system import ForcingSpec, HistorySpec
from calculus import (
    antiderivative, derivative, differentiate, knot_jumps, value, zero_poly,
)


def exact_repeated_integration(a0, a1, sigma, knots, pieces, windows):
    """``t -> (sum_r Theta_r(t - r sigma), the same sum of magnitudes)``
    in exact rationals, for ``r = 0 .. windows``.  ``a0``, ``a1`` are
    Fraction object matrices and ``pieces[k]`` the local coefficients
    (Fraction object matrices) of ``Theta_0`` on ``[knots[k],
    knots[k+1])``, zero left of ``knots[0]`` and the last piece extended;
    ``Theta_{r+1}`` is the antiderivative of ``A0 Theta_r + Theta_r A1``
    from ``knots[0]``.  The magnitudes run the same recursion on
    ``|A0|``, ``|A1|`` and ``|Theta_0|``, whose coefficients stay
    nonnegative, and sum the magnitudes of the power terms at ``t``: a
    bound on every quantity the float sum rounds, entry by entry."""

    def chain(b0, b1, first):
        out = [list(first)]
        for _ in range(windows):
            nxt, start = [], 0 * first[0][0]
            for k, coef in enumerate(out[-1]):
                anti = [start] + [(b0.dot(c) + c.dot(b1)) / (j + 1)
                                  for j, c in enumerate(coef)]
                nxt.append(anti)
                if k + 1 < len(knots) - 1:
                    width = knots[k + 1] - knots[k]
                    start = sum(c * width**j for j, c in enumerate(anti))
            out.append(nxt)
        return out

    theta = chain(a0, a1, pieces)
    bound = chain(abs(a0), abs(a1), [[abs(c) for c in coef] for coef in pieces])

    def at(t):
        value = 0 * pieces[0][0]
        terms = 0 * pieces[0][0]
        for r in range(windows + 1):
            x = t - r * sigma
            if x < knots[0]:
                continue
            k = max(i for i in range(len(knots) - 1) if knots[i] <= x)
            tau = x - knots[k]
            value = value + sum(c * tau**j for j, c in enumerate(theta[r][k]))
            terms = terms + sum(c * abs(tau) ** j for j, c in enumerate(bound[r][k]))
        return value, terms

    return at


def as_fractions(arr):
    return np.vectorize(Fraction, otypes=[object])(np.asarray(arr, dtype=float))


def check_against_exact(out, a0, a1, sigma, knots, pieces, windows):
    """``out`` at four points of every output interval within 16 eps of
    the exact sum's magnitudes (:func:`exact_repeated_integration`)."""
    eps = np.finfo(float).eps
    exact_sum = exact_repeated_integration(
        as_fractions(a0), as_fractions(a1), Fraction(sigma), [Fraction(k) for k in knots],
        [[as_fractions(c) for c in coef] for coef in pieces], windows,
    )
    bks = out.breakpoints
    for lo, hi in zip(bks[:-1], bks[1:]):
        for t in lo + (hi - lo) * np.array([0.0, 0.25, 0.5, 0.75]):
            exact, terms = exact_sum(Fraction(t))
            err = np.abs(out.eval(t) - exact.astype(float))
            assert np.all(err <= 16 * eps * terms.astype(float)), (t, err)


def random_ppoly(rng, d, lo, hi, n_pieces, deg):
    bks = np.linspace(lo, hi, n_pieces + 1)
    pieces = [rng.uniform(-1.0, 1.0, size=(deg + 1, d, d)) for _ in range(n_pieces)]
    return PiecewiseMatrixPolynomial(
        bks, pieces, left_value=rng.uniform(-1.0, 1.0, size=(d, d))
    )


@pytest.fixture
def z1(ex1_system):
    """The continuous fundamental solution of the first worked example,
    covering [-1, 3)."""
    return build_fundamental_continuous(ex1_system, 3.0)


class TestFundamentalEvaluation:
    def test_zero_below_the_initial_window(self, z1):
        np.testing.assert_array_equal(z1.eval(-2.0), np.zeros((2, 2)))
        np.testing.assert_array_equal(z1.eval(-1.0 - 1e-9), np.zeros((2, 2)))

    def test_identity_on_the_initial_window(self, z1):
        np.testing.assert_array_equal(z1.eval(-1.0), np.eye(2))
        np.testing.assert_array_equal(z1.eval(-0.25), np.eye(2))

    def test_value_inside_the_first_window(self, z1):
        np.testing.assert_allclose(
            z1.eval(0.5), [[1.5, 0.5], [0.0, 2.0]], atol=1e-14
        )

    def test_value_at_a_window_edge(self, z1):
        # t = 2.0 belongs to the third window (half-open segments)
        assert z1.eval(2.0)[0, 0] == pytest.approx(3.5, abs=1e-13)

    def test_derivative_inside_the_first_window(self, z1):
        rate = differentiate(z1)
        np.testing.assert_allclose(
            rate.eval(0.5), [[1.0, 1.0], [0.0, 2.0]], atol=1e-14
        )

    def test_integral_over_the_first_window(self, z1):
        # pieces[1] is the window [0, 1) in its local variable t - 0
        window = antiderivative(z1.pieces[1])
        np.testing.assert_allclose(
            value(window, 1.0) - value(window, 0.0), [[1.5, 0.5], [0.0, 2.0]], atol=1e-14
        )

    def test_pieces_are_stored_in_the_local_variable(self, ex1_system, z1):
        # window [1, 2) is q[0] + q[1] t + q[2] (t - 1)**2 / 2, which in
        # tau = t - 1 is q[0] + q[1] (tau + 1) + q[2] tau**2 / 2
        q = build_q_table(ex1_system.a0, ex1_system.a1, 2)
        np.testing.assert_array_equal(
            z1.pieces[2], [q[0] + q[1], q[1], q[2] / 2]
        )


class TestEvaluationSemantics:
    def test_half_open_segments_take_the_right_piece(self):
        p = PiecewiseMatrixPolynomial(
            [0.0, 1.0, 2.0],
            [[[[1.0]]], [[[5.0]]]],
            left_value=[[-3.0]],
        )
        assert p.eval(1.0)[0, 0] == 5.0
        assert p.eval(0.0)[0, 0] == 1.0
        assert p.eval(-0.5)[0, 0] == -3.0
        # past the end evaluation continues the last piece
        assert p.eval(2.0)[0, 0] == 5.0
        assert p.eval(7.0)[0, 0] == 5.0

    def test_vectorized_eval_matches_scalar_eval(self):
        rng = np.random.default_rng(23)
        p = random_ppoly(rng, 3, 0.0, 1.0, 4, 2)
        ts = rng.uniform(-0.5, 1.5, size=40)
        stacked = p.eval(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], p.eval(t))

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial([0.0], [])
        one = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial([0.0, 0.0], [one])
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial([0.0, 1.0], [one] * 2)
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial([0.0, 1.0], np.ones((2, 1, 1, 1)))
        with pytest.raises(DimensionMismatch):
            PiecewiseMatrixPolynomial([0.0, 1.0], [one], left_value=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            PiecewiseMatrixPolynomial([0.0, 1.0, 2.0], [one, np.ones((1, 2, 2))])
        with pytest.raises(DimensionMismatch):
            PiecewiseMatrixPolynomial([0.0, 1.0], [np.ones((1, 2, 3))])
        with pytest.raises(DimensionMismatch):
            PiecewiseMatrixPolynomial([0.0, 1.0], [np.ones((0, 1, 1))])
        # breakpoints whose difference overflows are ordered without a warning
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PiecewiseMatrixPolynomial([-big, big], [one]).end == big

    def test_times_of_more_than_one_dimension_are_refused(self):
        p = PiecewiseMatrixPolynomial([0.0, 1.0], [np.ones((2, 2, 2))])
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            p.eval(np.array([[0.25, 0.5]]))

    def test_overflowing_values_come_back_as_inf_quietly(self):
        # 1e308 + 0.9e308 overflows in the product with the coefficients,
        # 1e200**2 already in the power table
        p = PiecewiseMatrixPolynomial([0.0, 1.0], [np.full((2, 2, 2), 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p.eval(np.array([0.9, 1e200]))
        assert np.all(got == np.inf)


class TestBatchIndependentEvaluation:
    """A row of a batched evaluation is the scalar call, whatever the
    batch around it: order, repeats, knots and the two outer regions."""

    @pytest.mark.parametrize("d", [1, 8, 32])
    def test_every_row_equals_the_scalar_call(self, d):
        rng = np.random.default_rng(300 + d)
        p = random_ppoly(rng, d, -1.0, 2.0, 4, 5)
        bks = p.breakpoints
        ts = np.concatenate([
            rng.uniform(-1.5, 2.5, size=30),
            bks,
            bks[::-1],
            [-3.0, -1.0 - 1e-9, 2.0 + 1e-9, 5.0],
        ])
        ts = rng.permutation(np.concatenate([ts, ts[:7]]))
        stacked = p.eval(ts)
        assert stacked.shape == (ts.size, d, d)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], p.eval(t), err_msg=f"t={t}")
        np.testing.assert_array_equal(p.eval(np.sort(ts)),
                                      stacked[np.argsort(ts, kind="stable")])

    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    def test_mixed_degrees_across_tile_edges(self, d):
        # pieces of degree 0 to 29 in one polynomial of degree 29, so most
        # read only the first columns of the power table; their runs of 1,
        # 63, 64, 65 and 200 rows end inside, on and just past a tile
        rng = np.random.default_rng(340 + d)
        degrees = [0, 29, *rng.integers(1, 29, size=3)]
        runs = rng.permutation([1, 63, 64, 65, 200])
        bks = np.arange(6.0) - 2.0
        p = PiecewiseMatrixPolynomial(
            bks, [rng.uniform(-1.0, 1.0, size=(n + 1, d, d)) for n in degrees],
            left_value=rng.uniform(-1.0, 1.0, size=(d, d)),
        )
        assert p.degree == 29
        ts = np.concatenate([rng.uniform(lo, lo + 1.0, size=r) for lo, r in zip(bks, runs)])
        ts = rng.permutation(np.concatenate([ts, [-3.0]]))
        stacked = p.eval(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], p.eval(t), err_msg=f"t={t}")

    def test_knots_pick_the_documented_side(self):
        rng = np.random.default_rng(311)
        p = random_ppoly(rng, 3, -1.0, 2.0, 4, 5)
        bks = p.breakpoints
        right = p.eval(bks)
        # each piece is evaluated at the local time t - breakpoints[k]
        for k in range(1, bks.size):
            own = min(k, len(p.pieces) - 1)
            np.testing.assert_array_equal(
                right[k], value(p.pieces[own], bks[k] - bks[own])
            )
        np.testing.assert_array_equal(right[0], value(p.pieces[0], 0.0))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_high_degree_power_sum_matches_exact_reference(self, seed):
        # degree 26 at |t| <= 24: the power-table contraction stays within
        # 4 (deg + 1) eps of the absolute term sum
        rng = np.random.default_rng(320 + seed)
        deg = 26
        coeffs = rng.uniform(-1.0, 1.0, size=(deg + 1, 2, 2))
        ts = np.concatenate([rng.uniform(-24.0, 24.0, size=40), [-24.0, 24.0, 0.0]])
        got = value(coeffs, ts)
        eps = np.finfo(float).eps
        for i, t in enumerate(ts):
            tf = Fraction(float(t))
            for r in range(2):
                for c in range(2):
                    cs = [Fraction(float(x)) for x in coeffs[:, r, c]]
                    exact = sum(cf * tf**j for j, cf in enumerate(cs))
                    scale = sum(abs(cf) * abs(tf) ** j for j, cf in enumerate(cs))
                    err = abs(Fraction(float(got[i, r, c])) - exact)
                    assert err <= 4 * (deg + 1) * eps * scale, (t, r, c)


class TestCalculus:
    def test_derivative_antiderivative_roundtrip(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-1.0, 1.0, size=(5, 2, 2))
        back = derivative(antiderivative(p))
        np.testing.assert_allclose(back, p, atol=1e-15)

    def test_differentiate_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = random_ppoly(rng, 2, 0.0, 3.0, 3, 4)
        rate = differentiate(p)
        ts = np.array([0.21, 0.77, 1.13, 1.62, 2.04, 2.88])
        h = 1e-6
        numeric = (p.eval(ts + h) - p.eval(ts - h)) / (2 * h)
        np.testing.assert_allclose(rate.eval(ts), numeric, atol=1e-7)

    def test_running_antiderivative_is_continuous_and_differentiates_back(self):
        rng = np.random.default_rng(7)
        p = random_ppoly(rng, 2, -1.0, 2.0, 4, 3)
        start = rng.uniform(-1.0, 1.0, size=(2, 2))
        anti = PiecewiseMatrixPolynomial(
            p.breakpoints,
            running_antiderivative(np.stack(p.pieces), np.diff(p.breakpoints), start),
        )
        np.testing.assert_array_equal(anti.eval(-1.0), start)
        assert np.all(knot_jumps(anti) <= 1e-15)
        ts = np.linspace(-0.99, 1.99, 31)
        np.testing.assert_allclose(differentiate(anti).eval(ts), p.eval(ts), atol=1e-15)


class TestReparametrizations:
    def test_shift_composition(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(-1.0, 1.0, size=(4, 2, 2))
        once = _shift(_shift(p, 0.7), -1.9)
        direct = _shift(p, 0.7 - 1.9)
        ts = np.linspace(0.5, 3.5, 37)
        assert max_abs(value(once, ts) - value(direct, ts)) <= 1e-12

    @pytest.mark.parametrize("s", [0.75, -1.5, 3.0])
    def test_high_degree_shift_matches_pointwise_translation(self, s):
        rng = np.random.default_rng(11)
        p = rng.uniform(-1.0, 1.0, size=(27, 2, 2))
        ts = np.linspace(-1.0, 1.0, 17)
        got = value(_shift(p, s), ts)
        # rounding bound of both routes: sum_j |c_j| (|s| + |t|)**j
        scale = value(np.abs(p), abs(s) + np.abs(ts))
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - value(p, ts + s)) <= 16 * eps * scale)

    def test_from_global_converts_each_piece_at_its_breakpoint(self):
        rng = np.random.default_rng(15)
        bks = [-0.7, 0.3, 1.1, 2.5]
        glob = [rng.uniform(-1.0, 1.0, size=(4, 2, 2)) for _ in range(3)]
        p = PiecewiseMatrixPolynomial.from_global(bks, glob, right_extension=True)
        assert p.right_extension
        for k, poly in enumerate(glob):
            np.testing.assert_array_equal(p.pieces[k], _shift(poly, bks[k]))
            ts = np.linspace(bks[k], bks[k + 1], 9)[:-1]
            np.testing.assert_allclose(p.eval(ts), value(poly, ts), atol=1e-14)


class TestAlgebra:
    def test_knot_jumps(self):
        cont = PiecewiseMatrixPolynomial.from_global(
            [0.0, 1.0, 2.0],
            [
                [[[0.0]], [[1.0]]],
                [[[-1.0]], [[2.0]]],  # also 1.0 at t=1
            ],
        )
        np.testing.assert_allclose(knot_jumps(cont), [0.0], atol=0)
        jumpy = PiecewiseMatrixPolynomial(
            [0.0, 1.0, 2.0],
            [[[[1.0]]], [[[4.0]]]],
        )
        np.testing.assert_allclose(knot_jumps(jumpy), [3.0], atol=0)


class TestDegreeCap:
    def test_monomial_cap_enforced(self):
        over = np.zeros((MAX_DEGREE + 2, 1, 1))
        over[-1] = 1.0
        with pytest.raises(DegreeCapExceeded):
            PiecewiseMatrixPolynomial([0.0, 1.0], [over])
        at_cap = np.zeros((MAX_DEGREE + 1, 1, 1))
        at_cap[-1] = 1.0
        # exactly at the cap is fine
        assert PiecewiseMatrixPolynomial([0.0, 1.0], [at_cap]).degree == MAX_DEGREE

    def test_convolution_above_the_cap_raises(self):
        # degree-32 data from -1 on: [-1, hi) holds hi windows after the
        # first, each adding one degree
        rng = np.random.default_rng(47)
        data = random_ppoly(rng, 1, -1.0, 1.0, 1, MAX_DEGREE // 2)
        a0, a1 = rng.uniform(-0.5, 0.5, size=(2, 1, 1))
        hi = MAX_DEGREE // 2 + 1.0
        with pytest.raises(DegreeCapExceeded):
            convolve_kernel(a0, a1, 1.0, data, hi)
        out = convolve_kernel(a0, a1, 1.0, data, hi - 1.0)
        assert out.degree == MAX_DEGREE  # exactly at the cap

    def test_trailing_zero_coefficients_are_trimmed(self):
        p = PiecewiseMatrixPolynomial([0.0, 1.0], [np.zeros((MAX_DEGREE + 2, 1, 1))])
        assert p.degree == 0 and p.pieces[0].shape == (1, 1, 1)


def direct_fundamental(q, sigma, v):
    """``Z(v) = sum_r q[r] (v - (r-1) sigma)_+**r / r!`` for ``v >= -sigma``
    (zero below), summed term by term without any piecewise polynomial."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.zeros((v.size,) + q.shape[1:])
    for r in range(q.shape[0]):
        x = v - (r - 1) * sigma
        weight = np.where(x >= 0, np.maximum(x, 0.0) ** r / math.factorial(r), 0.0)
        out += weight[:, None, None] * q[r]
    return out


def gauss_integral(f, cuts, nodes=24):
    """Gauss-Legendre quadrature of ``f`` (stacked ``(d, d)`` values) over
    the sorted ``cuts``, one rule per subinterval."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b > a:
            s = 0.5 * (b - a) * x + 0.5 * (a + b)
            total = total + np.tensordot(0.5 * (b - a) * w, f(s), axes=1)
    return total


class TestConvolution:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reflect_matmul_integrate(self, seed):
        # independent route: X(t) = Z(t) Psi(-sigma) + int Z(t - sigma - s)
        # Psi'(s) ds + int_0^t Z(t - sigma - s) G(s) ds, with Z summed
        # directly, reflected about t - sigma, multiplied by the data and
        # both integrals taken by Gauss-Legendre between the kinks
        rng = np.random.default_rng(40 + seed)
        sigma, windows = 0.7, 4
        sys = random_system(rng, 2, "continuous", sigma=sigma, entry_scale=0.5)
        hist = random_scalar_history(rng, sys, deg=3, n_pieces=3)
        force = random_scalar_forcing(rng, sys, windows * sigma, deg=2, n_pieces=5)
        x = solve_continuous(sys, hist, force, windows * sigma)
        q = build_q_table(sys.a0, sys.a1, windows + 1)
        # scalar data commutes with A1, so the representation formula holds
        rate = differentiate(hist.ppoly)
        psi_start = hist.ppoly.eval(-sigma)
        for t in np.linspace(-0.65, windows * sigma - 0.01, 23):
            kinks = t - sigma - sigma * np.arange(-1, windows + 2)
            data_knots = np.concatenate([hist.ppoly.breakpoints, force.ppoly.breakpoints])

            def cuts(lo, hi):
                pts = np.concatenate([[lo, hi], kinks, data_knots])
                return np.unique(pts[(pts >= lo) & (pts <= hi)])

            ref = direct_fundamental(q, sigma, t)[0] @ psi_start
            ref = ref + gauss_integral(
                lambda s: direct_fundamental(q, sigma, t - sigma - s) @ rate.eval(s),
                cuts(-sigma, 0.0),
            )
            if t > 0:
                ref = ref + gauss_integral(
                    lambda s: direct_fundamental(q, sigma, t - sigma - s)
                    @ force.ppoly.eval(s),
                    cuts(0.0, t),
                )
            assert max_abs(x.eval(t) - ref) <= 1e-12 * max(1.0, max_abs(ref)), t

    # Z (Theta_0 = I) and X (general matrix data with knots off the delay
    # grid), dyadic sigma and knots, so every knot and sample is exact
    @pytest.mark.parametrize("kind", ["Z", "X"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_exact_fraction_reference(self, kind, seed):
        rng = np.random.default_rng(60 + seed)
        sigma, windows, d = 0.75, 3 + seed, 2
        a0, a1 = (rng.integers(-4, 5, size=(2, d, d)) / 8.0)
        if kind == "Z":
            sys = DelaySystem(a0=a0, a1=a1, delay=sigma, kind="continuous")
            out = build_fundamental_continuous(sys, windows * sigma)
            knots = [-sigma, windows * sigma]
            pieces = [np.eye(d)[None]]
        else:
            knots = [-sigma, -0.4375, 0.0, 0.5625, 1.625, windows * sigma]
            pieces = [rng.integers(-64, 65, size=(int(rng.integers(1, 5)), d, d)) / 64.0
                      for _ in knots[:-1]]
            phi0 = PiecewiseMatrixPolynomial(knots, pieces)
            out = convolve_kernel(a0, a1, sigma, phi0, windows * sigma)
        check_against_exact(out, a0, a1, sigma, knots, pieces, windows)

    # The convolution of one data piece with one delay term, now a Phi_r
    # piece re-expanded at an output knot.  A "fixed" knot lies on the delay
    # grid, so its shifts t + r sigma land on knots that are already there;
    # a "moving" one lies off it and adds output knots inside the other
    # pieces, where they are re-expanded by a non-zero shift.  First word:
    # the history knots on [-sigma, 0]; second: the forcing knots.
    @pytest.mark.parametrize(
        "hist_knots, force_knots",
        [
            pytest.param((), (0.75, 1.5), id="fixed-fixed"),
            pytest.param((), (0.5625, 1.625), id="fixed-moving"),
            pytest.param((-0.4375,), (0.75, 1.5), id="moving-fixed"),
            pytest.param((-0.4375, -0.125), (0.5625, 1.625), id="moving-moving"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scalar_pair_integrals_match_exact_reference(self, hist_knots, force_knots, seed):
        rng = np.random.default_rng(70 + seed)
        sigma, windows = 0.75, 3 + 3 * seed
        a0, a1 = rng.integers(-4, 5, size=(2, 1, 1)) / 8.0
        knots = [-sigma, *hist_knots, 0.0, *force_knots, windows * sigma]
        pieces = [rng.integers(-64, 65, size=(5, 1, 1)) / 64.0 for _ in knots[:-1]]
        phi0 = PiecewiseMatrixPolynomial(knots, pieces)
        out = convolve_kernel(a0, a1, sigma, phi0, windows * sigma)
        shifted = np.concatenate([np.asarray(knots) + r * sigma for r in range(windows + 1)])
        np.testing.assert_array_equal(
            out.breakpoints, np.unique(shifted[shifted <= windows * sigma])
        )
        check_against_exact(out, a0, a1, sigma, knots, pieces, windows)

    def test_empty_integration_range_gives_zero(self):
        # left of the data's first knot every Theta_r integrates over
        # nothing, whatever the data's left_value
        rng = np.random.default_rng(44)
        data = random_ppoly(rng, 2, 0.0, 1.0, 1, 1)
        a0, a1 = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        out = convolve_kernel(a0, a1, 0.5, data, 1.0)
        assert out.start == 0.0
        np.testing.assert_array_equal(out.eval(np.linspace(-1.0, -1e-9, 7)),
                                      np.zeros((7, 2, 2)))

    def test_smoothing_raises_polynomial_degree_by_one(self):
        rng = np.random.default_rng(45)
        data = random_ppoly(rng, 2, -1.0, 1.0, 1, 3)
        a0, a1 = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        out = convolve_kernel(a0, a1, 1.0, data, 1.0)
        assert [c.shape[0] - 1 for c in out.pieces] == [3, 3 + 1]

    def test_output_knots_are_the_data_knots_shifted_by_each_delay(self):
        rng = np.random.default_rng(48)
        data = random_ppoly(rng, 1, -0.5, 2.0, 3, 1)  # knots -0.5, 0.333.., 1.166..
        a0, a1 = rng.uniform(-1.0, 1.0, size=(2, 1, 1))
        out = convolve_kernel(a0, a1, 0.5, data, 1.5)
        # the windows r = 0 .. 3 start at -0.5 + 0.5 r, inside [-0.5, 1.5)
        want = np.unique(np.concatenate(
            [data.breakpoints + 0.5 * r for r in range(4)] + [[1.5]]))
        np.testing.assert_allclose(out.breakpoints, want[want <= 1.5], atol=1e-15)
        assert out.left_value.shape == (1, 1) and not out.left_value.any()

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(46)
        data = random_ppoly(rng, 3, 0.0, 1.0, 1, 1)
        a0, a1 = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        with pytest.raises(DimensionMismatch):
            convolve_kernel(a0, a1, 1.0, data, 1.0)


def generic_knot_problem(seed):
    """d = 3 with data knots off the delay grid: a cubic history split at
    two random points (smooth across them) and a forcing with five random
    knots plus knots at 2 sigma and 3 sigma, scalar multiples of the
    identity so any coefficient pair qualifies."""
    rng = np.random.default_rng(900 + seed)
    sigma = (0.3, 0.55, 0.7, 1.0)[seed % 4]
    windows = 6 + seed % 5
    sys = random_system(rng, 3, "continuous", sigma=sigma, entry_scale=1.0 / 3)
    horizon = windows * sigma
    eye = np.eye(3)
    cubic = rng.uniform(-1.0, 1.0, size=4)[:, None, None] * eye
    cuts = np.concatenate([[-sigma], np.sort(rng.uniform(-sigma, 0.0, size=2)), [0.0]])
    history = HistorySpec.from_ppoly(
        PiecewiseMatrixPolynomial.from_global(cuts, [cubic] * (cuts.size - 1))
    )
    knots = np.unique(np.concatenate([
        [0.0, 2 * sigma, 3 * sigma, horizon], rng.uniform(0.0, horizon, size=5)
    ]))
    degrees = rng.integers(0, 3, size=knots.size - 1)
    forcing = ForcingSpec.from_ppoly(PiecewiseMatrixPolynomial(knots, [
        rng.uniform(-1.0, 1.0, size=deg + 1)[:, None, None] * eye for deg in degrees
    ]))
    return sys, history, forcing, horizon


class TestGenericKnots:
    """Output intervals whose re-expansion shifts are nonzero almost
    everywhere, against the exact method-of-steps oracle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_oracle_in_every_window(self, seed):
        sys, history, forcing, horizon = generic_knot_problem(seed)
        x = solve_continuous(sys, history, forcing, horizon)
        ref = integrate_continuous(sys, history, forcing, horizon, IntegratorConfig(64))
        got = x.eval(ref.times)
        window = np.floor(ref.times / sys.sigma + 1e-9)
        for k in np.unique(window):
            rows = window == k
            gap = max_abs(got[rows] - ref.values[rows])
            assert gap <= 1e-13 * max(max_abs(ref.values[rows]), 1.0), (k, gap)


class TestPiecesFromStack:
    """The constructor's one checked pass over a ``(K, n, d, d)`` stack,
    taken as it is, or over the stack it pads a list of arrays into."""

    def test_trims_only_trailing_zero_coefficients(self):
        rng = np.random.default_rng(80)
        stack = rng.uniform(-1.0, 1.0, size=(9, 6, 2, 2))
        for i, top in enumerate([6, 5, 4, 3, 2, 1, 0, 3, 6]):
            stack[i, top:] = 0.0
        stack[7, 1] = 0.0  # an interior zero coefficient stays
        stack[8, 5] = [[0.0, -0.0], [0.0, 0.0]]  # so does a signed zero
        stack[8, 5, 1, 1] = 5e-324
        want = [stack[i, :n].copy() for i, n in enumerate([6, 5, 4, 3, 2, 1, 1, 3, 6])]
        got = PiecewiseMatrixPolynomial(np.arange(10.0), stack).pieces
        assert [c.shape for c in got] == [c.shape for c in want]
        for c, w in zip(got, want):
            np.testing.assert_array_equal(c.view(np.int64), w.view(np.int64))

    def test_a_list_and_its_padded_stack_give_the_same_pieces(self):
        rng = np.random.default_rng(81)
        arrays = [rng.uniform(-1.0, 1.0, size=(n, 3, 3)) for n in (4, 1, 6, 2)]
        arrays[2][4:] = 0.0  # trailing zeros, trimmed on both routes
        stack = np.zeros((4, 6, 3, 3))
        for k, c in enumerate(arrays):
            stack[k, : c.shape[0]] = c
        bks = [0.0, 0.5, 1.0, 2.0, 2.5]
        from_list = PiecewiseMatrixPolynomial(bks, arrays).pieces
        from_stack = PiecewiseMatrixPolynomial(bks, stack).pieces
        assert [c.shape for c in from_list] == [c.shape for c in from_stack]
        assert [c.shape[0] for c in from_list] == [4, 1, 4, 2]
        for a, b in zip(from_list, from_stack):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_zero_polynomial_keeps_one_coefficient(self):
        stack = np.zeros((2, 4, 3, 3))
        stack[1, 0, 2, 0] = -0.0
        p = PiecewiseMatrixPolynomial([0.0, 1.0, 2.0], stack)
        assert p.degree == 0
        for c in p.pieces:
            assert c.shape == (1, 3, 3) and not c.any()

    def test_pieces_are_read_only_views_of_the_stack(self):
        stack = np.ones((3, 2, 1, 1))
        pieces = PiecewiseMatrixPolynomial([0.0, 1.0, 2.0, 3.0], stack).pieces
        assert all(np.shares_memory(c, stack) for c in pieces)
        with pytest.raises(ValueError):
            pieces[1][0] = 2.0

    def test_degree_above_the_cap_raises(self):
        stack = np.zeros((2, MAX_DEGREE + 3, 1, 1))
        stack[:, MAX_DEGREE] = 1.0
        assert PiecewiseMatrixPolynomial([0.0, 1.0, 2.0], stack.copy()).degree == MAX_DEGREE
        stack[1, MAX_DEGREE + 1] = 1.0
        with pytest.raises(DegreeCapExceeded, match=f"degree {MAX_DEGREE + 1} exceeds"):
            PiecewiseMatrixPolynomial([0.0, 1.0, 2.0], stack)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_names_the_first_interval(self, bad):
        stack = np.ones((4, 3, 2, 2))
        stack[2, 1, 0, 1] = bad
        stack[3, 0, 1, 1] = bad
        bks = [0.0, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(DegreeCapExceeded, match=r"on \[0\.5, 0\.75\) leave the float"):
            PiecewiseMatrixPolynomial(bks, stack)
        # a list of arrays is checked the same way
        with pytest.raises(DegreeCapExceeded, match=r"on \[0\.5, 0\.75\) leave the float"):
            PiecewiseMatrixPolynomial(bks, list(stack))

    @pytest.mark.filterwarnings("error")
    def test_re_expanded_global_pieces_are_checked(self):
        # finite in the global variable, past the float range once
        # re-expanded at the knot 1e200: refused by the constructor, with
        # no numpy overflow warning on the way
        glob = [[[[1.0]], [[1.0]], [[1.0]]]]
        with pytest.raises(DegreeCapExceeded, match=r"on \[1e\+200, 2e\+200\) leave"):
            PiecewiseMatrixPolynomial.from_global([1e200, 2e200], glob)


class TestFloatRange:
    """Coefficients that overflow although the q table does not are
    refused with the interval they leave the float range on."""

    def test_convolution_overflow_raises(self):
        sys = DelaySystem(a0=[[1e100]], a1=[[0.0]], delay=1.0, kind="continuous")
        history = PiecewiseMatrixPolynomial([-1.0, 0.0], [[[[1e200]]]])
        with pytest.raises(DegreeCapExceeded, match=r"on \[1, 2\) leave the float range"):
            solve_continuous(sys, history, None, 2.0)

    def test_forcing_integral_overflow_raises(self):
        sys = DelaySystem(a0=[[0.0]], a1=[[0.0]], delay=1.0, kind="continuous")
        history = PiecewiseMatrixPolynomial([-1.0, 0.0], [zero_poly(1)])
        forcing = PiecewiseMatrixPolynomial([0.0, 1.0, 2.0, 3.0], np.full((3, 1, 1, 1), 1e308))
        with pytest.raises(DegreeCapExceeded, match=r"on \[2, 3\) leave the float range"):
            solve_continuous(sys, history, forcing, 3.0)
