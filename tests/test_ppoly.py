"""Piecewise matrix polynomials: evaluation semantics in the local
basis, calculus, algebra, and the convolution by repeated integration."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from delaymat import DelaySystem, build_fundamental_continuous, fixtures, solve_continuous
from delaymat.errors import DegreeCapExceeded, DimensionMismatch
from delaymat.generators import (
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import max_abs
from delaymat.ppoly import (
    MAX_DEGREE,
    MatrixPolynomial,
    PiecewiseMatrixPolynomial,
    convolve_kernel,
    running_antiderivative,
)
from delaymat.qseq import build_q_table


def exact_repeated_integration(q, sigma, knots, pieces, t):
    """``(sum_r q[r] Phi_r(t - r sigma), sum_r |q[r]| |terms of Phi_r|)``
    in exact rationals.  ``q`` is a list of Fraction object matrices,
    ``pieces[k]`` the local coefficients (Fraction object matrices) of
    ``Phi_0`` on ``[knots[k], knots[k+1])``, zero left of ``knots[0]`` and
    the last piece extended; ``Phi_{r+1}`` is the antiderivative of
    ``Phi_r`` from ``knots[0]``.  The second value is the sum of the
    magnitudes of every term of the power sums, entry by entry."""
    phi = [list(pieces)]
    for _ in range(len(q) - 1):
        nxt, start = [], 0 * pieces[0][0]
        for k, coef in enumerate(phi[-1]):
            anti = [start] + [c / (j + 1) for j, c in enumerate(coef)]
            nxt.append(anti)
            if k + 1 < len(knots) - 1:
                width = knots[k + 1] - knots[k]
                start = sum(c * width**j for j, c in enumerate(anti))
        phi.append(nxt)
    value = 0 * pieces[0][0]
    terms = 0 * pieces[0][0]
    for r, qr in enumerate(q):
        x = t - r * sigma
        if x < knots[0]:
            continue
        k = max(i for i in range(len(knots) - 1) if knots[i] <= x)
        tau = x - knots[k]
        coef = phi[r][k]
        value = value + qr.dot(sum(c * tau**j for j, c in enumerate(coef)))
        size = sum(abs(c) * abs(tau) ** j for j, c in enumerate(coef))
        terms = terms + abs(qr).dot(size)
    return value, terms


def as_fractions(arr):
    return np.vectorize(Fraction, otypes=[object])(np.asarray(arr, dtype=float))


def random_ppoly(rng, d, lo, hi, n_pieces, deg):
    bks = np.linspace(lo, hi, n_pieces + 1)
    pieces = [
        MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(deg + 1, d, d)))
        for _ in range(n_pieces)
    ]
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
        rate = z1.differentiate()
        np.testing.assert_allclose(
            rate.eval(0.5), [[1.0, 1.0], [0.0, 2.0]], atol=1e-14
        )

    def test_integral_over_the_first_window(self, z1):
        # pieces[1] is the window [0, 1) in its local variable t - 0
        window = z1.pieces[1].antiderivative()
        np.testing.assert_allclose(
            window.eval(1.0) - window.eval(0.0), [[1.5, 0.5], [0.0, 2.0]], atol=1e-14
        )

    def test_pieces_are_stored_in_the_local_variable(self, ex1_system, z1):
        # window [1, 2) is q[0] + q[1] t + q[2] (t - 1)**2 / 2, which in
        # tau = t - 1 is q[0] + q[1] (tau + 1) + q[2] tau**2 / 2
        q = build_q_table(ex1_system.a0, ex1_system.a1, 2)
        np.testing.assert_array_equal(
            z1.pieces[2].coeffs, [q[0] + q[1], q[1], q[2] / 2]
        )


class TestEvaluationSemantics:
    def test_half_open_segments_take_the_right_piece(self):
        p = PiecewiseMatrixPolynomial(
            [0.0, 1.0, 2.0],
            [
                MatrixPolynomial.constant([[1.0]]),
                MatrixPolynomial.constant([[5.0]]),
            ],
            left_value=[[-3.0]],
        )
        assert p.eval(1.0)[0, 0] == 5.0
        assert p.eval_left(1.0)[0, 0] == 1.0
        assert p.eval(0.0)[0, 0] == 1.0
        assert p.eval_left(0.0)[0, 0] == -3.0
        assert p.eval(-0.5)[0, 0] == -3.0
        assert p.eval_left(-0.5)[0, 0] == -3.0
        # past the end both evaluations continue the last piece
        assert p.eval(2.0)[0, 0] == 5.0
        assert p.eval(7.0)[0, 0] == 5.0
        assert p.eval_left(7.0)[0, 0] == 5.0

    def test_eval_left_matches_eval_off_knots(self):
        rng = np.random.default_rng(17)
        p = random_ppoly(rng, 2, -1.0, 2.0, 3, 3)
        ts = np.linspace(-1.7, 2.7, 101)
        ts = ts[np.min(np.abs(ts[:, None] - p.breakpoints[None, :]), axis=1) > 1e-6]
        np.testing.assert_allclose(p.eval_left(ts), p.eval(ts), atol=0)

    def test_vectorized_eval_matches_scalar_eval(self):
        rng = np.random.default_rng(23)
        p = random_ppoly(rng, 3, 0.0, 1.0, 4, 2)
        ts = rng.uniform(-0.5, 1.5, size=40)
        stacked = p.eval(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], p.eval(t))

    def test_piece_index_conventions(self):
        p = PiecewiseMatrixPolynomial(
            [0.0, 1.0],
            [MatrixPolynomial.constant([[1.0]])],
        )
        assert p.piece_index(-0.1) == -1
        assert p.piece_index(0.0) == 0
        assert p.piece_index(1.0) == 0

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial([0.0], [])
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial(
                [0.0, 0.0], [MatrixPolynomial.constant([[1.0]])]
            )
        with pytest.raises(ValueError):
            PiecewiseMatrixPolynomial(
                [0.0, 1.0],
                [MatrixPolynomial.constant([[1.0]])] * 2,
            )
        with pytest.raises(DimensionMismatch):
            PiecewiseMatrixPolynomial(
                [0.0, 1.0],
                [MatrixPolynomial.constant([[1.0]])],
                left_value=np.zeros((2, 2)),
            )


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
        for name in ("eval", "eval_left"):
            stacked = getattr(p, name)(ts)
            assert stacked.shape == (ts.size, d, d)
            for i, t in enumerate(ts):
                np.testing.assert_array_equal(
                    stacked[i], getattr(p, name)(t), err_msg=f"{name} at t={t}"
                )
            np.testing.assert_array_equal(getattr(p, name)(np.sort(ts)),
                                          stacked[np.argsort(ts, kind="stable")])

    def test_knots_pick_the_documented_side(self):
        rng = np.random.default_rng(311)
        p = random_ppoly(rng, 3, -1.0, 2.0, 4, 5)
        bks = p.breakpoints
        right = p.eval(bks)
        left = p.eval_left(bks)
        np.testing.assert_array_equal(left[0], p.left_value)
        # each piece is evaluated at the local time t - breakpoints[k]
        for k in range(1, bks.size):
            own = min(k, len(p.pieces) - 1)
            np.testing.assert_array_equal(
                right[k], p.pieces[own].eval(bks[k] - bks[own])
            )
            np.testing.assert_array_equal(
                left[k], p.pieces[k - 1].eval(bks[k] - bks[k - 1])
            )
        np.testing.assert_array_equal(right[0], p.pieces[0].eval(0.0))

    def test_evaluates_into_a_row_slice(self):
        rng = np.random.default_rng(312)
        poly = MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(4, 2, 2)))
        ts = np.linspace(-1.0, 1.0, 5)
        stack = np.zeros((9, 2, 2))
        got = poly.eval(ts, out=stack[2:7])
        assert np.shares_memory(got, stack)
        np.testing.assert_array_equal(stack[2:7], poly.eval(ts))
        assert not stack[:2].any() and not stack[7:].any()
        with pytest.raises(ValueError):
            poly.eval(ts, out=np.zeros((5, 2, 4))[:, :, ::2])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_high_degree_power_sum_matches_exact_reference(self, seed):
        # degree 26 at |t| <= 24: the power-table contraction stays within
        # 4 (deg + 1) eps of the absolute term sum
        rng = np.random.default_rng(320 + seed)
        deg = 26
        coeffs = rng.uniform(-1.0, 1.0, size=(deg + 1, 2, 2))
        poly = MatrixPolynomial(coeffs)
        ts = np.concatenate([rng.uniform(-24.0, 24.0, size=40), [-24.0, 24.0, 0.0]])
        got = poly.eval(ts)
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
        p = MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(5, 2, 2)))
        back = p.antiderivative().derivative()
        np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-15)

    def test_differentiate_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = random_ppoly(rng, 2, 0.0, 3.0, 3, 4)
        rate = p.differentiate()
        ts = np.array([0.21, 0.77, 1.13, 1.62, 2.04, 2.88])
        h = 1e-6
        numeric = (p.eval(ts + h) - p.eval(ts - h)) / (2 * h)
        np.testing.assert_allclose(rate.eval(ts), numeric, atol=1e-7)

    def test_running_antiderivative_is_continuous_and_differentiates_back(self):
        rng = np.random.default_rng(7)
        p = random_ppoly(rng, 2, -1.0, 2.0, 4, 3)
        start = rng.uniform(-1.0, 1.0, size=(2, 2))
        coeffs = np.stack([piece.coeffs for piece in p.pieces])
        anti = PiecewiseMatrixPolynomial(
            p.breakpoints,
            [MatrixPolynomial(c) for c in running_antiderivative(
                coeffs, np.diff(p.breakpoints), start)],
        )
        np.testing.assert_array_equal(anti.eval(-1.0), start)
        assert np.all(anti.knot_jumps() <= 1e-15)
        ts = np.linspace(-0.99, 1.99, 31)
        np.testing.assert_allclose(anti.differentiate().eval(ts), p.eval(ts), atol=1e-15)


class TestReparametrizations:
    def test_shift_composition(self):
        rng = np.random.default_rng(9)
        p = MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(4, 2, 2)))
        once = p.shift(0.7).shift(-1.9)
        direct = p.shift(0.7 - 1.9)
        ts = np.linspace(0.5, 3.5, 37)
        assert max_abs(once.eval(ts) - direct.eval(ts)) <= 1e-12

    @pytest.mark.parametrize("s", [0.75, -1.5, 3.0])
    def test_high_degree_shift_matches_pointwise_translation(self, s):
        rng = np.random.default_rng(11)
        p = MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(27, 2, 2)))
        ts = np.linspace(-1.0, 1.0, 17)
        got = p.shift(s).eval(ts)
        # rounding bound of both routes: sum_j |c_j| (|s| + |t|)**j
        scale = MatrixPolynomial(np.abs(p.coeffs)).eval(abs(s) + np.abs(ts))
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - p.eval(ts + s)) <= 16 * eps * scale)

    def test_from_global_converts_each_piece_at_its_breakpoint(self):
        rng = np.random.default_rng(15)
        bks = [-0.7, 0.3, 1.1, 2.5]
        glob = [MatrixPolynomial(rng.uniform(-1.0, 1.0, size=(4, 2, 2)))
                for _ in range(3)]
        p = PiecewiseMatrixPolynomial.from_global(bks, glob, right_extension=True)
        assert p.right_extension
        for k, poly in enumerate(glob):
            np.testing.assert_array_equal(p.pieces[k].coeffs, poly.shift(bks[k]).coeffs)
            ts = np.linspace(bks[k], bks[k + 1], 9)[:-1]
            np.testing.assert_allclose(p.eval(ts), poly.eval(ts), atol=1e-14)


class TestAlgebra:
    def test_knot_jumps(self):
        cont = PiecewiseMatrixPolynomial.from_global(
            [0.0, 1.0, 2.0],
            [
                MatrixPolynomial([[[0.0]], [[1.0]]]),
                MatrixPolynomial([[[-1.0]], [[2.0]]]),  # also 1.0 at t=1
            ],
        )
        np.testing.assert_allclose(cont.knot_jumps(), [0.0], atol=0)
        jumpy = PiecewiseMatrixPolynomial(
            [0.0, 1.0, 2.0],
            [
                MatrixPolynomial.constant([[1.0]]),
                MatrixPolynomial.constant([[4.0]]),
            ],
        )
        np.testing.assert_allclose(jumpy.knot_jumps(), [3.0], atol=0)


class TestDegreeCap:
    def test_monomial_cap_enforced(self):
        over = np.zeros((MAX_DEGREE + 2, 1, 1))
        over[-1] = 1.0
        with pytest.raises(DegreeCapExceeded):
            MatrixPolynomial(over)
        at_cap = np.zeros((MAX_DEGREE + 1, 1, 1))
        at_cap[-1] = 1.0
        MatrixPolynomial(at_cap)  # exactly at the cap is fine

    def test_convolution_above_the_cap_raises(self):
        rng = np.random.default_rng(47)
        data = random_ppoly(rng, 1, -1.0, 1.0, 1, MAX_DEGREE // 2)
        q = rng.uniform(-1.0, 1.0, size=(MAX_DEGREE // 2 + 2, 1, 1))
        with pytest.raises(DegreeCapExceeded):
            convolve_kernel(q, 1.0, data, -1.0, 1.0)
        convolve_kernel(q[:-1], 1.0, data, -1.0, 1.0)  # exactly at the cap

    def test_trailing_zero_coefficients_are_trimmed(self):
        p = MatrixPolynomial(np.zeros((MAX_DEGREE + 2, 1, 1)))
        assert p.degree == 0


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
        q = build_q_table(sys.a0, sys.a1, windows + 1).mats
        rate = hist.ppoly.differentiate()
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

    # Z (Phi_0 = I) and X (general matrix data with knots off the delay
    # grid), dyadic sigma and knots, so every knot and sample is exact
    @pytest.mark.parametrize("kind", ["Z", "X"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_exact_fraction_reference(self, kind, seed):
        rng = np.random.default_rng(60 + seed)
        sigma, windows, d = 0.75, 3 + seed, 2
        a0, a1 = (rng.integers(-4, 5, size=(2, d, d)) / 8.0)
        q = build_q_table(a0, a1, windows).mats
        if kind == "Z":
            sys = DelaySystem(a0=a0, a1=a1, delay=sigma, kind="continuous")
            out = build_fundamental_continuous(sys, windows * sigma)
            knots = [-sigma, windows * sigma]
            pieces = [np.eye(d)[None]]
        else:
            knots = [-sigma, -0.4375, 0.0, 0.5625, 1.625, windows * sigma]
            pieces = [rng.integers(-64, 65, size=(int(rng.integers(1, 5)), d, d)) / 64.0
                      for _ in knots[:-1]]
            phi0 = PiecewiseMatrixPolynomial(knots, [MatrixPolynomial(c) for c in pieces])
            out = convolve_kernel(q, sigma, phi0, -sigma, windows * sigma)
        eps = np.finfo(float).eps
        exact_q = [as_fractions(m) for m in q]
        exact_pieces = [[as_fractions(c) for c in coef] for coef in pieces]
        exact_knots = [Fraction(k) for k in knots]
        bks = out.breakpoints
        for lo, hi in zip(bks[:-1], bks[1:]):
            for t in lo + (hi - lo) * np.array([0.0, 0.25, 0.5, 0.75]):
                exact, terms = exact_repeated_integration(
                    exact_q, Fraction(sigma), exact_knots, exact_pieces, Fraction(t)
                )
                err = np.abs(out.eval(t) - exact.astype(float))
                assert np.all(err <= 16 * eps * terms.astype(float)), (t, err)

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
        q = build_q_table(*(rng.integers(-4, 5, size=(2, 1, 1)) / 8.0), windows).mats
        knots = [-sigma, *hist_knots, 0.0, *force_knots, windows * sigma]
        pieces = [rng.integers(-64, 65, size=(5, 1, 1)) / 64.0 for _ in knots[:-1]]
        phi0 = PiecewiseMatrixPolynomial(knots, [MatrixPolynomial(c) for c in pieces])
        out = convolve_kernel(q, sigma, phi0, -sigma, windows * sigma)
        shifted = np.concatenate([np.asarray(knots) + r * sigma for r in range(windows + 1)])
        np.testing.assert_array_equal(
            out.breakpoints, np.unique(shifted[shifted <= windows * sigma])
        )
        eps = np.finfo(float).eps
        exact_q = [as_fractions(m) for m in q]
        exact_pieces = [[as_fractions(c) for c in coef] for coef in pieces]
        exact_knots = [Fraction(k) for k in knots]
        bks = out.breakpoints
        for lo, hi in zip(bks[:-1], bks[1:]):
            for t in lo + (hi - lo) * np.array([0.0, 0.25, 0.5, 0.75]):
                exact, terms = exact_repeated_integration(
                    exact_q, Fraction(sigma), exact_knots, exact_pieces, Fraction(t)
                )
                err = np.abs(out.eval(t) - exact.astype(float))
                assert np.all(err <= 16 * eps * terms.astype(float)), (t, err)

    def test_empty_integration_range_gives_zero(self):
        # left of the data's first knot every Phi_r integrates over nothing
        rng = np.random.default_rng(44)
        data = random_ppoly(rng, 2, 0.0, 1.0, 1, 1)
        q = rng.uniform(-1.0, 1.0, size=(3, 2, 2))
        out = convolve_kernel(q, 0.5, data, -1.0, 0.0)
        np.testing.assert_array_equal(out.eval(np.linspace(-1.0, -1e-9, 7)),
                                      np.zeros((7, 2, 2)))

    def test_smoothing_raises_polynomial_degree_by_one(self):
        rng = np.random.default_rng(45)
        data = random_ppoly(rng, 2, -1.0, 1.0, 1, 3)
        q = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        out = convolve_kernel(q, 1.0, data, -1.0, 1.0)
        assert [p.degree for p in out.pieces] == [3, 3 + 1]

    def test_output_knots_are_the_data_knots_shifted_by_each_delay(self):
        rng = np.random.default_rng(48)
        data = random_ppoly(rng, 1, -0.5, 2.0, 3, 1)  # knots -0.5, 0.333.., 1.166..
        q = rng.uniform(-1.0, 1.0, size=(3, 1, 1))
        out = convolve_kernel(q, 0.5, data, -0.5, 1.5)
        want = np.unique(np.concatenate(
            [data.breakpoints + 0.5 * r for r in range(3)] + [[1.5]]))
        np.testing.assert_allclose(out.breakpoints, want[want <= 1.5], atol=1e-15)
        assert out.left_value.shape == (1, 1) and not out.left_value.any()

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(46)
        data = random_ppoly(rng, 3, 0.0, 1.0, 1, 1)
        q = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        with pytest.raises(DimensionMismatch):
            convolve_kernel(q, 1.0, data, 0.0, 1.0)
