"""Piecewise matrix polynomials: evaluation semantics, calculus,
reparametrizations, algebra, and the exact convolution."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from delaymat import build_fundamental_continuous, fixtures
from delaymat.errors import DegreeCapExceeded, DimensionMismatch
from delaymat.linalg import max_abs
from delaymat.ppoly import (
    MAX_DEGREE,
    MatrixPolynomial,
    PiecewiseMatrixPolynomial,
    convolve_kernel,
)


def exact_convolution(kpieces, kbks, dcoef, a, b, t):
    """``\\int_a^b K(t - s) D(s) ds`` in exact rational arithmetic for a
    scalar kernel with global-basis pieces ``kpieces`` on ``kbks`` (zero
    left of ``kbks[0]``, the last piece extended) and one data piece."""
    total = Fraction(0)
    for k, pcoef in enumerate(kpieces):
        s_hi = min(b, t - kbks[k])
        s_lo = a if k == len(kpieces) - 1 else max(a, t - kbks[k + 1])
        if s_hi <= s_lo:
            continue
        # K(t - s) as coefficients in s, times D(s)
        ks = [Fraction(0)] * len(pcoef)
        for al, p in enumerate(pcoef):
            for j in range(al + 1):
                ks[j] += p * comb(al, j) * t ** (al - j) * (-1) ** j
        prod = [Fraction(0)] * (len(ks) + len(dcoef) - 1)
        for i, x in enumerate(ks):
            for j, y in enumerate(dcoef):
                prod[i + j] += x * y
        for i, cf in enumerate(prod):
            total += cf * (s_hi ** (i + 1) - s_lo ** (i + 1)) / (i + 1)
    return total


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
        np.testing.assert_allclose(
            z1.integrate(0.0, 1.0), [[1.5, 0.5], [0.0, 2.0]], atol=1e-14
        )

    def test_shift_matches_pointwise_translation(self, z1):
        shifted = z1.shift(-1.0)  # q(t) = Z(t - 1)
        np.testing.assert_allclose(
            shifted.eval(1.5), z1.eval(0.5), atol=1e-14
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
        for k in range(1, bks.size):
            np.testing.assert_array_equal(
                right[k], p.pieces[min(k, len(p.pieces) - 1)].eval(bks[k])
            )
            np.testing.assert_array_equal(left[k], p.pieces[k - 1].eval(bks[k]))
        np.testing.assert_array_equal(right[0], p.pieces[0].eval(bks[0]))

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

    def test_integrate_additivity(self):
        rng = np.random.default_rng(6)
        p = random_ppoly(rng, 2, -1.0, 2.0, 3, 3)
        a, b, c = -1.5, 0.3, 1.9
        whole = p.integrate(a, c)
        split = p.integrate(a, b) + p.integrate(b, c)
        np.testing.assert_allclose(split, whole, atol=1e-13)

    def test_integrate_covers_the_left_region(self):
        p = PiecewiseMatrixPolynomial(
            [0.0, 1.0],
            [MatrixPolynomial.constant([[2.0]])],
            left_value=[[0.5]],
        )
        assert p.integrate(-2.0, 1.0)[0, 0] == pytest.approx(0.5 * 2 + 2.0)

    def test_integrate_rejects_reversed_bounds(self):
        p = PiecewiseMatrixPolynomial(
            [0.0, 1.0], [MatrixPolynomial.constant([[1.0]])]
        )
        with pytest.raises(ValueError):
            p.integrate(1.0, 0.0)

    def test_differentiate_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = random_ppoly(rng, 2, 0.0, 3.0, 3, 4)
        rate = p.differentiate()
        ts = np.array([0.21, 0.77, 1.13, 1.62, 2.04, 2.88])
        h = 1e-6
        numeric = (p.eval(ts + h) - p.eval(ts - h)) / (2 * h)
        np.testing.assert_allclose(rate.eval(ts), numeric, atol=1e-7)


class TestReparametrizations:
    def test_shift_composition(self):
        rng = np.random.default_rng(9)
        p = random_ppoly(rng, 2, 0.0, 2.0, 2, 3)
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

    def test_shift_moves_the_domain(self):
        p = PiecewiseMatrixPolynomial(
            [0.0, 1.0], [MatrixPolynomial([[[0.0]], [[1.0]]])]
        )
        q = p.shift(1.0)  # q(t) = p(t + 1)
        assert q.start == -1.0 and q.end == 0.0
        assert q.eval(-0.25)[0, 0] == pytest.approx(0.75)

    def test_reflect_is_pointwise_reflection_for_continuous_input(self, z1):
        center = 1.3
        r = z1.reflect(center, -1.0, 3.0)
        ts = np.linspace(-0.99, 2.99, 113)
        np.testing.assert_allclose(
            r.eval(ts), z1.eval(center - ts), atol=1e-12
        )

    def test_restrict_preserves_values(self):
        rng = np.random.default_rng(10)
        p = random_ppoly(rng, 2, -1.0, 2.0, 3, 2)
        q = p.restrict(-0.5, 1.5)
        ts = np.linspace(-0.5, 1.499, 41)
        np.testing.assert_allclose(q.eval(ts), p.eval(ts), atol=0)


class TestAlgebra:
    def test_add_sub_scale(self):
        rng = np.random.default_rng(12)
        p = random_ppoly(rng, 2, 0.0, 2.0, 2, 2)
        q = random_ppoly(rng, 2, -0.5, 2.5, 3, 3)
        ts = np.linspace(0.0, 1.999, 29)
        np.testing.assert_allclose(
            (p + q).eval(ts), p.eval(ts) + q.eval(ts), atol=1e-13
        )
        np.testing.assert_allclose(
            (p - q).eval(ts), p.eval(ts) - q.eval(ts), atol=1e-13
        )
        np.testing.assert_allclose(
            p.scale(-2.5).eval(ts), -2.5 * p.eval(ts), atol=1e-13
        )

    def test_matmul_preserves_factor_order(self):
        rng = np.random.default_rng(13)
        p = random_ppoly(rng, 2, 0.0, 1.0, 1, 2)
        q = random_ppoly(rng, 2, 0.0, 1.0, 1, 2)
        ts = np.linspace(0.0, 0.999, 17)
        np.testing.assert_allclose(
            p.matmul(q).eval(ts), p.eval(ts) @ q.eval(ts), atol=1e-13
        )

    def test_lmul_rmul(self):
        rng = np.random.default_rng(14)
        p = random_ppoly(rng, 2, 0.0, 1.0, 2, 2)
        m = rng.uniform(-1.0, 1.0, size=(2, 2))
        ts = np.linspace(-0.3, 1.3, 19)
        np.testing.assert_allclose(p.lmul(m).eval(ts), m @ p.eval(ts), atol=1e-14)
        np.testing.assert_allclose(p.rmul(m).eval(ts), p.eval(ts) @ m, atol=1e-14)

    def test_knot_jumps(self):
        cont = PiecewiseMatrixPolynomial(
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
        kernel = random_ppoly(rng, 1, -1.0, 1.0, 1, MAX_DEGREE // 2)
        data = random_ppoly(rng, 1, 0.0, 1.0, 1, MAX_DEGREE // 2)
        with pytest.raises(DegreeCapExceeded):
            convolve_kernel(kernel, data, 0.0, 0.0, 1.0, 0.0, 1.0)

    def test_trailing_zero_coefficients_are_trimmed(self):
        p = MatrixPolynomial(np.zeros((MAX_DEGREE + 2, 1, 1)))
        assert p.degree == 0


class TestConvolution:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reflect_matmul_integrate(self, seed):
        rng = np.random.default_rng(40 + seed)
        d = 2
        kernel = random_ppoly(rng, d, -1.0, 3.0, 4, 3)
        data = random_ppoly(rng, d, 0.0, 2.0, 2, 2)
        c, a, b = 1.0, 0.0, 2.0
        out = convolve_kernel(kernel, data, c, a, b, -1.0, 3.0)
        for t in np.linspace(-0.9, 2.9, 23):
            # independent route: materialize s -> kernel(t - c - s) and
            # integrate its product with the data over [a, b]
            refl = kernel.reflect(t - c, a - 1e-3, b + 1e-3)
            expected = refl.matmul(data.restrict(a - 1e-3, b + 1e-3)).integrate(a, b)
            np.testing.assert_allclose(out.eval(t), expected, atol=1e-10)

    # (kernel breakpoints, data piece [a, b], output [0, hi)): one output
    # interval at the origin, so no basis change enters the comparison
    @pytest.mark.parametrize(
        "kbks, a, b, hi",
        [
            pytest.param((-1, 1), 0, 0.5, 0.5, id="fixed-fixed"),
            pytest.param((0, 1), 0, 0.5, 0.5, id="fixed-moving"),
            pytest.param((-0.5, 0, 1), 0, 0.5, 0.5, id="moving-fixed"),
            pytest.param((-0.25, 0, 1), 0, 1, 0.75, id="moving-moving"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scalar_pair_integrals_match_exact_reference(self, kbks, a, b, hi, seed):
        rng = np.random.default_rng(60 + seed)

        def dyadic(n):
            return [Fraction(int(v), 64) for v in rng.integers(-64, 65, size=n)]

        kpieces = [dyadic(25) for _ in kbks[:-1]]  # kernel degree 24
        dcoef = dyadic(5)
        kernel = PiecewiseMatrixPolynomial(
            kbks, [MatrixPolynomial(np.array(pc, dtype=float)[:, None, None])
                   for pc in kpieces]
        )
        data = PiecewiseMatrixPolynomial(
            [a, b], [MatrixPolynomial(np.array(dcoef, dtype=float)[:, None, None])]
        )
        out = convolve_kernel(kernel, data, 0.0, a, b, 0.0, hi)
        assert len(out.pieces) == 1
        ts = [Fraction(hi) * Fraction(k, 32) for k in range(32)]
        exact = np.array([
            float(exact_convolution(
                kpieces, [Fraction(x) for x in kbks], dcoef,
                Fraction(a), Fraction(b), t,
            ))
            for t in ts
        ])
        got = out.eval(np.array(ts, dtype=float))[:, 0, 0]
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - exact)) <= 16 * eps * np.max(np.abs(exact))

    def test_empty_integration_range_gives_zero(self):
        rng = np.random.default_rng(44)
        kernel = random_ppoly(rng, 2, -1.0, 1.0, 2, 2)
        data = random_ppoly(rng, 2, 0.0, 1.0, 1, 1)
        out = convolve_kernel(kernel, data, 0.5, 0.3, 0.3, 0.0, 1.0)
        np.testing.assert_array_equal(out.eval(0.5), np.zeros((2, 2)))

    def test_smoothing_raises_polynomial_degree_by_one(self):
        rng = np.random.default_rng(45)
        kernel = random_ppoly(rng, 2, -1.0, 1.0, 1, 2)
        data = random_ppoly(rng, 2, 0.0, 1.0, 1, 3)
        out = convolve_kernel(kernel, data, 0.0, 0.0, 1.0, -1.0, 1.0)
        assert out.degree <= 2 + 3 + 1

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(46)
        kernel = random_ppoly(rng, 2, -1.0, 1.0, 1, 1)
        data = random_ppoly(rng, 3, 0.0, 1.0, 1, 1)
        with pytest.raises(DimensionMismatch):
            convolve_kernel(kernel, data, 0.0, 0.0, 1.0, 0.0, 1.0)
