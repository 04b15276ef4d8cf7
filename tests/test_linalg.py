"""Matrix helpers, and the reference module's exact binomials (both
signs), two-sided multiplication operator and commutation check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from commutative_reference import binomial, commutes
from delaymat.errors import DimensionMismatch
from delaymat.linalg import as_square_matrix, max_abs


class TestBinomial:
    @pytest.mark.parametrize("n", range(0, 12))
    def test_matches_math_comb_for_nonnegative_n(self, n):
        for k in range(0, n + 3):
            assert binomial(n, k) == math.comb(n, k)

    @pytest.mark.parametrize(
        ("n", "k", "expected"),
        [
            (-1, 0, 1),
            (-1, 1, -1),
            (-1, 2, 1),
            (-1, 5, -1),
            (-2, 3, -4),
            (-3, 2, 6),
            (-5, 4, 70),
        ],
    )
    def test_negative_upper_argument(self, n, k, expected):
        assert binomial(n, k) == expected

    @pytest.mark.parametrize("n", range(-6, 7))
    def test_falling_factorial_definition(self, n):
        # C(n, k) = n (n-1) ... (n-k+1) / k! for either sign of n
        for k in range(0, 8):
            num = 1
            for i in range(k):
                num *= n - i
            assert binomial(n, k) * math.factorial(k) == num

    @pytest.mark.parametrize("n", range(-5, 8))
    def test_pascal_rule(self, n):
        for k in range(1, 8):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_large_arguments_are_exact_integers(self):
        value = binomial(100, 50)
        assert isinstance(value, int)
        assert value == math.comb(100, 50)
        assert binomial(-60, 60) == math.comb(119, 60)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial(3, -1)


class TestSylvesterApply:
    """The operator ``M -> A0 M + M A1`` whose iterates ``build_q_table``
    builds."""

    def test_left_and_right_multiplications_commute_as_operators(self):
        # applying "left by a0" then "right by a1" equals the reverse order
        rng = np.random.default_rng(11)
        a0 = rng.standard_normal((3, 3))
        a1 = rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3))
        np.testing.assert_allclose((a0 @ m) @ a1, a0 @ (m @ a1), atol=1e-12)


class TestCommutes:
    def test_commuting_pair(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = 3.0 * np.eye(2) + 2.0 * a + a @ a
        assert commutes(a, b)

    def test_noncommuting_pair(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert not commutes(a, b)

    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        assert commutes(np.eye(4), m)

    def test_explicit_tolerance_override(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-13]])
        # nearly scalar: passes the default relative check ...
        assert commutes(a, b)
        # ... but fails an absolute zero-tolerance check
        assert not commutes(a, b, tol=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            commutes(np.eye(2), np.eye(3))


class TestCoercion:
    def test_as_square_matrix_accepts_lists(self):
        mat = as_square_matrix([[1, 2], [3, 4]])
        assert mat.dtype == np.float64
        np.testing.assert_array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_square_matrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            as_square_matrix(np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_square_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_max_abs(self):
        assert max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
        assert max_abs(np.zeros((0, 2, 2))) == 0.0
        assert max_abs(np.array([[[1.0]], [[-7.0]]])) == 7.0
