"""Coefficient tables: the operator recursion, its binomial expansion,
and agreement between the two for arbitrary (noncommuting) pairs."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from delaymat.errors import DegreeCapExceeded, DimensionMismatch
from delaymat.linalg import max_abs
from delaymat.qseq import QTable, build_q_table, q_commutative_closed_form


def word_sum(a0, a1, r):
    """Expand the r-th operator iterate literally: sum over all 2**r
    orderings of "left-multiply by a0" / "right-multiply by a1" applied
    to the identity.  Exponential cost, but shares no logic with either
    production formula."""
    d = a0.shape[0]
    total = np.zeros((d, d))
    for word in itertools.product((0, 1), repeat=r):
        m = np.eye(d)
        for op in word:
            m = a0 @ m if op == 0 else m @ a1
        total += m
    return total


class TestRecursion:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_literal_word_expansion(self, d, seed):
        rng = np.random.default_rng(seed)
        a0 = rng.uniform(-1.0, 1.0, size=(d, d))
        a1 = rng.uniform(-1.0, 1.0, size=(d, d))
        q = build_q_table(a0, a1, 6)
        for r in range(7):
            expected = word_sum(a0, a1, r)
            scale = max(1.0, max_abs(expected))
            assert max_abs(q[r] - expected) <= 1e-12 * scale

    def test_base_case_is_identity(self):
        q = build_q_table(np.zeros((3, 3)), np.zeros((3, 3)), 0)
        np.testing.assert_array_equal(q[0], np.eye(3))
        assert q.depth == 0
        assert len(q) == 1

    def test_one_application(self):
        a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        a1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        q = build_q_table(a0, a1, 2)
        np.testing.assert_array_equal(q[1], a0 + a1)
        np.testing.assert_array_equal(q[2], a0 @ (a0 + a1) + (a0 + a1) @ a1)

    def test_shape_and_depth_validation(self):
        with pytest.raises(DimensionMismatch):
            build_q_table(np.eye(2), np.eye(3), 2)
        with pytest.raises(ValueError):
            build_q_table(np.eye(2), np.eye(2), -1)
        with pytest.raises(DimensionMismatch):
            QTable(np.zeros((3, 2, 3)))

    def test_iterates_past_the_float_range_refuse(self):
        # q[1] = 1e200 I is finite, q[2] = 1e400 I is not; the check must
        # cover the last iterate too
        np.testing.assert_array_equal(
            build_q_table(1e200 * np.eye(2), np.zeros((2, 2)), 1)[1],
            1e200 * np.eye(2),
        )
        with pytest.raises(DegreeCapExceeded, match=r"q\[2\] of depth 2"):
            build_q_table(1e200 * np.eye(2), np.zeros((2, 2)), 2)


class TestBinomialExpansion:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_recursion_for_noncommuting_pairs(self, d, seed):
        rng = np.random.default_rng(100 + seed)
        a0 = rng.uniform(-1.0, 1.0, size=(d, d))
        a1 = rng.uniform(-1.0, 1.0, size=(d, d))
        q = build_q_table(a0, a1, 8)
        for r in range(9):
            direct = q_commutative_closed_form(a0, a1, r)
            scale = max(1.0, max_abs(q[r]))
            assert max_abs(direct - q[r]) <= 1e-8 * scale, f"r={r}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_commuting_pair_matches_matrix_power(self, seed):
        rng = np.random.default_rng(200 + seed)
        a0 = rng.uniform(-1.0, 1.0, size=(3, 3))
        c = rng.uniform(-1.0, 1.0, size=3)
        a1 = c[0] * np.eye(3) + c[1] * a0 + c[2] * (a0 @ a0)
        q = build_q_table(a0, a1, 6)
        s = a0 + a1
        power = np.eye(3)
        for r in range(7):
            scale = max(1.0, max_abs(power))
            assert max_abs(q[r] - power) <= 1e-10 * scale, f"r={r}"
            power = power @ s

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            q_commutative_closed_form(np.eye(2), np.eye(2), -1)


class TestQTableContainer:
    def test_indexing_and_properties(self):
        rng = np.random.default_rng(5)
        a0 = rng.standard_normal((2, 2))
        a1 = rng.standard_normal((2, 2))
        q = build_q_table(a0, a1, 4)
        assert q.dim == 2
        assert q.depth == 4
        assert len(q) == 5
        np.testing.assert_array_equal(q[0], np.eye(2))
        np.testing.assert_array_equal(q.mats[3], q[3])
