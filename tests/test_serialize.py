"""Piecewise-polynomial payloads: the local coefficient basis on disk,
files in the global basis, and the generators and fixtures that convert
global draws the same way."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from delaymat import SchemaError, fixtures, solve_continuous
from delaymat.generators import (
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import max_abs
from delaymat.ppoly import MatrixPolynomial
from delaymat.serialize import (
    load_forcing,
    load_history,
    load_system,
    ppoly_from_node,
    ppoly_to_node,
)

DATA = Path(__file__).parent / "data"


def read_back(ppoly, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(ppoly_to_node(ppoly)))
    return ppoly_from_node(json.loads(path.read_text()), ppoly.dim, str(path))


class TestLocalBasis:
    def test_solved_x_round_trips_exactly(self, tmp_path, ex1_system, ex1_history,
                                          ex1_forcing):
        x = solve_continuous(ex1_system, ex1_history, ex1_forcing, 3.0)
        assert ppoly_to_node(x)["basis"] == "local"
        back = read_back(x, tmp_path)
        np.testing.assert_array_equal(back.breakpoints, x.breakpoints)
        for got, want in zip(back.pieces, x.pieces):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)
        np.testing.assert_array_equal(back.left_value, x.left_value)
        assert back.right_extension == x.right_extension

    def test_missing_basis_reads_as_global(self, tmp_path):
        node = {"kind": "ppoly", "breakpoints": [1.0, 2.0],
                "pieces": [[[[0.0]], [[1.0]]]]}  # p(t) = t
        p = ppoly_from_node(node, 1, "p.json")
        np.testing.assert_array_equal(p.pieces[0].coeffs, [[[1.0]], [[1.0]]])
        assert p.eval(1.5)[0, 0] == 1.5
        node["basis"] = "global"
        assert ppoly_from_node(node, 1, "p.json").eval(1.5)[0, 0] == 1.5
        node["basis"] = "local"
        assert ppoly_from_node(node, 1, "p.json").eval(1.5)[0, 0] == 0.5

    @pytest.mark.parametrize("basis", ["chebyshev", 1, None, ["local"]])
    def test_any_other_basis_is_a_schema_error(self, basis):
        node = {"kind": "ppoly", "basis": basis, "breakpoints": [0.0, 1.0],
                "pieces": [[[[1.0]]]]}
        with pytest.raises(SchemaError, match="p.json: /basis"):
            ppoly_from_node(node, 1, "p.json")

    def test_committed_global_pair_solves_like_the_local_pair(self):
        # the same history and forcing on knots off the delay grid, once
        # in global coefficients and once in local coefficients converted
        # exactly from them (tests/data/basis_*.json)
        sys = load_system(DATA / "basis_system.json")
        solutions = []
        for basis in ("global", "local"):
            history = load_history(DATA / f"basis_history_{basis}.json", sys)
            forcing = load_forcing(DATA / f"basis_forcing_{basis}.json", sys)
            solutions.append(solve_continuous(sys, history, forcing, 2.8))
        ts = np.linspace(-0.7, 2.8, 301)
        glob, local = (x.eval(ts) for x in solutions)
        assert max_abs(glob - local) <= 1e-13 * max_abs(local)
        assert [len(x.pieces) for x in solutions] == [len(solutions[1].pieces)] * 2


class TestGlobalDrawsAreConverted:
    def test_fixture_ramp(self):
        ramp = fixtures.example1_history().ppoly
        ts = np.array([-1.0, -0.75, -0.5, -0.125, 0.0])
        np.testing.assert_array_equal(ramp.eval(ts), ts[:, None, None] * np.eye(2))

    def test_generated_forcing_is_the_drawn_global_polynomial(self):
        sys = random_system(np.random.default_rng(3), 2, "continuous")
        draws = np.random.default_rng(4)
        forcing = random_scalar_forcing(draws, sys, 3.0, deg=3, n_pieces=3).ppoly
        replay = np.random.default_rng(4)
        for k in range(3):
            glob = MatrixPolynomial(replay.uniform(-1.0, 1.0, size=4)[:, None, None]
                                    * np.eye(2))
            ts = np.linspace(forcing.breakpoints[k], forcing.breakpoints[k + 1], 7)[:-1]
            np.testing.assert_allclose(forcing.eval(ts), glob.eval(ts), rtol=0,
                                       atol=1e-14)

    def test_generated_history_is_c1_at_its_knots(self):
        rng = np.random.default_rng(9)
        sys = random_system(rng, 2, "continuous", sigma=0.7)
        psi = random_scalar_history(rng, sys, deg=3, n_pieces=4).ppoly
        assert np.all(psi.knot_jumps() <= 1e-14)
        assert np.all(psi.differentiate().knot_jumps() <= 1e-13)
