"""Piecewise-polynomial payloads: the local coefficient basis on disk,
files in the global basis, and the generators and fixtures that convert
global draws the same way; the JSON writer's layout and exact round
trip; the writers' refusal of non-finite numbers; and the anchored
errors of the matrix-stack reader."""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from delaymat import (
    SchemaError,
    TrajectoryTable,
    build_q_table,
    fixtures,
    solve_continuous,
    solve_discrete,
    validate_hypotheses,
)
from delaymat.generators import (
    random_discrete_scalar_data,
    random_matrix_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.linalg import max_abs
from delaymat.serialize import (
    dump_json,
    load_forcing,
    load_history,
    load_system,
    ppoly_from_node,
    ppoly_to_node,
    qtable_to_node,
    replace_on_success,
    trajectory_from_node,
    trajectory_to_node,
    write_json,
    write_trajectory_csv,
)
from calculus import differentiate, knot_jumps, value

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
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(back.left_value, x.left_value)
        assert back.right_extension == x.right_extension

    def test_missing_basis_reads_as_global(self, tmp_path):
        node = {"kind": "ppoly", "breakpoints": [1.0, 2.0],
                "pieces": [[[[0.0]], [[1.0]]]]}  # p(t) = t
        p = ppoly_from_node(node, 1, "p.json")
        np.testing.assert_array_equal(p.pieces[0], [[[1.0]], [[1.0]]])
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
            glob = replay.uniform(-1.0, 1.0, size=4)[:, None, None] * np.eye(2)
            ts = np.linspace(forcing.breakpoints[k], forcing.breakpoints[k + 1], 7)[:-1]
            np.testing.assert_allclose(forcing.eval(ts), value(glob, ts), rtol=0,
                                       atol=1e-14)

    def test_generated_history_is_c1_at_its_knots(self):
        rng = np.random.default_rng(9)
        sys = random_system(rng, 2, "continuous", sigma=0.7)
        psi = random_scalar_history(rng, sys, deg=3, n_pieces=4).ppoly
        assert np.all(knot_jumps(psi) <= 1e-14)
        assert np.all(knot_jumps(differentiate(psi)) <= 1e-13)

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_general_data_does_not_commute(self, kind):
        # what verify --random draws: matrix data that A1 does not pass,
        # and a continuous history that jumps at its knots
        rng = np.random.default_rng(10)
        sys = random_system(rng, 3, kind, sigma=0.7)
        history, forcing = random_matrix_data(rng, sys, 7)
        assert not validate_hypotheses(sys, history, forcing, steps=7).ok
        if kind == "continuous":
            assert knot_jumps(history.ppoly).min() > 1e-3
            assert forcing.ppoly.end == 7.0
        else:
            assert forcing.values.shape == (7, 3, 3)


@pytest.fixture(params=["continuous", "discrete"])
def solved_table(request):
    """A sampled solve of a random d=3 system of either family."""
    rng = np.random.default_rng(11)
    sys = random_system(rng, 3, request.param, sigma=0.7)
    if sys.is_continuous:
        history = random_scalar_history(rng, sys)
        forcing = random_scalar_forcing(rng, sys, 2.1)
        x = solve_continuous(sys, history, forcing, 2.1)
        times = np.linspace(-0.7, 2.1, 57)
        return TrajectoryTable(kind="continuous", times=times, values=x.eval(times))
    history, forcing = random_discrete_scalar_data(rng, sys, 40)
    return solve_discrete(sys, history, forcing, 40)


def entry_lines(text, first, count):
    """The ``count`` lines from line ``first`` on, each parsed as JSON."""
    lines = text.splitlines()[first : first + count]
    return [json.loads(line.strip().rstrip(",")) for line in lines]


class TestJsonWriter:
    def test_file_and_stream_parse_back_bit_identically(self, tmp_path, solved_table):
        path = tmp_path / "x.json"
        write_json(trajectory_to_node(solved_table), path)
        buf = io.StringIO()
        dump_json(trajectory_to_node(solved_table), buf)
        assert buf.getvalue() == path.read_text()
        doc = json.loads(path.read_text())
        assert doc["trajectory_kind"] == solved_table.kind
        assert np.array_equal(np.array(doc["times"]), solved_table.times)
        assert np.array_equal(np.array(doc["values"]), solved_table.values)
        back = trajectory_from_node(doc, str(path))
        assert np.array_equal(back.times, solved_table.times)
        assert np.array_equal(back.values, solved_table.values)

    def test_trajectory_file_has_one_matrix_per_line(self, tmp_path, solved_table):
        path = tmp_path / "x.json"
        write_json(dict(trajectory_to_node(solved_table), note="tail key"), path)
        text = path.read_text()
        rows = solved_table.times.size
        lines = text.splitlines()
        # {, kind, trajectory_kind, times, "values": [, rows, ], note, }
        assert len(lines) == rows + 8
        assert text.endswith("}\n")
        assert [ln.split(":")[0] for ln in lines[1:5]] == [
            '  "kind"', '  "trajectory_kind"', '  "times"', '  "values"'
        ]
        assert lines[4] == '  "values": ['
        assert lines[rows + 5] == "  ],"
        got = entry_lines(text, 5, rows)
        assert all(np.array_equal(g, v) for g, v in zip(got, solved_table.values))

    def test_q_table_and_ppoly_load_back_equal_to_their_nodes(self, tmp_path,
                                                              ex1_system, ex1_history,
                                                              ex1_forcing):
        q = build_q_table(ex1_system.a0, ex1_system.a1, 5)
        x = solve_continuous(ex1_system, ex1_history, ex1_forcing, 3.0)
        for node, stack_key in ((qtable_to_node(q), "mats"), (ppoly_to_node(x), "pieces")):
            path = tmp_path / f"{stack_key}.json"
            write_json(node, path)
            text = path.read_text()
            assert json.loads(text) == node
            # one element of the stack per line, every other key on one line
            assert len(text.splitlines()) == len(node[stack_key]) + len(node) + 3
            first = 2 + list(node).index(stack_key)
            assert entry_lines(text, first, len(node[stack_key])) == node[stack_key]

    def test_empty_and_flat_values_stay_on_one_line(self):
        buf = io.StringIO()
        dump_json({"mats": [], "eye": np.eye(2), "flag": False}, buf)
        assert buf.getvalue() == (
            '{\n  "mats": [],\n  "eye": [[1.0,0.0],[0.0,1.0]],\n'
            '  "flag": false\n}\n'
        )


class TestNonFiniteRefused:
    """JSON has no NaN or Infinity (orjson would write ``null``), so every
    writer refuses them, naming the key or row."""

    def test_json_array(self, tmp_path):
        values = np.zeros((3, 2, 2))
        values[1, 0, 1] = np.nan
        table = TrajectoryTable(kind="discrete", times=np.arange(3.0), values=values)
        with pytest.raises(ValueError, match=r"^'values'\[1\]: cannot write a non-"):
            write_json(trajectory_to_node(table), tmp_path / "x.json")

    def test_json_scalar(self):
        with pytest.raises(ValueError, match=r"^'tol': cannot write a non-finite"):
            dump_json({"out": None, "tol": math.inf}, io.StringIO())

    def test_csv_row(self):
        values = np.zeros((3, 2, 2))
        values[2, 1, 1] = -np.inf
        table = TrajectoryTable(kind="discrete", times=np.arange(3.0), values=values)
        with pytest.raises(ValueError, match=r"^row 2: cannot write a non-finite"):
            write_trajectory_csv(table, io.StringIO())

    def test_none_is_still_null(self):
        buf = io.StringIO()
        dump_json({"out": None, "opts": {"to": 1.5, "forcing": None}}, buf)
        assert buf.getvalue() == (
            '{\n  "out": null,\n  "opts": {"to":1.5,"forcing":null}\n}\n'
        )


class TestReplaceOnSuccess:
    """A file is complete or absent: written under a temporary name and
    renamed over its path only when the writer succeeds."""

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_json({"ok": 1.0, "bad": math.nan}, tmp_path / "x.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError), replace_on_success(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("previous\n")
        write_json({"a": [1.5]}, path)
        assert json.loads(path.read_text()) == {"a": [1.5]}
        assert list(tmp_path.iterdir()) == [path]

    def test_a_symbolic_link_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target.name)
        write_json({"a": 2.0}, link)
        assert link.is_symlink()
        assert json.loads(target.read_text()) == {"a": 2.0}

def _stack(n, d, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d, d)).tolist()


def _defect(stack, kind):
    """Plant a bad entry at ``stack[3][2][1]``; return the pointer suffix
    and the message today's reader gives for it."""
    if kind == "ragged":
        stack[3][2] = stack[3][2][:2]
        return "/3/2", "expected a row of 3 numbers"
    value = {"bool": True, "str": "1.0", "nan": math.nan}[kind]
    stack[3][2][1] = value
    if kind == "nan":
        return "/3", "matrix entries must be finite"
    return "/3/2/1", f"expected a number, got {type(value).__name__}"


DEFECTS = ["bool", "str", "ragged", "nan"]


class TestStackReaderErrors:
    """The fast array read falls back to the walk, so a bad entry deep in
    a stack is still named by its exact JSON pointer."""

    def check(self, read, path, ptr, msg):
        with pytest.raises(SchemaError) as err:
            read()
        assert err.value.location == f"{path}: {ptr}"
        assert str(err.value) == f"{path}: {ptr}: {msg}"

    @pytest.mark.parametrize("kind", DEFECTS)
    def test_trajectory_values(self, kind):
        values = _stack(6, 3, 1)
        suffix, msg = _defect(values, kind)
        doc = {"kind": "trajectory", "trajectory_kind": "continuous",
               "times": [0.1 * k for k in range(6)], "values": values}
        self.check(lambda: trajectory_from_node(doc, "x.json"), "x.json",
                   "/values" + suffix, msg)

    @pytest.mark.parametrize("kind", DEFECTS)
    @pytest.mark.parametrize("which", ["history", "forcing"])
    def test_discrete_tables(self, tmp_path, which, kind):
        sys = random_system(np.random.default_rng(2), 3, "discrete", m=4)
        values = _stack(5, 3, 3)
        suffix, msg = _defect(values, kind)
        path = tmp_path / f"{which}.json"
        path.write_text(json.dumps({"kind": "table", "values": values}))
        read = load_history if which == "history" else load_forcing
        self.check(lambda: read(path, sys), path, "/values" + suffix, msg)

    @pytest.mark.parametrize("kind", DEFECTS)
    @pytest.mark.parametrize("which", ["history", "forcing"])
    def test_ppoly_pieces(self, tmp_path, which, kind):
        sys = random_system(np.random.default_rng(2), 3, "continuous")
        coeffs = _stack(5, 3, 4)
        suffix, msg = _defect(coeffs, kind)
        lo = -1.0 if which == "history" else 0.0
        node = {"kind": "ppoly", "basis": "local", "breakpoints": [lo, lo + 0.5, lo + 1.0],
                "pieces": [_stack(2, 3, 5), coeffs]}
        path = tmp_path / f"{which}.json"
        path.write_text(json.dumps(node))
        read = load_history if which == "history" else load_forcing
        self.check(lambda: read(path, sys), path, "/pieces/1" + suffix, msg)

    def test_times(self):
        doc = {"kind": "trajectory", "trajectory_kind": "discrete",
               "times": [0.0, 1.0, "2"], "values": _stack(3, 2, 6)}
        self.check(lambda: trajectory_from_node(doc, "x.json"), "x.json",
                   "/times/2", "expected a number, got str")
