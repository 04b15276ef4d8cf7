"""Command-line front end: subcommands, formats, exit codes, and the
run manifest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from delaymat import (
    DiscreteFundamental,
    build_fundamental_continuous,
    build_q_table,
    fixtures,
)
from delaymat.cli import _compare_windows, main
from delaymat.generators import (
    random_discrete_scalar_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.serialize import ppoly_to_node, qtable_to_node, read_trajectory_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_dumps(capsys, tmp_path, *argv):
    """Run with ``--dump-q`` and ``--dump-z``; return the two JSON nodes."""
    qpath = tmp_path / "q.json"
    zpath = tmp_path / "z.json"
    code, _, _ = run_cli(
        capsys, *argv, "--dump-q", str(qpath), "--dump-z", str(zpath)
    )
    assert code == 0
    return json.loads(qpath.read_text()), json.loads(zpath.read_text())


def assert_q_table(qnode, system, depth):
    assert qnode["kind"] == "qtable"
    expected = build_q_table(system.a0, system.a1, depth).mats
    assert len(qnode["mats"]) == len(expected)
    np.testing.assert_array_equal(np.array(qnode["mats"]), np.stack(expected))


def assert_discrete_z_table(znode, system, first, last):
    fund = DiscreteFundamental(system)
    assert znode["trajectory_kind"] == "discrete"
    assert znode["times"] == [float(u) for u in range(first, last + 1)]
    np.testing.assert_array_equal(
        np.array(znode["values"]),
        np.stack([fund.value(u) for u in range(first, last + 1)]),
    )


class TestFundamentalCommand:
    def test_discrete_table_has_one_row_per_index(self, capsys, ex2_files):
        sys_path, _, _ = ex2_files
        code, out, _ = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "disc",
            "--to", "6",
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0] == "t,x11,x12,x21,x22"
        assert len(lines) == 1 + 9  # header plus u = -2 .. 6

    def test_discrete_values_match_the_library(self, capsys, ex2_files, ex2_system):
        sys_path, _, _ = ex2_files
        code, out, _ = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "disc",
            "--to", "6",
        )
        assert code == 0
        fund = DiscreteFundamental(ex2_system)
        for line in out.splitlines()[1:]:
            cells = [float(c) for c in line.split(",")]
            u = int(cells[0])
            np.testing.assert_array_equal(
                np.array(cells[1:]).reshape(2, 2), fund.value(u), err_msg=f"u={u}"
            )

    def test_discrete_binomial_overflow_is_a_clean_error(self, capsys, ex2_files):
        sys_path, _, _ = ex2_files
        code, out, err = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "disc",
            "--to", "1600",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: Z(u) at u = 1017 with delay m = 1")

    def test_continuous_sampling(self, capsys, ex1_files, ex1_system):
        sys_path, _, _ = ex1_files
        code, out, _ = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "cont",
            "--to", "2", "--step", "0.25",
        )
        assert code == 0
        z = build_fundamental_continuous(ex1_system, 2.0)
        rows = out.splitlines()[1:]
        assert len(rows) == 13  # -1.0 .. 2.0 in steps of 0.25
        for line in rows:
            cells = [float(c) for c in line.split(",")]
            np.testing.assert_allclose(
                np.array(cells[1:]).reshape(2, 2), z.eval(cells[0]), atol=1e-12
            )

    def test_kind_mismatch_is_a_schema_error(self, capsys, ex1_files):
        sys_path, _, _ = ex1_files
        code, _, err = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "disc",
            "--to", "6",
        )
        assert code == 2
        assert "error" in err

    def test_continuous_needs_a_step(self, capsys, ex1_files):
        sys_path, _, _ = ex1_files
        code, _, err = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "cont",
            "--to", "2",
        )
        assert code == 2
        assert "--step" in err

    def test_dump_q_and_dump_z(self, capsys, tmp_path, ex1_files, ex1_system):
        sys_path, _, _ = ex1_files
        qpath = tmp_path / "q.json"
        zpath = tmp_path / "z.json"
        code, _, _ = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "cont",
            "--to", "3", "--step", "0.5",
            "--dump-q", str(qpath), "--dump-z", str(zpath),
        )
        assert code == 0
        qnode = json.loads(qpath.read_text())
        expected_q1 = ex1_system.a0 + ex1_system.a1
        np.testing.assert_allclose(qnode["mats"][1], expected_q1, atol=0)
        znode = json.loads(zpath.read_text())
        assert znode["breakpoints"][0] == -1.0


    def test_discrete_dump_q_and_dump_z(self, capsys, tmp_path, ex2_files, ex2_system):
        sys_path, _, _ = ex2_files
        qnode, znode = run_with_dumps(
            capsys, tmp_path, "fundamental", "--system", sys_path,
            "--kind", "disc", "--to", "6",
        )
        assert_q_table(qnode, ex2_system, 3)  # ceil(6 / (m + 1)), m = 1
        assert_discrete_z_table(znode, ex2_system, -2, 6)


class TestSolveCommand:
    def test_continuous_dump_q_and_dump_z(self, capsys, tmp_path, ex1_files, ex1_system):
        sys_path, hist_path, force_path = ex1_files
        qnode, znode = run_with_dumps(
            capsys, tmp_path, "solve", "--system", sys_path,
            "--history", hist_path, "--forcing", force_path,
            "--to", "3", "--step", "0.5",
        )
        # the solve formula needs Z one delay past the horizon
        assert_q_table(qnode, ex1_system, 4)
        assert qnode == qtable_to_node(build_q_table(ex1_system.a0, ex1_system.a1, 4))
        assert znode == ppoly_to_node(build_fundamental_continuous(ex1_system, 4.0))

    def test_discrete_dump_q_and_dump_z(self, capsys, tmp_path, ex2_files, ex2_system):
        sys_path, hist_path, force_path = ex2_files
        qnode, znode = run_with_dumps(
            capsys, tmp_path, "solve", "--system", sys_path,
            "--history", hist_path, "--forcing", force_path, "--to", "5",
        )
        assert_q_table(qnode, ex2_system, 3)
        assert_discrete_z_table(znode, ex2_system, -2, 5)

    def test_continuous_values(self, capsys, ex1_files, ex1_system):
        sys_path, hist_path, force_path = ex1_files
        code, out, _ = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--forcing", force_path, "--to", "3", "--step", "0.5",
            "--format", "json",
        )
        assert code == 0
        node = json.loads(out)
        assert node["hypothesis_ok"] is True
        assert node["forced_past_hypothesis"] is False
        times = node["times"]
        values = {t: np.array(v) for t, v in zip(times, node["values"])}
        np.testing.assert_allclose(
            values[0.5], [[0.125, -0.375], [0.0, -0.25]], atol=1e-12
        )

    def test_discrete_values(self, capsys, ex2_files):
        sys_path, hist_path, force_path = ex2_files
        code, out, _ = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--forcing", force_path, "--to", "6",
        )
        assert code == 0
        rows = {
            int(float(line.split(",")[0])): [float(c) for c in line.split(",")[1:]]
            for line in out.splitlines()[1:]
        }
        for entry in fixtures.EXAMPLE2_X_TABLE:
            np.testing.assert_array_equal(
                np.array(rows[entry.u]).reshape(2, 2), entry.value,
                err_msg=f"u={entry.u}",
            )

    def test_discrete_rows_past_the_float_range_are_a_clean_error(
        self, capsys, ex2_files
    ):
        sys_path, hist_path, _ = ex2_files
        code, out, err = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--to", "1100",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: X(u) at u = 1018 with delay m = 1")

    def test_noncommuting_forcing_fails_closed(self, capsys, tmp_path, ex1_files):
        sys_path, hist_path, _ = ex1_files
        bad = tmp_path / "bad_forcing.json"
        bad.write_text(json.dumps({
            "kind": "ppoly",
            "breakpoints": [0.0, 3.0],
            "pieces": [[[[0, 1], [0, 0]]]],
            "right_extension": True,
        }))
        code, _, err = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--forcing", str(bad), "--to", "2", "--step", "0.5",
        )
        assert code == 1
        assert "commutation" in err

    def test_override_flag_tags_the_output(self, capsys, tmp_path, ex1_files):
        sys_path, hist_path, _ = ex1_files
        bad = tmp_path / "bad_forcing.json"
        bad.write_text(json.dumps({
            "kind": "ppoly",
            "breakpoints": [0.0, 3.0],
            "pieces": [[[[0, 1], [0, 0]]]],
            "right_extension": True,
        }))
        with pytest.warns(Warning):
            code, out, err = run_cli(
                capsys, "solve", "--system", sys_path, "--history", hist_path,
                "--forcing", str(bad), "--to", "2", "--step", "0.5",
                "--allow-noncommuting-data", "--format", "json",
            )
        assert code == 0
        assert "formal evaluation" in err
        node = json.loads(out)
        assert node["hypothesis_ok"] is False
        assert node["forced_past_hypothesis"] is True

    def test_missing_file_is_a_schema_error(self, capsys, ex1_files):
        sys_path, hist_path, _ = ex1_files
        code, _, err = run_cli(
            capsys, "solve", "--system", "/nonexistent/sys.json",
            "--history", hist_path, "--to", "1", "--step", "0.5",
        )
        assert code == 2
        assert "error" in err

    def test_malformed_json_is_a_schema_error(self, capsys, tmp_path, ex1_files):
        _, hist_path, _ = ex1_files
        broken = tmp_path / "broken.json"
        broken.write_text('{"d": 2,,}')
        code, _, err = run_cli(
            capsys, "solve", "--system", str(broken), "--history", hist_path,
            "--to", "1", "--step", "0.5",
        )
        assert code == 2
        assert str(broken) in err


def write_random_problem(tmp_path, family):
    """A random d=3 problem of ``family`` as (system, history, forcing)
    files, and the ``--to`` (plus ``--step``) flags for it."""
    rng = np.random.default_rng(21)
    sys_ = random_system(rng, 3, family, sigma=0.7)
    if sys_.is_continuous:
        history = ppoly_to_node(random_scalar_history(rng, sys_).ppoly)
        forcing = ppoly_to_node(random_scalar_forcing(rng, sys_, 2.1).ppoly)
        stop = ["--to", "2.1", "--step", "0.05"]
    else:
        hist, g = random_discrete_scalar_data(rng, sys_, 30)
        history = {"kind": "table", "values": hist.values.tolist()}
        forcing = {"kind": "table", "values": g.values.tolist()}
        stop = ["--to", "30"]
    docs = {
        "sys": {"d": 3, "kind": family, "delay": sys_.delay,
                "A0": sys_.a0.tolist(), "A1": sys_.a1.tolist()},
        "hist": history,
        "g": forcing,
    }
    paths = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths, stop


class TestJsonOutput:
    @pytest.mark.parametrize("family", ["continuous", "discrete"])
    def test_file_stdout_and_csv_agree_bit_for_bit(self, capsys, tmp_path, family):
        (sys_path, hist_path, force_path), stop = write_random_problem(tmp_path, family)
        argv = ["solve", "--system", sys_path, "--history", hist_path,
                "--forcing", force_path, *stop]
        json_path, csv_path = tmp_path / "x.json", tmp_path / "x.csv"
        assert run_cli(capsys, *argv, "--format", "json", "--out", str(json_path))[0] == 0
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(csv_path))[0] == 0
        text = json_path.read_text()
        assert out == text
        csv = read_trajectory_csv(csv_path, kind=family)
        doc = json.loads(text)
        assert np.array_equal(np.array(doc["times"]), csv.times)
        assert np.array_equal(np.array(doc["values"]), csv.values)
        # {, kind, trajectory_kind, times, "values": [, one line per
        # matrix, ], three hypothesis keys, }
        rows = csv.times.size
        lines = text.splitlines()
        assert len(lines) == rows + 10
        for k in (0, rows // 2, rows - 1):
            row = json.loads(lines[5 + k].strip().rstrip(","))
            assert np.array_equal(row, csv.values[k])


class TestOutputsAndManifest:
    def test_csv_round_trip_is_bit_identical(self, capsys, tmp_path, ex2_files):
        sys_path, _, _ = ex2_files
        out_path = tmp_path / "z.csv"
        code, _, _ = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "disc",
            "--to", "6", "--out", str(out_path),
        )
        assert code == 0
        table = read_trajectory_csv(out_path)
        assert table.kind == "discrete"
        first = out_path.read_text()
        import io

        from delaymat.serialize import write_trajectory_csv

        buf = io.StringIO()
        write_trajectory_csv(table, buf)
        assert buf.getvalue() == first

    def test_manifest_written_next_to_the_output(self, capsys, tmp_path, ex1_files):
        sys_path, hist_path, force_path = ex1_files
        out_path = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--forcing", force_path, "--to", "2", "--step", "0.5",
            "--out", str(out_path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["tool"] == "delaymat"
        assert manifest["command"] == "solve"
        assert str(out_path) in manifest["outputs"]
        assert manifest["options"]["stop"] == 2.0
        assert manifest["hypothesis_ok"] is True
        assert "version" in manifest

    def test_manifest_spells_undecodable_path_bytes(self, capsys, tmp_path, ex1_files):
        """A file name byte that is not UTF-8 reaches Python as a lone
        surrogate, which JSON text cannot hold."""
        sys_path, hist_path, force_path = ex1_files
        out_path = tmp_path / "x\udcff.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--forcing", force_path, "--to", "1", "--step", "0.5",
            "--out", str(out_path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["options"]["out"] == str(tmp_path / "x\\xff.csv")
        assert manifest["outputs"] == [str(tmp_path / "x\\xff.csv")]

    def test_no_manifest_without_an_output_file(self, capsys, tmp_path, ex1_files, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sys_path, hist_path, force_path = ex1_files
        code, _, _ = run_cli(
            capsys, "solve", "--system", sys_path, "--history", hist_path,
            "--forcing", force_path, "--to", "1", "--step", "0.5",
        )
        assert code == 0
        assert not (tmp_path / "run-manifest.json").exists()

    @pytest.mark.parametrize("fmt, where", [("json", "'values'[4]"), ("csv", "row 4")])
    def test_overflowing_solution_is_a_clean_error(self, capsys, tmp_path, fmt, where):
        """X(1) = 2e308 overflows to inf, which no output format may hold."""
        sys_path, hist_path = tmp_path / "sys.json", tmp_path / "hist.json"
        sys_path.write_text(json.dumps(
            {"d": 1, "A0": [[1.0]], "A1": [[0.0]], "kind": "continuous", "delay": 1.0}
        ))
        hist_path.write_text(json.dumps(
            {"kind": "ppoly", "breakpoints": [-1.0, 0.0], "pieces": [[[[1e308]]]]}
        ))
        code, _, err = run_cli(
            capsys, "solve", "--system", str(sys_path), "--history", str(hist_path),
            "--to", "1", "--step", "0.5", "--format", fmt,
            "--out", str(tmp_path / f"x.{fmt}"),
        )
        assert code == 1
        assert err == f"error: {where}: cannot write a non-finite number\n"
        assert not (tmp_path / "run-manifest.json").exists()


class TestVerifyCommand:
    def test_files_agree_within_tolerance(self, capsys, ex1_files):
        sys_path, hist_path, force_path = ex1_files
        code, out, _ = run_cli(
            capsys, "verify", "--system", sys_path, "--history", hist_path,
            "--forcing", force_path, "--to", "3", "--substeps", "512",
        )
        assert code == 0
        assert out.count("window") == 3
        assert "-> OK" in out

    def test_seeded_random_discrete(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--random", "--kind", "disc", "--seed", "0",
        )
        assert code == 0
        assert "-> OK" in out

    def test_seeded_random_continuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--random", "--seed", "1", "--substeps", "512",
        )
        assert code == 0
        assert "-> OK" in out

    def test_impossible_tolerance_fails_with_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--random", "--kind", "disc", "--seed", "0",
            "--tol", "1e-30",
        )
        assert code == 1
        assert "-> FAIL" in out

    def test_needs_inputs_or_random(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "--random" in err


class TestDataThatDoesNotFit:
    """Data files that load but do not fit the system or the horizon."""

    @pytest.fixture
    def scalar_files(self, tmp_path):
        """d=1, A0=0.5, A1=0.2, sigma=1, history 1 on [-1, 0]."""
        paths = {}
        for name, node in {
            "sys": {"d": 1, "A0": [[0.5]], "A1": [[0.2]],
                    "kind": "continuous", "delay": 1.0},
            "hist": {"kind": "ppoly", "breakpoints": [-1.0, 0.0],
                     "pieces": [[[[1]]]]},
            "short_hist": {"kind": "ppoly", "breakpoints": [-0.5, 0.0],
                           "pieces": [[[[1]]]]},
            "extended": {"kind": "ppoly", "breakpoints": [0.0, 1.0],
                         "pieces": [[[[1]]]], "right_extension": True},
            "short": {"kind": "ppoly", "breakpoints": [0.0, 1.0],
                      "pieces": [[[[1]]]]},
        }.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(node))
        return {name: str(path) for name, path in paths.items()}

    def test_verify_takes_a_right_extended_forcing(self, capsys, scalar_files):
        f = scalar_files
        code, out, _ = run_cli(
            capsys, "verify", "--system", f["sys"], "--history", f["hist"],
            "--forcing", f["extended"], "--to", "3",
        )
        assert code == 0
        assert "-> OK" in out

    def test_solve_refuses_a_short_history(self, capsys, scalar_files):
        f = scalar_files
        code, _, err = run_cli(
            capsys, "solve", "--system", f["sys"], "--history", f["short_hist"],
            "--to", "1", "--step", "0.5",
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: {f['short_hist']}: history domain [-0.5, 0.0] does not "
            f"cover [-1.0, 0]"
        ]

    def test_verify_refuses_a_short_forcing(self, capsys, scalar_files):
        f = scalar_files
        code, _, err = run_cli(
            capsys, "verify", "--system", f["sys"], "--history", f["hist"],
            "--forcing", f["short"], "--to", "3",
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: {f['short']}: forcing domain [0.0, 1.0] does not cover [0, 3.0]"
        ]


class TestVerifyRelativeGate:
    """`verify` gates each window on its gap relative to max(|oracle|, 1)."""

    def test_relative_perturbation_of_a_large_solution_fails(self):
        rng = np.random.default_rng(60)
        oracle = 1e17 * (1.0 + rng.uniform(size=(6, 2, 2)))
        masks = [np.arange(6) < 3, np.arange(6) >= 3]
        exact_gaps, ok = _compare_windows(oracle.copy(), oracle, masks, 1e-9)
        assert ok and exact_gaps == [(0.0, 0.0), (0.0, 0.0)]
        closed = oracle.copy()
        closed[4, 1, 0] *= 1.0 + 1e-6
        gaps, ok = _compare_windows(closed, oracle, masks, 1e-9)
        assert not ok
        assert gaps[0] == (0.0, 0.0)
        gap, rel = gaps[1]
        assert gap == abs(closed[4, 1, 0] - oracle[4, 1, 0])
        assert 0.5e-6 <= rel <= 1e-6

    def test_small_windows_keep_the_absolute_test(self):
        oracle = np.full((4, 1, 1), 0.5)
        closed = oracle + 2e-9
        gaps, ok = _compare_windows(closed, oracle, [np.ones(4, dtype=bool)], 1e-9)
        assert not ok
        assert gaps[0][0] == gaps[0][1]

    def test_long_discrete_horizon_passes(self, capsys):
        # |X| reaches about 1e17 by u = 120, where the absolute gap is
        # about 80 while the relative gap stays near 1e-15
        code, out, _ = run_cli(
            capsys, "verify", "--random", "--kind", "disc", "--to", "120",
        )
        assert code == 0
        assert "-> OK" in out
        assert "relative" in out


class TestExampleCommand:
    def test_first_example_report(self, capsys):
        code, out, _ = run_cli(capsys, "example", "1")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_second_example_report(self, capsys):
        code, out, _ = run_cli(capsys, "example", "2")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
        # the adjudicated table rows are called out
        assert "recomputed" in out


class TestLogging:
    def test_log_level_env_flag(self, capsys, monkeypatch, ex2_files):
        monkeypatch.setenv("DELAYMAT_LOG", "debug")
        sys_path, _, _ = ex2_files
        code, out, _ = run_cli(
            capsys, "fundamental", "--system", sys_path, "--kind", "disc",
            "--to", "3",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,x11,x12,x21,x22"
