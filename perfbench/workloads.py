"""The benchmark's workloads: how each one draws its problems, what one
op is, and how the op's output is compared with the independent oracle.

Every problem is drawn with the generators behind ``delaymat verify
--random`` (``random_system(entry_scale=1/d)`` with scalar-identity
history and forcing) from a generator seeded with ``(seed, index)``, so
problem ``i`` of a seed is the same whatever ran before it.

Library calls go through module attributes (``dm_solve.solve_continuous``
rather than a name imported here) so the tracer's patches see them.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from delaymat.generators import (
    random_discrete_scalar_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from delaymat.oracle import IntegratorConfig
from spans import SERIALIZE_WRITE

dm_cli = importlib.import_module("delaymat.cli")
dm_oracle = importlib.import_module("delaymat.oracle")
dm_serialize = importlib.import_module("delaymat.serialize")
dm_solve = importlib.import_module("delaymat.solve")

#: Largest digit count reported (float64 carries about 16).
MAX_DIGITS = 16.0


@dataclass
class Problem:
    index: int
    system: object
    history: object
    forcing: object
    horizon: float
    files: dict = field(default_factory=dict)


@dataclass
class Output:
    """What one op produced: the values compared with the oracle, exact
    counts, and, for an op that compares with the oracle itself, the
    per-window gaps it found (its ``values`` are then not kept)."""

    values: np.ndarray | None
    counts: dict
    gaps: list | None = None

    def finite(self):
        if self.gaps is not None and not all(map(math.isfinite, self.gaps)):
            return False
        return self.values is None or bool(np.all(np.isfinite(self.values)))


def relative_gaps(pairs):
    """Per window: max |computed - oracle| / max(max |oracle|, 1)."""
    gaps = []
    for got, ref in pairs:
        gap = float(np.max(np.abs(got - ref)) / max(float(np.max(np.abs(ref))), 1.0))
        gaps.append(gap if math.isfinite(gap) else math.inf)
    return gaps


def digits(gaps):
    """``-log10`` of the worst gap, clamped to [0, 16]."""
    worst = max(gaps)
    if worst == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(worst)))


def continuous_windows(times, horizon, sigma):
    """Index arrays of the rows in each delay window ``[k sigma, (k+1)
    sigma]`` of ``[0, horizon]`` (both ends included, as ``verify``)."""
    tiny = 1e-12 * sigma
    out = []
    for k in range(math.ceil(horizon / sigma - 1e-12)):
        a, b = k * sigma, min((k + 1) * sigma, horizon)
        out.append(np.nonzero((times >= a - tiny) & (times <= b + tiny))[0])
    return out


def continuous_problem(seed, index, d, windows):
    rng = np.random.default_rng([seed, index])
    sys_ = random_system(rng, d, "continuous", entry_scale=1.0 / d)
    horizon = windows * sys_.sigma
    history = random_scalar_history(rng, sys_)
    forcing = random_scalar_forcing(rng, sys_, horizon)
    return Problem(index, sys_, history, forcing, horizon)


class Workload:
    name = ""
    #: Problems per seed whose outputs are checked against the oracle.
    checked = 0
    #: The layers expected to dominate an op, as shown in the traced run.
    dominant = ""

    def sizes(self):
        raise NotImplementedError

    def make(self, seed, index, workdir):
        raise NotImplementedError

    def op(self, problem, in_process=False):
        raise NotImplementedError

    def check(self, problem, output):
        """``(per-window gaps, oracle counts)`` for one op's output."""
        raise NotImplementedError

    def dominant_s(self, summary):
        raise NotImplementedError


class ContLong(Workload):
    name = "cont-long"
    checked = 24
    dominant = "ppoly.convolve_kernel"
    d, windows, per_window, substeps = 2, 24, 16, 1024

    def sizes(self):
        return {"d": self.d, "windows": self.windows,
                "output_step": f"sigma/{self.per_window}",
                "oracle_substeps": self.substeps}

    def make(self, seed, index, workdir):
        return continuous_problem(seed, index, self.d, self.windows)

    def _grid(self, p):
        sigma = p.system.sigma
        return -sigma + (sigma / self.per_window) * np.arange(
            (self.windows + 1) * self.per_window + 1)

    def op(self, p, in_process=False):
        x = dm_solve.solve_continuous(p.system, p.history, p.forcing, p.horizon)
        grid = self._grid(p)
        values = x.eval(grid)
        return Output(values, {"windows": self.windows, "pieces": len(x.pieces),
                               "degree": x.degree, "points": int(grid.size)})

    def check(self, p, out):
        ref = dm_oracle.integrate_continuous(
            p.system, p.history, p.forcing, p.horizon, IntegratorConfig(self.substeps))
        stride = self.substeps // self.per_window
        times = ref.times[::stride]
        if not np.allclose(times, self._grid(p), rtol=0, atol=1e-9):
            raise RuntimeError("oracle grid does not line up with the output grid")
        idx = continuous_windows(times, p.horizon, p.system.sigma)
        ref_values = ref.values[::stride]
        gaps = relative_gaps((out.values[i], ref_values[i]) for i in idx)
        return gaps, {"oracle_grid_points": int(ref.times.size)}

    def dominant_s(self, s):
        return s.cover("ppoly.convolve_kernel")


class DiscLong(Workload):
    name = "disc-long"
    checked = 64
    dominant = "solve.solve_discrete (self) + fundamental.DiscreteFundamental.value"
    d, steps = 4, 400

    def sizes(self):
        return {"d": self.d, "N": self.steps, "m": "drawn from {1, 2, 3}"}

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        sys_ = random_system(rng, self.d, "discrete", entry_scale=1.0 / self.d)
        history, forcing = random_discrete_scalar_data(rng, sys_, self.steps)
        return Problem(index, sys_, history, forcing, self.steps)

    def op(self, p, in_process=False):
        table = dm_solve.solve_discrete(p.system, p.history, p.forcing, self.steps)
        return Output(table.values, {"N": self.steps, "m": p.system.m,
                                     "rows": int(table.times.size)})

    def check(self, p, out):
        ref = dm_oracle.step_discrete(p.system, p.history, p.forcing, self.steps)
        m = p.system.m
        pairs = []
        for a in range(0, self.steps + 1, m + 1):
            rows = (ref.times >= a) & (ref.times < a + m + 1)
            pairs.append((out.values[rows], ref.values[rows]))
        return relative_gaps(pairs), {"oracle_rows": int(ref.times.size)}

    def dominant_s(self, s):
        return s.self_time("solve.solve_discrete") + s.cover(
            "fundamental.DiscreteFundamental.value")


class VerifyWide(Workload):
    name = "verify-wide"
    checked = 8
    dominant = "oracle.integrate_continuous + ppoly.eval"
    d, windows, substeps = 32, 4, 2048

    def sizes(self):
        return {"d": self.d, "windows": self.windows,
                "oracle_substeps": self.substeps}

    def make(self, seed, index, workdir):
        return continuous_problem(seed, index, self.d, self.windows)

    def op(self, p, in_process=False):
        x = dm_solve.solve_continuous(p.system, p.history, p.forcing, p.horizon)
        ref = dm_oracle.integrate_continuous(
            p.system, p.history, p.forcing, p.horizon, IntegratorConfig(self.substeps))
        values = x.eval(ref.times)
        idx = continuous_windows(ref.times, p.horizon, p.system.sigma)
        gaps = relative_gaps((values[i], ref.values[i]) for i in idx)
        return Output(None, {"windows": self.windows, "pieces": len(x.pieces),
                             "degree": x.degree,
                             "oracle_grid_points": int(ref.times.size)}, gaps)

    def check(self, p, out):
        return out.gaps, {}

    def dominant_s(self, s):
        return s.cover("oracle.integrate_continuous", "ppoly.eval")


class CliJson(Workload):
    name = "cli-json"
    checked = 6
    dominant = "serialize.write (trajectory_to_node + write_json)"
    d, windows, step, substeps = 8, 8, 0.001, 2000

    def sizes(self):
        return {"d": self.d, "windows": self.windows, "output_step": self.step,
                "oracle_substeps": self.substeps}

    def make(self, seed, index, workdir):
        p = continuous_problem(seed, index, self.d, self.windows)
        # checked problems keep their files until the check; the rest share one folder
        folder = Path(workdir) / (f"p{index}" if index < self.checked else "loop")
        folder.mkdir(parents=True, exist_ok=True)
        s = p.system
        docs = {
            "system": {"d": s.dim, "kind": s.kind, "delay": s.delay,
                       "A0": s.a0.tolist(), "A1": s.a1.tolist()},
            "history": dm_serialize.ppoly_to_node(p.history.ppoly),
            "forcing": dm_serialize.ppoly_to_node(p.forcing.ppoly),
        }
        for key, doc in docs.items():
            path = folder / f"{key}.json"
            path.write_text(json.dumps(doc))
            p.files[key] = str(path)
        p.files["out"] = str(folder / "x.json")
        p.files["manifest"] = str(folder / "run-manifest.json")
        return p

    def argv(self, p):
        return ["solve", "--system", p.files["system"], "--history",
                p.files["history"], "--forcing", p.files["forcing"],
                "--to", repr(p.horizon), "--step", repr(self.step),
                "--format", "json", "--out", p.files["out"]]

    def op(self, p, in_process=False):
        if in_process:
            with redirect_stdout(io.StringIO()):
                code = dm_cli.main(self.argv(p))
        else:
            code = subprocess.run(
                [sys.executable, "-m", "delaymat", *self.argv(p)],
                stdout=subprocess.DEVNULL, timeout=120,
            ).returncode
        if code != 0:
            raise RuntimeError(f"delaymat solve exited with code {code}")
        written = sum(Path(p.files[k]).stat().st_size for k in ("out", "manifest"))
        return Output(None, {"windows": self.windows, "bytes_written": written})

    def load(self, p):
        """The trajectory the op wrote (read outside the timed region)."""
        return dm_serialize.trajectory_from_node(json.loads(Path(p.files["out"]).read_text()))

    def check(self, p, out):
        ref = dm_oracle.integrate_continuous(
            p.system, p.history, p.forcing, p.horizon, IntegratorConfig(self.substeps))
        stride = round(self.step * self.substeps / p.system.sigma)
        ref_times, ref_values = ref.times[::stride], ref.values[::stride]
        if out.values is None:
            table = self.load(p)
            if table.times.shape != ref_times.shape or not np.allclose(
                    table.times, ref_times, rtol=0, atol=1e-9):
                raise RuntimeError("output rows do not line up with the oracle grid")
            out.values = table.values
        idx = continuous_windows(ref_times, p.horizon, p.system.sigma)
        gaps = relative_gaps((out.values[i], ref_values[i]) for i in idx)
        return gaps, {"rows": int(ref_times.size),
                      "oracle_grid_points": int(ref.times.size)}

    def dominant_s(self, s):
        return s.cover(*(f"serialize.{n}" for n in SERIALIZE_WRITE))


WORKLOADS = {w.name: w for w in (ContLong(), DiscLong(), VerifyWide(), CliJson())}
