"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T \
        --trace 0|1 --src DIR --out DIR --result FILE [--setup-only]

Sets up (imports ``delaymat.cli``, draws the checked problems, writes
their input files), runs the closed loop for ``--seconds``, compares the
checked problems with the oracle outside the timed region, and writes
everything it measured to ``--result`` as JSON.  ``--setup-only`` stops
where the first timed op would start; ``run.py`` launches it several
times to measure set-up.

With ``--trace 1`` every op runs twice on the same problem, untraced and
then traced, so the tracer's own cost shows as ``tracing.overhead_frac``.
The ``cli-json`` op then calls ``delaymat.cli.main`` in-process (both
times), since spans cannot cross into a subprocess.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

#: Digits the first delay window must keep.  The long-horizon drift and
#: the discrete cancellation have not set in there (baseline: 14.7 or
#: more on every problem), so a loss there means a wrong result.
EARLY_DIGITS_FLOOR = 10.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def tail(times):
    """The highest percentile with at least ten samples beyond it, but
    never below the median (with fewer than 21 samples it is the upper
    middle sample, with fewer than ten beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    j = max(n - 11, n // 2)
    return {"value": ordered[j], "percentile": round(100.0 * (j + 1) / n, 1),
            "beyond": n - 1 - j, "samples": n}


class Runner:
    """Runs ops and counts the ones that raise or return non-finite
    values."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, problem, in_process):
        """``(output, error)``: the error is the traceback text."""
        try:
            return self.workload.op(problem, in_process), None
        except Exception:  # a failing op is counted, not fatal
            return None, traceback.format_exc(limit=4)

    def account(self, problem, output, error):
        self.attempted += 1
        if error is None and not output.finite():
            error = f"problem {problem.index}: non-finite output"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            return None
        return output

    def run(self, problem, in_process=False):
        return self.account(problem, *self.call(problem, in_process))


def self_test(workload):
    """The check itself: a perturbed solution must lose digits and a NaN
    result must count as failed.  Uses a small continuous problem."""
    import numpy as np

    from delaymat.oracle import IntegratorConfig
    from workloads import (
        Output,
        continuous_problem,
        continuous_windows,
        digits,
        dm_oracle,
        dm_solve,
        relative_gaps,
    )

    p = continuous_problem(0, 0, 2, 3)
    x = dm_solve.solve_continuous(p.system, p.history, p.forcing, p.horizon)
    ref = dm_oracle.integrate_continuous(
        p.system, p.history, p.forcing, p.horizon, IntegratorConfig(1024))
    got = x.eval(ref.times)
    idx = continuous_windows(ref.times, p.horizon, p.system.sigma)
    exact = digits(relative_gaps((got[i], ref.values[i]) for i in idx))
    bumped = got.copy()
    bumped[-1] += 1e-3 * np.max(np.abs(ref.values[idx[-1]]))
    perturbed = digits(relative_gaps((bumped[i], ref.values[i]) for i in idx))
    probe = Runner(workload)
    probe.account(p, Output(np.full_like(got, np.nan), {}), None)
    return {
        "digits": exact,
        "perturbed_digits": perturbed,
        "perturbed_lowers_digits": perturbed < exact - 1.0,
        "nan_counts_as_failed": probe.failed == 1 and probe.attempted == 1,
    }


def environment():
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def layer_metrics(workload, tracer, op_roots, check_roots):
    """Per-layer medians over the traced ops (over the oracle checks for
    a layer that only the checks call; 0 for a layer never called), the
    median share of an op taken by the workload's dominant layers, and
    the exact counts of every traced op."""
    from spans import SERIALIZE_READ, SERIALIZE_WRITE, summarize

    summary = dict(zip(op_roots + check_roots,
                       summarize(tracer, op_roots + check_roots)))
    ops = [summary[r] for r in op_roots]
    checks = [summary[r] for r in check_roots]
    op_counts = [tracer.root_counts[r] for r in op_roots]
    check_counts = [tracer.root_counts[r] for r in check_roots]
    load = tuple(f"serialize.{n}" for n in SERIALIZE_READ)
    write = tuple(f"serialize.{n}" for n in SERIALIZE_WRITE)

    def hit_ratio(s, c):
        calls = s.calls("fundamental.DiscreteFundamental.value")
        return 1.0 - c["distinct_u"] / calls if calls else 0.0

    # name -> (unit, spans that must be present, value(summary, counts))
    table = {
        "qseq.build_q_table.s": ("s", ("qseq.build_q_table",), None),
        "fundamental.build_fundamental_continuous.s":
            ("s", ("fundamental.build_fundamental_continuous",), None),
        "fundamental.DiscreteFundamental.value.s":
            ("s", ("fundamental.DiscreteFundamental.value",), None),
        "fundamental.DiscreteFundamental.value.calls":
            ("count", ("fundamental.DiscreteFundamental.value",),
             lambda s, c: s.calls("fundamental.DiscreteFundamental.value")),
        "fundamental.DiscreteFundamental.value.hit_ratio":
            ("ratio", ("fundamental.DiscreteFundamental.value",), hit_ratio),
        "ppoly.convolve_kernel.s": ("s", ("ppoly.convolve_kernel",), None),
        "ppoly.convolve_kernel.calls":
            ("count", ("ppoly.convolve_kernel",),
             lambda s, c: s.calls("ppoly.convolve_kernel")),
        "ppoly.convolve_kernel.out_pieces": ("count", ("ppoly.convolve_kernel",), None),
        "ppoly.eval.s": ("s", ("ppoly.eval",), None),
        "ppoly.eval.points": ("count", ("ppoly.eval",), None),
        "solve.validate_hypotheses.s": ("s", ("solve.validate_hypotheses",), None),
        "solve.solve_continuous.self_s":
            ("s", ("solve.solve_continuous",),
             lambda s, c: s.self_time("solve.solve_continuous")),
        "solve.solve_discrete.self_s":
            ("s", ("solve.solve_discrete",),
             lambda s, c: s.self_time("solve.solve_discrete")),
        "oracle.integrate_continuous.s": ("s", ("oracle.integrate_continuous",), None),
        "oracle.integrate_continuous.grid_points":
            ("count", ("oracle.integrate_continuous",), None),
        "oracle.step_discrete.s": ("s", ("oracle.step_discrete",), None),
        "serialize.load.s": ("s", load, lambda s, c: s.total(*load)),
        "serialize.write.s": ("s", write, lambda s, c: s.cover(*write)),
        "serialize.bytes_written": ("count", ("serialize.write_json",), None),
        "cli.main.self_s": ("s", ("cli.main",), lambda s, c: s.self_time("cli.main")),
    }
    out = {}
    for name, (unit, spans, fn) in table.items():
        if fn is None:
            fn = ((lambda s, c, sp=spans: s.total(*sp)) if unit == "s"
                  else (lambda s, c, key=name: c.get(key, 0)))
        value, source = 0.0, "not called"
        for label, sums, counts in (("ops", ops, op_counts),
                                    ("checks", checks, check_counts)):
            vals = [fn(s, c) for s, c in zip(sums, counts)
                    if any(s.calls(sp) for sp in spans)]
            if vals:
                value, source = statistics.median(vals), label
                break
        out[name] = {"value": value, "unit": unit, "from": source}
    shares = [workload.dominant_s(s) / s.duration for s in ops]
    per_op = [{"value_calls": s.calls("fundamental.DiscreteFundamental.value"),
               "convolve_calls": s.calls("ppoly.convolve_kernel"), **c}
              for s, c in zip(ops, op_counts)]
    return out, statistics.median(shares) if shares else 0.0, per_op


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import delaymat.cli  # noqa: F401  (the import is part of set-up)
    import_s = time.perf_counter() - t0
    src = Path(args.src).resolve()
    if src not in Path(delaymat.cli.__file__).resolve().parents:
        print(f"error: delaymat imported from {delaymat.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS, digits

    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    inputs = out_dir / "inputs"
    problems = [workload.make(args.seed, i, inputs) for i in range(workload.checked)]
    result = {"setup_done": time.monotonic(), "import_s": import_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    def problem(i):
        return problems[i] if i < len(problems) else workload.make(args.seed, i, inputs)

    runner = Runner(workload)
    tracer = Tracer() if args.trace else None
    op_roots, check_roots, pairs = [], [], []
    times, outputs = [], {}
    clock = time.perf_counter
    loop_start = clock()
    deadline = loop_start + args.seconds
    i = 0
    while True:
        p = problem(i)
        t0 = clock()
        out, err = runner.call(p, bool(args.trace))
        t1 = clock()
        out = runner.account(p, out, err)
        times.append(t1 - t0)
        if args.trace:
            with tracer.installed(), tracer.root("op") as root:
                traced, err = runner.call(p, True)
            runner.account(p, traced, err)
            op_roots.append(root)
            pairs.append((t1 - t0, tracer.end[root] - tracer.start[root]))
            t1 = clock()
        if i < workload.checked:
            outputs[i] = out
        i += 1
        if t1 >= deadline:
            break
    loop_s = t1 - loop_start
    while i < workload.checked:  # finish the checked list, untimed
        outputs[i] = runner.run(problems[i], bool(args.trace))
        i += 1

    # -- checks, outside the timed region --------------------------------
    problem_digits, early, counts, gaps_of, check_errors = [], [], [], {}, []
    for k in range(workload.checked):
        p, out = problems[k], outputs[k]
        if out is None:
            problem_digits.append(0.0)
            early.append(0.0)
            counts.append(None)
            continue
        try:
            if args.trace:
                with tracer.installed(), tracer.root("check") as root:
                    gaps, extra = workload.check(p, out)
                check_roots.append(root)
            else:
                gaps, extra = workload.check(p, out)
        except Exception:  # recorded; the run is then not correct
            check_errors.append(traceback.format_exc(limit=4))
            problem_digits.append(0.0)
            early.append(0.0)
            counts.append(None)
            continue
        if not out.finite():  # values first read by the check
            runner.failed += 1
            runner.errors.append(f"problem {k}: non-finite output")
        gaps_of[k] = gaps
        problem_digits.append(digits(gaps))
        early.append(digits(gaps[:1]))
        counts.append({**out.counts, **extra})

    # determinism: problem 0 again gives the same counts and gaps
    again = runner.run(problems[0])
    deterministic = False
    if again is not None and 0 in gaps_of:
        gaps_again, extra = workload.check(problems[0], again)
        deterministic = ({**again.counts, **extra} == counts[0]
                         and gaps_again == gaps_of[0])

    selftest = self_test(workload)
    checks = {
        "early_digits_min": min(early),
        "early_digits_floor": EARLY_DIGITS_FLOOR,
        "early_digits_ok": min(early) >= EARLY_DIGITS_FLOOR,
        "deterministic": deterministic,
        "self_test": selftest,
        "check_errors": check_errors,
    }
    correct = (runner.failed == 0 and not check_errors and checks["early_digits_ok"]
               and deterministic and selftest["perturbed_lowers_digits"]
               and selftest["nan_counts_as_failed"])

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.name == "cli-json" and not args.trace
        else resource.RUSAGE_SELF)
    result.update({
        "workload": workload.name,
        "sizes": workload.sizes(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors[:5],
        "checks": checks,
        "op_times_s": times,
        "loop_s": loop_s,
        "problem_digits": problem_digits,
        "counts": counts,
        "end_to_end": {
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail(times),
            "ops_per_s": len(times) / loop_s,
            "correct_digits.min": min(problem_digits),
            "correct_digits.p50": statistics.median(problem_digits),
            "failed_frac": runner.failed / runner.attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
    })
    if args.trace:
        layers, share, per_op = layer_metrics(workload, tracer, op_roots, check_roots)
        ratios = [t / u for u, t in pairs]
        layers["tracing.overhead_frac"] = {
            "value": statistics.median(ratios) - 1.0, "unit": "ratio", "from": "ops"}
        result["layers"] = layers
        result["dominant"] = {"layers": workload.dominant, "share_of_op": share}
        result["traced_pairs_s"] = pairs
        spans_path = out_dir / "spans.npz"  # the last traced run of the workload
        tracer.save(spans_path, op_roots + check_roots)
        result["spans_file"] = str(spans_path)
        result["layer_counts"] = per_op
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
