"""delaymat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout (the one holding ``BENCHMARK.json`` and
``src/delaymat``).  Set-up is measured in fresh interpreters: six that
stop where the first timed op would start (three before the run, three
after it), plus the worker that goes on to run the closed loop;
``setup_s`` is the median of the seven.  BLAS is pinned to one thread
for every process.

Prints a table of every metric with its unit, then, as the last line, a
JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the ``end_to_end`` list of ``BENCHMARK.json`` (``--trace 0``)
or its ``per_layer`` list (``--trace 1``).  The full record, with the
per-op times, exact counts, checks and environment, is written to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
#: Whole-run budget: the run must end within 180 s.
BUDGET_S = 175.0
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Every end-to-end metric a run reports; BENCHMARK.json gates a subset.
E2E_UNITS = {"op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
             "correct_digits.min": "digits", "correct_digits.p50": "digits",
             "failed_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class RunError(Exception):
    pass


def launch(cmd, env, deadline):
    """Run ``cmd`` to completion within the run's deadline; returns the
    monotonic time it was started."""
    started = time.monotonic()
    remaining = deadline - started
    if remaining <= 0:
        raise RunError("out of time before launching a worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}:\n{proc.stderr}")
    return started


def measure(args, spec):
    src = ROOT / "src"
    if not (src / "delaymat" / "__init__.py").is_file():
        raise RunError(f"no delaymat sources under {src}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RunError(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + BUDGET_S
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_PINS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = ROOT / ".perfbench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--src", str(src), "--out", str(out)]
    setups, imports = [], []

    def sample(name, extra):
        result_file = out / name
        result_file.unlink(missing_ok=True)
        started = launch(base + ["--result", str(result_file)] + extra, env, deadline)
        result = json.loads(result_file.read_text())
        setups.append(result["setup_done"] - started)
        imports.append(result["import_s"])
        return result

    # half the set-up samples before the run and half after it, so that
    # they see the machine at both ends of the run
    before = SETUP_SAMPLES // 2
    for k in range(SETUP_SAMPLES - 1):
        if k == before:
            result = sample("result.json", [])
        sample(f"setup{k}.json", ["--setup-only"])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["import_samples_s"] = imports
    if args.trace:
        result["layers"]["cli.import_s"] = {
            "value": statistics.median(imports), "unit": "s", "from": "set-up"}
    return result


def report(args, spec, result):
    """The human-readable table; returns the metrics for the last line."""
    e2e = result["end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    sizes = " ".join(f"{k}={v}" for k, v in result["sizes"].items())
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}): {sizes}")
    print(f"  {why}")
    env = result["environment"]
    print(f"  environment: {env['cpu_model']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"numba {'present' if env['numba_present'] else 'absent'}, "
          f"{env['blas']} with {env['blas_threads']} thread(s)")
    tail = e2e["op_s.tail"]
    notes = {
        "op_s.p50": f"{tail['samples']} ops",
        "op_s.tail": f"p{tail['percentile']:g}, {tail['samples']} samples, "
                     f"{tail['beyond']} beyond",
        "ops_per_s": f"{tail['samples']} ops in {result['loop_s']:.2f} s",
        "correct_digits.min": f"{len(result['problem_digits'])} checked problems",
        "correct_digits.p50": f"{len(result['problem_digits'])} checked problems",
        "failed_frac": f"{result['failed']} of {result['attempted']} ops",
        "setup_s": f"median of {len(result['setup_samples_s'])} set-ups",
    }
    if not args.trace:
        print(f"  {'end-to-end metric':<28} {'value':>12}  {'unit':<7} note")
        for name, unit in E2E_UNITS.items():
            print(f"  {name:<28} {_value(e2e[name]):>12.6g}  {unit:<7} "
                  f"{notes.get(name, '')}")
    checks = result["checks"]
    probe = checks["self_test"]
    print(f"  checks: early-window digits min {checks['early_digits_min']:.2f} "
          f"(floor {checks['early_digits_floor']:g}); deterministic "
          f"{checks['deterministic']}; self-test: perturbed {probe['digits']:.2f} -> "
          f"{probe['perturbed_digits']:.2f} digits, NaN counted as failed "
          f"{probe['nan_counts_as_failed']}; check errors "
          f"{len(checks['check_errors'])} -> correct {result['correct']}")
    if not args.trace:
        return {m["name"]: {"value": _value(e2e[m["name"]]), "unit": m["unit"]}
                for m in spec["end_to_end"]}
    layers = result["layers"]
    print(f"  {'per-layer metric (median per op)':<46} {'value':>12}  {'unit':<6} from")
    for m in spec["per_layer"]:
        row = layers[m["name"]]
        print(f"  {m['name']:<46} {row['value']:>12.6g}  {m['unit']:<6} {row['from']}")
    dom = result["dominant"]
    print(f"  dominant layers {dom['layers']}: {100 * dom['share_of_op']:.1f}% "
          f"of the traced op")
    print(f"  tracing overhead against the untraced op p50 "
          f"{e2e['op_s.p50']:.4g} s over {tail['samples']} pairs")
    print(f"  spans written to {result['spans_file']}")
    return {m["name"]: {"value": layers[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["per_layer"]}


def _value(metric):
    return metric["value"] if isinstance(metric, dict) else metric


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = measure(args, spec)
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, spec, result)
    saved = ROOT / ".perfbench_out" / "results"
    saved.mkdir(parents=True, exist_ok=True)
    (saved / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
