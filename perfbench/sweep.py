"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py [--workloads cont-long,disc-long] \
        [--seeds 1-10] [--seconds 25] [--trace 0|1] [--baseline FILE]

Runs ``run.py`` once per workload and seed, one run at a time, and
prints, per metric, the median over seeds, the quartiles and the
quartile spread as a share of the median (``statistics.quantiles(n=4)``),
next to the metric's bound from ``BENCHMARK.json``.  With one seed it
is the one command that prints every end-to-end metric of every
workload.  ``--baseline FILE`` merges the medians (and the per-seed
values, exact counts and digits) into ``FILE``, under ``end_to_end``
for ``--trace 0`` and ``per_layer`` for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench_out" / "results" /
         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, record


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", default=None, metavar="FILE")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {**E2E_UNITS, **{m["name"]: m["unit"] for m in spec["per_layer"]}}
    summary = {}
    for workload in args.workloads.split(","):
        lines, records = [], []
        for seed in args.seeds:
            line, record = run_one(workload, seed, args.seconds, args.trace)
            lines.append(line)
            records.append(record)
            print(f"{workload} seed {seed}: correct {line['correct']} "
                  f"attempted {line['attempted']} failed {line['failed']}", flush=True)
        per_seed = {}
        for line, record in zip(lines, records):
            if args.trace:
                values = {k: v["value"] for k, v in line["metrics"].items()}
            else:  # every end-to-end metric, gated or not
                values = {k: v["value"] if isinstance(v, dict) else v
                          for k, v in record["end_to_end"].items()}
            for k, v in values.items():
                per_seed.setdefault(k, []).append(v)
        print(f"\n{workload}: {len(args.seeds)} seeds, {args.seconds} s each, "
              f"trace {args.trace}")
        print(f"  {'metric':<46} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}")
        rows = {}
        for name, values in per_seed.items():
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None or rel < bound / 3 else "  <-- over bound/3"
            print(f"  {name:<46} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{rel:>7.3f} {bound if bound is not None else '':>6}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                          "unit": units.get(name), "per_seed": values}
        entry = {
            "seeds": args.seeds,
            "correct": all(line["correct"] for line in lines),
            "metrics": rows,
            "problem_digits": {r["seed"]: r["problem_digits"] for r in records},
            "counts": {r["seed"]: r["counts"] for r in records},
        }
        if args.trace:
            entry["dominant"] = {
                "layers": records[0]["dominant"]["layers"],
                "share_of_op": statistics.median(
                    r["dominant"]["share_of_op"] for r in records)}
        summary[workload] = entry
        print(f"  all runs correct: {entry['correct']}")
    if args.baseline:
        path = Path(args.baseline)
        base = json.loads(path.read_text()) if path.exists() else {}
        base["environment"] = records[-1]["environment"]
        base["run_seconds"] = args.seconds
        section = "per_layer" if args.trace else "end_to_end"
        for workload, entry in summary.items():
            base.setdefault("workloads", {}).setdefault(workload, {})[section] = entry
        # one line per innermost list or object keeps the file short
        text = re.sub(r"[\[{][^\[\]{}]*[\]}]", lambda m: " ".join(m.group().split()),
                      json.dumps(base, indent=1))
        path.write_text(text + "\n")
    return 0 if all(e["correct"] for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
