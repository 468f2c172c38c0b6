#!/usr/bin/env python3
r"""Collects, summarizes and compares sets of benchmark runs.

    # Run every workload 10 times (seeds 100..109), one JSON line per run:
    python3 perfbench/compare.py collect --out runs.jsonl --runs 10 \
        --seed-base 100

    # Median, quartiles and spread per workload and metric, against the
    # bounds in BENCHMARK.json:
    python3 perfbench/compare.py summary runs.jsonl

    # Do two sets agree? Exit 1 if a median got worse by more than its bound:
    python3 perfbench/compare.py compare perfbench/baseline.jsonl runs.jsonl

Spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace):
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


def collect(args):
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    seconds = args.seconds or SPEC["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + i
                cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{w} seed {seed}: exit {done.returncode}",
                          file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                record = {"workload": w, "seed": seed, "trace": args.trace,
                          "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{w} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)


def load(path):
    """{(workload, trace): {metric: [values]}} plus failure counts."""
    sets, failures = {}, {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        key = (r["workload"], r["trace"])
        res = r["result"]
        if not res["correct"] or res["failed"]:
            failures[key] = failures.get(key, 0) + 1
        for name, m in res["metrics"].items():
            sets.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return sets, failures


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summary(args):
    sets, failures = load(args.runs)
    for (workload, trace), metrics in sorted(sets.items()):
        print(f"== {workload} (trace {trace}, "
              f"{failures.get((workload, trace), 0)} failed runs)")
        for spec in metric_specs(trace):
            values = metrics.get(spec["name"])
            if not values:
                continue
            med, q1, q3, spread = stats(values)
            line = (f"  {spec['name']:<26} n={len(values):<3} "
                    f"median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
                    f"spread={spread:.4f}")
            if "bound" in spec:
                verdict = ("ok" if spread < spec["bound"] / 3 else
                           "WIDE" if spread <= spec["bound"] else "OVER")
                line += f" bound={spec['bound']} {verdict}"
            print(line)


def compare(args):
    base, _ = load(args.base)
    new, new_failures = load(args.new)
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue
        print(f"== {workload}")
        for spec in SPEC["end_to_end"]:
            a = base[key].get(spec["name"])
            b = new[key].get(spec["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            if spec["better"] == "higher":
                change = -change
            verdict = "worse" if change > spec["bound"] else "ok"
            worse += verdict == "worse"
            print(f"  {spec['name']:<16} base={ma:<14.6g} new={mb:<14.6g} "
                  f"worse_by={change:+.4f} bound={spec['bound']} {verdict}")
    if new_failures:
        print(f"failed runs in the new set: {new_failures}")
    return 1 if worse or new_failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed-base", type=int, default=1)
    c.add_argument("--seconds", type=float)
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--workloads", nargs="*")
    s = sub.add_parser("summary")
    s.add_argument("runs")
    m = sub.add_parser("compare")
    m.add_argument("base")
    m.add_argument("new")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if args.cmd == "summary":
        summary(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
