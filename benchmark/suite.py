#!/usr/bin/env python3
"""The ledger: run workloads through `minsync-benchmark`, print every metric
by name and unit, and write the results as data.

Called by run.sh, which builds the binaries first. Each workload is run
`--runs` times untraced (run r uses seed + r, as the driver varies seeds),
then once traced for the per-layer table. A metric's entry in results.json
holds every run's value with their median and quartiles; the tracing
overhead is its own row (`telemetry.trace_overhead_pct`), measured inside the
traced pass from a traced/untraced pair of cluster runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_pass(bench, out_dir, workload, seed, seconds, trace):
    """One pass; returns (result object or None, info lines, misses)."""
    proc = subprocess.run(
        [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", out_dir],
        capture_output=True, text=True, check=False)
    stderr = proc.stderr.splitlines()
    info = [line[5:] for line in stderr if line.startswith("info ")]
    misses = [line[5:] for line in stderr if line.startswith("MISS ")]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 and not misses:
        misses.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return result, info, misses


def summarize(unit, values):
    """A metric's entry in results.json."""
    entry = {"unit": unit, "n": len(values), "values": values,
             "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3)
    return entry


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--benchmark", required=True, help="path of BENCHMARK.json")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--no-traced-pass", action="store_true")
    ap.add_argument("--results", help="where to write the results (default OUT/results.json)")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    known = [w["name"] for w in contract["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            sys.exit(f"unknown workload {w}; known: {', '.join(known)}")
    os.makedirs(args.out, exist_ok=True)

    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    results = {
        "seed": args.seed, "seconds": seconds, "runs": args.runs,
        "nproc": os.cpu_count(), "loadavg_at_start": [float(x) for x in loadavg],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workloads": {},
    }
    all_misses = []
    for w in workloads:
        row = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0,
               "info": [], "misses": []}
        values = {}
        for r in range(args.runs):
            result, info, misses = run_pass(args.bench, args.out, w, args.seed + r, seconds, 0)
            row["info"] += [i for i in info if i.startswith("trials")]
            row["misses"] += misses
            if result:
                row["attempted"] += result["attempted"]
                row["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{w}: untraced run {r + 1}/{args.runs} done", file=sys.stderr)
        for name, (unit, vals) in values.items():
            row["end_to_end"][name] = summarize(unit, vals)
        if not args.no_traced_pass:
            result, info, misses = run_pass(args.bench, args.out, w, args.seed, seconds, 1)
            row["misses"] += misses
            if result:
                for name, m in result["metrics"].items():
                    row["per_layer"][name] = summarize(m["unit"], [m["value"]])
            print(f"{w}: traced pass done", file=sys.stderr)
        all_misses += [f"{w}: {m}" for m in row["misses"]]
        results["workloads"][w] = row

    path = args.results or os.path.join(args.out, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")

    def table(section, title):
        names = []
        for w in workloads:
            names += [n for n in results["workloads"][w][section] if n not in names]
        if not names:
            return
        print(f"\n{title}")
        print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w[:22]:>22s}" for w in workloads))
        for name in names:
            cells, unit = [], ""
            for w in workloads:
                m = results["workloads"][w][section].get(name)
                if m is None:
                    cells.append(f"{'-':>22s}")
                    continue
                unit = m["unit"]
                cell = f"{m['median']:.6g}"
                if "q1" in m:
                    cell += f" [{m['q1']:.4g},{m['q3']:.4g}]"
                cells.append(f"{cell:>22s}")
            print(f"{name:44s} {unit:6s} " + " ".join(cells))

    print(f"seed {args.seed}, {seconds} s per pass, {args.runs} untraced run(s) per workload, "
          f"nproc {results['nproc']}, load average at start {' '.join(loadavg)}")
    table("end_to_end", "End to end, tracing off (median [q1,q3] over runs; each run's value is "
          "itself a median over its trials)")
    for w in workloads:
        row = results["workloads"][w]
        share = row["failed"] / row["attempted"] if row["attempted"] else 1.0
        print(f"{'failed_share':44s} {'share':6s} {w}: {share:.6g} "
              f"({row['failed']}/{row['attempted']}; {'; '.join(row['info'])})")
    table("per_layer", "Per layer, from the separate traced pass")
    print(f"\nresults written to {path}")
    for miss in all_misses:
        print(f"MISS {miss}")
    sys.exit(1 if all_misses else 0)


if __name__ == "__main__":
    main()
