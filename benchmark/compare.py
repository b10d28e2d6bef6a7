#!/usr/bin/env python3
"""Compare two result files of the benchmark by BENCHMARK.json's own rules.

For every workload and end-to-end metric: `worse` if B's median is worse than
A's by more than the metric's bound, `unresolved` if either side's
run-to-run spread (interquartile range over median) is wider than the bound,
`same` otherwise. The counts the simulator produces on `sim_*` workloads (the
`core.*`, `broadcast.*`, `smr.*` and `sim.*` rows with unit `count` or
`ticks`, bar the ones read off a TCP trace) must be identical. Exit code 1 if
any row is `worse` or any such count differs.
"""

import argparse
import json
import sys


def is_simulator_count(name, m):
    return (m["unit"] in ("count", "ticks")
            and name.startswith(("core.", "broadcast.", "smr.", "sim."))
            and ".trace." not in name)


def spread(m):
    if "q1" not in m or not m["median"]:
        return None
    return (m["q3"] - m["q1"]) / abs(m["median"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--benchmark", required=True, help="path of BENCHMARK.json")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        contract = json.load(f)
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)

    bad = False
    print(f"{'workload':24s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for w in contract["workloads"]:
        rows_a = a["workloads"].get(w["name"], {}).get("end_to_end", {})
        rows_b = b["workloads"].get(w["name"], {}).get("end_to_end", {})
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in rows_a or name not in rows_b:
                continue
            ma, mb = rows_a[name], rows_b[name]
            change = mb["median"] / ma["median"] - 1.0
            worsening = change if metric["better"] == "lower" else -change
            spreads = [s for s in (spread(ma), spread(mb)) if s is not None]
            if worsening > bound:
                verdict, bad = "worse", True
            elif name != "setup_s" and any(s > bound for s in spreads):
                verdict = "unresolved"
            else:
                verdict = "same"
            shown = [f"{s:9.3f}" for s in spreads] + ["        -"] * (2 - len(spreads))
            print(f"{w['name']:24s} {name:24s} {ma['median']:12.5g} {mb['median']:12.5g} "
                  f"{change:+8.1%} {shown[0]} {shown[1]} {bound:6.2f}  {verdict}")

    for w in contract["workloads"]:
        if not w["name"].startswith("sim_"):
            continue
        rows_a = a["workloads"].get(w["name"], {}).get("per_layer", {})
        rows_b = b["workloads"].get(w["name"], {}).get("per_layer", {})
        exact = [n for n, m in rows_a.items() if is_simulator_count(n, m) and n in rows_b]
        moved = [n for n in exact if rows_a[n]["values"] != rows_b[n]["values"]]
        if exact:
            print(f"{w['name']:24s} {len(exact)} simulator counts: "
                  + ("identical" if not moved else "DIFFER: " + ", ".join(moved)))
        bad |= bool(moved)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
