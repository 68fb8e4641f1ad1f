#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of each workload.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]

Run from the root of a checkout. For every workload it runs set A and set
B alternately, each run with its own seed (A: 1001.., B: 2001..), all
through perfbench/run.py. For every end-to-end metric it prints each set's
median and quartiles, the spread (quartile distance over median) and
whether the two medians agree within the metric's bound in
BENCHMARK.json. It also checks that every run was correct and that the
share of failed operations is the same in both sets. Exit code 0 when
everything holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1001 if s == "A" else 2001) + i
                r = run_once(w, seed, args.seconds)
                sets[s].append(r)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"  {w} {s} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {vals}",
                      flush=True)
        print(f"== {w} ({args.runs} runs per set, --seconds {args.seconds})")
        for s, runs in sets.items():
            bad = [r for r in runs if not r["correct"]]
            if bad:
                ok = False
                print(f"  set {s}: {len(bad)} runs not correct")
        share = {s: sorted({r["failed"] / r["attempted"] for r in runs}) for s, runs in sets.items()}
        if share["A"] != share["B"] or len(share["A"]) != 1:
            ok = False
        print(f"  failed share: A {share['A']} B {share['B']}")
        print(f"  {'metric':<14} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7}  bound  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = {}
            for s, runs in sets.items():
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3, sp = spread(vals)
                meds[s] = q2
                tag = "" if name == "setup_s" or sp <= bound else "  SPREAD OVER BOUND"
                if tag:
                    ok = False
                print(f"  {name:<14} {s:>3} {q1:12.6g} {q2:12.6g} {q3:12.6g} {sp:7.3f}{tag}")
            worse = (meds["B"] - meds["A"]) / meds["A"]
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            ok &= agree
            print(f"  {name:<14}     B vs A: {worse:+.3f} worse  {bound:.2f}  {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
