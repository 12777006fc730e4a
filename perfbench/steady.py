#!/usr/bin/env python3
"""Steadiness tool: run every workload N times, alternating workloads, and
print each metric's median and quartiles next to its bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads sim-rw,wire-hit]
                                [--seed 1] [--trace 0] [--save results.json]

Run i of a set uses seed --seed + i, so two sets repeat the same inputs.
The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4);
a metric is steady when its spread is under a third of its bound (setup_s
is exempt). With two sets, the shift of the second median against the
first is checked against the bound in the direction that counts as worse,
and the share of failed operations must be identical.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    return json.loads(lines[-1])


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--save", default="")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    results = {}  # (set, workload) -> list of result objects
    for s in range(a.sets):
        for i in range(a.runs):
            for w in workloads:
                r = one_run(w, a.seed + i, seconds, a.trace)
                results.setdefault((s, w), []).append(r)
                print(f"set {s} run {i} {w}: attempted={r['attempted']} failed={r['failed']}", flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump({f"{s}/{w}": v for (s, w), v in results.items()}, f)
    ok = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':28} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            meds = []
            for s in range(a.sets):
                vals = [r["metrics"][m["name"]]["value"] for r in results[(s, w)]]
                med, q1, q3, spread = stats(vals)
                meds.append(med)
                bound = m.get("bound")
                verdict = ""
                if bound is not None and m["name"] != "setup_s":
                    verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
                    ok &= spread <= bound
                print(f"{m['name']:28} {s:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                      f"{bound if bound is not None else '':>6}  {verdict}")
            if len(meds) > 1 and m.get("bound") is not None and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= m["bound"] else "WORSE"
                ok &= worse <= m["bound"]
                print(f"{'':28} second median worse by {worse:+.4f} of the first: {flag}")
        shares = {s: sum(r["failed"] for r in results[(s, w)]) / sum(r["attempted"] for r in results[(s, w)])
                  for s in range(a.sets)}
        print(f"failed share per set: {shares}")
        ok &= len(set(shares.values())) == 1
    print("\nall within bounds" if ok else "\nSOME METRIC OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
