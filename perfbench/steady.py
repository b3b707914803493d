#!/usr/bin/env python3
"""Steadiness self-check for the DATAMARAN benchmark.

    python3 perfbench/steady.py

Run from the repository root. Runs the benchmark 10 times per workload of
BENCHMARK.json, each time with its own seed (1-10), and then a second set of
10 (seeds 1001-1010), all on the current source tree. For every workload and
end-to-end metric it prints each set's median and spread (interquartile
distance as a share of the median, by statistics.quantiles(n=4)) and the
drift between the two medians (their difference as a share of the first, in
either direction). A metric agrees when both spreads and the drift are within
its bound; setup_s is checked like every other metric. Exits 1 if any metric
disagrees. Raw results are kept in .bench_build/steady/.
"""
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RUNS = 10
SETS = 2
SEED_BASE = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {p.returncode})")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"incorrect output: {' '.join(cmd)}")
    return res, time.time() - t0


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = {}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = SEED_BASE + 1000 * s + i
                res, wall = run_once(w, seed, bench["run_seconds"])
                raw.setdefault(w, {}).setdefault(s, []).append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed} ({wall:.0f} s wall): {vals}", file=sys.stderr, flush=True)

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, time.strftime("%Y%m%d-%H%M%S") + ".json"), "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    print(f"{'workload':<14} {'metric':<20} " + " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}" for s in range(SETS))
          + f" {'bound':>6} {'drift':>7}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in raw[w][s]] for s in range(SETS)]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = max(abs(x - meds[0]) / meds[0] for x in meds[1:])
            good = drift <= bound and all(sp <= bound for sp in spreads)
            steady = all(sp < bound / 3 for sp in spreads) and drift < bound / 3
            ok &= good
            verdict = ("agree" if good else "DISAGREE") + ("" if steady else " (above bound/3)")
            cells = " ".join(f"{md:>12.5g} {sp:>8.3f}" for md, sp in zip(meds, spreads))
            print(f"{w:<14} {name:<20} {cells} {bound:>6.2f} {drift:>7.3f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
