#!/usr/bin/env python3
"""Regenerate perfbench/MANIFEST.json, the workload manifest.

    python3 perfbench/manifest.py

Run from the repository root. For each workload it makes five untraced and
five traced runs with seed 1, alternating, and records the files, their total
characters, the share of files whose format recurs, the failed share, each
layer's share of the traced file time (self time over timed wall time, median
over the traced runs), and the tracing overhead: the median traced minus the
median untraced file latency p50. One run of each kind would not do: the
run-to-run spread of p50 is larger than the overhead.
"""
import json
import statistics
import os
import subprocess
import sys

ROOT = os.getcwd()
MARK = "[perfbench] manifest "
SEED = 1
PAIRS = 5


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{p.stderr[-2000:]}")
    line = next(l for l in p.stderr.splitlines() if l.startswith(MARK))
    return json.loads(line[len(MARK):]), json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    path = os.path.join(ROOT, "perfbench", "MANIFEST.json")
    with open(path) as f:
        manifest = json.load(f)

    for w in bench["workloads"]:
        plains, traceds = [], []
        for _ in range(PAIRS):
            plains.append(run(w["name"], SEED, bench["run_seconds"], 0))
            traceds.append(run(w["name"], SEED, bench["run_seconds"], 1))
        plain = plains[0][0]
        plain_p50 = statistics.median(p["p50_s"] for p, _ in plains)
        traced_p50 = statistics.median(t["p50_s"] for t, _ in traceds)
        shares = {layer: round(statistics.median(t["self_share"][layer] for t, _ in traceds), 4)
                  for layer in traceds[0][0]["self_share"]}
        entry = manifest["workloads"].setdefault(w["name"], {})
        entry.update({
            "why": w["why"],
            "seed": SEED,
            "files": plain["files"],
            "total_chars": plain["chars"],
            "recurring_format_share": plain["recurring_share"],
            "failed_share": plain["failed_share"],
            "tail_statistic": plain["tail"],
            "traced_layer_self_share": shares,
            "tracing_overhead_p50_s": round(traced_p50 - plain_p50, 4),
            "untraced_p50_s": round(plain_p50, 4),
            "traced_p50_s": round(traced_p50, 4),
            "traced_accounted_share": round(statistics.median(
                r["metrics"]["trace.accounted_share"]["value"] for _, r in traceds), 4),
        })
        print(f"{w['name']}: done", file=sys.stderr)

    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
