#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed, untraced, and summarises every
end-to-end metric over the runs: median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them), min, max, and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload batch-cold --seeds 1-10 \
        --out perfbench/steadiness/batch-cold-seeds-1-10.json

Run from the repository root. The command run per seed is the one
BENCHMARK.json names, with `--workload`, `--seed`, `--seconds` and
`--trace 0` appended.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except json.JSONDecodeError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                sys.stderr.write(proc.stderr[-2000:])
            probe = next((l.split()[1] for l in lines if l.startswith("host.mem_probe_ms")), None)
            runs.append({
                "seed": seed,
                "exit": proc.returncode,
                "correct": result.get("correct"),
                "wall_s": round(took, 3),
                "host.mem_probe_ms": float(probe) if probe else None,
                "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            })
            print(f"{workload} seed {seed}: exit {proc.returncode}, {took:.1f} s, "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        names = sorted({k for r in runs for k in r["metrics"]})
        summary = {}
        for name in names:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if len(values) >= 2:
                summary[name] = summarise(values)
                summary[name]["bound"] = bounds.get(name)
        probes = [r["host.mem_probe_ms"] for r in runs if r["host.mem_probe_ms"]]
        if len(probes) >= 2:
            summary["host.mem_probe_ms"] = summarise(probes)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = s.get("bound")
            flag = ""
            if bound is not None and s["spread"] is not None and name != "setup_s":
                flag = "  OK" if s["spread"] <= bound / 3 else ("  within bound" if s["spread"] <= bound else "  TOO NOISY")
            print(f"  {name:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"  bound {bound}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
