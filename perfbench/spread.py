#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads visit,publish,audit --seeds 1-10 [--trace 0|1]

For every workload and metric it prints the median, the quartiles as
Python's statistics.quantiles(values, n=4) gives them, and the
interquartile range as a share of the median, beside a third of the
metric's bound in BENCHMARK.json (the steadiness target). The
per-run provenance and the summary are appended to
perfbench-out/spread.jsonl under the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="visit,publish,audit")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    log_path = os.path.join(target, "perfbench-out", "spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            took = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            provenance = next((l.split(": ", 1)[1] for l in lines if l.startswith("provenance: ")), "{}")
            with open(log_path, "a") as log:
                log.write(json.dumps({"provenance": json.loads(provenance), "seconds_taken": took,
                                      "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} took {took:.1f} s  " +
                  " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
            if not result["correct"]:
                print("\n".join(l for l in lines if l.startswith("problem")))
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            target_note = f"target < {bound / 3:.4f}" if bound else ""
            flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  <-- above target"
            print(f"  {workload:8} {name:28} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"iqr/median {spread:.4f}  {target_note}{flag}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread, "n": len(vals)}
        with open(log_path, "a") as log:
            log.write(json.dumps({"summary": workload, "seeds": args.seeds, "trace": args.trace,
                                  "metrics": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
