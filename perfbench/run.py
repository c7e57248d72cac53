#!/usr/bin/env python3
"""Build the release p3p-serverd and the benchmark, then run it.

One measurement (run from the repository root):

    python3 perfbench/run.py --workload visit|publish|audit --seed N \
        --seconds S --trace 0|1

prints the benchmark's report and, as its last line, the JSON result.

    python3 perfbench/run.py --smoke

is the benchmark's own test: every workload, untraced and traced, on a
tiny corpus with short sequences. It fails unless every answer checks
out and every metric BENCHMARK.json names is printed with its unit.

Builds go to $CARGO_TARGET_DIR (default .bench_build); per-run records
and span traces to perfbench-out/ inside it.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(target):
    """Build both binaries; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        [os.path.join(ROOT, "Cargo.toml"), "-p", "p3p-serve", "--bin", "p3p-serverd"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest, *extra in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "p3p-serverd")


def git_rev():
    """The checked-out commit, read from .git directly: running git would
    search the directories above the checkout. "unknown" outside a work
    tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the two binaries are built from, so a
    result names its code even where there is no git history."""
    files = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in (os.path.join(ROOT, "crates"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith((".rs", ".toml", ".lock", ".py"))
            ]
    digest = hashlib.sha256()
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def bench_cmd(binary, daemon, out, workload, seed, seconds, trace, smoke=False):
    cmd = [
        binary,
        "--daemon", daemon,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", out,
        "--rev", git_rev(),
        "--source", source_digest(),
    ]
    return cmd + (["--smoke"] if smoke else [])


def smoke(binary, daemon, out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = bench_cmd(binary, daemon, out, workload, 7, 1, trace, smoke=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"checks failed: {[l for l in lines if l.startswith('problem')]}")
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))
                   or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"non-numeric values: {bad}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {label}: attempted {result['attempted']}, {len(got)} metrics, {status}")
            failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(f"smoke failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["visit", "publish", "audit"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    target = target_dir()
    try:
        binary, daemon = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    out = os.path.join(target, "perfbench-out")
    if args.smoke:
        return smoke(binary, daemon, out)
    cmd = bench_cmd(binary, daemon, out, args.workload, args.seed, args.seconds, args.trace)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
