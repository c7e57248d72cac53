#!/usr/bin/env bash
# Pre-submit gate: formatting, lints, release build, full test suite.
# Run from anywhere inside the repo: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# same_counts FILE FILTER: the exact counts FILTER picks from the
# regenerated target/bench/FILE must equal the committed FILE's.
same_counts() {
  if [ "$(jq -S "$2" "$1")" != "$(jq -S "$2" "target/bench/$1")" ]; then
    echo "error: target/bench/$1 counts differ from the committed $1:" >&2
    diff <(jq -S "$2" "$1") <(jq -S "$2" "target/bench/$1") >&2 || true
    exit 1
  fi
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> bench smoke (caching, single iteration)"
cargo bench -p p3p-bench --bench caching -- --test

echo "==> repro --table caching (warm-convert speedup floor + exact cache counts)"
cargo run -q --release -p p3p-bench --bin repro -- --table caching > /dev/null
same_counts BENCH_matching.json \
  '{translation_cache: .translation_cache | {hits, misses, evictions},
    plan_cache: .plan_cache | {hits, misses, evictions, invalidations}}'

echo "==> bench smoke (bulk, single iteration)"
cargo bench -p p3p-bench --bench bulk -- --test

echo "==> bench smoke (columnar, single iteration)"
cargo bench -p p3p-bench --bench columnar -- --test

echo "==> repro --table bulk (bulk-over-loop + columnar-over-row speedup floors)"
cargo run -q --release -p p3p-bench --bin repro -- --table bulk > /dev/null
grep -q '"columnar_speedup"' target/bench/BENCH_bulk.json

echo "==> bench smoke (join, single iteration)"
cargo bench -p p3p-bench --bench join -- --test

echo "==> repro --table join (planned-over-FROM-order speedup floor)"
cargo run -q --release -p p3p-bench --bin repro -- --table join > /dev/null

echo "==> repro --table scaling (SQL rows per match at 2,000 policies <= 2x the 29-policy figure)"
cargo run -q --release -p p3p-bench --bin repro -- --table scaling > /dev/null

echo "==> fuzz smoke (50 fixed-seed differential cases, all engines)"
P3P_FUZZ_CASES=50 cargo run -q --release -p p3p-fuzz -- --seed 42

echo "==> repro --table fuzz (zero-divergence gate)"
P3P_FUZZ_CASES=50 cargo run -q --release -p p3p-bench --bin repro -- --table fuzz > /dev/null

echo "==> bench smoke (churn, single iteration)"
cargo bench -p p3p-bench --bench churn -- --test

echo "==> repro --table churn (verdict-cache hit-rate + cached-speedup floors + exact counts)"
cargo run -q --release -p p3p-bench --bin repro -- --table churn > /dev/null
same_counts BENCH_churn.json \
  '{updates, matches, hits, misses, final_epoch, cache_entries, cache_evictions,
    cache_invalidations}'

echo "==> bench smoke (serve, single iteration)"
cargo bench -p p3p-bench --bench serve -- --test

echo "==> repro --table serve (sustained-QPS floor + zero-dropped-drain gate)"
P3P_SERVE_POLICIES=2000 P3P_SERVE_SECS=3 \
  cargo run -q --release -p p3p-bench --bin repro -- --table serve > /dev/null
grep -q '"qps_floor_met": true' target/bench/BENCH_serve.json
grep -q '"drain_clean": true' target/bench/BENCH_serve.json
grep -q '"lost": 0' target/bench/BENCH_serve.json

echo "==> repro --table profile (profiler-off overhead gate, 1.10x)"
cargo run -q --release -p p3p-bench --bin repro -- --table profile > /dev/null
test -s target/bench/BENCH_profile.json
grep -q '"off_overhead"' target/bench/BENCH_profile.json

echo "==> repro --trace-out (Chrome trace-event schema sanity)"
cargo run -q --release -p p3p-bench --bin repro -- --trace-out target/trace.json > /dev/null
grep -q '"traceEvents"' target/trace.json
grep -q '"ph": "X"' target/trace.json
grep -q '"name": "corpus_shard"' target/trace.json

echo "All checks passed."
