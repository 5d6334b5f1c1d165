#!/usr/bin/env bash
# Local CI: the exact gates .github/workflows/ci.yml runs.
#
#   ./ci.sh          # tier-1 + full property sweep + clippy
#   ./ci.sh tier1    # just the tier-1 build & test
set -euo pipefail
cd "$(dirname "$0")"

tier1() {
    echo "=== tier-1: release build + default test suite ==="
    cargo build --release
    cargo test -q
    echo "=== tier-1: benchmark package tests ==="
    # perfbench is its own workspace over crates/*: an API change that
    # breaks the benchmark must fail CI here, not in the benchmark run.
    cargo test --offline --manifest-path perfbench/Cargo.toml
    echo "=== tier-1: server e2e (hard timeout) ==="
    # Re-run the socket suite under a hard wall-clock cap: a wedged
    # accept/drain path must fail CI, not hang it.
    timeout 300 cargo test -q --test server_e2e
    echo "=== tier-1: shard differential (hard timeout) ==="
    # The scatter-gather suite spawns one thread per shard per phase; a
    # deadlocked barrier must fail CI, not hang it.
    timeout 300 cargo test -q --test shard_differential
}

full() {
    echo "=== full property sweep ==="
    cargo test -q --features property-tests
    echo "=== clippy (warnings are errors) ==="
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --workspace --all-targets --features property-tests -- -D warnings
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
    echo "=== smoke: observability overhead bench ==="
    RSKY_SCALE=0.05 cargo bench -p rsky-bench --bench obs_overhead
    test -s BENCH_obs.json
    echo "=== smoke: telemetry sampler + profile-fold bench (hard timeout) ==="
    # Asserts windowed rates reconcile with the per-tick increments and
    # that the sampler's p99 tick stays under the 200 µs budget, then
    # merges a "timeseries" member into BENCH_obs.json.
    RSKY_SCALE=0.05 timeout 300 cargo bench -p rsky-bench --bench obs_timeseries
    grep -q '"timeseries"' BENCH_obs.json
    echo "=== smoke: kernel micro-bench (inner-loop counter identity) ==="
    # Tiny scale: the run itself asserts the batched dominance loop, on the
    # flat tables and on the DissimTable source, keeps the per-pair loop's
    # survivors and counters, and writes BENCH_kernels.json. Engine-level
    # id and counter identity is tier-1: tests/kernel_differential.rs.
    RSKY_SCALE=0.5 RSKY_QUERIES=1 cargo bench -p rsky-bench --bench micro_kernels
    test -s BENCH_kernels.json
    echo "=== smoke: shard pruner exchange (hard timeout) ==="
    # The bench asserts every sharded run matches the single-node ids AND
    # that the exchange kill pass shrinks every ballooned phase-2 candidate
    # set (post-exchange < pre-exchange) before writing BENCH_shard.json.
    RSKY_SCALE=0.5 RSKY_QUERIES=2 timeout 300 cargo bench -p rsky-bench --bench shard_scaling
    test -s BENCH_shard.json
    echo "=== smoke: view maintenance (incremental vs naive, hard timeout) ==="
    # The bench cross-checks every sampled naive recompute against the
    # maintained view's member set and asserts incremental maintenance
    # beats the recompute mean for every mutation mix at the largest size.
    RSKY_SCALE=0.5 timeout 300 cargo bench -p rsky-bench --bench view_maintenance
    test -s BENCH_view.json
    echo "=== smoke: best-first tree search (differential + node-visit win, hard timeout) ==="
    # The bench asserts trs-bf returns trs's exact id list on every dataset
    # and visits strictly fewer AL-Tree nodes on both hub shapes before
    # writing BENCH_bftree.json.
    RSKY_SCALE=0.5 timeout 300 cargo bench -p rsky-bench --bench bftree_scaling
    test -s BENCH_bftree.json
    echo "=== smoke: server write path (tcp-mixed, hard timeout) ==="
    # Two workers serve reads while two connections write; the benchmark
    # re-runs sampled reads in-process at their generation and exits
    # non-zero on any wrong answer.
    timeout 300 cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload tcp-mixed --seed 1 --seconds 3 --trace 0
    echo "=== smoke: trace round-trip (generate → query --trace-out → trace) ==="
    # A sharded parallel query and a plain sequential one: each trace must
    # rebuild as rooted trees (0 orphans) with at least one trace.
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    ./target/release/rsky generate --kind normal --n 400 --attrs 3 --values 8 --out "$smoke_dir/data"
    ./target/release/rsky query --data "$smoke_dir/data" --algo trs --threads 2 --shards 3 \
        --query 1,2,3 --trace-out "$smoke_dir/trace.jsonl" > /dev/null
    ./target/release/rsky query --data "$smoke_dir/data" --algo trs \
        --query 1,2,3 --trace-out "$smoke_dir/seq-trace.jsonl" > /dev/null
    for trace in trace seq-trace; do
        ./target/release/rsky trace --in "$smoke_dir/$trace.jsonl" | tee "$smoke_dir/tree.txt" | tail -n 3
        grep -q " 0 orphan(s)" "$smoke_dir/tree.txt"
        grep -Eq '^[1-9][0-9]* trace\(s\), ' "$smoke_dir/tree.txt"
    done
}

case "${1:-all}" in
    tier1) tier1 ;;
    all) tier1; full ;;
    *) echo "usage: $0 [tier1|all]" >&2; exit 2 ;;
esac
echo "CI OK"
