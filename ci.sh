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
    echo "=== tier-1: parallel engines and obs contract (hard timeout) ==="
    # Batch workers share one lock on the run's disk and commit in batch
    # order: a lost wake-up or a commit-order bug must fail CI, not hang it.
    timeout 300 cargo test -q --test parallel_engines --test obs_contract
}

full() {
    echo "=== release-mode tree and cost pins ==="
    # The benchmark measures release builds, where debug_assert! and
    # overflow checks are off: the AL-Tree, TRS's phase-two scan memo
    # (object by object against the DFS it replaced), the paper's cost
    # units, every engine against the oracle, the served images and sharded
    # runs (byte- and cost-identical to fresh ones) and the served views
    # (maintained over the parts and rebuilt by their own classification)
    # are pinned there too.
    cargo test --release -q -p rsky-altree
    cargo test --release -q -p rsky-algos
    cargo test --release -q --test cost_baseline --test kernel_differential \
        --test paper_walkthrough --test bftree_fixtures --test parallel_engines \
        --test state_differential --test view_differential --test engines_agree
    echo "=== full property sweep ==="
    cargo test -q --features property-tests
    echo "=== clippy (warnings are errors) ==="
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --workspace --all-targets --features property-tests -- -D warnings
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
    echo "=== docs (warnings are errors) ==="
    # Broken or private intra-doc links fail here, not in a reader's browser.
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
    echo "=== smoke: telemetry sampler + profile-fold bench (hard timeout) ==="
    # Asserts windowed rates reconcile with the per-tick increments and
    # that the sampler's p99 tick stays under the 200 µs budget.
    RSKY_SCALE=0.05 timeout 300 cargo bench -p rsky-bench --bench obs_timeseries
    echo "=== smoke: view maintenance (incremental vs naive, hard timeout) ==="
    # The bench cross-checks every sampled naive recompute against the
    # maintained view's member set and asserts incremental maintenance
    # beats the recompute mean for every mutation mix at the largest size.
    RSKY_SCALE=0.5 timeout 300 cargo bench -p rsky-bench --bench view_maintenance
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
