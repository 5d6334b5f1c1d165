//! Observability overhead: what a span open/close and a histogram record
//! cost on the **noop** path (no recorder installed — the cost every
//! un-instrumented production run pays) versus on a **recording** handle
//! (a `RegistrySink`, the cheapest always-on sink).
//!
//! The table prints per-op nanosecond costs for a tight baseline loop, the
//! noop span/histogram paths, and the recording span/histogram paths. The
//! contract the engine layer relies on is that the noop numbers sit within
//! noise of the baseline — instrumentation must be free when nobody is
//! listening.

use std::hint::black_box;
use std::time::Instant;

use rsky_bench::table::Table;
use rsky_bench::BenchConfig;
use rsky_core::obs::{self, RegistrySink};

/// Mean nanoseconds per call of `f` over `iters` iterations.
fn per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    // Warm the path (lazy thread-locals, branch predictors) off the clock.
    for _ in 0..1_000 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let cfg = BenchConfig::from_env();
    println!("{}", cfg.banner("Observability overhead: noop vs recording handles"));
    let iters = cfg.n(20_000_000) as u64;

    // Baseline: the loop body with no observability call at all.
    let mut acc = 0u64;
    let baseline = per_op(iters, || {
        acc = acc.wrapping_add(black_box(1));
    });
    black_box(acc);

    // Noop path: no recorder installed anywhere, so `obs::handle()` resolves
    // to the inert recorder — `enabled()` is false and spans never touch the
    // trace stack.
    let noop = obs::handle();
    let noop_span = per_op(iters, || {
        let span = noop.span("bench", "span");
        black_box(&span);
    });
    let noop_hist = per_op(iters, || {
        noop.histogram_record("bench.noop_wait_us", black_box(7));
    });

    // Recording path: a registry sink (fixed-size histograms, no event
    // buffering), driven through the same `ObsHandle` API.
    let (registry, rec) = RegistrySink::fresh();
    let rec_span = per_op(iters, || {
        let span = rec.span("bench", "span");
        black_box(&span);
    });
    let rec_hist = per_op(iters, || {
        rec.histogram_record("bench.rec_wait_us", black_box(7));
    });
    assert_eq!(
        registry.histogram("bench.rec_wait_us").map(|h| h.count),
        Some(iters + 1_000),
        "recording handle dropped histogram records"
    );

    let ns = |v: f64| format!("{v:.1}");
    let mut t = Table::new(
        format!("Per-op cost over {iters} iterations (ns)"),
        &["path", "span open+close", "histogram record", "baseline loop"],
    );
    t.row(vec!["noop".into(), ns(noop_span), ns(noop_hist), ns(baseline)]);
    t.row(vec!["recording".into(), ns(rec_span), ns(rec_hist), ns(baseline)]);
    t.print();
    println!(
        "noop span overhead vs baseline: {:.1} ns/op (recording: {:.1} ns/op)",
        noop_span - baseline,
        rec_span - baseline
    );
}
