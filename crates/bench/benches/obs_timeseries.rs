//! Continuous-telemetry cost: what one sampler tick costs as the registry
//! grows, and how fast span streams fold into self-time profiles.
//!
//! Two measurements:
//!
//! * **Sampler tick** — `TimeSeriesRing::sample` snapshots every counter,
//!   gauge and histogram under the registry locks. The server runs this on
//!   a dedicated thread every `--sample-interval-ms`, so its cost *is* the
//!   telemetry overhead a serving process pays. The bench sweeps registry
//!   sizes and asserts the p99 tick at the default size stays under the
//!   200 µs budget (`obs.sample_us` measures the same path in production).
//! * **Profile fold** — `Profile::from_spans` aggregates a span stream into
//!   the per-path self-time table behind `rsky profile` and the slowlog's
//!   per-entry summaries. Reported as spans/second.

use std::time::Instant;

use rsky_bench::table::Table;
use rsky_bench::BenchConfig;
use rsky_core::obs::{MetricsRegistry, SpanEvent};
use rsky_core::obs_ts::{ManualClock, TimeSeriesRing};
use rsky_core::profile::Profile;

/// Registry sizes swept (total series; half counters, a quarter gauges, a
/// quarter histograms). 256 is the representative size of a busy serving
/// process — the budget assertion runs there.
const SIZES: &[usize] = &[16, 64, 256, 1024];
const DEFAULT_SIZE: usize = 256;
const BUDGET_US: f64 = 200.0;

/// A registry populated with `series` total series of mixed kinds.
fn registry_of(series: usize) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for i in 0..series {
        match i % 4 {
            0 | 1 => reg.counter_add(&format!("bench.counter.{i}"), i as u64 + 1),
            2 => reg.gauge_set(&format!("bench.gauge.{i}"), i as f64),
            _ => {
                for v in 0..8u64 {
                    reg.histogram_record(&format!("bench.hist.{i}"), (i as u64 + 1) * (v + 1));
                }
            }
        }
    }
    reg
}

struct TickStats {
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Runs `ticks` sampler ticks against a `series`-sized registry, mutating a
/// slice of counters between ticks so every snapshot sees fresh deltas.
fn sampler_stats(series: usize, ticks: usize) -> TickStats {
    let reg = registry_of(series);
    let clock = ManualClock::shared(0);
    let ring = TimeSeriesRing::new(512, series + 64, clock.clone());
    // Warm the ring (series interning, first-touch allocation) off the clock.
    // The per-tick counter bump runs here too so every retained interval —
    // warm or measured — carries exactly one increment.
    for _ in 0..8 {
        reg.counter_add("bench.counter.0", 1);
        clock.advance(1_000_000);
        ring.sample(&reg);
    }
    let mut micros = Vec::with_capacity(ticks);
    for t in 0..ticks {
        reg.counter_add("bench.counter.0", 1);
        reg.histogram_record("bench.hist.3", t as u64);
        clock.advance(1_000_000);
        let t0 = Instant::now();
        ring.sample(&reg);
        micros.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    assert_eq!(ring.dropped_series(), 0, "ring dropped series at size {series}");
    // The snapshots must reconcile: the counter we bumped every tick gains
    // exactly one per in-window sample interval.
    let now = (8 + ticks as u64) * 1_000_000;
    let window = (ring.len() as u64).saturating_sub(1) * 1_000_000;
    let rate = ring
        .rate("bench.counter.0", window, now)
        .expect("sampled counter has no windowed rate");
    assert_eq!(
        rate.delta,
        rate.samples as u64 - 1,
        "windowed delta disagrees with the per-tick increments"
    );

    micros.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| micros[((micros.len() - 1) as f64 * p) as usize];
    TickStats {
        mean_us: micros.iter().sum::<f64>() / micros.len() as f64,
        p50_us: q(0.50),
        p99_us: q(0.99),
    }
}

/// Synthesizes `traces` sequential span trees (16 spans each: root, three
/// children, four grandchildren per child) whose self times partition each
/// root's wall exactly.
fn synth_spans(traces: usize) -> Vec<SpanEvent> {
    let mut spans = Vec::with_capacity(traces * 16);
    let mut span_id = 0u64;
    let mut mk = |name: &str, trace: u64, parent: Option<u64>, wall: u64| {
        span_id += 1;
        spans.push(SpanEvent {
            name: name.to_string(),
            trace_id: trace,
            span_id,
            parent_id: parent,
            wall_us: wall,
            fields: Vec::new(),
        });
        span_id
    };
    for t in 0..traces as u64 {
        let root = mk("req.run", t, None, 1_000);
        for c in 0..3 {
            let child = mk(&format!("req.phase{c}"), t, Some(root), 200);
            for _ in 0..4 {
                mk("req.phase.batch", t, Some(child), 40);
            }
        }
    }
    spans
}

fn main() {
    let cfg = BenchConfig::from_env();
    println!("{}", cfg.banner("Continuous telemetry: sampler tick cost + profile fold throughput"));

    // --- sampler tick vs registry size -----------------------------------
    let ticks = cfg.n(200_000);
    let us = |v: f64| format!("{v:.1}");
    let mut t = Table::new(
        format!("Sampler tick cost over {ticks} ticks (µs)"),
        &["series", "mean", "p50", "p99"],
    );
    let mut p99_at_default = f64::NAN;
    for &series in SIZES {
        let s = sampler_stats(series, ticks);
        t.row(vec![series.to_string(), us(s.mean_us), us(s.p50_us), us(s.p99_us)]);
        if series == DEFAULT_SIZE {
            p99_at_default = s.p99_us;
        }
    }
    t.print();
    assert!(
        p99_at_default < BUDGET_US,
        "sampler p99 at {DEFAULT_SIZE} series is {p99_at_default:.1} µs — over the {BUDGET_US} µs budget"
    );
    println!("sampler p99 at {DEFAULT_SIZE} series: {p99_at_default:.1} µs (budget {BUDGET_US} µs)");

    // --- profile fold throughput -----------------------------------------
    let traces = cfg.n(20_000);
    let spans = synth_spans(traces);
    let t0 = Instant::now();
    let profile = Profile::from_spans(&spans);
    let elapsed = t0.elapsed();
    assert_eq!(profile.traces(), traces as u64, "profile lost traces");
    assert_eq!(
        profile.self_sum(),
        traces as u64 * 1_000,
        "self times no longer partition the synthetic roots' wall time"
    );
    let spans_per_sec = spans.len() as f64 / elapsed.as_secs_f64();
    let mut t = Table::new(
        "Profile fold (span stream → self-time table)".to_string(),
        &["traces", "spans", "elapsed ms", "spans/s"],
    );
    t.row(vec![
        traces.to_string(),
        spans.len().to_string(),
        format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        format!("{spans_per_sec:.0}"),
    ]);
    t.print();
}
