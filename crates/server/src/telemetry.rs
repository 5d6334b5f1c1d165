//! The continuous-telemetry loop: sample, evaluate, self-report.
//!
//! [`Telemetry`] bundles the server's [`TimeSeriesRing`] and
//! [`HealthEvaluator`] behind a single [`tick`](Telemetry::tick): snapshot
//! the metrics registry into the ring, evaluate the SLO rules against the
//! fresh windows, publish the verdict as the `rsky_health` gauge, and
//! record the tick's own wall time into the `obs.sample_us` histogram —
//! the sampler's overhead is part of the data it produces.
//!
//! In production a dedicated server thread ticks every
//! `sample_interval_ms`; in tests the interval is 0 (no thread) and the
//! test-gated `{"op":"tick"}` protocol op drives ticks synchronously
//! against an injected [`ManualClock`](rsky_core::obs_ts::ManualClock), so
//! every window boundary is deterministic.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rsky_core::obs::{names, MetricsRegistry};
use rsky_core::obs_ts::{Clock, SeriesKind, TimeSeriesRing};

use crate::health::{HealthEvaluator, HealthReport};
use crate::json;

/// The telemetry subsystem of one server: ring + health, one tick at a
/// time. Thread-safe; the sampler thread ticks while connections read.
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    ring: Arc<TimeSeriesRing>,
    health: HealthEvaluator,
}

impl Telemetry {
    /// Builds the subsystem: a ring of `capacity` samples over at most
    /// `max_series` series on `clock`, plus `health`.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
        capacity: usize,
        max_series: usize,
        health: HealthEvaluator,
    ) -> Self {
        Self {
            registry,
            ring: Arc::new(TimeSeriesRing::new(capacity, max_series, clock)),
            health,
        }
    }

    /// The underlying ring.
    pub fn ring(&self) -> &TimeSeriesRing {
        &self.ring
    }

    /// The health evaluator.
    pub fn health(&self) -> &HealthEvaluator {
        &self.health
    }

    /// One full telemetry tick. Returns the fresh health report.
    pub fn tick(&self) -> HealthReport {
        // Overhead is measured on the real clock even when sampling time is
        // injected — a manual clock standing still must not hide the cost.
        let t0 = Instant::now();
        self.ring.sample(&self.registry);
        let report = self.health.evaluate(&self.ring, self.ring.now_us());
        self.registry.gauge_set(names::RSKY_HEALTH, report.level.as_gauge());
        self.registry.counter_add(names::HEALTH_EVALS, 1);
        if report.transitions > 0 {
            self.registry.counter_add(names::HEALTH_TRANSITIONS, report.transitions);
        }
        self.registry.counter_add(names::OBS_TICKS, 1);
        self.registry.gauge_set(names::OBS_DROPPED_SERIES, self.ring.dropped_series() as f64);
        self.registry.histogram_record(names::OBS_SAMPLE_US, t0.elapsed().as_micros() as u64);
        report
    }

    /// The most recent health report (empty before the first tick).
    pub fn last_report(&self) -> HealthReport {
        self.health.last_report()
    }

    /// Renders the `timeseries` op response body (the part after
    /// `"ok":true,"op":"timeseries"`):
    ///
    /// * without `metric`: a summary — clock, tick/sample/series counts,
    ///   and the full series table;
    /// * with `metric`: the series' in-window points plus its derived view —
    ///   `rate` for counters, windowed `quantiles` for histograms, raw
    ///   points alone for gauges.
    pub fn timeseries_json(&self, metric: Option<&str>, window_ms: u64, limit: usize) -> String {
        let now_us = self.ring.now_us();
        let window_us = window_ms.saturating_mul(1000);
        let mut out = String::new();
        let _ = write!(
            out,
            ",\"now_us\":{},\"ticks\":{},\"samples\":{},\"capacity\":{},\"dropped_series\":{}",
            now_us,
            self.ring.ticks(),
            self.ring.len(),
            self.ring.capacity(),
            self.ring.dropped_series()
        );
        match metric {
            None => {
                out.push_str(",\"series\":[");
                for (i, s) in self.ring.series().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":\"");
                    json::escape(&s.name, &mut out);
                    let _ = write!(out, "\",\"kind\":\"{}\"}}", s.kind.as_str());
                }
                out.push(']');
            }
            Some(name) => {
                out.push_str(",\"metric\":\"");
                json::escape(name, &mut out);
                let _ = write!(out, "\",\"window_ms\":{window_ms}");
                let kind =
                    self.ring.series().into_iter().find(|s| s.name == name).map(|s| s.kind);
                match kind {
                    Some(SeriesKind::Counter) => {
                        if let Some(r) = self.ring.rate(name, window_us, now_us) {
                            let _ = write!(
                                out,
                                ",\"rate\":{{\"delta\":{},\"dt_us\":{},\"samples\":{},\"per_sec\":{}}}",
                                r.delta,
                                r.dt_us,
                                r.samples,
                                if r.per_sec.is_finite() { r.per_sec } else { 0.0 }
                            );
                        }
                        points_json(&self.ring, name, window_us, now_us, limit, &mut out);
                    }
                    Some(SeriesKind::Gauge) => {
                        points_json(&self.ring, name, window_us, now_us, limit, &mut out);
                    }
                    Some(SeriesKind::Histogram) => {
                        if let Some(h) = self.ring.hist_window(name, window_us, now_us) {
                            let _ = write!(
                                out,
                                ",\"window\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                                h.count,
                                h.sum,
                                h.quantile(0.5),
                                h.quantile(0.9),
                                h.quantile(0.99)
                            );
                        }
                    }
                    None => out.push_str(",\"known\":false"),
                }
            }
        }
        out
    }
}

fn points_json(
    ring: &TimeSeriesRing,
    name: &str,
    window_us: u64,
    now_us: u64,
    limit: usize,
    out: &mut String,
) {
    out.push_str(",\"points\":[");
    for (i, (t, v)) in ring.points(name, window_us, now_us, limit).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{t},{}]", if v.is_finite() { *v } else { 0.0 });
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::Level;
    use rsky_core::obs_ts::ManualClock;

    fn telemetry() -> (Telemetry, Arc<ManualClock>, Arc<MetricsRegistry>) {
        let clock = ManualClock::shared(0);
        let registry = Arc::new(MetricsRegistry::new());
        let t = Telemetry::new(
            registry.clone(),
            clock.clone(),
            64,
            128,
            HealthEvaluator::with_overrides(None).unwrap(),
        );
        (t, clock, registry)
    }

    #[test]
    fn tick_samples_evaluates_and_self_reports() {
        let (t, clock, reg) = telemetry();
        reg.counter_add("server.served", 5);
        clock.advance(1_000_000);
        let report = t.tick();
        assert_eq!(report.level, Level::Ok);
        assert_eq!(t.ring().ticks(), 1);
        assert_eq!(reg.gauge("rsky_health"), Some(0.0));
        assert_eq!(reg.counter("health.evals"), 1);
        assert_eq!(reg.counter("obs.ticks"), 1);
        let h = reg.histogram("obs.sample_us").expect("sampler measures itself");
        assert_eq!(h.count, 1);
        // The next tick snapshots the sampler's own series too.
        clock.advance(1_000_000);
        t.tick();
        assert!(t.ring().last_value("obs.sample_us").is_some());
        assert_eq!(t.last_report().level, Level::Ok);
    }

    #[test]
    fn timeseries_json_summary_and_per_metric_views() {
        let (t, clock, reg) = telemetry();
        for _ in 0..3 {
            reg.counter_add("server.served", 10);
            reg.gauge_set("server.queue.depth", 2.0);
            reg.histogram_record("server.queue.wait_us", 50);
            clock.advance(1_000_000);
            t.tick();
        }
        let wrap = |body: &str| format!("{{\"ok\":true{body}}}");
        // Summary lists the series table.
        let v = crate::json::parse(&wrap(&t.timeseries_json(None, 60_000, 0))).unwrap();
        assert_eq!(v.get("ticks").and_then(|x| x.as_u64()), Some(3));
        let series = v.get("series").and_then(|s| s.as_arr()).unwrap();
        assert!(series.iter().any(|s| {
            s.get("name").and_then(|n| n.as_str()) == Some("server.served")
                && s.get("kind").and_then(|k| k.as_str()) == Some("counter")
        }));
        // Counter view carries the windowed rate; its delta reconciles with
        // what the registry actually counted between first and last sample.
        let v =
            crate::json::parse(&wrap(&t.timeseries_json(Some("server.served"), 60_000, 0)))
                .unwrap();
        let rate = v.get("rate").expect("counters derive a rate");
        assert_eq!(rate.get("delta").and_then(|d| d.as_u64()), Some(20));
        assert_eq!(v.get("points").and_then(|p| p.as_arr()).map(|p| p.len()), Some(3));
        // Histogram view carries windowed quantiles.
        let v = crate::json::parse(&wrap(
            &t.timeseries_json(Some("server.queue.wait_us"), 60_000, 0),
        ))
        .unwrap();
        assert!(v.get("window").and_then(|w| w.get("p99")).is_some());
        // Unknown series say so instead of erroring.
        let v = crate::json::parse(&wrap(&t.timeseries_json(Some("nope"), 60_000, 0))).unwrap();
        assert_eq!(v.get("known"), Some(&crate::json::JsonValue::Bool(false)));
    }
}
