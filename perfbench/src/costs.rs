//! Pieces the pass-based workloads (cold-file, warm-mem) share: the pass
//! loop, per-op latency samples, and the paper's cost units per op type.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rsky_core::stats::RunStats;

use crate::report::Outcome;
use crate::stats::{mean, median, quantile, ratio, spread};

/// Runs `pass` for the measuring window: at least `min_passes` times, then
/// while one more pass is expected to end less than half a pass after
/// `window`, so that the run ends within half a pass of it. A pass may do
/// untimed work, such as a set-up, beside its ops, so it returns the wall
/// time of its ops alone; `run_passes` returns those times.
pub fn run_passes(
    window: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<Duration, String>,
) -> Result<Vec<Duration>, String> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(pass(walls.len())?);
        let (spent, n) = (t0.elapsed(), walls.len());
        if n >= min_passes && spent + spent / (2 * n as u32) > window {
            return Ok(walls);
        }
    }
}

/// The op types of pass `p` for one query, rotated so that no op type
/// always runs first.
pub fn rotated<'a>(ops: &[&'a str], p: usize) -> Vec<&'a str> {
    (0..ops.len()).map(|i| ops[(i + p) % ops.len()]).collect()
}

/// Latency samples in ms: per op type, per pass, one per query. A failed op
/// is `f64::INFINITY`.
#[derive(Default)]
pub struct Latencies {
    by_op: BTreeMap<String, Vec<Vec<f64>>>,
    traced_pass: Vec<bool>,
}

impl Latencies {
    pub fn start_pass(&mut self, traced: bool) {
        self.traced_pass.push(traced);
        for passes in self.by_op.values_mut() {
            passes.push(Vec::new());
        }
    }

    pub fn push(&mut self, op: &str, ms: f64) {
        let passes = self.traced_pass.len();
        let slot = self
            .by_op
            .entry(op.to_string())
            .or_insert_with(|| vec![Vec::new(); passes]);
        slot.last_mut().expect("start_pass opened a pass").push(ms);
    }

    /// Per-pass means of one op type.
    fn pass_means(&self, op: &str) -> Vec<f64> {
        self.by_op
            .get(op)
            .map_or(Vec::new(), |p| p.iter().map(|xs| mean(xs)).collect())
    }

    /// Mean latency per query over the fixed query set, as the median over
    /// passes (the paper's response-time statistic, made robust to a noisy
    /// pass); records it as `metric` and notes the pass-to-pass spread.
    pub fn record_mean(&self, out: &mut Outcome, op: &str, metric: &str) {
        let means = self.pass_means(op);
        let samples = self
            .by_op
            .get(op)
            .map_or(0, |p| p.iter().map(Vec::len).sum());
        out.set(metric, median(&means), samples);
        out.notes.push(format!(
            "{metric}: median of {} pass means, pass-to-pass spread {:.1}%",
            means.len(),
            spread(&means) * 100.0
        ));
    }

    /// `query_p50_ms` and `query_p90_ms` over every `op` of every pass. The
    /// quantiles of one op type: pooled over op types they would fall
    /// between op types, where a small shift moves them a lot.
    pub fn record_quantiles(&self, out: &mut Outcome, op: &str) {
        let all: Vec<f64> = self
            .by_op
            .get(op)
            .into_iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        out.set("query_p50_ms", quantile(&all, 0.5), all.len());
        out.set("query_p90_ms", quantile(&all, 0.9), all.len());
    }

    /// `ops_per_s`: completed ops of every type over each pass's wall time,
    /// median over passes. A failed op is not a completed one.
    pub fn record_throughput(&self, out: &mut Outcome, walls: &[Duration]) {
        let completed = |xs: &[f64]| xs.iter().filter(|ms| ms.is_finite()).count();
        let per_pass: Vec<f64> = walls
            .iter()
            .enumerate()
            .map(|(p, wall)| {
                let ops: usize = self
                    .by_op
                    .values()
                    .map(|passes| completed(&passes[p]))
                    .sum();
                ops as f64 / wall.as_secs_f64()
            })
            .collect();
        let ops = self.by_op.values().flatten().map(|xs| completed(xs)).sum();
        out.set("ops_per_s", median(&per_pass), ops);
    }

    /// How much slower traced passes ran than untraced ones, in percent:
    /// the median pass mean over all op types of each kind of pass.
    pub fn trace_overhead_pct(&self) -> f64 {
        let pass_mean = |p: usize| {
            let xs: Vec<f64> = self
                .by_op
                .values()
                .flat_map(|passes| passes[p].iter().copied())
                .collect();
            mean(&xs)
        };
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (p, &traced) in self.traced_pass.iter().enumerate() {
            if traced { &mut on } else { &mut off }.push(pass_mean(p));
        }
        (median(&on) / median(&off) - 1.0) * 100.0
    }
}

/// The paper's cost units for one op type, summed over its runs. They
/// repeat exactly from run to run, so a time that moves while they stay
/// put is host noise, not a change in the work.
#[derive(Default)]
pub struct Costs {
    pub runs: usize,
    pub dist_checks: u64,
    pub query_dist_checks: u64,
    pub obj_comparisons: u64,
    pub tree_nodes: u64,
    pub seq_pages: u64,
    pub rand_pages: u64,
    pub phase1_survivors: u64,
    pub result_size: u64,
    pub phase1: Duration,
    pub phase2: Duration,
}

impl Costs {
    pub fn add(&mut self, s: &RunStats) {
        self.runs += 1;
        self.dist_checks += s.dist_checks;
        self.query_dist_checks += s.query_dist_checks;
        self.obj_comparisons += s.obj_comparisons;
        self.tree_nodes += s.tree_nodes_visited;
        self.seq_pages += s.io.sequential();
        self.rand_pages += s.io.random();
        self.phase1_survivors += s.phase1_survivors as u64;
        self.result_size += s.result_size as u64;
        self.phase1 += s.phase1_time;
        self.phase2 += s.phase2_time;
    }

    fn per_run(&self, total: u64) -> f64 {
        ratio(total as f64, self.runs as f64)
    }

    /// Records the per-run means under `<module>.<metric>`.
    pub fn record(&self, out: &mut Outcome, module: &str) {
        let n = self.runs;
        let ms = |d: Duration| ratio(d.as_secs_f64() * 1e3, n as f64);
        out.set(&format!("{module}.phase1_ms"), ms(self.phase1), n);
        out.set(&format!("{module}.phase2_ms"), ms(self.phase2), n);
        for (name, total) in [
            ("dist_checks", self.dist_checks),
            ("query_dist_checks", self.query_dist_checks),
            ("obj_comparisons", self.obj_comparisons),
            ("phase1_survivors", self.phase1_survivors),
            ("seq_pages", self.seq_pages),
            ("rand_pages", self.rand_pages),
            ("tree_nodes", self.tree_nodes),
        ] {
            out.set(&format!("{module}.{name}"), self.per_run(total), n);
        }
        let yield_ = ratio(self.result_size as f64, self.phase1_survivors as f64);
        out.set(&format!("{module}.survivor_yield"), yield_, n);
    }

    /// The cost units as one report line.
    pub fn note(&self, op: &str) -> String {
        format!(
            "cost {op}: per run over {} runs: dist_checks={} query_checks={} obj_comparisons={} \
             tree_nodes={} seq_pages={} rand_pages={} phase1_survivors={} result={}",
            self.runs,
            self.per_run(self.dist_checks),
            self.per_run(self.query_dist_checks),
            self.per_run(self.obj_comparisons),
            self.per_run(self.tree_nodes),
            self.per_run(self.seq_pages),
            self.per_run(self.rand_pages),
            self.per_run(self.phase1_survivors),
            self.per_run(self.result_size),
        )
    }
}

/// The span names of an engine's layer and of its two phases.
pub fn engine_layer(op: &str) -> (&'static str, &'static str, &'static str) {
    match op {
        "brs" => ("algos::brs", "algos::brs::phase1", "algos::brs::phase2"),
        "srs" => ("algos::srs", "algos::srs::phase1", "algos::srs::phase2"),
        "trs" => ("algos::trs", "algos::trs::phase1", "algos::trs::phase2"),
        "trs-bf" => ("algos::bf", "algos::bf::phase1", "algos::bf::phase2"),
        _ => (
            "algos::shard",
            "algos::shard::phase1",
            "algos::shard::phase2",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_fill_the_window_and_respect_the_minimum() {
        let mut ran = 0;
        let walls = run_passes(Duration::ZERO, 3, |_| {
            ran += 1;
            Ok(Duration::ZERO)
        })
        .unwrap();
        assert_eq!((walls.len(), ran), (3, 3));
        // Untimed work inside a pass counts against the window but not in
        // the pass's wall time.
        let t = Instant::now();
        let walls = run_passes(Duration::from_millis(60), 1, |_| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(Duration::from_millis(1))
        })
        .unwrap();
        assert!(walls.len() >= 5, "{} passes", walls.len());
        assert!(walls.iter().all(|w| *w == Duration::from_millis(1)));
        assert!(
            t.elapsed() <= Duration::from_millis(120),
            "{:?}",
            t.elapsed()
        );
        // A failing pass ends the run with its error.
        let failed = run_passes(Duration::from_secs(60), 1, |p| {
            if p == 1 {
                Err("set-up failed".to_string())
            } else {
                Ok(Duration::ZERO)
            }
        });
        assert_eq!(failed, Err("set-up failed".to_string()));
    }

    #[test]
    fn rotation_changes_which_op_runs_first() {
        assert_eq!(rotated(&["a", "b", "c"], 0), ["a", "b", "c"]);
        assert_eq!(rotated(&["a", "b", "c"], 4), ["b", "c", "a"]);
    }

    #[test]
    fn latency_statistics_on_fixed_inputs() {
        let mut l = Latencies::default();
        for (p, scale) in [(0, 1.0), (1, 3.0), (2, 2.0)] {
            l.start_pass(p % 2 == 0);
            l.push("trs", 10.0 * scale);
            l.push("trs", 20.0 * scale);
            l.push("srs", 30.0 * scale);
        }
        let mut out = Outcome::new("t");
        l.record_mean(&mut out, "trs", "trs_ms");
        // Pass means 15, 45, 30 → median 30, over 6 samples.
        assert_eq!(out.values["trs_ms"].value, 30.0);
        assert_eq!(out.values["trs_ms"].samples, 6);
        // trs samples 10, 20, 20, 30, 40, 60.
        l.record_quantiles(&mut out, "trs");
        assert_eq!(out.values["query_p50_ms"].value, 25.0);
        assert_eq!(out.values["query_p90_ms"].value, 50.0);
        assert_eq!(out.values["query_p50_ms"].samples, 6);
        // Three ops per pass over 1, 2 and 3 s.
        let walls = [1, 2, 3].map(Duration::from_secs);
        l.record_throughput(&mut out, &walls);
        assert_eq!(out.values["ops_per_s"].value, 1.5);
        assert_eq!(out.values["ops_per_s"].samples, 9);
        // Traced passes 0 and 2 (means 20 and 40) against pass 1 (60).
        assert_eq!(l.trace_overhead_pct(), -50.0);
    }

    #[test]
    fn a_failed_op_makes_its_pass_infinitely_slow_and_is_not_completed() {
        let mut l = Latencies::default();
        l.start_pass(false);
        l.push("trs", 10.0);
        l.push("trs", f64::INFINITY);
        let mut out = Outcome::new("t");
        l.record_mean(&mut out, "trs", "trs_ms");
        assert_eq!(out.values["trs_ms"].value, f64::INFINITY);
        l.record_throughput(&mut out, &[Duration::from_secs(2)]);
        assert_eq!(out.values["ops_per_s"].value, 0.5);
        assert_eq!(out.values["ops_per_s"].samples, 1);
    }
}
