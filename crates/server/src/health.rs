//! SLO health evaluation over the telemetry time-series.
//!
//! A [`HealthEvaluator`] holds declarative [`Rule`]s — shed rate, p99
//! request latency, view-fallback rate, error-budget burn — and, on every
//! telemetry tick, folds the [`TimeSeriesRing`]'s windows into one
//! `ok | warn | critical` verdict with the firing rules named. Levels pass
//! through **hysteresis**: a rule must breach (or clear) for
//! `raise_after` / `clear_after` *consecutive* evaluations before its
//! effective level moves, so one noisy window cannot flap an alert.
//!
//! The default rule set is overridable per-rule from a compact spec string
//! (the `--health-rules` serve flag): `name=warn:critical` pairs, comma
//! separated, e.g. `shed_rate=1:10,request_p99_us=500000:2000000`.

use std::fmt::Write as _;
use std::sync::Mutex;

use rsky_core::obs::names;
use rsky_core::obs_ts::TimeSeriesRing;

use crate::json;

/// An overall or per-rule health level. Orders `Ok < Warn < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// All rules within budget.
    Ok,
    /// At least one rule past its warn threshold.
    Warn,
    /// At least one rule past its critical threshold.
    Critical,
}

impl Level {
    /// The wire name (`ok` / `warn` / `critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Ok => "ok",
            Level::Warn => "warn",
            Level::Critical => "critical",
        }
    }

    /// The `rsky_health` gauge encoding (0 / 1 / 2).
    pub fn as_gauge(self) -> f64 {
        match self {
            Level::Ok => 0.0,
            Level::Warn => 1.0,
            Level::Critical => 2.0,
        }
    }
}

/// What a rule measures over its window.
#[derive(Debug, Clone)]
pub enum RuleKind {
    /// Per-second rate of the counter named by the rule's `metric`.
    Rate,
    /// The `q`-quantile of the histogram named by the rule's `metric`
    /// (windowed — only observations inside the window count when at least
    /// two samples landed there).
    Quantile(f64),
    /// Error-budget burn: `bad / (bad + good)` request ratio, evaluated
    /// over **both** the rule's short window and `long_window_us`. The rule
    /// breaches only when both windows breach — the multiwindow guard that
    /// keeps a short blip from firing while still catching slow burns.
    Burn {
        /// Counters whose increments consume the budget.
        bad: Vec<String>,
        /// Counters whose increments are within-budget successes.
        good: Vec<String>,
        /// The long confirmation window (µs).
        long_window_us: u64,
    },
}

/// One declarative SLO rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable rule name, reported when firing.
    pub name: String,
    /// The metric the rule reads (unused by `Burn`, which names its own).
    pub metric: String,
    /// What to compute.
    pub kind: RuleKind,
    /// Trailing evaluation window (µs).
    pub window_us: u64,
    /// Value at or above which the rule is `warn`.
    pub warn: f64,
    /// Value at or above which the rule is `critical`.
    pub critical: f64,
    /// Consecutive breaching evaluations before the level raises.
    pub raise_after: u32,
    /// Consecutive clean evaluations before the level clears.
    pub clear_after: u32,
}

impl Rule {
    fn raw_level(&self, value: f64) -> Level {
        if value >= self.critical {
            Level::Critical
        } else if value >= self.warn {
            Level::Warn
        } else {
            Level::Ok
        }
    }

    fn measure(&self, ring: &TimeSeriesRing, now_us: u64) -> f64 {
        match &self.kind {
            RuleKind::Rate => ring
                .rate(&self.metric, self.window_us, now_us)
                .map_or(0.0, |r| r.per_sec),
            RuleKind::Quantile(q) => ring
                .hist_window(&self.metric, self.window_us, now_us)
                .map_or(0.0, |h| h.quantile(*q) as f64),
            RuleKind::Burn { bad, good, long_window_us } => {
                let ratio = |window: u64| {
                    let sum = |names: &[String]| {
                        names
                            .iter()
                            .filter_map(|n| ring.rate(n, window, now_us))
                            .map(|r| r.delta as f64)
                            .sum::<f64>()
                    };
                    let b = sum(bad);
                    let total = b + sum(good);
                    if total > 0.0 {
                        b / total
                    } else {
                        0.0
                    }
                };
                // Both windows must burn; report the weaker (long) ratio so
                // the number shown is the one that confirmed the breach.
                ratio(self.window_us).min(ratio(*long_window_us))
            }
        }
    }
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Copy)]
struct RuleState {
    /// The effective (post-hysteresis) level.
    effective: Level,
    /// The level raw evaluations are currently streaking towards.
    candidate: Level,
    /// Consecutive raw evaluations at `candidate`.
    streak: u32,
}

/// One rule's verdict inside a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct RuleReport {
    /// The rule's name.
    pub name: String,
    /// Effective level after hysteresis.
    pub level: Level,
    /// Raw level of this evaluation (pre-hysteresis).
    pub raw: Level,
    /// The measured value.
    pub value: f64,
    /// The rule's warn / critical thresholds.
    pub warn: f64,
    /// See `warn`.
    pub critical: f64,
}

/// The outcome of one health evaluation.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst effective rule level (the instance's level).
    pub level: Level,
    /// Every rule's verdict, in rule order.
    pub rules: Vec<RuleReport>,
    /// Effective-level transitions this evaluation caused.
    pub transitions: u64,
    /// Clock reading of the evaluation (µs).
    pub at_us: u64,
}

impl HealthReport {
    /// An all-ok report with no rules (the state before the first tick).
    pub fn empty() -> Self {
        Self { level: Level::Ok, rules: Vec::new(), transitions: 0, at_us: 0 }
    }

    /// The names of rules currently firing (effective level above ok).
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .filter(|r| r.level > Level::Ok)
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Renders the detailed report as one JSON object:
    /// `{"level":"…","firing":[…],"rules":[{…},…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"level\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"firing\":[");
        for (i, name) in self.firing().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json::escape(name, &mut out);
            out.push('"');
        }
        out.push_str("],\"rules\":[");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json::escape(&r.name, &mut out);
            let _ = write!(
                out,
                "\",\"level\":\"{}\",\"raw\":\"{}\",\"value\":{},\"warn\":{},\"critical\":{}}}",
                r.level.as_str(),
                r.raw.as_str(),
                finite(r.value),
                finite(r.warn),
                finite(r.critical)
            );
        }
        let _ = write!(out, "],\"at_us\":{}}}", self.at_us);
        out
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Evaluates a rule set against the time-series ring with per-rule
/// hysteresis. Thread-safe: the sampler ticks while protocol handlers read
/// the last report.
pub struct HealthEvaluator {
    rules: Vec<Rule>,
    states: Mutex<Vec<RuleState>>,
    last: Mutex<HealthReport>,
}

/// Default hysteresis: two consecutive breaching windows raise, two clean
/// windows clear.
pub const DEFAULT_RAISE_AFTER: u32 = 2;
/// See [`DEFAULT_RAISE_AFTER`].
pub const DEFAULT_CLEAR_AFTER: u32 = 2;

/// The default evaluation window (µs): the last 10 seconds.
pub const DEFAULT_WINDOW_US: u64 = 10_000_000;

/// The built-in SLO rule set:
///
/// * `shed_rate` — `server.shed` per second (warn ≥ 0.5/s, critical ≥ 5/s);
/// * `request_p99_us` — windowed p99 of `server.request.wall_us` (warn
///   ≥ 250 ms, critical ≥ 2 s);
/// * `view_fallback_rate` — `view.fallback` per second (warn ≥ 0.5/s,
///   critical ≥ 5/s): silent full recomputes eating the delta budget;
/// * `worker_panic_rate` — `server.worker.panics` per second (warn ≥
///   0.05/s, so any panic in the window; critical ≥ 1/s): a request that
///   panics is answered `internal` and its worker keeps serving, so only
///   this rule tells a server whose requests keep panicking from a healthy
///   one;
/// * `error_budget_burn` — shed+timeout over all outcomes, breaching only
///   when both the 10 s and 60 s windows burn (warn ≥ 5%, critical ≥ 25%).
pub fn default_rules() -> Vec<Rule> {
    let base = |name: &str, metric: &str, kind: RuleKind, warn: f64, critical: f64| Rule {
        name: name.into(),
        metric: metric.into(),
        kind,
        window_us: DEFAULT_WINDOW_US,
        warn,
        critical,
        raise_after: DEFAULT_RAISE_AFTER,
        clear_after: DEFAULT_CLEAR_AFTER,
    };
    vec![
        base("shed_rate", names::SERVER_SHED, RuleKind::Rate, 0.5, 5.0),
        // The registry sink flattens request spans into a
        // `server.request.wall_us` histogram — end-to-end latency including
        // queue wait, exactly what the SLO is about.
        base(
            "request_p99_us",
            &format!("{}.wall_us", names::SERVER_REQUEST),
            RuleKind::Quantile(0.99),
            250_000.0,
            2_000_000.0,
        ),
        base("view_fallback_rate", names::VIEW_FALLBACK, RuleKind::Rate, 0.5, 5.0),
        base("worker_panic_rate", names::SERVER_WORKER_PANICS, RuleKind::Rate, 0.05, 1.0),
        base(
            "error_budget_burn",
            "",
            RuleKind::Burn {
                bad: vec![names::SERVER_SHED.into(), names::SERVER_TIMEOUT.into()],
                good: vec![names::SERVER_SERVED.into()],
                long_window_us: 60_000_000,
            },
            0.05,
            0.25,
        ),
    ]
}

impl HealthEvaluator {
    /// An evaluator over an explicit rule set.
    pub fn new(rules: Vec<Rule>) -> Self {
        let states = rules
            .iter()
            .map(|_| RuleState { effective: Level::Ok, candidate: Level::Ok, streak: 0 })
            .collect();
        Self { rules, states: Mutex::new(states), last: Mutex::new(HealthReport::empty()) }
    }

    /// The default rule set with optional `name=warn:critical` overrides
    /// (comma separated). Unknown rule names and malformed numbers are
    /// errors — a typo must not silently disable an alert.
    pub fn with_overrides(spec: Option<&str>) -> Result<Self, String> {
        let mut rules = default_rules();
        if let Some(spec) = spec.filter(|s| !s.trim().is_empty()) {
            for part in spec.split(',') {
                let (name, thresholds) = part
                    .split_once('=')
                    .ok_or_else(|| format!("bad health rule {part:?}: want name=warn:critical"))?;
                let (warn, critical) = thresholds
                    .split_once(':')
                    .ok_or_else(|| format!("bad thresholds in {part:?}: want warn:critical"))?;
                let warn: f64 =
                    warn.trim().parse().map_err(|_| format!("bad warn threshold in {part:?}"))?;
                let critical: f64 = critical
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad critical threshold in {part:?}"))?;
                if !(warn.is_finite() && critical.is_finite() && warn <= critical) {
                    return Err(format!("thresholds in {part:?} must be finite with warn <= critical"));
                }
                let rule = rules
                    .iter_mut()
                    .find(|r| r.name == name.trim())
                    .ok_or_else(|| format!("unknown health rule {:?}", name.trim()))?;
                rule.warn = warn;
                rule.critical = critical;
            }
        }
        Ok(Self::new(rules))
    }

    /// The configured rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluates every rule against `ring` at `now_us`, advances the
    /// hysteresis state machines, and returns (and retains) the report.
    pub fn evaluate(&self, ring: &TimeSeriesRing, now_us: u64) -> HealthReport {
        let mut states = self.states.lock().expect("health poisoned");
        let mut rules_out = Vec::with_capacity(self.rules.len());
        let mut transitions = 0u64;
        for (rule, state) in self.rules.iter().zip(states.iter_mut()) {
            let value = rule.measure(ring, now_us);
            let raw = rule.raw_level(value);
            if raw == state.effective {
                // Back at (or still at) the effective level: any pending
                // streak towards another level is void.
                state.candidate = state.effective;
                state.streak = 0;
            } else {
                if raw == state.candidate {
                    state.streak += 1;
                } else {
                    state.candidate = raw;
                    state.streak = 1;
                }
                let needed = if raw > state.effective {
                    rule.raise_after
                } else {
                    rule.clear_after
                };
                if state.streak >= needed {
                    state.effective = state.candidate;
                    state.streak = 0;
                    transitions += 1;
                }
            }
            rules_out.push(RuleReport {
                name: rule.name.clone(),
                level: state.effective,
                raw,
                value,
                warn: rule.warn,
                critical: rule.critical,
            });
        }
        let level = rules_out.iter().map(|r| r.level).max().unwrap_or(Level::Ok);
        let report = HealthReport { level, rules: rules_out, transitions, at_us: now_us };
        *self.last.lock().expect("health poisoned") = report.clone();
        report
    }

    /// The most recent report (empty before the first evaluation).
    pub fn last_report(&self) -> HealthReport {
        self.last.lock().expect("health poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_core::obs::MetricsRegistry;
    use rsky_core::obs_ts::{Clock, ManualClock};

    fn rate_rule(raise: u32, clear: u32) -> Rule {
        Rule {
            name: "shed_rate".into(),
            metric: "server.shed".into(),
            kind: RuleKind::Rate,
            window_us: 10_000_000,
            warn: 0.5,
            critical: 5.0,
            raise_after: raise,
            clear_after: clear,
        }
    }

    /// One second of traffic: `sheds` shed requests, then a sample.
    fn tick(reg: &MetricsRegistry, clock: &ManualClock, ring: &TimeSeriesRing, sheds: u64) {
        if sheds > 0 {
            reg.counter_add("server.shed", sheds);
        }
        clock.advance(1_000_000);
        ring.sample(reg);
    }

    #[test]
    fn hysteresis_ignores_one_noisy_window() {
        let clock = ManualClock::shared(0);
        let ring = TimeSeriesRing::new(64, 64, clock.clone());
        let reg = MetricsRegistry::new();
        let eval = HealthEvaluator::new(vec![rate_rule(2, 2)]);
        tick(&reg, &clock, &ring, 0);
        assert_eq!(eval.evaluate(&ring, clock.now_us()).level, Level::Ok);
        // One window of heavy shedding: raw flips, effective does not.
        tick(&reg, &clock, &ring, 100);
        let r = eval.evaluate(&ring, clock.now_us());
        assert_eq!(r.level, Level::Ok, "one noisy window must not flap");
        assert_eq!(r.rules[0].raw, Level::Critical);
        assert!(r.firing().is_empty());
        // The shedding stops and the window slides clean again — the streak
        // voids without ever having raised.
        for _ in 0..12 {
            tick(&reg, &clock, &ring, 0);
        }
        let r = eval.evaluate(&ring, clock.now_us());
        assert_eq!((r.level, r.transitions), (Level::Ok, 0));
    }

    #[test]
    fn sustained_breach_raises_then_recovery_clears() {
        let clock = ManualClock::shared(0);
        let ring = TimeSeriesRing::new(64, 64, clock.clone());
        let reg = MetricsRegistry::new();
        let eval = HealthEvaluator::new(vec![rate_rule(2, 2)]);
        tick(&reg, &clock, &ring, 0);
        eval.evaluate(&ring, clock.now_us());
        // Two consecutive breaching windows: the second evaluation raises.
        tick(&reg, &clock, &ring, 100);
        assert_eq!(eval.evaluate(&ring, clock.now_us()).level, Level::Ok);
        tick(&reg, &clock, &ring, 100);
        let r = eval.evaluate(&ring, clock.now_us());
        assert_eq!(r.level, Level::Critical);
        assert_eq!(r.firing(), vec!["shed_rate"], "the firing rule is named");
        assert_eq!(r.transitions, 1);
        // Recovery: the 10s window still sees old sheds for a while; wait
        // until it slides clean, then two clean evaluations clear.
        for _ in 0..12 {
            tick(&reg, &clock, &ring, 0);
        }
        assert_eq!(eval.evaluate(&ring, clock.now_us()).level, Level::Critical, "first clean eval holds");
        tick(&reg, &clock, &ring, 0);
        let r = eval.evaluate(&ring, clock.now_us());
        assert_eq!(r.level, Level::Ok, "second clean eval clears");
        assert_eq!(r.transitions, 1);
        assert_eq!(eval.last_report().level, Level::Ok);
    }

    #[test]
    fn burn_rule_requires_both_windows() {
        let clock = ManualClock::shared(0);
        let ring = TimeSeriesRing::new(128, 64, clock.clone());
        let reg = MetricsRegistry::new();
        let rule = Rule {
            name: "error_budget_burn".into(),
            metric: String::new(),
            kind: RuleKind::Burn {
                bad: vec!["server.shed".into()],
                good: vec!["server.served".into()],
                long_window_us: 60_000_000,
            },
            window_us: 10_000_000,
            warn: 0.05,
            critical: 0.25,
            raise_after: 1,
            clear_after: 1,
        };
        let eval = HealthEvaluator::new(vec![rule]);
        // A long stretch of healthy traffic…
        for _ in 0..60 {
            reg.counter_add("server.served", 100);
            tick(&reg, &clock, &ring, 0);
        }
        // …then one bad second: the short window burns hard, the long
        // window dilutes it below warn — no breach.
        reg.counter_add("server.served", 10);
        tick(&reg, &clock, &ring, 90);
        let r = eval.evaluate(&ring, clock.now_us());
        assert_eq!(r.level, Level::Ok, "short-only burn is a blip, not an alert: {:?}", r.rules[0]);
        // Sustained burn: both windows agree and the rule fires.
        for _ in 0..59 {
            reg.counter_add("server.served", 10);
            tick(&reg, &clock, &ring, 90);
        }
        let r = eval.evaluate(&ring, clock.now_us());
        assert_eq!(r.level, Level::Critical, "{:?}", r.rules[0]);
    }

    #[test]
    fn override_spec_parses_and_rejects() {
        let eval =
            HealthEvaluator::with_overrides(Some("shed_rate=1:10,request_p99_us=1000:2000"))
                .unwrap();
        let shed = eval.rules().iter().find(|r| r.name == "shed_rate").unwrap();
        assert_eq!((shed.warn, shed.critical), (1.0, 10.0));
        let p99 = eval.rules().iter().find(|r| r.name == "request_p99_us").unwrap();
        assert_eq!((p99.warn, p99.critical), (1000.0, 2000.0));
        assert_eq!(eval.rules().len(), default_rules().len(), "overrides replace, not append");
        for bad in ["nope=1:2", "shed_rate=1", "shed_rate=x:2", "shed_rate=5:1"] {
            assert!(HealthEvaluator::with_overrides(Some(bad)).is_err(), "{bad}");
        }
        assert!(HealthEvaluator::with_overrides(None).is_ok());
        assert!(HealthEvaluator::with_overrides(Some("  ")).is_ok());
    }

    #[test]
    fn report_json_is_valid_and_names_firing_rules() {
        let clock = ManualClock::shared(0);
        let ring = TimeSeriesRing::new(64, 64, clock.clone());
        let reg = MetricsRegistry::new();
        let eval = HealthEvaluator::new(vec![rate_rule(1, 1)]);
        tick(&reg, &clock, &ring, 0);
        tick(&reg, &clock, &ring, 100);
        let report = eval.evaluate(&ring, clock.now_us());
        let json = report.to_json();
        let v = crate::json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(v.get("level").and_then(|l| l.as_str()), Some("critical"));
        let firing = v.get("firing").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(firing[0].as_str(), Some("shed_rate"));
        let rules = v.get("rules").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(rules[0].get("name").and_then(|n| n.as_str()), Some("shed_rate"));
        assert!(rules[0].get("value").is_some());
    }
}
