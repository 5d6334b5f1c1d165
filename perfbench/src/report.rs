//! The declared metrics, the outcome of one workload, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use rsky_server::json::{self, JsonValue};

/// Engine modules the per-layer table has a row set for, with the op name
/// each one runs as.
pub const ENGINES: &[(&str, &str)] = &[
    ("brs", "brs"),
    ("srs", "srs"),
    ("trs", "trs"),
    ("bf", "trs-bf"),
];

/// The metrics `BENCHMARK.json` declares, each a name and its unit: the
/// end-to-end ones, printed with tracing off, and the per-layer ones,
/// printed by the traced run. Every workload reports every end-to-end
/// metric. A per-layer `op.X` is the caller-observed latency `X` of an op
/// type only some workloads run.
#[derive(Debug)]
pub struct Declared {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let metrics = doc
                .get(key)
                .and_then(JsonValue::as_arr)
                .ok_or(format!("no {key} list"))?;
            metrics
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a metric in {key} has no {k}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// One measured value and how many samples it rests on.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// Workload sizes, one `key=value` list.
    pub sizes: String,
    pub attempted: u64,
    /// Failed, refused or wrong answers.
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
    pub values: BTreeMap<String, Value>,
    /// Paper cost units per op type and other lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            ..Self::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values
            .insert(name.to_string(), Value { value, samples });
    }

    /// Counts a failed, refused or wrong answer.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }

    /// Records a failed check that is not an op's answer.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The value a declared name reads: `op.X` is the op-specific latency
    /// `X`; a layer this workload never reached reads 0, an end-to-end
    /// metric it did not measure NaN (printed as a failed op's value).
    fn declared_value(&self, name: &str, traced: bool) -> Value {
        let key = name.strip_prefix("op.").unwrap_or(name);
        self.values.get(key).cloned().unwrap_or(Value {
            value: if traced { 0.0 } else { f64::NAN },
            samples: 0,
        })
    }

    /// `(name, value, unit)` of every metric the JSON line carries.
    pub fn json_metrics<'d>(
        &self,
        traced: bool,
        declared: &'d Declared,
    ) -> Vec<(String, f64, &'d str)> {
        let list = if traced {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        list.iter()
            .map(|(n, u)| (n.clone(), self.declared_value(n, traced).value, u.as_str()))
            .collect()
    }

    /// The human-readable report that precedes the JSON line.
    pub fn human(&self, traced: bool, declared: &Declared) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## workload {} ({})", self.workload, self.sizes);
        let row = |out: &mut String, name: &str, v: &Value, unit: &str| {
            let _ = writeln!(
                out,
                "  {name:<26} {:>14.4} {unit:<6} n={}",
                v.value, v.samples
            );
        };
        let _ = writeln!(
            out,
            "  end-to-end{}:",
            if traced {
                " (traced, for the overhead only)"
            } else {
                ""
            }
        );
        for (name, unit) in &declared.end_to_end {
            if let Some(v) = self.values.get(name) {
                row(&mut out, name, v, unit);
            }
        }
        // The op-specific latencies this workload has.
        for (name, unit) in &declared.per_layer {
            let Some(key) = name.strip_prefix("op.") else {
                continue;
            };
            if let Some(v) = self.values.get(key) {
                row(&mut out, key, v, unit);
            }
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<26} {share:>14.4} {:<6} n={}",
            "failed_share", "ratio", self.attempted
        );
        if traced {
            let _ = writeln!(out, "  per-layer:");
            for (name, unit) in &declared.per_layer {
                row(&mut out, name, &self.declared_value(name, true), unit);
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  FAILED: {p}");
        }
        out
    }
}

/// A number as JSON. A latency that includes a failed op is infinite and
/// prints as 1e300.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// The last line of a run: correctness, op counts and the metrics.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*v)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARED: &str = r#"{"end_to_end": [{"name": "trs_ms", "unit": "ms", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "csv.load_ms", "unit": "ms", "better": "lower"},
                      {"name": "op.brs_ms", "unit": "ms", "better": "lower"}]}"#;

    #[test]
    fn declared_metrics_parse_and_refuse_a_nameless_one() {
        let d = Declared::parse(DECLARED).unwrap();
        assert_eq!(d.end_to_end, [("trs_ms".to_string(), "ms".to_string())]);
        assert_eq!(d.per_layer.len(), 2);
        assert!(Declared::parse(r#"{"end_to_end": [{"unit": "ms"}], "per_layer": []}"#).is_err());
        assert!(Declared::parse(r#"{"end_to_end": []}"#).is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(
            true,
            3,
            0,
            &[
                ("trs_ms".into(), 1.25, "ms"),
                ("x".into(), f64::INFINITY, "ms"),
            ],
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("trs_ms")
                .and_then(|t| t.get("value"))
                .and_then(JsonValue::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.get("x")
                .and_then(|t| t.get("value"))
                .and_then(JsonValue::as_f64),
            Some(1e300)
        );
    }

    #[test]
    fn unreached_layers_read_zero_and_op_names_resolve() {
        let d = Declared::parse(DECLARED).unwrap();
        let mut o = Outcome::new("warm-mem");
        o.set("brs_ms", 240.5, 12);
        assert_eq!(
            o.json_metrics(true, &d),
            [
                ("csv.load_ms".to_string(), 0.0, "ms"),
                ("op.brs_ms".to_string(), 240.5, "ms")
            ]
        );
        // An end-to-end metric the workload did not measure is not a number.
        assert!(o.json_metrics(false, &d)[0].1.is_nan());
        assert!(o.human(true, &d).contains("brs_ms"));
    }
}
