//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with an `"op"` member;
//! every response is one JSON object on one line with an `"ok"` member.
//! Failures carry a stable machine-readable `"error"` kind (`overloaded`,
//! `timeout`, `bad_request`, `shutting_down`, `internal`) plus a
//! human-readable `"detail"`.

use std::fmt::Write as _;

use rsky_core::record::{RecordId, ValueId};

use crate::json::{self, JsonValue};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Reverse-skyline query: `{"op":"query","engine":"trs","values":[..]}`
    /// with optional `"subset"` (attribute indices) and `"deadline_ms"`.
    Query {
        /// Engine name (`naive | brs | srs | trs | trs-bf | tsrs | ttrs`).
        engine: String,
        /// Query value ids, one per schema attribute.
        values: Vec<ValueId>,
        /// Attribute subset to search on (`None` = all attributes).
        subset: Option<Vec<usize>>,
        /// Per-request deadline; `None` uses the server default.
        deadline_ms: Option<u64>,
        /// When set, return only the `k` most influential members, ranked
        /// by influence strength (ties by ascending id).
        top_k: Option<usize>,
    },
    /// Registers a continuous query on this connection:
    /// `{"op":"subscribe","engine":"trs","values":[..]}` with optional
    /// `"subset"`. Answered with the RS(Q) snapshot; afterwards every
    /// dataset mutation pushes one delta frame on this connection.
    Subscribe {
        /// Engine backing the view's fallback recomputes.
        engine: String,
        /// Query value ids, one per schema attribute.
        values: Vec<ValueId>,
        /// Attribute subset (`None` = all attributes).
        subset: Option<Vec<usize>>,
    },
    /// Influence ranking over a seeded random workload:
    /// `{"op":"influence","queries":20,"seed":7,"top":10}`.
    Influence {
        /// Number of random query objects to draw.
        queries: usize,
        /// Workload RNG seed.
        seed: u64,
        /// How many top entries to return.
        top: usize,
        /// Per-request deadline; `None` uses the server default.
        deadline_ms: Option<u64>,
    },
    /// Adds a record: `{"op":"insert","id":42,"values":[..]}`. Bumps the
    /// dataset generation, invalidating cached results.
    Insert {
        /// New record id (must be unused).
        id: RecordId,
        /// Attribute values, one per schema attribute.
        values: Vec<ValueId>,
    },
    /// Removes a record by id: `{"op":"expire","id":42}`.
    Expire {
        /// Record id to remove.
        id: RecordId,
    },
    /// Liveness + load probe: `{"op":"health"}`, or
    /// `{"op":"health","detail":true}` for the full SLO report (per-rule
    /// levels, measured values, firing reasons).
    Health {
        /// Include the detailed SLO health report.
        detail: bool,
    },
    /// Telemetry time-series: `{"op":"timeseries"}` summarizes the ring and
    /// lists every series; `{"op":"timeseries","metric":"server.served"}`
    /// returns that series' in-window points plus its derived view
    /// (windowed rate for counters, windowed quantiles for histograms).
    Timeseries {
        /// The series to read (`None` = summary + series table).
        metric: Option<String>,
        /// Trailing window in ms (default 60 000).
        window_ms: u64,
        /// Cap on returned points, newest win (0 = all retained).
        limit: usize,
    },
    /// Metrics-registry snapshot: `{"op":"metrics"}`, or
    /// `{"op":"metrics","format":"prometheus"}` for text exposition
    /// (optionally with `"buckets":true` for cumulative
    /// `_bucket{le="…"}` histogram series instead of quantile summaries).
    Metrics {
        /// Render the registry in the Prometheus text format instead of
        /// JSON (`"format":"prometheus"`).
        prometheus: bool,
        /// Prometheus only: export histograms as cumulative buckets.
        buckets: bool,
    },
    /// Dump of the slow-request ring buffer: `{"op":"slowlog"}`, or
    /// `{"op":"slowlog","clear":true}` to dump **and** empty it.
    Slowlog {
        /// Empty the ring after dumping it.
        clear: bool,
    },
    /// Graceful shutdown: stop accepting, drain in-flight, exit.
    Shutdown,
    /// Test-only: occupies a worker for `ms` (rejected unless the server
    /// was started with `enable_test_ops`). Lets tests fill the queue
    /// deterministically.
    Sleep {
        /// How long to hold the worker.
        ms: u64,
    },
    /// Test-only: panics on the worker that runs it, inside the scopes an
    /// engine run gets (rejected unless `enable_test_ops`). Proves a
    /// panicking request is answered `internal` and its worker keeps
    /// serving.
    Panic,
    /// Test-only: forces one synchronous telemetry tick (sample + health
    /// evaluation) instead of waiting for the sampler thread. Combined with
    /// an injected manual clock this makes every window boundary
    /// deterministic. Rejected unless `enable_test_ops`.
    Tick,
}

impl Request {
    /// Parses one request line. The error string is a human-readable
    /// `bad_request` detail.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("invalid json: {e}"))?;
        let op = v.get("op").and_then(JsonValue::as_str).ok_or("missing string member \"op\"")?;
        match op {
            "query" => {
                let (engine, values, subset) = query_key(&v, "query")?;
                let top_k = match req_u64(&v, "top_k")? {
                    Some(0) => return Err("\"top_k\" must be at least 1".into()),
                    other => other.map(|k| k as usize),
                };
                Ok(Request::Query { engine, values, subset, deadline_ms: deadline(&v)?, top_k })
            }
            "subscribe" => {
                let (engine, values, subset) = query_key(&v, "subscribe")?;
                Ok(Request::Subscribe { engine, values, subset })
            }
            "influence" => Ok(Request::Influence {
                queries: req_u64(&v, "queries")?.unwrap_or(20) as usize,
                seed: req_u64(&v, "seed")?.unwrap_or(7),
                top: req_u64(&v, "top")?.unwrap_or(10) as usize,
                deadline_ms: deadline(&v)?,
            }),
            "insert" => Ok(Request::Insert {
                id: req_u64(&v, "id")?.ok_or("insert needs \"id\"")? as RecordId,
                values: v
                    .get("values")
                    .and_then(JsonValue::as_u32_list)
                    .ok_or("insert needs \"values\": an array of non-negative integers")?,
            }),
            "expire" => Ok(Request::Expire {
                id: req_u64(&v, "id")?.ok_or("expire needs \"id\"")? as RecordId,
            }),
            "health" => Ok(Request::Health { detail: req_bool(&v, "detail")? }),
            "timeseries" => Ok(Request::Timeseries {
                metric: v.get("metric").and_then(JsonValue::as_str).map(str::to_string),
                window_ms: req_u64(&v, "window_ms")?.unwrap_or(60_000),
                limit: req_u64(&v, "limit")?.unwrap_or(0) as usize,
            }),
            "metrics" => {
                let buckets = req_bool(&v, "buckets")?;
                match v.get("format").and_then(JsonValue::as_str) {
                    None | Some("json") => Ok(Request::Metrics { prometheus: false, buckets }),
                    Some("prometheus") => Ok(Request::Metrics { prometheus: true, buckets }),
                    Some(other) => {
                        Err(format!("unknown metrics format {other:?} (json | prometheus)"))
                    }
                }
            }
            "slowlog" => Ok(Request::Slowlog { clear: req_bool(&v, "clear")? }),
            "shutdown" => Ok(Request::Shutdown),
            "sleep" => Ok(Request::Sleep { ms: req_u64(&v, "ms")?.unwrap_or(0) }),
            "tick" => Ok(Request::Tick),
            "panic" => Ok(Request::Panic),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Whether this request runs on the worker pool (true) or is answered
    /// inline by the connection thread (false).
    pub fn is_pooled(&self) -> bool {
        matches!(
            self,
            Request::Query { .. } | Request::Influence { .. } | Request::Sleep { .. } | Request::Panic
        )
    }

    /// The op name, for spans and error messages.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::Subscribe { .. } => "subscribe",
            Request::Influence { .. } => "influence",
            Request::Insert { .. } => "insert",
            Request::Expire { .. } => "expire",
            Request::Health { .. } => "health",
            Request::Timeseries { .. } => "timeseries",
            Request::Metrics { .. } => "metrics",
            Request::Slowlog { .. } => "slowlog",
            Request::Shutdown => "shutdown",
            Request::Sleep { .. } => "sleep",
            Request::Tick => "tick",
            Request::Panic => "panic",
        }
    }
}

/// The shared key shape of `query` and `subscribe`: engine (default trs),
/// values, optional subset.
#[allow(clippy::type_complexity)]
fn query_key(
    v: &JsonValue,
    op: &str,
) -> Result<(String, Vec<ValueId>, Option<Vec<usize>>), String> {
    let engine = v.get("engine").and_then(JsonValue::as_str).unwrap_or("trs").to_string();
    let values = v
        .get("values")
        .and_then(JsonValue::as_u32_list)
        .ok_or_else(|| format!("{op} needs \"values\": an array of non-negative integers"))?;
    let subset = match v.get("subset") {
        None | Some(JsonValue::Null) => None,
        Some(s) => Some(
            s.as_u32_list()
                .ok_or("\"subset\" must be an array of attribute indices")?
                .into_iter()
                .map(|i| i as usize)
                .collect(),
        ),
    };
    Ok((engine, values, subset))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(m) => m
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(m) => m.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

fn deadline(v: &JsonValue) -> Result<Option<u64>, String> {
    req_u64(v, "deadline_ms")
}

/// Stable error kinds carried in the `"error"` member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// The bounded request queue was full — load was shed.
    Overloaded,
    /// The request's deadline fired before (or while) it ran.
    Timeout,
    /// Malformed or invalid request.
    BadRequest,
    /// The server is draining and no longer takes work.
    ShuttingDown,
    /// An engine/storage error surfaced mid-request.
    Internal,
}

impl ErrKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrKind::Overloaded => "overloaded",
            ErrKind::Timeout => "timeout",
            ErrKind::BadRequest => "bad_request",
            ErrKind::ShuttingDown => "shutting_down",
            ErrKind::Internal => "internal",
        }
    }
}

/// Renders an error response line.
pub fn err_line(kind: ErrKind, detail: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":\"");
    out.push_str(kind.as_str());
    out.push_str("\",\"detail\":\"");
    json::escape(detail, &mut out);
    out.push_str("\"}");
    out
}

/// Renders a successful query response.
pub fn ok_query(
    engine: &str,
    generation: u64,
    ids: &[RecordId],
    cached: bool,
    elapsed_us: u128,
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"query\",\"engine\":\"");
    json::escape(engine, &mut out);
    let _ = write!(
        out,
        "\",\"generation\":{generation},\"cached\":{cached},\"elapsed_us\":{elapsed_us},\"result_size\":{},\"ids\":[",
        ids.len()
    );
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("]}");
    out
}

/// Renders a successful top-k query response: `ranked` is `(id, strength)`
/// pairs, most influential member first.
pub fn ok_query_ranked(
    engine: &str,
    generation: u64,
    ranked: &[(RecordId, usize)],
    cached: bool,
    elapsed_us: u128,
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"query\",\"engine\":\"");
    json::escape(engine, &mut out);
    let _ = write!(
        out,
        "\",\"generation\":{generation},\"cached\":{cached},\"elapsed_us\":{elapsed_us},\"result_size\":{},\"ranked\":[",
        ranked.len()
    );
    for (i, (id, strength)) in ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{id},\"strength\":{strength}}}");
    }
    out.push_str("]}");
    out
}

/// Renders the subscription acknowledgement: the initial RS(Q) snapshot
/// plus the subscription id, generation and epoch the delta feed starts
/// from.
pub fn ok_subscribe(
    sub: u64,
    engine: &str,
    generation: u64,
    epoch: u64,
    ids: &[RecordId],
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"subscribe\",\"sub\":");
    let _ = write!(out, "{sub},\"engine\":\"");
    json::escape(engine, &mut out);
    let _ = write!(
        out,
        "\",\"generation\":{generation},\"epoch\":{epoch},\"result_size\":{},\"ids\":[",
        ids.len()
    );
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("]}");
    out
}

/// Renders one pushed delta frame. Epochs increase by exactly 1 per frame
/// on a subscription; a client seeing a gap must resync. A `resync` frame
/// carries the full snapshot in `"ids"` (apply it instead of the diff).
pub fn delta_frame(
    sub: u64,
    generation: u64,
    epoch: u64,
    added: &[RecordId],
    removed: &[RecordId],
    resync: Option<&[RecordId]>,
) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"delta\",\"sub\":");
    let _ = write!(out, "{sub},\"generation\":{generation},\"epoch\":{epoch}");
    let list = |out: &mut String, key: &str, ids: &[RecordId]| {
        let _ = write!(out, ",\"{key}\":[");
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{id}");
        }
        out.push(']');
    };
    match resync {
        Some(ids) => {
            out.push_str(",\"resync\":true");
            list(&mut out, "ids", ids);
        }
        None => {
            out.push_str(",\"resync\":false");
            list(&mut out, "add", added);
            list(&mut out, "remove", removed);
        }
    }
    out.push('}');
    out
}

/// Renders a successful influence response: `ranking` is
/// `(query_index, cardinality)` pairs, most influential first.
pub fn ok_influence(generation: u64, ranking: &[(usize, usize)], elapsed_us: u128) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"influence\"");
    let _ = write!(out, ",\"generation\":{generation},\"elapsed_us\":{elapsed_us},\"ranking\":[");
    for (i, (qi, card)) in ranking.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"query\":{qi},\"cardinality\":{card}}}");
    }
    out.push_str("]}");
    out
}

/// Renders a health response. `level` is the current SLO verdict
/// (`ok | warn | critical`); `detail` is the full report object rendered by
/// the health evaluator (`None` omits the member).
pub fn ok_health(
    accepting: bool,
    generation: u64,
    records: usize,
    queue_depth: usize,
    workers: usize,
    level: &str,
    detail: Option<&str>,
) -> String {
    let mut out = format!(
        "{{\"ok\":true,\"op\":\"health\",\"accepting\":{accepting},\"generation\":{generation},\
         \"records\":{records},\"queue_depth\":{queue_depth},\"workers\":{workers},\
         \"health\":\"{level}\""
    );
    if let Some(report) = detail {
        let _ = write!(out, ",\"detail\":{report}");
    }
    out.push('}');
    out
}

/// Renders a timeseries response; `body` is the pre-rendered member list
/// from the telemetry subsystem (starts with a comma).
pub fn ok_timeseries(body: &str) -> String {
    format!("{{\"ok\":true,\"op\":\"timeseries\"{body}}}")
}

/// Renders the tick acknowledgement (test-only op): the tick count and the
/// health level the forced evaluation produced.
pub fn ok_tick(ticks: u64, level: &str) -> String {
    format!("{{\"ok\":true,\"op\":\"tick\",\"ticks\":{ticks},\"health\":\"{level}\"}}")
}

/// Renders a metrics response; `metrics_json` is the registry snapshot
/// (already valid JSON).
pub fn ok_metrics(metrics_json: &str) -> String {
    format!("{{\"ok\":true,\"op\":\"metrics\",\"metrics\":{metrics_json}}}")
}

/// Renders a Prometheus-format metrics response: the multi-line exposition
/// text travels JSON-escaped in the single-line `"body"` member.
pub fn ok_metrics_prometheus(exposition: &str) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"metrics\",\"format\":\"prometheus\",\"body\":\"");
    json::escape(exposition, &mut out);
    out.push_str("\"}");
    out
}

/// Renders a slowlog response; `entries_json` is the ring-buffer dump
/// (already a valid JSON array). `cleared` reports how many entries a
/// `"clear":true` request dropped (`None` omits the member).
pub fn ok_slowlog(entries_json: &str, cleared: Option<usize>) -> String {
    match cleared {
        Some(n) => {
            format!("{{\"ok\":true,\"op\":\"slowlog\",\"cleared\":{n},\"entries\":{entries_json}}}")
        }
        None => format!("{{\"ok\":true,\"op\":\"slowlog\",\"entries\":{entries_json}}}"),
    }
}

/// Renders the acknowledgement for a dataset mutation (`insert`/`expire`).
pub fn ok_mutation(op: &str, id: RecordId, generation: u64, records: usize) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"{op}\",\"id\":{id},\"generation\":{generation},\"records\":{records}}}"
    )
}

/// Renders the shutdown acknowledgement.
pub fn ok_shutdown() -> String {
    "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}".to_string()
}

/// Renders the sleep acknowledgement.
pub fn ok_sleep(ms: u64) -> String {
    format!("{{\"ok\":true,\"op\":\"sleep\",\"ms\":{ms}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_with_defaults_and_options() {
        let q = Request::parse(r#"{"op":"query","values":[1,2,3]}"#).unwrap();
        assert_eq!(
            q,
            Request::Query {
                engine: "trs".into(),
                values: vec![1, 2, 3],
                subset: None,
                deadline_ms: None,
                top_k: None
            }
        );
        let q = Request::parse(
            r#"{"op":"query","engine":"brs","values":[4],"subset":[0,2],"deadline_ms":50,"top_k":3}"#,
        )
        .unwrap();
        assert_eq!(
            q,
            Request::Query {
                engine: "brs".into(),
                values: vec![4],
                subset: Some(vec![0, 2]),
                deadline_ms: Some(50),
                top_k: Some(3)
            }
        );
        assert!(q.is_pooled());
        assert_eq!(q.op(), "query");
    }

    #[test]
    fn parses_subscribe() {
        let s = Request::parse(r#"{"op":"subscribe","values":[1,2]}"#).unwrap();
        assert_eq!(
            s,
            Request::Subscribe { engine: "trs".into(), values: vec![1, 2], subset: None }
        );
        assert!(!s.is_pooled(), "subscribe registers on the connection thread");
        assert_eq!(s.op(), "subscribe");
        let s = Request::parse(r#"{"op":"subscribe","engine":"brs","values":[4],"subset":[1]}"#)
            .unwrap();
        assert_eq!(
            s,
            Request::Subscribe { engine: "brs".into(), values: vec![4], subset: Some(vec![1]) }
        );
        assert!(Request::parse(r#"{"op":"subscribe"}"#).is_err(), "values required");
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(
            Request::parse(r#"{"op":"health"}"#).unwrap(),
            Request::Health { detail: false }
        );
        assert_eq!(
            Request::parse(r#"{"op":"health","detail":true}"#).unwrap(),
            Request::Health { detail: true }
        );
        assert!(Request::parse(r#"{"op":"health","detail":1}"#).is_err());
        assert_eq!(
            Request::parse(r#"{"op":"timeseries"}"#).unwrap(),
            Request::Timeseries { metric: None, window_ms: 60_000, limit: 0 }
        );
        assert_eq!(
            Request::parse(
                r#"{"op":"timeseries","metric":"server.served","window_ms":5000,"limit":10}"#
            )
            .unwrap(),
            Request::Timeseries {
                metric: Some("server.served".into()),
                window_ms: 5000,
                limit: 10
            }
        );
        assert!(!Request::Timeseries { metric: None, window_ms: 1, limit: 0 }.is_pooled());
        assert_eq!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics { prometheus: false, buckets: false }
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics { prometheus: false, buckets: false }
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"prometheus"}"#).unwrap(),
            Request::Metrics { prometheus: true, buckets: false }
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"prometheus","buckets":true}"#).unwrap(),
            Request::Metrics { prometheus: true, buckets: true }
        );
        assert!(Request::parse(r#"{"op":"metrics","format":"xml"}"#).is_err());
        assert_eq!(
            Request::parse(r#"{"op":"slowlog"}"#).unwrap(),
            Request::Slowlog { clear: false }
        );
        assert_eq!(
            Request::parse(r#"{"op":"slowlog","clear":true}"#).unwrap(),
            Request::Slowlog { clear: true }
        );
        assert!(!Request::Slowlog { clear: false }.is_pooled());
        assert_eq!(Request::parse(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(Request::parse(r#"{"op":"tick"}"#).unwrap(), Request::Tick);
        assert!(!Request::Tick.is_pooled());
        assert!(!Request::Health { detail: false }.is_pooled());
        assert_eq!(
            Request::parse(r#"{"op":"insert","id":9,"values":[0,1]}"#).unwrap(),
            Request::Insert { id: 9, values: vec![0, 1] }
        );
        assert_eq!(
            Request::parse(r#"{"op":"expire","id":9}"#).unwrap(),
            Request::Expire { id: 9 }
        );
        assert_eq!(
            Request::parse(r#"{"op":"influence","queries":3,"seed":1}"#).unwrap(),
            Request::Influence { queries: 3, seed: 1, top: 10, deadline_ms: None }
        );
        assert_eq!(Request::parse(r#"{"op":"sleep","ms":5}"#).unwrap(), Request::Sleep { ms: 5 });
        assert_eq!(Request::parse(r#"{"op":"panic"}"#).unwrap(), Request::Panic);
        assert!(Request::Panic.is_pooled());
    }

    #[test]
    fn rejects_bad_requests_with_details() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","values":[1.5]}"#,
            r#"{"op":"insert","values":[1]}"#,
            r#"{"op":"query","values":[1],"deadline_ms":-2}"#,
            r#"{"op":"query","values":[1],"top_k":0}"#,
            r#"{"op":"subscribe","values":[1.5]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn responses_are_single_line_json() {
        let lines = [
            ok_query("trs", 1, &[3, 6], false, 120),
            ok_query_ranked("trs", 1, &[(6, 4), (3, 2)], false, 120),
            ok_subscribe(1, "trs", 1, 0, &[3, 6]),
            delta_frame(1, 2, 1, &[9], &[3], None),
            delta_frame(1, 5, 2, &[], &[], Some(&[3, 6, 9])),
            ok_influence(1, &[(2, 9), (0, 4)], 999),
            ok_health(true, 1, 14, 0, 4, "ok", None),
            ok_health(true, 1, 14, 0, 4, "critical", Some(r#"{"level":"critical","firing":["shed_rate"],"rules":[]}"#)),
            ok_timeseries(",\"now_us\":5,\"ticks\":2,\"samples\":2,\"capacity\":64,\"dropped_series\":0,\"series\":[]"),
            ok_tick(3, "warn"),
            ok_metrics("{}"),
            ok_metrics_prometheus("# TYPE a counter\na 1\n"),
            ok_slowlog("[]", None),
            ok_slowlog("[]", Some(4)),
            ok_mutation("insert", 42, 2, 15),
            ok_shutdown(),
            ok_sleep(5),
            err_line(ErrKind::Overloaded, "queue full"),
            err_line(ErrKind::Timeout, "deadline: 5ms"),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "{line}");
            let v = crate::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(v.get("ok").is_some(), "{line}");
        }
        assert_eq!(
            lines[0],
            r#"{"ok":true,"op":"query","engine":"trs","generation":1,"cached":false,"elapsed_us":120,"result_size":2,"ids":[3,6]}"#
        );
        assert_eq!(
            lines[1],
            r#"{"ok":true,"op":"query","engine":"trs","generation":1,"cached":false,"elapsed_us":120,"result_size":2,"ranked":[{"id":6,"strength":4},{"id":3,"strength":2}]}"#
        );
        assert_eq!(
            lines[2],
            r#"{"ok":true,"op":"subscribe","sub":1,"engine":"trs","generation":1,"epoch":0,"result_size":2,"ids":[3,6]}"#
        );
        assert_eq!(
            lines[3],
            r#"{"ok":true,"op":"delta","sub":1,"generation":2,"epoch":1,"resync":false,"add":[9],"remove":[3]}"#
        );
        assert_eq!(
            lines[4],
            r#"{"ok":true,"op":"delta","sub":1,"generation":5,"epoch":2,"resync":true,"ids":[3,6,9]}"#
        );
        assert_eq!(
            lines[17],
            r#"{"ok":false,"error":"overloaded","detail":"queue full"}"#
        );
        assert!(lines[6].ends_with(r#""health":"ok"}"#), "{}", lines[6]);
        assert!(lines[7].contains(r#""detail":{"level":"critical""#), "{}", lines[7]);
        assert!(lines[13].contains(r#""cleared":4"#), "{}", lines[13]);
    }
}
