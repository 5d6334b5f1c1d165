//! `rsky profile` — fold span streams into a self-time profile.
//!
//! Where `rsky trace` renders each span tree individually, this command
//! aggregates *all* spans by span-name call path and charges every path its
//! self time (wall minus direct children), so the heaviest code paths float
//! to the top regardless of how many traces they were spread across. Input
//! is either a `--trace-out` JSONL file or a running server's slowlog
//! (`--addr`), whose retained span trees profile the slowest requests.

use std::net::ToSocketAddrs;

use rsky_core::error::{Error, Result};
use rsky_core::obs::SpanEvent;
use rsky_core::profile::Profile;
use rsky_server::{json, Client};

use crate::args::Flags;

pub const HELP: &str = "\
rsky profile (--in <FILE> | --addr <HOST:PORT>) [OPTIONS]

Aggregates closed spans into a self-time profile keyed by call path
(root > child > leaf). Each path is charged its self time — wall clock
minus the wall clocks of its direct children — so for sequential traces
the self times sum exactly to the root spans' wall time. The default view
is the top-N paths by self time; --tree prints the inclusive call tree.

    rsky query --data ./d --algo trs --query 3,17,25 --trace-out t.jsonl
    rsky profile --in t.jsonl
    rsky profile --addr 127.0.0.1:7464 --tree    # profile the slowlog

OPTIONS:
    --in FILE      JSONL trace file from `--trace-out`
    --addr H:P     profile a running server's slowlog instead of a file
    --top N        rows in the self-time table (0 = all)          [20]
    --tree         print the inclusive call tree instead of the table";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let top: usize = flags.num("top", 20)?;
    let spans = match (flags.get("in"), flags.get("addr")) {
        (Some(_), Some(_)) => {
            return Err(Error::InvalidConfig("--in and --addr are mutually exclusive".into()))
        }
        (Some(path), None) => spans_from_jsonl(&std::fs::read_to_string(path)?)?,
        (None, Some(addr)) => spans_from_slowlog(addr)?,
        (None, None) => {
            return Err(Error::InvalidConfig("missing required flag --in or --addr".into()))
        }
    };
    print!("{}", render(&spans, top, flags.switch("tree")));
    Ok(())
}

/// Renders the profile of `spans`. Split out so the CLI round-trip test can
/// exercise it without a process or a socket.
pub fn render(spans: &[SpanEvent], top: usize, tree: bool) -> String {
    let profile = Profile::from_spans(spans);
    if tree {
        profile.render_tree()
    } else {
        profile.render_top(top)
    }
}

/// Parses the span lines out of a `--trace-out` JSONL stream; counter and
/// gauge lines are skipped, malformed lines are errors with line numbers.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<SpanEvent>> {
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| {
            Error::InvalidConfig(format!("trace file line {}: {e}", lineno + 1))
        })?;
        if v.get("type").and_then(|t| t.as_str()) != Some("span") {
            continue;
        }
        spans.push(span_of(&v).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "trace file line {}: span line missing trace_id/span_id/wall_us",
                lineno + 1
            ))
        })?);
    }
    Ok(spans)
}

/// Pulls the slowlog from a running server and flattens every retained
/// entry's span tree into one span stream (trace ids keep them separate).
fn spans_from_slowlog(addr: &str) -> Result<Vec<SpanEvent>> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| Error::InvalidConfig(format!("--addr {addr:?}: {e}")))?
        .next()
        .ok_or_else(|| Error::InvalidConfig(format!("--addr {addr:?} resolves to nothing")))?;
    let mut client = Client::connect(sockaddr)?;
    let reply = client.send("{\"op\":\"slowlog\"}")?;
    let v = json::parse(&reply)
        .map_err(|e| Error::InvalidConfig(format!("bad slowlog reply: {e}")))?;
    if v.get("ok").and_then(|o| o.as_bool()) != Some(true) {
        return Err(Error::InvalidConfig(format!("slowlog rejected: {reply}")));
    }
    let entries = v
        .get("entries")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| Error::InvalidConfig("slowlog reply has no entries".into()))?;
    let mut spans = Vec::new();
    for entry in entries {
        let Some(arr) = entry.get("spans").and_then(|s| s.as_arr()) else { continue };
        for s in arr {
            if let Some(span) = span_of(s) {
                spans.push(span);
            }
        }
    }
    Ok(spans)
}

fn span_of(v: &json::JsonValue) -> Option<SpanEvent> {
    let name = v.get("name")?.as_str()?.to_string();
    let trace_id = v.get("trace_id").and_then(|t| t.as_u64()).unwrap_or(0);
    let span_id = v.get("span_id")?.as_u64()?;
    let wall_us = v.get("wall_us")?.as_u64()?;
    let parent_id = match v.get("parent_id") {
        Some(json::JsonValue::Null) | None => None,
        Some(p) => Some(p.as_u64()?),
    };
    // Profiles only use the tree shape and wall times; fields (IO counts,
    // batch sizes) stay with `rsky trace`.
    Some(SpanEvent { name, trace_id, span_id, parent_id, wall_us, fields: Vec::new() })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "\
{\"type\":\"counter\",\"name\":\"x\",\"delta\":1}\n\
{\"type\":\"span\",\"name\":\"run\",\"trace_id\":9,\"span_id\":2,\"parent_id\":1,\"wall_us\":80,\"fields\":{\"dist_checks\":7}}\n\
{\"type\":\"span\",\"name\":\"request\",\"trace_id\":9,\"span_id\":1,\"parent_id\":null,\"wall_us\":100,\"fields\":{}}\n";

    #[test]
    fn jsonl_profile_charges_self_time() {
        let spans = spans_from_jsonl(FILE).unwrap();
        assert_eq!(spans.len(), 2, "non-span line skipped");
        let out = render(&spans, 10, false);
        assert!(out.contains("1 trace(s), 2 span(s)"), "{out}");
        assert!(out.contains("request > run"), "{out}");
        // 80us of self time for the child, 20 for the root — child first.
        let rows: Vec<&str> = out.lines().skip(2).collect();
        assert!(rows[0].trim_start().starts_with("80"), "{out}");
        assert!(rows[1].trim_start().starts_with("20"), "{out}");
        let tree = render(&spans, 0, true);
        assert!(tree.starts_with("request  "), "{tree}");
        assert!(tree.contains("\n  run  "), "{tree}");
    }

    #[test]
    fn malformed_line_is_an_error_with_line_number() {
        assert!(spans_from_jsonl("not json\n").unwrap_err().to_string().contains("line 1"));
        let missing = "{\"type\":\"span\",\"name\":\"x\"}\n";
        assert!(spans_from_jsonl(missing).unwrap_err().to_string().contains("line 1"));
    }
}
