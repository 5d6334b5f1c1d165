//! `rsky trace` — reconstruct and render span trees from a `--trace-out`
//! JSONL file.
//!
//! Every recording run (CLI `query`/`influence`/`compare` with
//! `--trace-out`, or a server run) stamps each span line with
//! `trace_id` / `span_id` / `parent_id`. This command groups the lines by
//! trace, rebuilds each tree bottom-up from the parent references, and
//! prints it indented with the per-node latency and whatever cost fields
//! the span carried (IO deltas, distance-check counts, batch sizes, …).
//! Counter/gauge lines in the file are skipped. Spans whose parent never
//! closed in the file are reported as orphans rather than silently
//! re-rooted, so a broken propagation chain is visible at a glance.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use rsky_core::error::{Error, Result};
use rsky_server::json;

use crate::args::Flags;

pub const HELP: &str = "\
rsky trace --in <FILE>

Reads a JSONL trace file written by `--trace-out` and renders each trace's
span tree with per-node wall time and cost fields. Example:

    rsky query --data ./d --algo trs --query 3,17,25 --trace-out t.jsonl
    rsky trace --in t.jsonl

OPTIONS:
    --in FILE    JSONL trace file from `--trace-out`            (required)";

/// One parsed span line.
struct Node {
    name: String,
    span_id: u64,
    parent_id: Option<u64>,
    wall_us: u64,
    fields: Vec<(String, u64)>,
}

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let path = flags.require("in")?;
    let text = std::fs::read_to_string(path)?;
    print!("{}", render(&text)?);
    Ok(())
}

/// Renders the trace file's span trees. Public within the crate so the CLI
/// round-trip test can exercise it without spawning a process.
pub fn render(text: &str) -> Result<String> {
    // trace_id → spans, in close (line) order. BTreeMap so multiple traces
    // print in a stable order.
    let mut traces: BTreeMap<u64, Vec<Node>> = BTreeMap::new();
    let mut skipped = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| {
            Error::InvalidConfig(format!("trace file line {}: {e}", lineno + 1))
        })?;
        if v.get("type").and_then(|t| t.as_str()) != Some("span") {
            skipped += 1;
            continue;
        }
        let node = parse_span(&v).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "trace file line {}: span line missing trace_id/span_id/wall_us",
                lineno + 1
            ))
        })?;
        let trace_id = v.get("trace_id").and_then(|t| t.as_u64()).unwrap_or(0);
        traces.entry(trace_id).or_default().push(node);
    }

    let mut out = String::new();
    let mut total_spans = 0usize;
    let mut total_orphans = 0usize;
    for (trace_id, nodes) in &traces {
        total_spans += nodes.len();
        let _ = writeln!(out, "trace {trace_id} — {} span(s)", nodes.len());
        // Index spans by id; map parent → children (sorted by span_id, which
        // is creation order).
        let by_id: HashMap<u64, usize> = nodes.iter().enumerate().map(|(i, n)| (n.span_id, i)).collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        let mut orphans: Vec<usize> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            match n.parent_id {
                None => roots.push(i),
                Some(p) if by_id.contains_key(&p) => children.entry(p).or_default().push(i),
                Some(_) => orphans.push(i),
            }
        }
        for v in children.values_mut() {
            v.sort_by_key(|&i| nodes[i].span_id);
        }
        roots.sort_by_key(|&i| nodes[i].span_id);
        for &r in &roots {
            render_node(&mut out, nodes, &children, r, 0);
        }
        if !orphans.is_empty() {
            total_orphans += orphans.len();
            let _ = writeln!(out, "  ! {} orphan span(s) (parent never closed in this file):", orphans.len());
            for &i in &orphans {
                render_node(&mut out, nodes, &children, i, 1);
            }
        }
    }
    let _ = writeln!(
        out,
        "{} trace(s), {} span(s), {} orphan(s){}",
        traces.len(),
        total_spans,
        total_orphans,
        if skipped > 0 { format!(", {skipped} non-span line(s) skipped") } else { String::new() }
    );
    Ok(out)
}

fn parse_span(v: &json::JsonValue) -> Option<Node> {
    let name = v.get("name")?.as_str()?.to_string();
    let span_id = v.get("span_id")?.as_u64()?;
    let wall_us = v.get("wall_us")?.as_u64()?;
    let parent_id = match v.get("parent_id") {
        Some(json::JsonValue::Null) | None => None,
        Some(p) => Some(p.as_u64()?),
    };
    let mut fields = Vec::new();
    if let Some(json::JsonValue::Obj(members)) = v.get("fields") {
        for (k, fv) in members {
            if let Some(n) = fv.as_u64() {
                fields.push((k.clone(), n));
            }
        }
    }
    Some(Node { name, span_id, parent_id, wall_us, fields })
}

fn render_node(
    out: &mut String,
    nodes: &[Node],
    children: &HashMap<u64, Vec<usize>>,
    i: usize,
    depth: usize,
) {
    let n = &nodes[i];
    let _ = write!(out, "{:indent$}{}  {}us", "", n.name, n.wall_us, indent = 2 + depth * 2);
    for (k, fv) in &n.fields {
        let _ = write!(out, "  {k}={fv}");
    }
    out.push('\n');
    if let Some(kids) = children.get(&n.span_id) {
        for &c in kids {
            render_node(out, nodes, children, c, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::render;

    #[test]
    fn reconstructs_a_two_level_tree() {
        let file = "\
{\"type\":\"counter\",\"name\":\"x\",\"delta\":1}\n\
{\"type\":\"span\",\"name\":\"child\",\"trace_id\":9,\"span_id\":2,\"parent_id\":1,\"wall_us\":40,\"fields\":{\"dist_checks\":7}}\n\
{\"type\":\"span\",\"name\":\"root\",\"trace_id\":9,\"span_id\":1,\"parent_id\":null,\"wall_us\":100,\"fields\":{}}\n";
        let out = render(file).unwrap();
        assert!(out.contains("trace 9 — 2 span(s)"), "{out}");
        // Root at depth 0, child indented under it, with its field rendered.
        assert!(out.contains("\n  root  100us\n    child  40us  dist_checks=7\n"), "{out}");
        assert!(out.contains("1 trace(s), 2 span(s), 0 orphan(s), 1 non-span line(s) skipped"), "{out}");
    }

    #[test]
    fn orphans_are_reported_not_rerooted() {
        let file = "{\"type\":\"span\",\"name\":\"lost\",\"trace_id\":3,\"span_id\":5,\"parent_id\":4,\"wall_us\":10,\"fields\":{}}\n";
        let out = render(file).unwrap();
        assert!(out.contains("1 orphan span(s)"), "{out}");
        assert!(out.contains("1 trace(s), 1 span(s), 1 orphan(s)"), "{out}");
    }

    #[test]
    fn malformed_line_is_an_error_with_line_number() {
        let err = render("not json\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
