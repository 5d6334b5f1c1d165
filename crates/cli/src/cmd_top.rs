//! `rsky top` — a live telemetry console against a running `rsky serve`.
//!
//! Polls the server's `health` and `timeseries` ops on an interval and
//! renders one compact frame per poll: the SLO verdict with any firing
//! rules, every counter ranked by its windowed rate, gauge values, and
//! windowed histogram quantiles. On a terminal each frame redraws in
//! place; piped output prints frames sequentially, which is what the CLI
//! round-trip test consumes.

use std::fmt::Write as _;
use std::io::IsTerminal;
use std::net::ToSocketAddrs;

use rsky_core::error::{Error, Result};
use rsky_server::{json, Client};

use crate::args::Flags;

pub const HELP: &str = "\
rsky top --addr <HOST:PORT> [OPTIONS]

Live telemetry console: polls the server's health and timeseries ops and
renders the SLO verdict, counter rates, gauges, and histogram quantiles,
refreshed every --interval-ms. Rates and quantiles are computed by the
server over the trailing --window-ms from its sampled time-series ring —
`rsky serve` must be running with a non-zero --sample-interval-ms (the
default) for the windows to move.

OPTIONS:
    --addr H:P        server address                             (required)
    --interval-ms MS  poll interval                              [1000]
    --window-ms MS    trailing window for rates and quantiles    [60000]
    --frames N        exit after N frames (0 = until interrupted
                      or the server closes the connection)       [0]
    --rows N          max rows per section (0 = all)             [10]";

/// One polled snapshot, decoded from the server's JSON replies.
struct TopFrame {
    level: String,
    firing: Vec<String>,
    ticks: u64,
    samples: u64,
    dropped: u64,
    /// Counters as `(name, per_sec, windowed delta)`, rate-descending.
    counters: Vec<(String, f64, u64)>,
    /// Gauges as `(name, latest value)`.
    gauges: Vec<(String, f64)>,
    /// Histograms as `(name, windowed count, p50, p99)`.
    hists: Vec<(String, u64, u64, u64)>,
}

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let addr = flags.require("addr")?;
    let interval_ms: u64 = flags.num("interval-ms", 1000)?;
    let window_ms: u64 = flags.num("window-ms", 60_000)?;
    let frames: usize = flags.num("frames", 0)?;
    let rows: usize = flags.num("rows", 10)?;

    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| Error::InvalidConfig(format!("--addr {addr:?}: {e}")))?
        .next()
        .ok_or_else(|| Error::InvalidConfig(format!("--addr {addr:?} resolves to nothing")))?;
    let mut client = Client::connect(sockaddr)?;
    let redraw = std::io::stdout().is_terminal();

    let mut seen = 0usize;
    loop {
        let frame = match fetch(&mut client, window_ms) {
            Ok(f) => f,
            // The server shut down mid-poll: the stream is over, not an error.
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        };
        if redraw {
            // Clear the screen and home the cursor between frames.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render(addr, window_ms, &frame, rows));
        if !redraw {
            println!();
        }
        seen += 1;
        if frames > 0 && seen >= frames {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
    Ok(())
}

/// Polls one frame: the detailed health report, the series table, then one
/// per-metric timeseries query per series for its derived view.
fn fetch(client: &mut Client, window_ms: u64) -> Result<TopFrame> {
    let health = request(client, "{\"op\":\"health\",\"detail\":true}")?;
    let level = health
        .get("health")
        .and_then(|h| h.as_str())
        .unwrap_or("unknown")
        .to_string();
    let firing = health
        .get("detail")
        .and_then(|d| d.get("firing"))
        .and_then(|f| f.as_arr())
        .map(|arr| arr.iter().filter_map(|r| r.as_str().map(str::to_string)).collect())
        .unwrap_or_default();

    let summary = request(client, "{\"op\":\"timeseries\"}")?;
    let ticks = summary.get("ticks").and_then(|t| t.as_u64()).unwrap_or(0);
    let samples = summary.get("samples").and_then(|t| t.as_u64()).unwrap_or(0);
    let dropped = summary.get("dropped_series").and_then(|t| t.as_u64()).unwrap_or(0);

    let mut frame = TopFrame {
        level,
        firing,
        ticks,
        samples,
        dropped,
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
    };
    let Some(series) = summary.get("series").and_then(|s| s.as_arr()) else {
        return Ok(frame);
    };
    for s in series {
        let (Some(name), Some(kind)) = (
            s.get("name").and_then(|n| n.as_str()),
            s.get("kind").and_then(|k| k.as_str()),
        ) else {
            continue;
        };
        let mut req = String::from("{\"op\":\"timeseries\",\"metric\":\"");
        json::escape(name, &mut req);
        let _ = write!(req, "\",\"window_ms\":{window_ms},\"limit\":1}}");
        let v = request(client, &req)?;
        match kind {
            "counter" => {
                let per_sec = v
                    .get("rate")
                    .and_then(|r| r.get("per_sec"))
                    .and_then(|p| p.as_f64())
                    .unwrap_or(0.0);
                let delta = v
                    .get("rate")
                    .and_then(|r| r.get("delta"))
                    .and_then(|d| d.as_u64())
                    .unwrap_or(0);
                frame.counters.push((name.to_string(), per_sec, delta));
            }
            "gauge" => {
                let last = v
                    .get("points")
                    .and_then(|p| p.as_arr())
                    .and_then(|p| p.last())
                    .and_then(|pt| pt.as_arr())
                    .and_then(|pt| pt.get(1))
                    .and_then(|x| x.as_f64())
                    .unwrap_or(0.0);
                frame.gauges.push((name.to_string(), last));
            }
            _ => {
                let w = v.get("window");
                let count = w.and_then(|w| w.get("count")).and_then(|c| c.as_u64()).unwrap_or(0);
                let p50 = w.and_then(|w| w.get("p50")).and_then(|c| c.as_u64()).unwrap_or(0);
                let p99 = w.and_then(|w| w.get("p99")).and_then(|c| c.as_u64()).unwrap_or(0);
                frame.hists.push((name.to_string(), count, p50, p99));
            }
        }
    }
    frame.counters.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    frame.hists.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    Ok(frame)
}

fn request(client: &mut Client, req: &str) -> Result<json::JsonValue> {
    let reply = client.send(req)?;
    let v = json::parse(&reply)
        .map_err(|e| Error::InvalidConfig(format!("bad reply to {req}: {e}")))?;
    if v.get("ok").and_then(|o| o.as_bool()) != Some(true) {
        return Err(Error::InvalidConfig(format!("request {req} rejected: {reply}")));
    }
    Ok(v)
}

fn render(addr: &str, window_ms: u64, f: &TopFrame, rows: usize) -> String {
    let cap = |n: usize| if rows == 0 { n } else { n.min(rows) };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rsky top — {addr} — health: {}{}",
        f.level,
        if f.firing.is_empty() {
            String::new()
        } else {
            format!("  [firing: {}]", f.firing.join(", "))
        }
    );
    let _ = writeln!(
        out,
        "ring: {} tick(s), {} sample(s), {} dropped series; window {}ms",
        f.ticks, f.samples, f.dropped, window_ms
    );
    if !f.counters.is_empty() {
        let _ = writeln!(out, "counters (by rate):");
        for (name, per_sec, delta) in &f.counters[..cap(f.counters.len())] {
            let _ = writeln!(out, "{per_sec:>12.2}/s {delta:>10}  {name}");
        }
    }
    if !f.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &f.gauges[..cap(f.gauges.len())] {
            let _ = writeln!(out, "{v:>14.2}  {name}");
        }
    }
    if !f.hists.is_empty() {
        let _ = writeln!(out, "histograms (windowed):");
        let _ = writeln!(out, "{:>9} {:>10} {:>10}  name", "count", "p50_us", "p99_us");
        for (name, count, p50, p99) in &f.hists[..cap(f.hists.len())] {
            let _ = writeln!(out, "{count:>9} {p50:>10} {p99:>10}  {name}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_renders_all_sections_ranked() {
        let f = TopFrame {
            level: "warn".into(),
            firing: vec!["shed_rate".into()],
            ticks: 4,
            samples: 4,
            dropped: 0,
            counters: vec![
                ("server.served".into(), 12.5, 50),
                ("server.shed".into(), 1.0, 4),
            ],
            gauges: vec![("server.queue.depth".into(), 3.0)],
            hists: vec![("server.request.wall_us".into(), 9, 120, 900)],
        };
        let out = render("127.0.0.1:7464", 60_000, &f, 10);
        assert!(out.contains("health: warn  [firing: shed_rate]"), "{out}");
        assert!(out.contains("4 tick(s)"), "{out}");
        assert!(out.contains("12.50/s"), "{out}");
        assert!(out.contains("server.queue.depth"), "{out}");
        assert!(out.contains("server.request.wall_us"), "{out}");
        // --rows truncates each section.
        let capped = render("a", 1000, &f, 1);
        assert!(capped.contains("server.served") && !capped.contains("server.shed"), "{capped}");
    }
}
