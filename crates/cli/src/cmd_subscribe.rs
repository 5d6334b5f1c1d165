//! `rsky subscribe` — a continuous reverse-skyline subscription against a
//! running `rsky serve` instance.

use std::fmt::Write as _;
use std::net::ToSocketAddrs;

use rsky_core::error::{Error, Result};
use rsky_server::Client;

use crate::args::Flags;

pub const HELP: &str = "\
rsky subscribe --addr <HOST:PORT> --values <v1,v2,…> [OPTIONS]

Registers a continuous reverse-skyline subscription and streams the frames
the server pushes. The first line printed is the acknowledgement carrying
the full RS(Q) snapshot at the current generation; every subsequent line is
one delta frame (`add`/`remove` id lists, or a `resync` snapshot after the
server had to rebuild the view) for a mutation that reached the dataset.

OPTIONS:
    --addr H:P        server address                             (required)
    --values V,V,…    query value ids, one per attribute         (required)
    --engine E        engine name the acknowledgement echoes; a view
                      answers for every engine                   [trs]
    --subset I,I,…    attribute indices to search on             [all]
    --frames N        exit after N delta frames; 0 streams until the
                      server closes the connection               [0]";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let addr = flags.require("addr")?;
    let values = flags
        .u32_list("values")?
        .ok_or_else(|| Error::InvalidConfig("missing required flag --values".into()))?;
    let engine = flags.get("engine").unwrap_or("trs");
    let subset = flags.usize_list("subset")?;
    let frames: usize = flags.num("frames", 0)?;

    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| Error::InvalidConfig(format!("--addr {addr:?}: {e}")))?
        .next()
        .ok_or_else(|| Error::InvalidConfig(format!("--addr {addr:?} resolves to nothing")))?;
    let mut client = Client::connect(sockaddr)?;

    let mut req = String::from("{\"op\":\"subscribe\",\"engine\":\"");
    req.push_str(engine);
    req.push_str("\",\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            req.push(',');
        }
        let _ = write!(req, "{v}");
    }
    req.push(']');
    if let Some(subset) = &subset {
        req.push_str(",\"subset\":[");
        for (i, a) in subset.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            let _ = write!(req, "{a}");
        }
        req.push(']');
    }
    req.push('}');

    let ack = client.send(&req)?;
    if !ack.starts_with("{\"ok\":true") {
        return Err(Error::InvalidConfig(format!("subscribe rejected: {ack}")));
    }
    println!("{ack}");

    let mut seen = 0usize;
    while frames == 0 || seen < frames {
        match client.read_line() {
            Ok(frame) => {
                println!("{frame}");
                seen += 1;
            }
            // The server shut down (or the connection dropped): the stream
            // is over, not an error.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
