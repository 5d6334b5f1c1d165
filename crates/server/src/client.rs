//! A minimal blocking client for the line protocol.
//!
//! Used by the CLI's `subscribe`, `top` and `profile` commands, the e2e
//! suites and perfbench's tcp-mixed workload, so none of them
//! re-implements the framing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One connection speaking the newline-delimited JSON protocol.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Request/response round trips are latency-bound: without this,
        // Nagle + delayed ACK adds tens of ms to every small write.
        stream.set_nodelay(true)?;
        Ok(Self { stream, buf: Vec::new() })
    }

    /// Guards against a hung server: errors instead of blocking forever.
    pub fn set_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Sends one request line and reads the one response line (the
    /// protocol is strictly request/response per connection).
    pub fn send(&mut self, request: &str) -> std::io::Result<String> {
        // One write for line + terminator, so the request leaves in a
        // single TCP segment.
        let mut line = Vec::with_capacity(request.len() + 1);
        line.extend_from_slice(request.as_bytes());
        line.push(b'\n');
        self.stream.write_all(&line)?;
        self.stream.flush()?;
        self.read_line()
    }

    /// Reads one response line (without the trailing newline).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..pos]).trim_end().to_string();
                return Ok(text);
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}
