//! rsky-server: the multi-threaded query-serving subsystem.
//!
//! Puts the reverse-skyline engines behind a TCP endpoint speaking
//! newline-delimited JSON, with the operational behaviors a long-running
//! retrieval service needs:
//!
//! * **admission control** — a bounded request queue ([`queue`]); when it
//!   fills, requests are shed immediately with an `overloaded` error
//!   rather than queueing without bound;
//! * **deadlines** — per-request budgets enforced cooperatively via
//!   [`rsky_core::cancel::CancelToken`]s that the engines poll at batch
//!   boundaries; queue wait counts against the budget;
//! * **result caching** — a shared cache ([`cache`]) keyed by (dataset
//!   generation, engine, query), invalidated by `insert`/`expire`
//!   mutations bumping the generation;
//! * **graceful shutdown** — stop accepting, drain every admitted request,
//!   answer each one, then exit ([`server`]).
//!
//! Everything is std-only: sockets from `std::net`, threads from
//! `std::thread`, JSON via the small reader in [`json`]. Observability
//! flows through `rsky_core::obs` — each server owns a metrics registry
//! (served by the `metrics` op) and tees spans into whatever recorder the
//! embedding process installed.
//!
//! ```no_run
//! use rsky_server::{Client, Server, ServerConfig};
//!
//! let (dataset, _) = rsky_data::paper_example();
//! let handle = Server::start(ServerConfig::default(), dataset).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let reply = client.send(r#"{"op":"query","engine":"trs","values":[1,0,2]}"#).unwrap();
//! assert!(reply.contains("\"ok\":true"));
//! client.send(r#"{"op":"shutdown"}"#).unwrap();
//! handle.join();
//! ```

pub mod cache;
pub mod client;
pub mod health;
pub mod json;
pub mod proto;
pub mod queue;
pub mod server;
pub mod slowlog;
pub mod state;
pub mod telemetry;
pub mod views;

pub use cache::{CacheKey, ResultCache};
pub use client::Client;
pub use health::{HealthEvaluator, HealthReport, Level, Rule, RuleKind};
pub use proto::{ErrKind, Request};
pub use server::{resolve_threads, Server, ServerConfig, ServerHandle};
pub use slowlog::{ProfileLine, SlowEntry, SlowLog};
pub use state::DataState;
pub use telemetry::Telemetry;
pub use views::{SubscribeAck, ViewRegistry};
