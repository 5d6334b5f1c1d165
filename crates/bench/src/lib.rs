//! # rsky-bench
//!
//! Harness reproducing **every table and figure** of the paper's evaluation
//! (Section 5). Each figure has a plain `cargo bench` target that sweeps the
//! figure's x-axis and prints the series as markdown tables — computation
//! time, sequential/random page IOs and response time per algorithm —
//! mirroring the paper's plots. A few more targets print micro-benchmarks
//! (kernels, observability cost, view maintenance). Every bench only
//! prints: performance claims come from perfbench, which reports medians
//! and spreads.
//!
//! ## Scaling
//!
//! The paper runs up to 1.2 M objects. Sizes here are multiplied by
//! `RSKY_SCALE` (a percentage, default **10**) so the full suite finishes on
//! a laptop; set `RSKY_SCALE=100` for paper scale. Every bench prints the
//! effective sizes it ran. `RSKY_QUERIES` (default 2) controls how many
//! random queries each point aggregates over; `RSKY_PAGE` overrides the page
//! size (default 4 KiB scaled / 32 KiB at 100 %, the paper's size).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod report;
pub mod runner;
pub mod table;

pub use config::BenchConfig;
pub use runner::{run_algo, AlgoKind, BackendKind, PointResult};
pub use table::Table;
