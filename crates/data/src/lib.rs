//! # rsky-data
//!
//! Dataset, dissimilarity and workload generators for the reverse-skyline
//! experiments:
//!
//! * [`example`] — the paper's running example (Table 1 + Figure 1): six
//!   servers over `{OS, Processor, DB}` with hand-specified non-metric
//!   distances, plus the query `[MSW, Intel, DB2]` whose reverse skyline is
//!   `{O3, O6}`;
//! * [`dissim_gen`] — random `[0, 1]` dissimilarity matrices ("The similarity
//!   between different values of attributes are chosen randomly from the
//!   interval [0−1]", Section 5.2), seeded and reproducible;
//! * [`synthetic`] — the paper's synthetic *normal* categorical data
//!   (rejection sampling around the middle value of each attribute's chosen
//!   ordering, variance 3) plus a uniform generator;
//! * [`realworld`] — Census-Income-like and ForestCover-like datasets.
//!   The UCI files are not available offline, so these generators reproduce
//!   the exact attribute *shapes* the paper reports (cardinalities
//!   91/17/5/53/7 and 67/551/2/700/2/7/2, row counts 199 523 and 581 012,
//!   densities 6.9 % and 0.04 %) with skewed per-attribute distributions —
//!   the properties the algorithms actually observe;
//! * [`workload`] — query generation;
//! * [`twin`] — the same rows under a domain that flattens and under one
//!   that does not, for differentials of the pruner kernels' two distance
//!   sources;
//! * [`csv`] — plain-text dataset directories, so users can run the engines
//!   on their own data without writing Rust.
//!
//! Everything is deterministic given a seed (`rand::rngs::StdRng`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod dissim_gen;
pub mod example;
pub mod realworld;
pub mod synthetic;
pub mod twin;
pub mod workload;

pub use dissim_gen::random_dissim_table;
pub use example::paper_example;
pub use realworld::{census_income_like, forest_cover_like};
pub use synthetic::{normal_dataset, uniform_dataset};
pub use workload::{random_queries, Dataset};
