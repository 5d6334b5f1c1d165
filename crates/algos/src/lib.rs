//! # rsky-algos
//!
//! The reverse-skyline algorithms of the paper, all running against the
//! paged storage substrate with full cost accounting:
//!
//! | Engine | Paper | Idea |
//! |--------|-------|------|
//! | [`Naive`] | Alg. 1 | per-object scan of `D` for a pruner |
//! | [`Brs`](struct@Brs) | Alg. 2 | two-phase block processing: intra-batch pruning, then filter survivors against a full scan |
//! | [`Srs`](struct@Srs) | §4.2  | BRS over the multi-attribute-sorted file; phase-one pruner search radiates outward from each object |
//! | [`Trs`]   | Alg. 3–5 | batches are AL-Trees; group-level reasoning + early pruning |
//! | [`TrsBf`] | §5 + BBS | best-first TRS: max-heap over group bounds, subtree kills, tree-grouped verification |
//! | T-SRS / T-TRS | §5.6 | the same engines over the tile/Z-ordered file (see [`prep`]) |
//! | [`hybrid`] | §6 | numeric attributes via discretization inside the TRS framework |
//!
//! ## Semantics shared by all engines
//!
//! `X ∈ RS_D(Q)` iff no *other instance* `Y ∈ D` satisfies `Y ≻_X Q`.
//! An object never prunes itself (engines compare record ids); exact
//! duplicates do prune each other unless they tie the query on every
//! selected attribute. Every engine returns the identical id set as the
//! definitional oracle ([`rsky_core::skyline::reverse_skyline_by_definition`]) —
//! enforced by the integration and property tests.
//!
//! ## Cost model
//!
//! * one **distance check** per evaluation of `d_i(data, data)`
//!   (`RunStats::dist_checks`);
//! * query-side distances `d_i(q_i, v)` are precomputed once per run into a
//!   [`QueryDistCache`] (`RunStats::query_dist_checks` — `Σ cardinality_i`
//!   evaluations, amortized over the whole run);
//! * page IOs come from the [`rsky_storage::Disk`] counters, split
//!   sequential/random.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bf;
pub mod brs;
pub mod delta;
pub mod engine;
pub mod explain;
pub mod hybrid;
pub mod influence;
pub mod kernels;
pub mod naive;
pub mod prep;
pub mod qcache;
pub mod rank;
pub mod shard;
pub mod skyline_bnl;
pub mod srs;
pub mod trs;

pub use bf::{BoundHeap, TrsBf};
pub use brs::Brs;
pub use engine::{engine_by_name, EngineCtx, ReverseSkylineAlgo, RsRun};
pub use explain::{all_witnesses, explain, Explanation, Membership};
pub use hybrid::{hybrid_trs, HybridDataset, HybridQuery, NumericAttr};
pub use influence::{run_influence_parallel, InfluenceEngine, InfluenceReport};
pub use kernels::{DistSource, PrunerKernel};
pub use delta::{first_pruners, pruner_band};
pub use naive::Naive;
pub use prep::{prepare_table, run_on_image, Layout, PreparedTable, SortedTable};
pub use qcache::QueryDistCache;
pub use rank::{rank_members, rank_members_with, RankedMember};
pub use shard::{layout_for, ShardCost, ShardedRun, ShardedTables};
pub use skyline_bnl::{dynamic_skyline_bnl, SkylineRun};
pub use srs::Srs;
pub use trs::Trs;
