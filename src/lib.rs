//! # rsky — Reverse Skyline Retrieval with Arbitrary Non-Metric Similarity Measures
//!
//! A faithful, production-quality reproduction of Deshpande & Deepak P,
//! *"Efficient Reverse Skyline Retrieval with Arbitrary Non-Metric Similarity
//! Measures"*, EDBT 2011.
//!
//! The **reverse skyline** of a query `Q` is the set of database objects `X`
//! for which `Q` belongs to `X`'s dynamic skyline — i.e. no other object is
//! at least as similar to `X` as `Q` on every attribute and strictly more
//! similar on one. It captures *influence*: the objects for which the query
//! would be a reasonable choice. The twist of this paper is that
//! per-attribute dissimilarities are **arbitrary non-metric matrices** (think
//! expert-filled similarity tables over operating systems or DB products),
//! which rules out every spatial index and makes scan organization the whole
//! game.
//!
//! ## Quick start
//!
//! ```
//! use rsky::prelude::*;
//!
//! // The paper's running example: six servers, three attributes, hand-made
//! // non-metric distances, query [MSW, Intel, DB2].
//! let (dataset, query) = rsky::data::paper_example();
//!
//! // Put the data on a (simulated) disk and pre-sort it.
//! let mut disk = Disk::default_mem();
//! let raw = load_dataset(&mut disk, &dataset).unwrap();
//! let budget = MemoryBudget::from_percent(dataset.data_bytes(), 50.0, disk.page_size()).unwrap();
//! let sorted = prepare_table(&mut disk, &dataset.schema, &raw, Layout::MultiSort, &budget).unwrap();
//!
//! // Run the paper's main algorithm (TRS) …
//! let trs = Trs::for_schema(&dataset.schema);
//! let mut ctx = EngineCtx {
//!     disk: &mut disk,
//!     schema: &dataset.schema,
//!     dissim: &dataset.dissim,
//!     budget,
//! };
//! let run = trs.run(&mut ctx, &sorted.file, &query).unwrap();
//! assert_eq!(run.ids, vec![3, 6]); // the paper's RS = {O3, O6}
//!
//! // … and the costs are fully accounted:
//! assert!(run.stats.dist_checks > 0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] | schema, records, non-metric dissimilarities, domination, skyline oracle, stats |
//! | [`storage`] | paged disk (mem / file backends), sequential vs random IO accounting, record files, memory budgets |
//! | [`altree`] | the AL-Tree prefix structure behind TRS |
//! | [`order`] | multi-attribute sort, external merge sort, Z-order tiling |
//! | [`data`] | paper example, synthetic-normal, CI-like and FC-like generators, workloads |
//! | [`algos`] | Naive, BRS, SRS, TRS (+ tiled variants, attribute subsets, numeric hybrid, sharded scatter-gather) |
//! | [`server`] | TCP query server: admission control, deadlines, result cache, graceful shutdown |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rsky_algos as algos;
pub use rsky_altree as altree;
pub use rsky_core as core;
pub use rsky_data as data;
pub use rsky_order as order;
pub use rsky_server as server;
pub use rsky_storage as storage;
pub use rsky_view as view;

/// The most common imports in one place.
pub mod prelude {
    pub use rsky_algos::prep::{load_dataset, prepare_table, Layout, PreparedTable};
    pub use rsky_algos::shard::{ShardCost, ShardedRun, ShardedTables, DEFAULT_PRUNER_BUDGET};
    pub use rsky_algos::{
        engine_by_name, layout_for, Brs, EngineCtx, Naive, ReverseSkylineAlgo, RsRun,
        SharedQueryCache, Srs, Trs, TrsBf,
    };
    pub use rsky_core::dataset::Dataset;
    pub use rsky_core::dissim::FlatDissim;
    pub use rsky_core::obs::{MemorySink, MetricsRegistry, ObsHandle, TraceContext};
    pub use rsky_core::query::{AttrSubset, Query};
    pub use rsky_core::record::{RecordId, RowBuf, ValueId};
    pub use rsky_core::schema::{AttrMeta, Schema};
    pub use rsky_core::skyline::reverse_skyline_by_definition;
    pub use rsky_core::{AttrDissim, DissimTable};
    pub use rsky_storage::{
        partition_rows, ColumnarBatch, Disk, MemoryBudget, RecordFile, ShardPolicy, ShardSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let (dataset, query) = crate::data::paper_example();
        let mut disk = Disk::default_mem();
        let raw = load_dataset(&mut disk, &dataset).unwrap();
        let budget =
            MemoryBudget::from_percent(dataset.data_bytes(), 50.0, disk.page_size()).unwrap();
        let mut ctx = EngineCtx {
            disk: &mut disk,
            schema: &dataset.schema,
            dissim: &dataset.dissim,
            budget,
        };
        let run = Naive.run(&mut ctx, &raw, &query).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
    }
}
