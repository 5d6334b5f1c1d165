//! Naive reverse-skyline retrieval (Algorithm 1).
//!
//! For every object `X`, scan the database for a pruner `Y ≻_X Q`; stop the
//! scan at the first pruner. Objects in the result necessarily incur a full
//! scan, so the algorithm performs up to `|D|` (partial) database scans —
//! `O(n²)` checks and ruinous IO. It exists as the correctness and cost
//! baseline.
//!
//! IO pattern: the outer loop walks `D` page by page (sequential); for each
//! object of the page, the inner pruner scan restarts from page 0 (a seek,
//! then sequential). The outer page is kept in memory while the inner scan
//! runs, matching a two-page working set.

use rsky_core::error::Result;
use rsky_core::query::Query;
use rsky_core::record::RowBuf;
use rsky_storage::RecordFile;

use crate::engine::{prunes_cached, run_with_scaffolding, EngineCtx, ReverseSkylineAlgo, RsRun};

/// Algorithm 1. No tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl ReverseSkylineAlgo for Naive {
    fn name(&self) -> &str {
        "Naive"
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        crate::engine::validate_inputs(ctx, table, query)?;
        // The naive baseline stays on the scalar path on purpose: it is the
        // cost reference the paper's plots compare against, and its
        // page-at-a-time inner scan offers no batch to block.
        run_with_scaffolding(ctx, query, "naive", |ctx, cache, stats, robs, _kern| {
            let m = table.num_attrs();
            let subset = &query.subset;
            let total_pages = table.num_pages(ctx.disk);
            let mut result = Vec::new();
            let mut outer = RowBuf::new(m);
            let mut inner = RowBuf::new(m);
            // The naive scan has no write area and no second phase: each
            // outer page is one "batch" span, all under a single phase span.
            let p1 = robs.scope("phase1", stats, ctx.disk.io_stats());
            for op in 0..total_pages {
                robs.check_cancelled()?;
                let bspan = robs.scope("phase1.batch", stats, ctx.disk.io_stats());
                outer.clear();
                table.read_page_rows(ctx.disk, op, &mut outer)?;
                // Iterate X over the page; inner scan restarts at page 0 and
                // aborts at the first pruner.
                for xi in 0..outer.len() {
                    let x = outer.values(xi);
                    let x_id = outer.id(xi);
                    let mut pruned = false;
                    'scan: for ip in 0..total_pages {
                        inner.clear();
                        table.read_page_rows(ctx.disk, ip, &mut inner)?;
                        for yi in 0..inner.len() {
                            if inner.id(yi) == x_id {
                                continue;
                            }
                            stats.obj_comparisons += 1;
                            if prunes_cached(
                                ctx.dissim,
                                subset,
                                inner.values(yi),
                                x,
                                cache,
                                &mut stats.dist_checks,
                            ) {
                                pruned = true;
                                break 'scan;
                            }
                        }
                    }
                    if !pruned {
                        result.push(x_id);
                    }
                }
                bspan
                    .field("batch", op)
                    .field("records", outer.len() as u64)
                    .close(stats, ctx.disk.io_stats());
            }
            stats.phase1_batches = total_pages as usize;
            stats.phase1_time = p1
                .field("batches", stats.phase1_batches as u64)
                .close(stats, ctx.disk.io_stats());
            Ok(result)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::load_dataset;
    use rsky_storage::{Disk, MemoryBudget};

    #[test]
    fn paper_example_result() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(64); // 4 records per page
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(192, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Naive.run(&mut ctx, &table, &q).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
        assert_eq!(run.stats.result_size, 2);
        assert!(run.stats.dist_checks > 0);
        assert!(run.stats.io.total() > 0);
    }

    #[test]
    fn result_objects_cost_full_scans() {
        // With two result objects, the naive inner loop must have read the
        // full file at least twice beyond the outer scan.
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(32); // 2 records per page → 3 pages
        let table = load_dataset(&mut disk, &ds).unwrap();
        disk.reset_stats();
        let budget = MemoryBudget::from_bytes(64, 32).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Naive.run(&mut ctx, &table, &q).unwrap();
        let reads = run.stats.io.seq_reads + run.stats.io.rand_reads;
        // Outer: 3 pages; inner for the two result objects: 2 × 3 pages, plus
        // partial scans for the other four.
        assert!(reads >= 3 + 6, "reads = {reads}");
    }

    #[test]
    fn empty_table() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(64);
        let table = RecordFile::create(&mut disk, 3).unwrap();
        let budget = MemoryBudget::from_bytes(64, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Naive.run(&mut ctx, &table, &q).unwrap();
        assert!(run.ids.is_empty());
    }

    #[test]
    fn singleton_is_result() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(64);
        let mut table = RecordFile::create(&mut disk, 3).unwrap();
        let mut rows = RowBuf::new(3);
        rows.push(7, &[2, 0, 0]);
        table.write_all(&mut disk, &rows).unwrap();
        let budget = MemoryBudget::from_bytes(64, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Naive.run(&mut ctx, &table, &q).unwrap();
        assert_eq!(run.ids, vec![7]);
    }
}
