//! Sort Reverse Skyline — SRS (Section 4.2).
//!
//! Identical two-phase structure to BRS, run over the **multi-attribute
//! sorted** file ([`crate::prep::Layout::MultiSort`]): objects sharing
//! attribute values are clustered, which (a) makes intra-batch pruning far
//! more effective — sharing a value means distance 0 on that attribute, so
//! fewer conditions remain to satisfy — and (b) lets the phase-one pruner
//! search probe the *nearest neighbors in the sorted order first*, radiating
//! outward ("for each X we first consider the objects immediately next to it
//! in either direction of the sorted order, followed by objects at separation
//! distance of 2 and so on").
//!
//! Sorting itself is query-independent pre-processing (Section 5.5), done
//! once by [`crate::prep::prepare_table`]; its cost is *not* part of the
//! query run.

use rsky_core::error::Result;
use rsky_core::query::Query;
use rsky_storage::RecordFile;

use crate::brs::{two_phase, Phase1Order};
use crate::engine::{run_with_scaffolding, EngineCtx, ReverseSkylineAlgo, RsRun};
use crate::qcache::QueryDistCache;

/// Section 4.2. Expects a table in [`crate::prep::Layout::MultiSort`] (or
/// [`crate::prep::Layout::Tiled`], which makes it the paper's T-SRS).
///
/// `threads` workers walk its batches as BRS's do ([`Brs`](struct@crate::Brs));
/// [`Srs`](const@Srs) is the paper's engine on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Srs {
    /// Workers that walk batches at once; 1 (or 0) runs every batch on the
    /// calling thread.
    pub threads: usize,
}

/// SRS on one thread: the paper's engine.
#[allow(non_upper_case_globals)]
pub const Srs: Srs = Srs { threads: 1 };

impl ReverseSkylineAlgo for Srs {
    fn name(&self) -> &str {
        if self.threads > 1 { "SRS-P" } else { "SRS" }
    }

    fn run_with_cache(
        &self,
        ctx: &mut EngineCtx<'_>,
        table: &RecordFile,
        query: &Query,
        cache: Option<&QueryDistCache>,
    ) -> Result<RsRun> {
        crate::engine::validate_inputs(ctx, table, query)?;
        let prefix = if self.threads > 1 { "srs-p" } else { "srs" };
        run_with_scaffolding(ctx, query, cache, prefix, |ctx, cache, stats, robs, kern| {
            two_phase(ctx, table, query, cache, Phase1Order::Radiating, self.threads, stats, robs, kern)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{load_dataset, prepare_table, Layout};
    use rsky_storage::{Disk, MemoryBudget};

    /// Paper Table 2: on the running example with 1-object pages and 3-page
    /// memory, pre-sorting lets phase one prune {O1, O4, O2, O5}; R =
    /// {O6, O3} and phase two completes in a single batch with no pruning.
    #[test]
    fn paper_table2_srs_side() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(16);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        // The paper's walkthrough sorts on the schema order [OS, CPU, DB],
        // yielding {O1, O4, O6, O2, O5, O3}.
        let lex = rsky_order::SortOrder::lex(&ds.schema, &[0, 1, 2]);
        let sorted = rsky_order::external_sort(&mut disk, &raw, &budget, &lex).unwrap().file;
        let order: Vec<u32> = sorted
            .read_all(&mut disk)
            .unwrap()
            .iter()
            .map(rsky_core::record::row::id)
            .collect();
        assert_eq!(order, vec![1, 4, 6, 2, 5, 3]);
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Srs.run(&mut ctx, &sorted, &q).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
        // Table 2: batches {O1,O4,O6} and {O2,O5,O3} prune {O1,O4} and
        // {O2,O5}; R = {O6, O3}; phase two completes in one batch with no
        // further pruning — one database scan fewer than BRS.
        assert_eq!(run.stats.phase1_survivors, 2, "sorted phase 1 must prune all four");
        assert_eq!(run.stats.phase2_batches, 1, "one batch ⇒ one database scan saved vs BRS");
    }

    #[test]
    fn srs_beats_brs_on_phase1_survivors() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(33);
        let ds = rsky_data::synthetic::normal_dataset(3, 10, 400, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let mut disk = Disk::new_mem(128); // 8 records/page
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(640, 128).unwrap(); // 40-record batches
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();

        let mut ctx = EngineCtx {
            disk: &mut disk,
            schema: &ds.schema,
            dissim: &ds.dissim,
            budget,
        };
        let brs = crate::Brs.run(&mut ctx, &raw, &q).unwrap();
        let srs = Srs.run(&mut ctx, &sorted.file, &q).unwrap();
        assert_eq!(brs.ids, srs.ids);
        assert!(
            srs.stats.phase1_survivors <= brs.stats.phase1_survivors,
            "SRS {} survivors vs BRS {}",
            srs.stats.phase1_survivors,
            brs.stats.phase1_survivors
        );
    }

    #[test]
    fn agrees_with_oracle_on_random_data() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(34);
        for trial in 0..10 {
            let ds = rsky_data::synthetic::uniform_dataset(4, 5, 80, &mut rng).unwrap();
            let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
            let expect =
                rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
            let mut disk = Disk::new_mem(64);
            let raw = load_dataset(&mut disk, &ds).unwrap();
            let budget = MemoryBudget::from_bytes(320, 64).unwrap();
            let sorted =
                prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            let run = Srs.run(&mut ctx, &sorted.file, &q).unwrap();
            assert_eq!(run.ids, expect, "trial {trial}");
        }
    }

    #[test]
    fn works_on_tiled_layout_as_t_srs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(35);
        let ds = rsky_data::synthetic::normal_dataset(3, 8, 120, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let expect = rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        let mut disk = Disk::new_mem(64);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        let tiled =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::Tiled { tiles_per_attr: 2 }, &budget)
                .unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Srs.run(&mut ctx, &tiled.file, &q).unwrap();
        assert_eq!(run.ids, expect);
    }
}
