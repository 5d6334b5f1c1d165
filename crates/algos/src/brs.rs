//! Block Reverse Skyline — BRS (Algorithm 2), plus the two-phase scaffolding
//! shared with SRS.
//!
//! **Phase one** loads the database in memory-sized batches; objects with a
//! pruner *inside their own batch* are dropped, the rest are appended to a
//! write area `R` on disk. `R` is a superset of the result (pruners may have
//! lived in other batches).
//!
//! **Phase two** loads `R` in batches of `memory − 1 page` and, for each
//! batch, scans the entire database page by page, dropping every batch
//! member that finds a pruner. Survivors are exact results.
//!
//! Marked-pruned objects **remain valid pruners** for the rest of their
//! batch (the paper only marks them; it does not remove them), and an object
//! never prunes itself — engines compare record ids, so exact duplicates
//! still prune each other.

use rsky_core::dominate::prunes_with_center_dists;
use rsky_core::error::Result;
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::{RecordId, RowBuf};
use rsky_core::stats::RunStats;
use rsky_storage::columnar::ColumnarBatch;
use rsky_storage::{Disk, RecordFile, RecordWriter};

use crate::engine::{
    run_batches, run_with_scaffolding, EngineCtx, ReverseSkylineAlgo, RsRun, RunObs,
};
use crate::kernels::{self, CandidateBlocks, DistSource, PrunerKernel};
use crate::qcache::QueryDistCache;

/// Candidates per phase-one kernel group: bounds the pretranslated
/// distance-table memory (`PHASE1_GROUP · Σ card_i · 8` f64 cells) while
/// keeping chunks full. Grouping does not change any counter: each
/// candidate still probes the same batch prefix, and no IO happens inside
/// a group scan.
const PHASE1_GROUP: usize = 4096;

/// Scan records per phase-one kernel segment: between segments the group's
/// survivors are re-blocked into dense chunks, so a chunk never drags a
/// lone surviving lane through the whole batch at 1/8 occupancy.
const PHASE1_SEGMENT: usize = 256;

/// How phase one searches a batch for pruners of its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase1Order {
    /// Scan the batch front to back (BRS).
    Linear,
    /// Radiate outward from the candidate's own position — distance 1, 2, …
    /// alternating sides (SRS; neighbors in the sorted order share values and
    /// are the likeliest pruners, so they are probed first).
    Radiating,
}

/// Algorithm 2. Runs on any layout; pair with [`crate::prep::Layout::Original`].
///
/// `threads` workers walk the batches of each phase over the run's one disk
/// (`engine::run_batches`); [`Brs`](const@Brs) is the paper's engine on one
/// thread, and `Brs { threads: n }` with `n > 1` reports itself as BRS-P.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brs {
    /// Workers that walk batches at once; 1 (or 0) runs every batch on the
    /// calling thread.
    pub threads: usize,
}

/// BRS on one thread: the paper's engine.
#[allow(non_upper_case_globals)]
pub const Brs: Brs = Brs { threads: 1 };

impl ReverseSkylineAlgo for Brs {
    fn name(&self) -> &str {
        if self.threads > 1 { "BRS-P" } else { "BRS" }
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        crate::engine::validate_inputs(ctx, table, query)?;
        let prefix = if self.threads > 1 { "brs-p" } else { "brs" };
        run_with_scaffolding(ctx, query, prefix, |ctx, cache, stats, robs, kern| {
            two_phase(ctx, table, query, cache, Phase1Order::Linear, self.threads, stats, robs, kern)
        })
    }
}

/// Shared BRS/SRS body: batch-wise phase one into a write area, then the
/// phase-two refinement scan, each phase's batches walked on `threads`
/// workers. Returns unsorted result ids.
#[allow(clippy::too_many_arguments)]
pub(crate) fn two_phase(
    ctx: &mut EngineCtx<'_>,
    table: &RecordFile,
    query: &Query,
    cache: &QueryDistCache,
    order: Phase1Order,
    threads: usize,
    stats: &mut RunStats,
    robs: &RunObs<'_>,
    kern: &PrunerKernel,
) -> Result<Vec<RecordId>> {
    let m = table.num_attrs();
    let subset = &query.subset;
    let rec_bytes = table.record_bytes();
    let total_pages = table.num_pages(ctx.disk);
    let src = kern.source(ctx.dissim);

    // --- Phase one --------------------------------------------------------
    let p1 = robs.scope("phase1", stats, ctx.disk.io_stats());
    let cap1 = ctx.budget.phase1_records(rec_bytes);
    let mut writer = RecordWriter::create(ctx.disk, m)?;
    stats.phase1_batches = run_batches(
        ctx.disk,
        robs,
        threads,
        "phase1.batch",
        total_pages,
        stats,
        || RowBuf::new(m),
        |disk, page, batch| load_flat_batch(table, disk, page, cap1, batch),
        |batch, _, bs| {
            let mut survivors = RowBuf::new(m);
            let (mut dqx, mut crows) = (Vec::new(), Vec::new());
            phase1_scan_batch(src, batch, query, cache, order, &mut dqx, &mut crows, bs, |i| {
                survivors.push_flat(batch.flat_row(i));
                Ok(())
            })?;
            Ok(survivors)
        },
        |disk, survivors| writer.push_all(disk, &survivors),
    )?;
    let r_file = writer.finish(ctx.disk)?;
    stats.phase1_survivors = r_file.len() as usize;
    stats.phase1_time = p1
        .field("batches", stats.phase1_batches as u64)
        .field("survivors", stats.phase1_survivors as u64)
        .close(stats, ctx.disk.io_stats());

    // --- Phase two --------------------------------------------------------
    let p2 = robs.scope("phase2", stats, ctx.disk.io_stats());
    let cap2 = ctx.budget.phase2_records(rec_bytes);
    let r_pages = r_file.num_pages(ctx.disk);
    let mut result = Vec::new();
    stats.phase2_batches = run_batches(
        ctx.disk,
        robs,
        threads,
        "phase2.batch",
        r_pages,
        stats,
        || RowBuf::new(m),
        |disk, page, rbatch| load_flat_batch(&r_file, disk, page, cap2, rbatch),
        |rbatch, disk, bs| {
            let mut ids = Vec::new();
            phase2_filter_batch(
                src,
                subset,
                cache,
                rbatch,
                total_pages,
                |p, buf| disk.with(|disk| table.read_page_rows(disk, p, buf).map(|_| ())),
                &mut RowBuf::new(m),
                bs,
                &mut ids,
            )?;
            Ok(ids)
        },
        |_, ids| {
            result.extend(ids);
            Ok(())
        },
    )?;
    stats.phase2_time =
        p2.field("batches", stats.phase2_batches as u64).close(stats, ctx.disk.io_stats());
    Ok(result)
}

/// Loads the flat batch that starts at page `*page` of `file` (at most
/// `cap` records, at least one page) into `batch` and moves `*page` past
/// it; returns the batch's record count.
fn load_flat_batch(
    file: &RecordFile,
    disk: &mut Disk,
    page: &mut u64,
    cap: usize,
    batch: &mut RowBuf,
) -> Result<usize> {
    batch.clear();
    let (pages, records) = file.read_batch(disk, *page, cap, batch)?;
    *page += pages;
    Ok(records)
}

/// Phase-one scan of one in-memory batch: finds each member's intra-batch
/// pruner and calls `emit(i)` for every survivor, in batch order.
///
/// Linear probing batches cleanly — every candidate scans the same batch
/// front to back, so groups of 8 share each scan record; candidates are
/// grouped to bound pretranslation memory, which costs no IO (the batch is
/// fully in memory) and preserves emit order. Radiating probes in a
/// per-candidate order, so it runs [`find_pruner_in_batch`] per member.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase1_scan_batch<'f>(
    src: DistSource<'f>,
    batch: &RowBuf,
    query: &Query,
    cache: &QueryDistCache,
    order: Phase1Order,
    dqx: &mut Vec<f64>,
    crows: &mut Vec<&'f [f64]>,
    stats: &mut RunStats,
    mut emit: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    let n = batch.len();
    let subset = &query.subset;
    match order {
        Phase1Order::Linear => {
            let ys = ColumnarBatch::from_rows(batch);
            let mut start = 0;
            while start < n {
                let g = (n - start).min(PHASE1_GROUP);
                // Scan in segments, re-blocking survivors into dense chunks
                // whenever half a group has died — a sparse chunk pays
                // 8-wide probes for a lone surviving lane, and most
                // candidates find an intra-batch pruner early. Re-blocking
                // keeps each lane's probe sequence (and every counter)
                // identical; `orig` maps block slots back to batch order.
                let mut orig: Vec<usize> = (start..start + g).collect();
                let mut blocks = CandidateBlocks::build(src, cache, subset, g, |idx| {
                    (batch.id(start + idx), batch.values(start + idx))
                });
                let mut seg = 0;
                while seg < n && blocks.alive_count() > 0 {
                    let seg_end = (seg + PHASE1_SEGMENT).min(n);
                    blocks.scan_range(subset, &ys, seg, seg_end, true, stats);
                    seg = seg_end;
                    if seg < n && blocks.alive_count() * 2 < orig.len() {
                        let survivors: Vec<usize> = orig
                            .iter()
                            .enumerate()
                            .filter(|&(slot, _)| blocks.is_alive(slot))
                            .map(|(_, &o)| o)
                            .collect();
                        blocks = CandidateBlocks::build(src, cache, subset, survivors.len(), |idx| {
                            (batch.id(survivors[idx]), batch.values(survivors[idx]))
                        });
                        orig = survivors;
                    }
                }
                for (slot, &o) in orig.iter().enumerate() {
                    if blocks.is_alive(slot) {
                        emit(o)?;
                    }
                }
                start += g;
            }
        }
        Phase1Order::Radiating => {
            for i in 0..n {
                if !find_pruner_in_batch(src, batch, i, query, cache, dqx, crows, stats) {
                    emit(i)?;
                }
            }
        }
    }
    Ok(())
}

/// Phase-two refinement of one batch of intermediate results: blocks the
/// batch members, streams the database past them via `read_page` through
/// the batched pruner, and appends the ids that no scanned object prunes.
/// The page loop stops as soon as every member is pruned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase2_filter_batch(
    src: DistSource<'_>,
    subset: &AttrSubset,
    cache: &QueryDistCache,
    rbatch: &RowBuf,
    total_pages: u64,
    mut read_page: impl FnMut(u64, &mut RowBuf) -> Result<()>,
    dpage: &mut RowBuf,
    stats: &mut RunStats,
    result: &mut Vec<RecordId>,
) -> Result<()> {
    // Re-block survivors into dense chunks whenever half the batch has
    // died: page boundaries leave every lane at the same scan position, so
    // re-blocking is counter-exact.
    let mut orig: Vec<usize> = (0..rbatch.len()).collect();
    let mut blocks = CandidateBlocks::build(src, cache, subset, rbatch.len(), |xi| {
        (rbatch.id(xi), rbatch.values(xi))
    });
    for p in 0..total_pages {
        if blocks.alive_count() == 0 {
            break;
        }
        dpage.clear();
        read_page(p, dpage)?;
        let ys = ColumnarBatch::from_rows(dpage);
        blocks.scan(subset, &ys, true, stats);
        if p + 1 < total_pages && blocks.alive_count() * 2 < orig.len() {
            let survivors: Vec<usize> = orig
                .iter()
                .enumerate()
                .filter(|&(slot, _)| blocks.is_alive(slot))
                .map(|(_, &o)| o)
                .collect();
            blocks = CandidateBlocks::build(src, cache, subset, survivors.len(), |xi| {
                (rbatch.id(survivors[xi]), rbatch.values(survivors[xi]))
            });
            orig = survivors;
        }
    }
    for (slot, &o) in orig.iter().enumerate() {
        if blocks.is_alive(slot) {
            result.push(rbatch.id(o));
        }
    }
    Ok(())
}

/// Whether batch member `i` has a pruner inside the batch, probing
/// outward from its own position — distance 1, 2, … alternating sides
/// (SRS's radiating order). `dqx` is caller-provided scratch for the
/// candidate's query-distance row (hoisted out of the probe loop); `crows`
/// is scratch for the candidate's flat center rows on the flat source (the
/// probe then indexes contiguous rows instead of dispatching through the
/// dissimilarity enum — same evaluations, counted identically).
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_pruner_in_batch<'f>(
    src: DistSource<'f>,
    batch: &RowBuf,
    i: usize,
    query: &Query,
    cache: &QueryDistCache,
    dqx: &mut Vec<f64>,
    crows: &mut Vec<&'f [f64]>,
    stats: &mut RunStats,
) -> bool {
    let x = batch.values(i);
    let n = batch.len();
    let indices = query.subset.indices();
    cache.center_dists_into(&query.subset, x, dqx);
    if let DistSource::Flat(flat) = src {
        crows.clear();
        crows.extend(indices.iter().map(|&a| flat.center_row(a, x[a])));
    }
    let dqx = &*dqx;
    let crows = &*crows;
    let check = |j: usize, stats: &mut RunStats| -> bool {
        stats.obj_comparisons += 1;
        match src {
            DistSource::Flat(_) => kernels::prunes_center_hoisted(
                crows,
                dqx,
                indices,
                batch.values(j),
                &mut stats.dist_checks,
            ),
            DistSource::Table(dt) => prunes_with_center_dists(
                dt,
                &query.subset,
                batch.values(j),
                x,
                dqx,
                &mut stats.dist_checks,
            ),
        }
    };
    let mut d = 1;
    loop {
        let lo = i >= d;
        let hi = i + d < n;
        if !lo && !hi {
            return false;
        }
        if lo && check(i - d, stats) {
            return true;
        }
        if hi && check(i + d, stats) {
            return true;
        }
        d += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::load_dataset;
    use rsky_storage::{Disk, MemoryBudget};

    /// Runs BRS on the paper example with 1-object pages and 3-page memory —
    /// the exact configuration of Section 4.1's walkthrough.
    fn paper_run() -> (RsRun, Disk) {
        let (ds, q) = rsky_data::paper_example();
        // Record = 16 bytes; page of 16 bytes = 1 object per page.
        let mut disk = Disk::new_mem(16);
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap(); // 3 pages
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Brs.run(&mut ctx, &table, &q).unwrap();
        (run, disk)
    }

    #[test]
    fn paper_walkthrough_phase_structure() {
        // Section 4.1: first-phase batches {O1,O2,O3} and {O4,O5,O6} prune
        // O2 and O5; R = {O1, O3, O4, O6}; phase two runs in 2 batches
        // ({O1,O3}, {O4,O6}) and outputs {O3, O6}.
        let (run, _) = paper_run();
        assert_eq!(run.ids, vec![3, 6]);
        assert_eq!(run.stats.phase1_batches, 2);
        assert_eq!(run.stats.phase1_survivors, 4);
        assert_eq!(run.stats.phase2_batches, 2);
    }

    #[test]
    fn whole_database_in_memory_single_batch() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(64);
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(1 << 20, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Brs.run(&mut ctx, &table, &q).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
        assert_eq!(run.stats.phase1_batches, 1);
        // Intra-batch pruning is complete when the batch is the database.
        assert_eq!(run.stats.phase1_survivors, 2);
    }

    #[test]
    fn duplicates_across_batches_resolved_in_phase_two() {
        let (ds, q) = rsky_data::paper_example();
        let mut rows = RowBuf::new(3);
        rows.push(1, &[2, 0, 2]); // batch 1
        rows.push(2, &[2, 0, 2]); // batch 2 — exact duplicate
        let mut disk = Disk::new_mem(16);
        let mut table = RecordFile::create(&mut disk, 3).unwrap();
        table.write_all(&mut disk, &rows).unwrap();
        let budget = MemoryBudget::from_bytes(16, 16).unwrap(); // 1-object batches
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Brs.run(&mut ctx, &table, &q).unwrap();
        // Both survive phase one (alone in their batches), both die in
        // phase two against each other.
        assert_eq!(run.stats.phase1_survivors, 2);
        assert!(run.ids.is_empty());
    }

    #[test]
    fn io_profile_has_two_sequential_scans_plus_switches() {
        let (run, _) = paper_run();
        let io = run.stats.io;
        // Phase 1 reads D (6 pages) + writes R (4 pages); phase 2 reads R
        // (4 pages) + scans D twice (12 pages).
        assert_eq!(io.seq_reads + io.rand_reads, 6 + 4 + 12);
        assert_eq!(io.seq_writes + io.rand_writes, 4);
        // Interleaving D-reads and R-writes must cost random IOs.
        assert!(io.rand_writes + io.rand_reads > 2);
    }

    #[test]
    fn agrees_with_oracle_on_random_data() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let ds = rsky_data::synthetic::normal_dataset(3, 6, 60, &mut rng).unwrap();
            let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
            let expect =
                rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
            let mut disk = Disk::new_mem(64);
            let table = load_dataset(&mut disk, &ds).unwrap();
            let budget = MemoryBudget::from_bytes(256, 64).unwrap();
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            let run = Brs.run(&mut ctx, &table, &q).unwrap();
            assert_eq!(run.ids, expect, "trial {trial}");
        }
    }
}
