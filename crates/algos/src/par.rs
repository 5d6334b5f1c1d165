//! Parallel reverse-skyline execution layer.
//!
//! [`ParBrs`], [`ParSrs`] and [`ParTrs`] run both phases of their sequential
//! twins across a configurable number of OS threads (`std::thread::scope`,
//! the pattern proven by [`crate::influence::run_influence_parallel`] — no
//! extra dependencies). Each batch runs the same per-batch body as the
//! sequential engine (`brs::phase1_scan_batch` / `phase2_filter_batch`,
//! `trs::phase1_tree_batch` / `phase2_tree_batch`) inside the same
//! `run_with_scaffolding`; only batch distribution and IO differ.
//!
//! ## Determinism
//!
//! The unit of parallelism is the **batch**, and batches are composed
//! *exactly* as the sequential engines compose them:
//!
//! * BRS/SRS batch boundaries depend only on file length, page geometry and
//!   the memory budget, so [`flat_batch_starts`] precomputes them without IO
//!   and workers claim batch indices from an atomic counter;
//! * TRS batch boundaries depend on the data (the AL-Tree's memory estimate
//!   grows with prefix sharing), so a mutex-guarded loader hands out batches
//!   one at a time, advancing through the file precisely like the sequential
//!   loop — loading is serialized, the expensive tree walks are not.
//!
//! Each worker processes whole batches with thread-local [`RunStats`]; the
//! coordinator merges per-batch stats **in batch order** via
//! [`RunStats::merge`] and concatenates phase-1 survivors in batch order, so
//! the write area `R` is byte-identical to the sequential run's. Result id
//! sets are identical, and so are the `dist_checks` / `obj_comparisons` /
//! `tree_nodes_visited` counters, for any thread count — asserted by the
//! twin tests.
//!
//! ## What legitimately differs
//!
//! IO *classification*. The sequential engines share one disk head, so
//! interleaving the database scan with `R`-writes costs random IOs. Workers
//! scan read-only snapshots ([`rsky_storage::SharedRecords`]) with one head
//! each, and the coordinator writes `R` in one sequential pass — total pages
//! read/written match the sequential profile, but the sequential/random
//! split differs. Worker scanner IO is gathered into `stats.io`, which the
//! scaffolding adds to the disk's own delta. Wall-clock phase times are
//! measured by the coordinator's phase scopes and overwrite the merged
//! per-batch durations (total work), per the [`RunStats::merge`] contract.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rsky_altree::AlTree;
use rsky_core::error::Result;
use rsky_core::obs::{self, TraceContext};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf};
use rsky_core::schema::Schema;
use rsky_core::stats::{IoCounts, RunStats};
use rsky_storage::{RecordFile, RecordScanner, RecordWriter, SharedRecords};

use crate::brs::{phase1_scan_batch, phase2_filter_batch, Phase1Order};
use crate::engine::{
    io_now, run_with_scaffolding, validate_inputs, EngineCtx, ReverseSkylineAlgo, RsRun, RunObs,
};
use crate::kernels::PrunerKernel;
use crate::qcache::QueryDistCache;
use crate::trs::{self, Trs};

/// Parallel BRS: both phases sharded by batch across OS threads.
#[derive(Debug, Clone, Copy)]
pub struct ParBrs {
    /// Worker thread count (values ≤ 1 still run the parallel machinery on
    /// one worker, which is bit-identical to sequential BRS).
    pub threads: usize,
}

/// Parallel SRS: [`ParBrs`] with the radiating phase-1 probe order; expects
/// a sorted layout like its sequential twin.
#[derive(Debug, Clone, Copy)]
pub struct ParSrs {
    /// Worker thread count.
    pub threads: usize,
}

/// Parallel TRS: tree batches are loaded under a lock (sequential-identical
/// composition) and walked concurrently.
#[derive(Debug, Clone)]
pub struct ParTrs {
    /// The underlying TRS configuration (attribute order, ablation switches).
    pub trs: Trs,
    /// Worker thread count.
    pub threads: usize,
}

impl ParTrs {
    /// Parallel TRS with the paper's default attribute ordering.
    pub fn for_schema(schema: &Schema, threads: usize) -> Self {
        Self { trs: Trs::for_schema(schema), threads }
    }
}

impl ReverseSkylineAlgo for ParBrs {
    fn name(&self) -> &str {
        "BRS-P"
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        validate_inputs(ctx, table, query)?;
        run_with_scaffolding(ctx, query, "brs-p", |ctx, cache, stats, robs, kern| {
            par_two_phase(
                ctx, table, query, cache, Phase1Order::Linear, self.threads, stats, robs, kern,
            )
        })
    }
}

impl ReverseSkylineAlgo for ParSrs {
    fn name(&self) -> &str {
        "SRS-P"
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        validate_inputs(ctx, table, query)?;
        run_with_scaffolding(ctx, query, "srs-p", |ctx, cache, stats, robs, kern| {
            par_two_phase(
                ctx, table, query, cache, Phase1Order::Radiating, self.threads, stats, robs, kern,
            )
        })
    }
}

impl ReverseSkylineAlgo for ParTrs {
    fn name(&self) -> &str {
        "TRS-P"
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        validate_inputs(ctx, table, query)?;
        self.trs.validate_order(table.num_attrs())?;
        run_with_scaffolding(ctx, query, "trs-p", |ctx, cache, stats, robs, kern| {
            par_trs(ctx, table, query, cache, &self.trs, self.threads, stats, robs, kern)
        })
    }
}

/// First pages of every batch a sequential `read_batch` loop over `file`
/// with record budget `cap` would produce. Pure arithmetic — every page
/// except the last holds exactly `records_per_page` records, so boundaries
/// need no IO. Mirrors `RecordFile::read_batch` including its
/// at-least-one-page guarantee.
fn flat_batch_starts(file: &SharedRecords, cap: usize) -> Vec<u64> {
    let n = file.len();
    let rpp = file.records_per_page();
    let total_pages = file.num_pages();
    let mut starts = Vec::new();
    let mut page = 0u64;
    while page < total_pages {
        starts.push(page);
        let mut records = 0usize;
        while page < total_pages && records + rpp <= cap.max(rpp) {
            records += ((n - page * rpp as u64) as usize).min(rpp);
            page += 1;
            if records >= cap {
                break;
            }
        }
    }
    starts
}

/// One worker's output: `(batch_idx, payload, per-batch stats)` triples plus
/// the worker's own scanner IO.
type WorkerOut<T> = Vec<Result<(Vec<(usize, T, RunStats)>, IoCounts)>>;

/// Merges per-batch outputs: stats folded in batch-index order, payloads
/// returned in batch-index order. Worker scanner IO is added to `stats.io`.
fn gather_batches<T>(nb: usize, worker_out: WorkerOut<T>, stats: &mut RunStats) -> Result<Vec<T>> {
    let mut slots: Vec<Option<(T, RunStats)>> = (0..nb).map(|_| None).collect();
    for w in worker_out {
        let (items, io) = w?;
        stats.io.add(io);
        for (b, payload, bs) in items {
            debug_assert!(slots[b].is_none(), "batch {b} claimed twice");
            slots[b] = Some((payload, bs));
        }
    }
    let mut payloads = Vec::with_capacity(nb);
    for slot in &mut slots {
        let (payload, bs) = slot.take().expect("every claimed batch produced output");
        stats.merge(&bs);
        payloads.push(payload);
    }
    Ok(payloads)
}

/// Runs `work` on `threads` scoped worker threads and returns their outputs.
/// Worker threads start with an empty span stack, so each joins the trace of
/// the phase span whose context is `parent`.
fn on_workers<T: Send>(
    threads: usize,
    parent: Option<TraceContext>,
    work: impl Fn() -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..threads).map(|_| s.spawn(|| obs::with_parent(parent, &work))).collect();
        handles.into_iter().map(|h| h.join().expect("parallel engine worker panicked")).collect()
    })
}

/// Combined IO of two worker scanners.
fn scanners_io(a: &RecordScanner, b: &RecordScanner) -> IoCounts {
    let mut io = a.io_stats();
    io.add(b.io_stats());
    io
}

/// Parallel twin of `crate::brs::two_phase` (shared by BRS-P and SRS-P).
#[allow(clippy::too_many_arguments)]
fn par_two_phase(
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
    let threads = threads.max(1);
    let m = table.num_attrs();
    let rec_bytes = table.record_bytes();
    let dissim = ctx.dissim;
    let shared_d = table.share(ctx.disk)?;

    // --- Phase one: disjoint batches, claimed from an atomic counter ------
    let p1 = robs.scope("phase1", stats, io_now(stats, ctx.disk));
    let cap1 = ctx.budget.phase1_records(rec_bytes);
    let starts = flat_batch_starts(&shared_d, cap1);
    let nb = starts.len();
    let next = AtomicUsize::new(0);
    let worker_out: WorkerOut<RowBuf> = on_workers(threads, p1.ctx(), || {
        let mut scanner = shared_d.scanner();
        let mut dqx = Vec::with_capacity(query.subset.len());
        let mut crows: Vec<&[f64]> = Vec::with_capacity(query.subset.len());
        let mut out = Vec::new();
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= nb {
                break;
            }
            robs.check_cancelled()?;
            let mut bs = RunStats { phase1_batches: 1, ..Default::default() };
            let bspan = robs.scope("phase1.batch", &bs, scanner.io_stats());
            let mut batch = RowBuf::new(m);
            scanner.read_batch(starts[b], cap1, &mut batch)?;
            let mut surv = RowBuf::new(m);
            phase1_scan_batch(
                kern.source(dissim),
                &batch,
                query,
                cache,
                order,
                &mut dqx,
                &mut crows,
                &mut bs,
                |i| {
                    surv.push_flat(batch.flat_row(i));
                    Ok(())
                },
            )?;
            bspan
                .field("batch", b as u64)
                .field("records", batch.len() as u64)
                .close(&bs, scanner.io_stats());
            out.push((b, surv, bs));
        }
        Ok((out, scanner.io_stats()))
    });
    let survivors = gather_batches(nb, worker_out, stats)?;
    let r_file = {
        let mut writer = RecordWriter::create(ctx.disk, m)?;
        for surv in &survivors {
            writer.push_all(ctx.disk, surv)?;
        }
        writer.finish(ctx.disk)?
    };
    stats.phase1_survivors = r_file.len() as usize;
    stats.phase1_time = p1
        .field("batches", stats.phase1_batches as u64)
        .field("survivors", stats.phase1_survivors as u64)
        .close(stats, io_now(stats, ctx.disk));

    // --- Phase two: R-batches sharded the same way ------------------------
    let p2 = robs.scope("phase2", stats, io_now(stats, ctx.disk));
    let shared_r = r_file.share(ctx.disk)?;
    let cap2 = ctx.budget.phase2_records(rec_bytes);
    let rstarts = flat_batch_starts(&shared_r, cap2);
    let nrb = rstarts.len();
    let next2 = AtomicUsize::new(0);
    let subset = &query.subset;
    let d_pages = shared_d.num_pages();
    let worker_out: WorkerOut<Vec<RecordId>> = on_workers(threads, p2.ctx(), || {
        let mut r_scanner = shared_r.scanner();
        let mut d_scanner = shared_d.scanner();
        let mut rbatch = RowBuf::new(m);
        let mut dpage = RowBuf::new(m);
        let mut out = Vec::new();
        loop {
            let b = next2.fetch_add(1, Ordering::Relaxed);
            if b >= nrb {
                break;
            }
            robs.check_cancelled()?;
            let mut bs = RunStats { phase2_batches: 1, ..Default::default() };
            let bspan = robs.scope("phase2.batch", &bs, scanners_io(&r_scanner, &d_scanner));
            rbatch.clear();
            r_scanner.read_batch(rstarts[b], cap2, &mut rbatch)?;
            let mut ids: Vec<RecordId> = Vec::new();
            phase2_filter_batch(
                kern.source(dissim),
                subset,
                cache,
                &rbatch,
                d_pages,
                |p, buf| d_scanner.read_page_rows(p, buf).map(|_| ()),
                &mut dpage,
                &mut bs,
                &mut ids,
            )?;
            bspan
                .field("batch", b as u64)
                .field("records", rbatch.len() as u64)
                .close(&bs, scanners_io(&r_scanner, &d_scanner));
            out.push((b, ids, bs));
        }
        Ok((out, scanners_io(&r_scanner, &d_scanner)))
    });
    let per_batch_ids = gather_batches(nrb, worker_out, stats)?;
    stats.phase2_time =
        p2.field("batches", stats.phase2_batches as u64).close(stats, io_now(stats, ctx.disk));
    Ok(per_batch_ids.into_iter().flatten().collect())
}

/// Sequentially-advancing batch loader for TRS: the mutex serializes batch
/// composition (scanner position and batch index advance exactly like the
/// sequential loop), while the tree walks run outside the lock.
struct TreeLoader {
    scanner: RecordScanner,
    page: u64,
    batch_idx: usize,
}

/// Claims and loads the next tree batch, returning its index and the
/// loader IO it cost, or `None` at end of file. When a recorder is active,
/// the time spent *waiting* for the loader lock is recorded into the
/// `par.batch.wait_us` histogram — the contention cost of serializing TRS
/// batch composition.
#[allow(clippy::too_many_arguments)]
fn claim_tree_batch(
    loader: &Mutex<TreeLoader>,
    total_pages: u64,
    tree_budget: u64,
    order: &[usize],
    tree: &mut AlTree,
    pbuf: &mut RowBuf,
    tvals: &mut [u32],
    robs: &RunObs<'_>,
) -> Result<Option<(usize, IoCounts)>> {
    robs.check_cancelled()?;
    let wait0 = robs.enabled().then(Instant::now);
    let mut ld = loader.lock().expect("tree loader poisoned");
    if let Some(t0) = wait0 {
        robs.handle().histogram_record(obs::names::PAR_BATCH_WAIT_US, t0.elapsed().as_micros() as u64);
    }
    if ld.page >= total_pages {
        return Ok(None);
    }
    let b = ld.batch_idx;
    ld.batch_idx += 1;
    let ld = &mut *ld;
    let io0 = ld.scanner.io_stats();
    trs::load_batch_into_tree_with(
        |p, buf| ld.scanner.read_page_rows(p, buf).map(|_| ()),
        order,
        &mut ld.page,
        total_pages,
        tree_budget,
        tree,
        pbuf,
        tvals,
    )?;
    Ok(Some((b, ld.scanner.io_stats().delta_since(io0))))
}

/// Parallel twin of the TRS run body.
#[allow(clippy::too_many_arguments)]
fn par_trs(
    ctx: &mut EngineCtx<'_>,
    table: &RecordFile,
    query: &Query,
    cache: &QueryDistCache,
    trs_cfg: &Trs,
    threads: usize,
    stats: &mut RunStats,
    robs: &RunObs<'_>,
    kern: &PrunerKernel,
) -> Result<Vec<RecordId>> {
    let threads = threads.max(1);
    let m = table.num_attrs();
    let order = trs_cfg.attr_order();
    let subset = &query.subset;
    let dissim = ctx.dissim;
    let shared_d = table.share(ctx.disk)?;
    let d_pages = shared_d.num_pages();

    // --- Phase one: trees loaded under lock, walked concurrently ----------
    let p1 = robs.scope("phase1", stats, io_now(stats, ctx.disk));
    let tree_budget = ctx.budget.phase1_tree_bytes();
    let loader = Mutex::new(TreeLoader { scanner: shared_d.scanner(), page: 0, batch_idx: 0 });
    let worker_out: WorkerOut<RowBuf> = on_workers(threads, p1.ctx(), || {
        let mut tree = AlTree::new(m);
        let mut pbuf = RowBuf::new(m);
        let mut tvals = vec![0u32; m];
        let mut out = Vec::new();
        while let Some((b, load_io)) = claim_tree_batch(
            &loader, d_pages, tree_budget, order, &mut tree, &mut pbuf, &mut tvals, robs,
        )? {
            let mut bs = RunStats { phase1_batches: 1, ..Default::default() };
            // The loader read this batch's pages before the scope opened.
            let bspan = robs.scope("phase1.batch", &bs, IoCounts::default());
            let mut surv = RowBuf::new(m);
            trs::phase1_tree_batch(
                &mut tree, dissim, kern.flat(), subset, order, trs_cfg.opts, cache, &mut bs,
                |row| {
                    surv.push_flat(row);
                    Ok(())
                },
            )?;
            bspan.field("batch", b as u64).close(&bs, load_io);
            out.push((b, surv, bs));
        }
        Ok((out, IoCounts::default()))
    });
    let nb = loader.lock().expect("tree loader poisoned").batch_idx;
    stats.io.add(loader.into_inner().expect("tree loader poisoned").scanner.io_stats());
    let survivors = gather_batches(nb, worker_out, stats)?;
    let r_file = {
        let mut writer = RecordWriter::create(ctx.disk, m)?;
        for surv in &survivors {
            writer.push_all(ctx.disk, surv)?;
        }
        writer.finish(ctx.disk)?
    };
    stats.phase1_survivors = r_file.len() as usize;
    stats.phase1_time = p1
        .field("batches", stats.phase1_batches as u64)
        .field("survivors", stats.phase1_survivors as u64)
        .close(stats, io_now(stats, ctx.disk));

    // --- Phase two: result trees per batch, database streamed per worker --
    let p2 = robs.scope("phase2", stats, io_now(stats, ctx.disk));
    let tree_budget2 = ctx.budget.phase2_tree_bytes();
    let shared_r = r_file.share(ctx.disk)?;
    let r_pages = shared_r.num_pages();
    let loader2 = Mutex::new(TreeLoader { scanner: shared_r.scanner(), page: 0, batch_idx: 0 });
    let worker_out: WorkerOut<Vec<RecordId>> = on_workers(threads, p2.ctx(), || {
        let mut tree = AlTree::new(m);
        let mut pbuf = RowBuf::new(m);
        let mut tvals = vec![0u32; m];
        let mut d_scanner = shared_d.scanner();
        let mut out = Vec::new();
        while let Some((b, load_io)) = claim_tree_batch(
            &loader2, r_pages, tree_budget2, order, &mut tree, &mut pbuf, &mut tvals, robs,
        )? {
            let mut bs = RunStats { phase2_batches: 1, ..Default::default() };
            let bspan = robs.scope("phase2.batch", &bs, d_scanner.io_stats());
            let mut ids = Vec::new();
            trs::phase2_tree_batch(
                &mut tree, dissim, kern.flat(), subset, order, cache, d_pages,
                |p, buf| d_scanner.read_page_rows(p, buf).map(|_| ()),
                &mut bs, &mut ids,
            )?;
            // The R pages of this batch were read by the loader.
            let mut io = d_scanner.io_stats();
            io.add(load_io);
            bspan.field("batch", b as u64).close(&bs, io);
            out.push((b, ids, bs));
        }
        Ok((out, d_scanner.io_stats()))
    });
    let nrb = loader2.lock().expect("tree loader poisoned").batch_idx;
    stats.io.add(loader2.into_inner().expect("tree loader poisoned").scanner.io_stats());
    let per_batch_ids = gather_batches(nrb, worker_out, stats)?;
    stats.phase2_time =
        p2.field("batches", stats.phase2_batches as u64).close(stats, io_now(stats, ctx.disk));
    Ok(per_batch_ids.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{load_dataset, prepare_table, Layout};
    use crate::{Brs, Srs};
    use rsky_storage::{Disk, MemoryBudget};

    fn run_engine(
        e: &dyn ReverseSkylineAlgo,
        disk: &mut Disk,
        ds: &rsky_core::dataset::Dataset,
        table: &RecordFile,
        q: &Query,
        budget: MemoryBudget,
    ) -> RsRun {
        let mut ctx = EngineCtx { disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        e.run(&mut ctx, table, q).unwrap()
    }

    #[test]
    fn paper_example_all_parallel_engines() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(16); // 1 object/page, the walkthrough setup
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        for t in [1, 2, 7] {
            let brs = run_engine(&ParBrs { threads: t }, &mut disk, &ds, &raw, &q, budget);
            assert_eq!(brs.ids, vec![3, 6], "BRS-P t={t}");
            let srs = run_engine(&ParSrs { threads: t }, &mut disk, &ds, &sorted.file, &q, budget);
            assert_eq!(srs.ids, vec![3, 6], "SRS-P t={t}");
            let trs = ParTrs::for_schema(&ds.schema, t);
            let trs = run_engine(&trs, &mut disk, &ds, &sorted.file, &q, budget);
            assert_eq!(trs.ids, vec![3, 6], "TRS-P t={t}");
        }
    }

    #[test]
    fn parallel_brs_matches_sequential_counters() {
        // Same batch composition ⇒ identical dist_checks/obj_comparisons,
        // not just identical ids.
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(16);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        let seq = run_engine(&Brs, &mut disk, &ds, &raw, &q, budget);
        for t in [1, 2, 7] {
            let par = run_engine(&ParBrs { threads: t }, &mut disk, &ds, &raw, &q, budget);
            assert_eq!(par.ids, seq.ids);
            assert_eq!(par.stats.dist_checks, seq.stats.dist_checks, "t={t}");
            assert_eq!(par.stats.obj_comparisons, seq.stats.obj_comparisons, "t={t}");
            assert_eq!(par.stats.phase1_batches, seq.stats.phase1_batches, "t={t}");
            assert_eq!(par.stats.phase1_survivors, seq.stats.phase1_survivors, "t={t}");
            assert_eq!(par.stats.phase2_batches, seq.stats.phase2_batches, "t={t}");
        }
    }

    #[test]
    fn flat_batch_starts_match_read_batch_loop() {
        let mut disk = Disk::new_mem(64); // 4 records/page at m=3
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        let mut rows = RowBuf::new(3);
        for i in 0..23 {
            rows.push(i, &[i % 3, i % 2, i % 3]);
        }
        rf.write_all(&mut disk, &rows).unwrap();
        let shared = rf.share(&disk).unwrap();
        for cap in [1, 3, 4, 9, 100] {
            let starts = flat_batch_starts(&shared, cap);
            // Replay the sequential loop and compare boundaries.
            let mut expect = Vec::new();
            let mut page = 0;
            let total = rf.num_pages(&disk);
            while page < total {
                expect.push(page);
                let mut buf = RowBuf::new(3);
                let (pages, _) = rf.read_batch(&mut disk, page, cap, &mut buf).unwrap();
                page += pages;
            }
            assert_eq!(starts, expect, "cap={cap}");
        }
    }

    #[test]
    fn srs_parallel_matches_sequential_on_sorted_layout() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let ds = rsky_data::synthetic::normal_dataset(3, 8, 250, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let mut disk = Disk::new_mem(128);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(768, 128).unwrap();
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let seq = run_engine(&Srs, &mut disk, &ds, &sorted.file, &q, budget);
        for t in [2, 4] {
            let par = run_engine(&ParSrs { threads: t }, &mut disk, &ds, &sorted.file, &q, budget);
            assert_eq!(par.ids, seq.ids, "t={t}");
            assert_eq!(par.stats.dist_checks, seq.stats.dist_checks, "t={t}");
        }
    }
}
