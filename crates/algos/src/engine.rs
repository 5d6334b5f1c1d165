//! The engine interface shared by all reverse-skyline algorithms, and the
//! scaffolding every engine's run shares: one run scope, one query cache
//! (the run's own, or the one its caller passes), one pruner kernel, and
//! one batch loop per phase over the run's one disk (`run_batches`).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rsky_core::cancel::{self, CancelToken};
use rsky_core::dissim::DissimTable;
use rsky_core::error::Result;
use rsky_core::obs::{self, ObsHandle, Span, TraceContext};
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::{RecordId, ValueId};
use rsky_core::schema::Schema;
use rsky_core::stats::{IoCounts, RunStats};
use rsky_storage::{Disk, MemoryBudget, RecordFile};

use crate::kernels::PrunerKernel;
use crate::qcache::QueryDistCache;

/// Per-run observability context: the recorder handle and cancellation
/// token captured once at run start (on the calling thread, where scoped
/// installations are visible) plus the engine's span-name prefix. Shared by
/// reference with worker threads, so parallel batches record through the
/// same sink — and poll the same token — as sequential ones.
pub(crate) struct RunObs<'a> {
    handle: ObsHandle,
    cancel: CancelToken,
    prefix: &'a str,
}

impl<'a> RunObs<'a> {
    /// Captures the recorder and cancel token in effect on the current
    /// thread.
    pub fn capture(prefix: &'a str) -> Self {
        Self { handle: obs::handle(), cancel: cancel::current(), prefix }
    }

    /// Errors with `Error::Cancelled` once the run's token has fired.
    /// Engines call this at batch boundaries — one atomic load per batch
    /// when no deadline is set, so the uncancellable path stays free.
    #[inline]
    pub fn check_cancelled(&self) -> Result<()> {
        self.cancel.check()
    }

    /// Opens the span `{prefix}.{what}` (inert when no recorder is active)
    /// as a [`CostScope`] over the counters of `stats` and the IO reading
    /// `io`.
    pub fn scope(&self, what: &str, stats: &RunStats, io: IoCounts) -> CostScope {
        let span = self.handle.span(self.prefix, what);
        CostScope { span, start: Instant::now(), counters: counters(stats), io }
    }

    /// Opens the run span `{prefix}.run` as a [`CostScope`] over zeroed
    /// stats, so its deltas at [`CostScope::close_run`] are the run totals.
    pub fn run_scope(&self) -> CostScope {
        self.scope("run", &RunStats::default(), IoCounts::default())
    }

    /// Whether spans record anything — gates clock reads that only feed
    /// telemetry.
    pub fn enabled(&self) -> bool {
        self.handle.enabled()
    }

    /// The underlying recorder handle (for counters/histograms).
    pub fn handle(&self) -> &ObsHandle {
        &self.handle
    }
}

/// A run, phase or batch in the paper's cost units. It snapshots the
/// `RunStats` cost counters and an IO reading when opened;
/// [`CostScope::close`] attaches their deltas to the span. It is the only
/// writer of cost fields onto a span in this crate: every run, phase and
/// batch span of an engine or of the sharded executor, and every
/// `influence.query` span, is a scope. A phase scopes over the run's
/// `RunStats` and a batch over the batch's own stats, merged into the
/// run's, so batch deltas sum to the run totals and the phase IO deltas
/// tile the run IO by construction.
pub(crate) struct CostScope {
    span: Span,
    start: Instant,
    counters: [u64; 4],
    io: IoCounts,
}

/// The span field names of the `RunStats` cost counters, in the order of
/// [`counters`].
const COUNTERS: [&str; 4] =
    ["dist_checks", "query_dist_checks", "obj_comparisons", "tree_nodes_visited"];

/// The cost counters of `stats`, in the order of [`COUNTERS`].
fn counters(stats: &RunStats) -> [u64; 4] {
    [stats.dist_checks, stats.query_dist_checks, stats.obj_comparisons, stats.tree_nodes_visited]
}

impl CostScope {
    /// Attaches a field that is not a cost delta (`batch`, `records`,
    /// `survivors`, …).
    pub fn field(mut self, key: &'static str, value: u64) -> Self {
        self.span.field(key, value);
        self
    }

    /// The span's trace context, for worker threads to join via
    /// [`obs::with_parent`].
    pub fn ctx(&self) -> Option<TraceContext> {
        self.span.ctx()
    }

    /// Closes the span with the delta of each cost counter since the scope
    /// opened and the four IO fields of `io` minus the opening reading;
    /// returns the wall time since it opened (the engine's
    /// `phase{1,2}_time` for a phase scope).
    pub fn close(mut self, stats: &RunStats, io: IoCounts) -> Duration {
        for ((key, now), then) in COUNTERS.into_iter().zip(counters(stats)).zip(self.counters) {
            self.span.field(key, now - then);
        }
        self.span.io_fields(io.delta_since(self.io));
        self.start.elapsed()
    }

    /// Closes a [`RunObs::run_scope`] with the run's final totals, its
    /// batch and survivor tallies and its result size; returns the run's
    /// wall time.
    pub fn close_run(self, stats: &RunStats) -> Duration {
        self.field("phase1_batches", stats.phase1_batches as u64)
            .field("phase1_survivors", stats.phase1_survivors as u64)
            .field("phase2_batches", stats.phase2_batches as u64)
            .field("result_size", stats.result_size as u64)
            .close(stats, stats.io)
    }
}

/// Outcome of a reverse-skyline run: the result ids (ascending) plus the
/// full cost profile.
#[derive(Debug, Clone)]
pub struct RsRun {
    /// Record ids of `RS_D(Q)`, sorted ascending.
    pub ids: Vec<RecordId>,
    /// Cost counters for the run.
    pub stats: RunStats,
}

/// Everything an engine needs besides the table and the query.
pub struct EngineCtx<'a> {
    /// The disk holding the table (and scratch files the engine creates).
    pub disk: &'a mut Disk,
    /// Schema of the table.
    pub schema: &'a Schema,
    /// Dissimilarity measures.
    pub dissim: &'a DissimTable,
    /// Working-memory budget (the paper's "% memory" knob).
    pub budget: MemoryBudget,
}

/// A reverse-skyline algorithm over a record file.
pub trait ReverseSkylineAlgo {
    /// Short display name ("Naive", "BRS", "SRS", "TRS", …).
    fn name(&self) -> &str;

    /// Computes `RS_D(Q)` for the records in `table`.
    ///
    /// Engines assume `table` ids are unique; physical row order is whatever
    /// the caller prepared (see [`crate::prep`]). The returned ids are sorted
    /// ascending regardless of layout.
    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        self.run_with_cache(ctx, table, query, None)
    }

    /// [`run`](Self::run) with the query-distance cache `cache`, when the
    /// caller built one for `query`: the run reads it instead of building
    /// its own and charges no `query_dist_checks` for it (its builder
    /// accounts the build once). With `None` the run builds and charges its
    /// own.
    fn run_with_cache(
        &self,
        ctx: &mut EngineCtx<'_>,
        table: &RecordFile,
        query: &Query,
        cache: Option<&QueryDistCache>,
    ) -> Result<RsRun>;
}

/// Looks up an engine by its CLI/bench name (`naive | brs | srs | trs |
/// trs-bf | tsrs | ttrs`). BRS, SRS and TRS walk their batches on `threads`
/// workers over the run's one disk (the tiled variants share engines with
/// their flat twins — the layout, not the algorithm, differs). `naive` and
/// `trs-bf` always run on one thread (the best-first queue is a global
/// traversal order, not a batch partition).
pub fn engine_by_name(
    name: &str,
    schema: &Schema,
    threads: usize,
) -> Result<Box<dyn ReverseSkylineAlgo>> {
    use crate::{Brs, Naive, Srs, Trs, TrsBf};
    let threads = threads.max(1);
    Ok(match name {
        "naive" => Box::new(Naive),
        "brs" => Box::new(Brs { threads }),
        "srs" | "tsrs" => Box::new(Srs { threads }),
        "trs" | "ttrs" => Box::new(Trs::for_schema(schema).with_threads(threads)),
        "trs-bf" => Box::new(TrsBf::for_schema(schema)),
        other => {
            return Err(rsky_core::error::Error::InvalidConfig(format!(
                "unknown engine {other:?} (naive|brs|srs|trs|trs-bf|tsrs|ttrs)"
            )))
        }
    })
}

/// One pruning check using the query-distance cache: does `y` prune the
/// center `x` (`y ≻_x q`)? Counts one data-data distance evaluation per
/// attribute compared.
#[inline]
pub fn prunes_cached(
    dt: &DissimTable,
    subset: &AttrSubset,
    y: &[ValueId],
    x: &[ValueId],
    cache: &QueryDistCache,
    checks: &mut u64,
) -> bool {
    let mut strict = false;
    for &i in subset.indices() {
        *checks += 1;
        let dyx = dt.d(i, y[i], x[i]);
        let dqx = cache.d(i, x[i]);
        if dyx > dqx {
            return false;
        }
        if dyx < dqx {
            strict = true;
        }
    }
    strict
}

/// Validates that table, schema and query agree before a run.
pub(crate) fn validate_inputs(
    ctx: &EngineCtx<'_>,
    table: &RecordFile,
    query: &Query,
) -> Result<()> {
    use rsky_core::error::Error;
    let m = ctx.schema.num_attrs();
    if table.num_attrs() != m {
        return Err(Error::SchemaMismatch(format!(
            "table rows have {} attributes, schema has {m}",
            table.num_attrs()
        )));
    }
    if query.subset.schema_attrs() != m {
        return Err(Error::SchemaMismatch(format!(
            "query subset is over {} attributes, schema has {m}",
            query.subset.schema_attrs()
        )));
    }
    ctx.schema.validate_values(&query.values)?;
    if ctx.dissim.num_attrs() != m {
        return Err(Error::SchemaMismatch(format!(
            "{} dissimilarity measures for {m} attributes",
            ctx.dissim.num_attrs()
        )));
    }
    Ok(())
}

/// Shared run scaffolding of every engine: snapshots the disk's IO
/// counters, builds the query cache, executes `body`, then fills the totals
/// and result size. Every page an engine touches goes through `ctx.disk`,
/// so the run's IO is the disk's delta over the run. `prefix` names the
/// engine in span names (`{prefix}.run`, `{prefix}.phase1.batch`, …); the
/// run span is a [`RunObs::run_scope`], so it closes with the final
/// `RunStats` totals. The recorder handle is captured here, on the calling
/// thread, and shared with workers through [`RunObs`], so batch spans from
/// worker threads land in the same sink a scoped test recorder installed.
///
/// The query cache is `cache` when the caller passes one, which charges
/// nothing to this run (the caller accounted the build once); otherwise it
/// is built here, and its `Σ cardinality_i` evaluations are charged to this
/// run. The [`PrunerKernel`] is built here too, once per run: the domain
/// alone decides whether the kernels read flattened tables or the
/// [`DissimTable`].
pub(crate) fn run_with_scaffolding(
    ctx: &mut EngineCtx<'_>,
    query: &Query,
    cache: Option<&QueryDistCache>,
    prefix: &str,
    body: impl FnOnce(
        &mut EngineCtx<'_>,
        &QueryDistCache,
        &mut RunStats,
        &RunObs<'_>,
        &PrunerKernel,
    ) -> Result<Vec<RecordId>>,
) -> Result<RsRun> {
    let robs = RunObs::capture(prefix);
    let io_before = ctx.disk.io_stats();
    let run = robs.run_scope();
    let kern = PrunerKernel::new(ctx.schema, ctx.dissim);
    let owned;
    let (cache, build_checks) = match cache {
        Some(cache) => (cache, 0),
        None => {
            owned = QueryDistCache::new(ctx.dissim, ctx.schema, query);
            robs.handle.counter_add(obs::names::QCACHE_BUILD_CHECKS, owned.build_checks);
            (&owned, owned.build_checks)
        }
    };
    let mut stats = RunStats { query_dist_checks: build_checks, ..Default::default() };
    let mut ids = body(ctx, cache, &mut stats, &robs, &kern)?;
    ids.sort_unstable();
    stats.io = ctx.disk.io_stats().delta_since(io_before);
    stats.result_size = ids.len();
    stats.total_time = run.close_run(&stats);
    Ok(RsRun { ids, stats })
}

/// The run's one disk head, shared by the workers of a batch phase, with
/// the phase's position in the file it batches.
struct Head<'d> {
    disk: &'d mut Disk,
    /// First page of the next batch to load.
    page: u64,
    /// Batches claimed so far; the next claim gets this index.
    claimed: usize,
    /// Set when a worker returned an error, so the others claim nothing
    /// more.
    stop: bool,
}

/// A phase's lock on the run's disk. With more than one worker and a
/// recorder on, every wait for it lands in `par.batch.wait_us`.
struct SharedHead<'d> {
    head: Mutex<Head<'d>>,
    wait: Option<ObsHandle>,
}

impl<'d> SharedHead<'d> {
    fn lock(&self) -> MutexGuard<'_, Head<'d>> {
        let t0 = self.wait.is_some().then(Instant::now);
        let head = self.head.lock().expect("a batch worker panicked holding the run's disk");
        if let (Some(obs), Some(t0)) = (&self.wait, t0) {
            obs.histogram_record(obs::names::PAR_BATCH_WAIT_US, t0.elapsed().as_micros() as u64);
        }
        head
    }
}

/// A batch's access to the run's disk: each call takes the disk's lock for
/// one operation and charges the IO it cost to the batch.
pub(crate) struct BatchDisk<'a, 'd> {
    shared: &'a SharedHead<'d>,
    io: IoCounts,
}

impl BatchDisk<'_, '_> {
    /// Runs `op` on the run's disk under its lock.
    pub fn with<T>(&mut self, op: impl FnOnce(&mut Disk) -> Result<T>) -> Result<T> {
        let mut head = self.shared.lock();
        let before = head.disk.io_stats();
        let out = op(head.disk);
        self.io.add(head.disk.io_stats().delta_since(before));
        out
    }
}

/// Batch outputs waiting for every earlier batch to commit.
struct Commits<O, C> {
    next: usize,
    pending: BTreeMap<usize, O>,
    commit: C,
}

/// One phase of BRS, SRS or TRS over a file of `pages` pages, on up to
/// `threads` workers; returns the number of batches. Each worker loops:
///
/// 1. under the disk's lock, claim the next batch, open its
///    `{prefix}.{span}` scope and `load` it, which reads from the page
///    cursor, advances it past the batch and returns its record count;
/// 2. `walk` the batch with stats of its own, reading further pages (phase
///    two's scan of the database) through the [`BatchDisk`];
/// 3. hand the output to `commit` in batch order: a batch that finishes
///    before an earlier one waits in memory, and the worker that completes
///    the run of finished batches commits all of them (write-area appends
///    go through the disk);
/// 4. close the batch scope with its counters and the IO it loaded, read
///    and committed.
///
/// With one worker this runs on the calling thread and is the paper's
/// single-head engine page for page: load, walk, commit, next. With more,
/// batch composition, every counter and the pages touched are the same,
/// because the cursor advances as one worker's would and commits keep
/// batch order; only the interleaving on the shared head, and with it the
/// sequential/random split, depends on the schedule. Workers join the
/// trace of the span open on the calling thread (the phase scope).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batches<W, O: Send>(
    disk: &mut Disk,
    robs: &RunObs<'_>,
    threads: usize,
    span: &str,
    pages: u64,
    stats: &mut RunStats,
    worker: impl Fn() -> W + Sync,
    load: impl Fn(&mut Disk, &mut u64, &mut W) -> Result<usize> + Sync,
    walk: impl Fn(&mut W, &mut BatchDisk<'_, '_>, &mut RunStats) -> Result<O> + Sync,
    commit: impl FnMut(&mut Disk, O) -> Result<()> + Send,
) -> Result<usize> {
    // A batch holds at least one page, so more workers would idle.
    let workers = (threads as u64).min(pages).max(1) as usize;
    let shared = SharedHead {
        head: Mutex::new(Head { disk, page: 0, claimed: 0, stop: false }),
        wait: (workers > 1 && robs.enabled()).then(|| robs.handle().clone()),
    };
    let commits = Mutex::new(Commits { next: 0, pending: BTreeMap::new(), commit });
    let batches = || -> Result<RunStats> {
        let mut w = worker();
        let mut done = RunStats::default();
        loop {
            let (b, records, scope, mut bdisk) = {
                let mut head = shared.lock();
                let head = &mut *head;
                if head.page >= pages || head.stop {
                    return Ok(done);
                }
                robs.check_cancelled()?;
                let b = head.claimed;
                head.claimed += 1;
                let scope = robs.scope(span, &RunStats::default(), IoCounts::default());
                let before = head.disk.io_stats();
                let records = load(head.disk, &mut head.page, &mut w)?;
                let io = head.disk.io_stats().delta_since(before);
                (b, records, scope, BatchDisk { shared: &shared, io })
            };
            let mut bs = RunStats::default();
            let out = walk(&mut w, &mut bdisk, &mut bs)?;
            {
                let mut q = commits.lock().expect("a batch worker panicked committing");
                let q = &mut *q;
                q.pending.insert(b, out);
                while let Some(out) = q.pending.remove(&q.next) {
                    bdisk.with(|disk| (q.commit)(disk, out))?;
                    q.next += 1;
                }
            }
            scope.field("batch", b as u64).field("records", records as u64).close(&bs, bdisk.io);
            done.merge(&bs);
        }
    };
    let per_worker = if workers == 1 {
        vec![batches()]
    } else {
        let parent = obs::current_parent();
        let run_worker = || {
            let r = obs::with_parent(parent, batches);
            if r.is_err() {
                shared.lock().stop = true;
            }
            r
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect::<Vec<_>>()
        })
    };
    for done in per_worker {
        stats.merge(&done?);
    }
    Ok(shared.head.into_inner().expect("workers joined without a panic").claimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_data::paper_example;

    #[test]
    fn engines_reject_mismatched_inputs() {
        use crate::prep::load_dataset;
        use crate::{Brs, Naive, ReverseSkylineAlgo, Srs, Trs};
        let (ds, _) = paper_example();
        let mut disk = Disk::new_mem(64);
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        // A query from a different (wider) schema.
        let other = rsky_core::schema::Schema::with_cardinalities(&[3, 2, 3, 4]).unwrap();
        let bad = Query::new(&other, vec![0, 0, 0, 0]).unwrap();
        let trs = Trs::for_schema(&ds.schema);
        let engines: [&dyn ReverseSkylineAlgo; 4] = [&Naive, &Brs, &Srs, &trs];
        for e in engines {
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            assert!(e.run(&mut ctx, &table, &bad).is_err(), "{} accepted a bad query", e.name());
        }
        // A table of the wrong width.
        let narrow = RecordFile::create(&mut disk, 2).unwrap();
        let (_, good) = paper_example();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        assert!(Brs.run(&mut ctx, &narrow, &good).is_err());
    }

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
        use crate::prep::{load_dataset, prepare_table, Layout};
        use crate::{Brs, Srs, Trs};
        let (ds, q) = paper_example();
        let mut disk = Disk::new_mem(16); // 1 object/page, the walkthrough setup
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        for t in [1, 2, 7] {
            let brs = run_engine(&Brs { threads: t }, &mut disk, &ds, &raw, &q, budget);
            assert_eq!(brs.ids, vec![3, 6], "BRS t={t}");
            let srs = run_engine(&Srs { threads: t }, &mut disk, &ds, &sorted.file, &q, budget);
            assert_eq!(srs.ids, vec![3, 6], "SRS t={t}");
            let trs = Trs::for_schema(&ds.schema).with_threads(t);
            let trs = run_engine(&trs, &mut disk, &ds, &sorted.file, &q, budget);
            assert_eq!(trs.ids, vec![3, 6], "TRS t={t}");
        }
    }

    #[test]
    fn parallel_brs_matches_sequential_counters() {
        // Same batch composition ⇒ identical dist_checks/obj_comparisons,
        // not just identical ids.
        use crate::prep::load_dataset;
        use crate::Brs;
        let (ds, q) = paper_example();
        let mut disk = Disk::new_mem(16);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        let seq = run_engine(&Brs, &mut disk, &ds, &raw, &q, budget);
        for t in [1, 2, 7] {
            let par = run_engine(&Brs { threads: t }, &mut disk, &ds, &raw, &q, budget);
            assert_eq!(par.ids, seq.ids);
            assert_eq!(par.stats.dist_checks, seq.stats.dist_checks, "t={t}");
            assert_eq!(par.stats.obj_comparisons, seq.stats.obj_comparisons, "t={t}");
            assert_eq!(par.stats.phase1_batches, seq.stats.phase1_batches, "t={t}");
            assert_eq!(par.stats.phase1_survivors, seq.stats.phase1_survivors, "t={t}");
            assert_eq!(par.stats.phase2_batches, seq.stats.phase2_batches, "t={t}");
            assert_eq!(par.stats.io.total(), seq.stats.io.total(), "t={t}");
        }
    }

    #[test]
    fn srs_parallel_matches_sequential_on_sorted_layout() {
        use crate::prep::{load_dataset, prepare_table, Layout};
        use crate::Srs;
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
            let par = run_engine(&Srs { threads: t }, &mut disk, &ds, &sorted.file, &q, budget);
            assert_eq!(par.ids, seq.ids, "t={t}");
            assert_eq!(par.stats.dist_checks, seq.stats.dist_checks, "t={t}");
        }
    }

    /// A disk holding one record file of `pages` one-record pages.
    fn one_record_pages(pages: u32) -> (Disk, RecordFile) {
        let mut disk = Disk::new_mem(16);
        let mut rows = rsky_core::record::RowBuf::new(3);
        for i in 0..pages {
            rows.push(i, &[0, 0, 0]);
        }
        let mut file = RecordFile::create(&mut disk, 3).unwrap();
        file.write_all(&mut disk, &rows).unwrap();
        (disk, file)
    }

    #[test]
    fn commits_keep_batch_order_when_a_later_batch_finishes_first() {
        // Batch 0's walk waits until batch 1's walk has finished, so batch 1
        // must wait in memory and commit after batch 0.
        let (mut disk, file) = one_record_pages(5);
        let pages = file.num_pages(&disk);
        let (walked_1, wait_for_1) = std::sync::mpsc::channel();
        let wait_for_1 = Mutex::new(wait_for_1);
        let mut committed = Vec::new();
        let mut stats = RunStats::default();
        let batches = run_batches(
            &mut disk,
            &RunObs::capture("test"),
            2,
            "phase1.batch",
            pages,
            &mut stats,
            || 0u64,
            |_, page, batch| {
                *batch = *page;
                *page += 1;
                Ok(1)
            },
            |batch, _, _| {
                match *batch {
                    0 => wait_for_1.lock().unwrap().recv().unwrap(),
                    1 => walked_1.send(()).unwrap(),
                    _ => {}
                }
                Ok(*batch)
            },
            |_, batch| {
                committed.push(batch);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(batches as u64, pages);
        assert_eq!(committed, (0..pages).collect::<Vec<_>>());
    }

    #[test]
    fn a_failing_batch_fails_the_phase_on_every_thread_count() {
        for threads in [1, 2, 4] {
            let (mut disk, file) = one_record_pages(6);
            let pages = file.num_pages(&disk);
            let err = run_batches(
                &mut disk,
                &RunObs::capture("test"),
                threads,
                "phase1.batch",
                pages,
                &mut RunStats::default(),
                || 0u64,
                |_, page, batch| {
                    *batch = *page;
                    *page += 1;
                    Ok(1)
                },
                |batch, _, _| match *batch {
                    2 => Err(rsky_core::error::Error::Corrupt("batch 2".into())),
                    b => Ok(b),
                },
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert!(err.to_string().contains("batch 2"), "threads={threads}: {err}");
        }
    }

    /// Every cost of a run but its times and `query_dist_checks`.
    fn costs(s: &RunStats) -> (u64, u64, u64, IoCounts, [usize; 4]) {
        let tallies = [s.phase1_survivors, s.phase1_batches, s.phase2_batches, s.result_size];
        (s.dist_checks, s.obj_comparisons, s.tree_nodes_visited, s.io, tallies)
    }

    #[test]
    fn a_run_given_the_request_cache_costs_the_same_and_builds_none() {
        use crate::prep::{Layout, SortedTable};
        use crate::{Brs, Srs, Trs};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rsky_core::obs::MemorySink;
        let mut rng = StdRng::seed_from_u64(93);
        let ds = rsky_data::synthetic::normal_dataset(3, 8, 250, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let budget = MemoryBudget::from_bytes(768, 128).unwrap();
        let sorted = SortedTable::new(&ds.schema, &ds.rows);
        let request = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        let trs = Trs::for_schema(&ds.schema);
        let engines: [(&dyn ReverseSkylineAlgo, Layout); 3] =
            [(&Brs, Layout::Original), (&Srs, Layout::MultiSort), (&trs, Layout::MultiSort)];
        for (e, layout) in engines {
            let image = sorted.image(&ds.schema, &ds.rows, &layout, &budget).unwrap();
            // A recorded run on a fresh mount of the image, with the
            // build checks the recorder counted.
            let run = |cache: Option<&QueryDistCache>| {
                let sink = MemorySink::new();
                let mut disk = Disk::new_mem(image.page_size());
                let table = image.mount(&mut disk).unwrap();
                let (schema, dissim) = (&ds.schema, &ds.dissim);
                let mut ctx = EngineCtx { disk: &mut disk, schema, dissim, budget };
                let run = obs::with_recorder(sink.handle(), || {
                    e.run_with_cache(&mut ctx, &table, &q, cache).unwrap()
                });
                (run, sink.registry().counter(obs::names::QCACHE_BUILD_CHECKS))
            };
            let (own, own_builds) = run(None);
            let (given, given_builds) = run(Some(&request));
            let name = e.name();
            assert_eq!(given.ids, own.ids, "{name}");
            assert_eq!(costs(&given.stats), costs(&own.stats), "{name}");
            let built = request.build_checks;
            assert_eq!((own.stats.query_dist_checks, own_builds), (built, built), "{name}");
            assert_eq!((given.stats.query_dist_checks, given_builds), (0, 0), "{name}");
        }
    }

    #[test]
    fn prunes_cached_agrees_with_core_predicate() {
        let (d, q) = paper_example();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &q);
        for xi in 0..d.rows.len() {
            for yi in 0..d.rows.len() {
                let (mut c1, mut c2) = (0u64, 0u64);
                let direct = rsky_core::dominate::prunes(
                    &d.dissim,
                    &q.subset,
                    d.rows.values(yi),
                    d.rows.values(xi),
                    &q.values,
                    &mut c1,
                );
                let cached = prunes_cached(
                    &d.dissim,
                    &q.subset,
                    d.rows.values(yi),
                    d.rows.values(xi),
                    &cache,
                    &mut c2,
                );
                assert_eq!(direct, cached);
            }
        }
    }
}
