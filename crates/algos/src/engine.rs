//! The engine interface shared by all reverse-skyline algorithms.

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
use crate::qcache::{self, QueryDistCache};

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
/// `RunStats` and a worker's batch over the batch's own stats, merged into
/// the run's, so batch deltas sum to the run totals and the phase IO deltas
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

/// The run's IO so far, the reading every cost scope takes: what the body
/// gathered into `stats.io` (the parallel engines' worker scanners; zero in
/// a sequential body) plus the disk's own counters.
pub(crate) fn io_now(stats: &RunStats, disk: &Disk) -> IoCounts {
    let mut io = stats.io;
    io.add(disk.io_stats());
    io
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
    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun>;
}

/// Looks up an engine by its CLI/bench name (`naive | brs | srs | trs |
/// trs-bf | tsrs | ttrs`), parallelized across `threads` worker threads when
/// `threads > 1` (the tiled variants share engines with their flat twins —
/// the layout, not the algorithm, differs). `naive` and `trs-bf` have no
/// parallel variant and always run sequentially (the best-first queue is a
/// global traversal order, not a batch partition).
pub fn engine_by_name(
    name: &str,
    schema: &Schema,
    threads: usize,
) -> Result<Box<dyn ReverseSkylineAlgo>> {
    use crate::par::{ParBrs, ParSrs, ParTrs};
    use crate::{Brs, Naive, Srs, Trs, TrsBf};
    let t = threads.max(1);
    Ok(match name {
        "naive" => Box::new(Naive),
        "brs" if t > 1 => Box::new(ParBrs { threads: t }),
        "brs" => Box::new(Brs),
        "srs" | "tsrs" if t > 1 => Box::new(ParSrs { threads: t }),
        "srs" | "tsrs" => Box::new(Srs),
        "trs" | "ttrs" if t > 1 => Box::new(ParTrs::for_schema(schema, t)),
        "trs" | "ttrs" => Box::new(Trs::for_schema(schema)),
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

/// Shared run scaffolding of every engine, sequential or parallel:
/// snapshots the disk's IO counters, builds the query cache, executes
/// `body`, then fills the totals and result size. The run's IO is whatever
/// `body` gathered into `stats.io` (the parallel engines add their worker
/// scanners' reads there; a sequential body leaves it zero) plus the disk's
/// delta over the run — the same sum [`io_now`] reads. `prefix` names the
/// engine in span names (`{prefix}.run`, `{prefix}.phase1.batch`, …); the
/// run span is a [`RunObs::run_scope`], so it closes with the final
/// `RunStats` totals. The recorder handle is captured here, on the calling
/// thread, and shared with workers through [`RunObs`], so batch spans from
/// worker threads land in the same sink a scoped test recorder installed.
///
/// The query cache is built here — and its `Σ cardinality_i` evaluations
/// charged to this run — unless the request installed a
/// [`crate::qcache::SharedQueryCache`] for the same query, in which case
/// the run borrows it and charges nothing (the cache's owner accounted the
/// build once). The [`PrunerKernel`] is built here too, once per run: the
/// domain alone decides whether the kernels read flattened tables or the
/// [`DissimTable`].
pub(crate) fn run_with_scaffolding(
    ctx: &mut EngineCtx<'_>,
    query: &Query,
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
    let shared = qcache::shared_for(query);
    let owned;
    let cache: &QueryDistCache = match shared.as_deref() {
        Some(s) => s.cache(),
        None => {
            owned = QueryDistCache::new(ctx.dissim, ctx.schema, query);
            &owned
        }
    };
    let build_checks = if shared.is_some() { 0 } else { cache.build_checks };
    if shared.is_none() {
        robs.handle.counter_add(obs::names::QCACHE_BUILD_CHECKS, cache.build_checks);
    }
    let mut stats = RunStats { query_dist_checks: build_checks, ..Default::default() };
    let mut ids = body(ctx, cache, &mut stats, &robs, &kern)?;
    ids.sort_unstable();
    stats.io.add(ctx.disk.io_stats().delta_since(io_before));
    stats.result_size = ids.len();
    stats.total_time = run.close_run(&stats);
    Ok(RsRun { ids, stats })
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
