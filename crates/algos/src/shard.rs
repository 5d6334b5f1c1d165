//! Sharded scatter-gather execution of reverse-skyline queries.
//!
//! The reverse skyline is a **global** predicate — `X ∈ RS_D(Q)` iff no
//! pruner of `X` exists anywhere in `D` — so per-shard results cannot simply
//! be unioned. What *is* true is one-directional: a pruner found in any
//! subset of `D` is a pruner in `D`, so a shard-local **non**-member is a
//! global non-member. Each shard's local reverse skyline is therefore a
//! sound *candidate set*, and global exactness only needs a second pass that
//! hunts for cross-shard pruners:
//!
//! 1. **Scatter** — every shard runs the chosen engine (BRS/SRS/TRS,
//!    sequential or parallel) over its own partition in parallel, producing
//!    local candidate survivors;
//! 2. **Exchange** — each shard exports its strongest pruners (its local
//!    reverse-skyline band, capped at a configurable budget), the
//!    coordinator merges and broadcasts the combined band, and every shard
//!    runs a pre-verification *kill pass* over its candidates against the
//!    merged band through the batched dominance kernels
//!    ([`CandidateBlocks`]). Only survivors of the global band reach full
//!    verification;
//! 3. **Gather** — every surviving candidate is verified against all
//!    *foreign* shards' window pages (each part's kept Original page image,
//!    scanned page-wise on a head of its own, with per-scanner IO
//!    accounting); a candidate pruned by any foreign record drops out.
//!
//! ## One table-image path
//!
//! Each shard part is a [`SortedTable`], the type every long-lived table is
//! held as: sorted once, kept in the multi-sort order through writes, and
//! encoded into one page image per layout on first use. A local run mounts
//! its part's image on a fresh scratch disk and drops the disk, with the
//! engine's scratch files, when the run ends; verification scans the
//! Original images as they are kept, mounting nothing. So [`ShardedTables`]
//! holds no disk, [`ShardedTables::run_query`] takes `&self`, and one set of
//! tables serves any number of concurrent queries. A write
//! ([`ShardedTables::insert`], [`ShardedTables::expire`]) returns the next
//! version, which rebuilds only the parts it touches; every other part,
//! with the images it already encoded, is shared between the versions.
//!
//! Local pruners were already handled by phase 1, so phase 2 only scans
//! foreign shards. Exact duplicates split across shards are found here: a
//! duplicate `Y` of candidate `X` has `d(y_i, x_i) = 0 ≤ d(q_i, x_i)` on
//! every attribute, so `Y` prunes `X` unless `X` ties `Q` everywhere —
//! identical to the single-node duplicate semantics.
//!
//! ## Why the exchange is safe
//!
//! Killing against the merged band can never drop a true reverse-skyline
//! member. The band is a subset `P ⊆ D`, and the kill pass excludes a
//! candidate's own id, so a kill means some *other* record of `D` prunes
//! the candidate — by definition the candidate is not in `RS_D(Q)`, under
//! any budget and any selection rule. The converse needs no care either: a
//! band member that is itself killed still prunes (it remains a real record
//! of `D`), so one pass suffices — no fixpoint iteration. Completeness is
//! phase 2's job exactly as before; the exchange only shrinks its input.
//! Why it shrinks it so much: a ballooned candidate is typically a record
//! whose exact duplicates (or other near-query twins) live in *other*
//! shards — each copy is locally unprunable, so each copy is a candidate,
//! and the copies are precisely the foreign pruners that kill each other.
//! The candidate bands therefore double as the effective kill band.
//!
//! ## Determinism
//!
//! Shard composition is a deterministic function of the input
//! ([`rsky_storage::shard`]); each shard's phase-1 run is the engine's own
//! deterministic execution over a smaller table; phase-2 verification scans
//! foreign shards in ascending shard order, pages in ascending order,
//! candidates in ascending id order. Per-shard stats are merged **in shard
//! order** via [`RunStats::merge`], so the merged counters — not just the
//! result ids — are identical from run to run for any thread interleaving.
//! With one shard the gather phase is empty and the run is the single-node
//! run, counters included.
//!
//! ## Observability
//!
//! A run emits `shard.*` spans (prefix [`rsky_core::obs::names::SHARD`]),
//! and every one is a cost scope, as an engine's run, phase and batch spans
//! are, so it carries its own deltas of every `RunStats` cost counter and
//! IO field: a `shard.run` root closing with the merged totals; a
//! `shard.plan` holding the one query-cache build, which every shard's
//! engine run receives as an argument; the phase spans
//! `shard.phase1`, `shard.exchange` (only when the exchange runs) and
//! `shard.phase2`; and per shard one `shard.phase1.local` (the local run),
//! one `shard.exchange.kill` (the kill pass) and one `shard.phase2.verify`
//! (the verification), under which each window scan's `storage.scanner`
//! span records on the run's recorder. The plan and per-shard deltas tile
//! the merged `RunStats` exactly, as tests/obs_contract.rs checks. The
//! exchange also exports `shard.exchange.pruners` and
//! `shard.phase2.candidates.{pre,post}` counters through the metrics
//! registry.

use std::sync::Arc;
use std::time::Duration;

use rsky_core::cancel;
use rsky_core::dataset::Dataset;
use rsky_core::dissim::DissimTable;
use rsky_core::error::{Error, Result};
use rsky_core::obs::{self, names};
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::{row, RecordId, RowBuf};
use rsky_core::schema::Schema;
use rsky_core::stats::{IoCounts, RunStats};
use rsky_storage::{partition_rows, ColumnarBatch, Disk, MemoryBudget, ShardSpec, SharedRecords};

use crate::engine::{engine_by_name, EngineCtx, RsRun, RunObs};
use crate::influence::{self, InfluenceReport};
use crate::kernels::{CandidateBlocks, DistSource, PrunerKernel};
use crate::prep::{copies_of, with_row_at, without_rows, Layout, SortedTable};
use crate::qcache::QueryDistCache;

/// Default per-shard pruner-export budget for the exchange round. Generous
/// relative to typical local candidate bands (tens of records per shard even
/// at 100 k objects), so truncation is the exception; `0` disables the
/// exchange entirely (the pre-exchange executor).
pub const DEFAULT_PRUNER_BUDGET: usize = 256;

/// The physical layout an engine expects, given the serving-layer `tiles`
/// knob (shared by the worker state and the sharded executor).
pub fn layout_for(engine_name: &str, tiles: u32) -> Result<Layout> {
    match engine_name {
        "naive" | "brs" => Ok(Layout::Original),
        "srs" | "trs" | "trs-bf" => Ok(Layout::MultiSort),
        "tsrs" | "ttrs" => Ok(Layout::Tiled { tiles_per_attr: tiles }),
        other => Err(Error::InvalidConfig(format!(
            "unknown engine {other:?} (naive|brs|srs|trs|trs-bf|tsrs|ttrs)"
        ))),
    }
}

/// One shard's part: its rows in partition (generation) order, their id
/// index, and its [`SortedTable`] with the page images. A part never
/// changes: a write that touches it builds the next version, and every
/// [`ShardedTables`] holding this one keeps sharing it, images included.
struct Part {
    rows: RowBuf,
    /// `(id, row)` for every row, sorted: the exchange and the
    /// verification look their candidates up by id.
    by_id: Vec<(RecordId, u32)>,
    table: SortedTable,
}

impl Part {
    fn new(rows: RowBuf, table: SortedTable) -> Arc<Self> {
        let mut by_id: Vec<(RecordId, u32)> =
            (0..rows.len()).map(|ri| (rows.id(ri), ri as u32)).collect();
        by_id.sort_unstable();
        Arc::new(Self { rows, by_id, table })
    }

    /// Values of the last row holding `id`.
    ///
    /// # Panics
    /// Panics if no row of the shard holds `id`.
    fn values_of(&self, id: RecordId) -> &[u32] {
        let at = self.by_id.partition_point(|&(i, _)| i <= id);
        assert!(at > 0 && self.by_id[at - 1].0 == id, "candidate id belongs to this shard");
        self.rows.values(self.by_id[at - 1].1 as usize)
    }
}

/// Per-shard cost breakdown of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardCost {
    /// Shard index.
    pub shard: usize,
    /// Records in the shard.
    pub records: usize,
    /// Local candidates the shard's phase-1 engine run produced.
    pub candidates: usize,
    /// Pruners this shard exported to the exchange round (0 when the
    /// exchange is disabled or the run has a single shard).
    pub exported: usize,
    /// Candidates still alive after the exchange kill pass — what
    /// cross-shard verification actually scans for. Equals
    /// [`candidates`](Self::candidates) when the exchange is off.
    pub post_exchange: usize,
    /// Candidates that survived cross-shard verification.
    pub survivors: usize,
    /// The local engine run's stats.
    pub local: RunStats,
    /// The exchange kill pass's stats (checks against the merged band;
    /// zero when the exchange is off).
    pub exchange: RunStats,
    /// The verification pass's stats (checks against foreign windows).
    pub verify: RunStats,
}

/// Outcome of a sharded reverse-skyline run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Record ids of `RS_D(Q)`, sorted ascending — identical to the
    /// single-node result for every engine, shard count and policy
    /// (enforced by tests/shard_differential.rs).
    pub ids: Vec<RecordId>,
    /// Merged cost profile: the coordinator's plan step plus per-shard local
    /// and verify stats folded in shard order via [`RunStats::merge`]; the
    /// time fields are overwritten with coordinator wall clock and
    /// `result_size` with the final cardinality.
    pub stats: RunStats,
    /// The coordinator's planning cost: the one query-distance cache build
    /// shared by every shard (`query_dist_checks` only). Folded into
    /// [`stats`](Self::stats) ahead of the per-shard entries.
    pub plan: RunStats,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardCost>,
    /// Total phase-1 candidates (`Σ candidates`) — the pre-exchange count.
    pub candidates: usize,
    /// Pruners in the merged band the exchange round broadcast (0 when the
    /// exchange is off or the run has a single shard).
    pub pruners: usize,
    /// Candidates that survived the exchange kill pass and entered
    /// cross-shard verification (`Σ post_exchange`); equals
    /// [`candidates`](Self::candidates) when the exchange is off.
    pub post_candidates: usize,
}

/// A dataset partitioned across K shard nodes, ready for scatter-gather
/// queries. Each shard is one part of the partition (see
/// [`rsky_storage::shard`]) held as a [`SortedTable`]: a query mounts the
/// part's page image on a scratch disk of its own, so one set of tables
/// serves any number of concurrent queries, and no disk outlives a run.
/// [`insert`](Self::insert) and [`expire`](Self::expire) return the next
/// version, which rebuilds only the parts the write touches.
#[derive(Clone)]
pub struct ShardedTables {
    spec: ShardSpec,
    schema: Arc<Schema>,
    dissim: Arc<DissimTable>,
    mem_pct: f64,
    page_size: usize,
    tiles: u32,
    pruner_budget: usize,
    parts: Vec<Arc<Part>>,
}

impl ShardedTables {
    /// Partitions `dataset` according to `spec` and sorts each part. Every
    /// shard gets the same working-memory budget the single-node run would
    /// get (`mem_pct` % of the *full* dataset) — sharding models extra
    /// nodes, not less RAM.
    pub fn new(
        dataset: &Dataset,
        spec: ShardSpec,
        mem_pct: f64,
        page_size: usize,
        tiles: u32,
    ) -> Result<Self> {
        // A memory knob or page size no run could use fails here, not at
        // the first query.
        MemoryBudget::from_percent(dataset.data_bytes(), mem_pct, page_size)?;
        let parts = partition_rows(&dataset.rows, &spec)
            .into_iter()
            .map(|rows| {
                let table = SortedTable::new(&dataset.schema, &rows);
                Part::new(rows, table)
            })
            .collect();
        Ok(Self {
            spec,
            schema: Arc::new(dataset.schema.clone()),
            dissim: Arc::new(dataset.dissim.clone()),
            mem_pct,
            page_size,
            tiles,
            pruner_budget: DEFAULT_PRUNER_BUDGET,
            parts,
        })
    }

    /// Sets the per-shard pruner-export budget for the exchange round
    /// ([`DEFAULT_PRUNER_BUDGET`] unless overridden; `0` disables the
    /// exchange). Any budget returns the same ids — the kill pass is sound
    /// for every band subset — so this is purely a cost knob.
    pub fn with_pruner_budget(mut self, budget: usize) -> Self {
        self.pruner_budget = budget;
        self
    }

    /// The per-shard pruner-export budget (0 = exchange disabled).
    pub fn pruner_budget(&self) -> usize {
        self.pruner_budget
    }

    /// The shard configuration.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.parts.len()
    }

    /// Records held by shard `i`.
    pub fn shard_len(&self, i: usize) -> usize {
        self.parts[i].rows.len()
    }

    /// Every shard's rows in partition order, in shard order.
    pub fn part_rows(&self) -> impl Iterator<Item = &RowBuf> {
        self.parts.iter().map(|part| &part.rows)
    }

    /// Shard `i`'s page image of `layout` (see [`SortedTable::image`]).
    pub fn image(&self, i: usize, layout: &Layout) -> Result<SharedRecords> {
        let part = &self.parts[i];
        part.table.image(&self.schema, &part.rows, layout, &self.budget()?)
    }

    /// `rows`, the partitioned dataset's rows in generation order, with
    /// `row` (id first) appended, and these tables with `row` in the part
    /// its placement picks: round-robin places by arrival position (the
    /// row's index in `rows`), hash-by-id by the id alone. The other parts,
    /// with the images they hold, are shared.
    pub fn insert(&self, rows: &RowBuf, row: &[u32]) -> (RowBuf, Self) {
        let target = self.spec.policy.shard_of(row::id(row), rows.len(), self.parts.len());
        let mut next = self.clone();
        let part = &self.parts[target];
        let (part_rows, table) = part.table.insert(&part.rows, row);
        next.parts[target] = Part::new(part_rows, table);
        (with_row_at(rows, rows.len(), row), next)
    }

    /// `rows` and these tables without any copy of record `id`, or `None`
    /// when `rows` holds none. Only the parts holding a copy change.
    pub fn expire(&self, rows: &RowBuf, id: RecordId) -> Option<(RowBuf, Self)> {
        let copies = copies_of(rows, id)?;
        let mut next = self.clone();
        for part in &mut next.parts {
            if let Some((part_rows, table)) = part.table.expire(&part.rows, id) {
                *part = Part::new(part_rows, table);
            }
        }
        Some((without_rows(rows, &copies), next))
    }

    /// The working-memory budget of every shard: `mem_pct` % of all parts'
    /// records.
    fn budget(&self) -> Result<MemoryBudget> {
        let bytes =
            self.parts.iter().map(|part| part.rows.len() as u64 * part.rows.record_bytes() as u64);
        MemoryBudget::from_percent(bytes.sum(), self.mem_pct, self.page_size)
    }

    /// Computes `RS_D(Q)` by two-phase scatter-gather (see the module docs).
    /// `engine_name` and `engine_threads` select the per-shard engine
    /// exactly as [`engine_by_name`] does.
    pub fn run_query(
        &self,
        engine_name: &str,
        engine_threads: usize,
        query: &Query,
    ) -> Result<ShardedRun> {
        let layout = layout_for(engine_name, self.tiles)?;
        let m = self.schema.num_attrs();
        if query.subset.schema_attrs() != m {
            return Err(Error::SchemaMismatch(format!(
                "query subset is over {} attributes, schema has {m}",
                query.subset.schema_attrs()
            )));
        }
        self.schema.validate_values(&query.values)?;

        let budget = self.budget()?;
        let robs = RunObs::capture(names::SHARD);
        let handle = robs.handle().clone();
        let token = cancel::current();
        let run = robs.run_scope();
        let k = self.parts.len();

        // --- Plan: build the query-distance cache ONCE on the coordinator
        // and pass it to every shard's engine run (phase 1), kill pass and
        // verify task (phase 2). Without this, each of the k shards rebuilds
        // the same `d_i(q, v)` table, multiplying `query_dist_checks` by k.
        // The build cost is accounted here, in its own scope, so the sharded
        // stats contract still tiles exactly. The kill and verify passes
        // share one kernel, built here from the domain.
        let kern = PrunerKernel::new(&self.schema, &self.dissim);
        let mut stats = RunStats::default();
        let plan_scope = robs.scope("plan", &stats, stats.io);
        let cache = &QueryDistCache::new(&self.dissim, &self.schema, query);
        let plan = RunStats { query_dist_checks: cache.build_checks, ..Default::default() };
        robs.handle().counter_add(names::QCACHE_BUILD_CHECKS, plan.query_dist_checks);
        stats.merge(&plan);
        plan_scope.close(&stats, stats.io);

        // --- Phase one (scatter): local engine runs, one thread per shard.
        let p1 = robs.scope("phase1", &stats, stats.io);
        let p1_ctx = p1.ctx();
        let (schema, dissim) = (&*self.schema, &*self.dissim);
        let locals: Vec<Result<(Vec<RecordId>, RunStats)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|i| {
                    let (robs, handle, token, layout) = (&robs, &handle, &token, &layout);
                    s.spawn(move || {
                        // Re-install the coordinator's recorder, cancel
                        // token and span context (all thread-scoped) so the
                        // inner engine's own capture at run start sees them
                        // and its spans join this run's trace under the
                        // phase-1 span.
                        obs::with_recorder(handle.clone(), || {
                            cancel::with_token(token.clone(), || {
                                obs::with_parent(p1_ctx, || {
                                    self.local_run(
                                        i,
                                        engine_name,
                                        engine_threads,
                                        layout,
                                        budget,
                                        query,
                                        cache,
                                        robs,
                                    )
                                })
                            })
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard phase-1 panicked")).collect()
        });
        let mut candidates: Vec<Vec<RecordId>> = Vec::with_capacity(k);
        let mut per_shard: Vec<ShardCost> = Vec::with_capacity(k);
        for (i, r) in locals.into_iter().enumerate() {
            let (ids, local) = r?;
            stats.merge(&local);
            per_shard.push(ShardCost {
                shard: i,
                records: self.parts[i].rows.len(),
                candidates: ids.len(),
                exported: 0,
                post_exchange: ids.len(),
                survivors: 0,
                local,
                exchange: RunStats::default(),
                verify: RunStats::default(),
            });
            candidates.push(ids);
        }
        let total_candidates: usize = candidates.iter().map(Vec::len).sum();
        let scatter_time = p1
            .field("shards", k as u64)
            .field("candidates", total_candidates as u64)
            .close(&stats, stats.io);

        // --- Exchange: broadcast the strongest local pruners and kill
        // doomed candidates before verification pays full window scans for
        // them (see the module docs for the soundness argument). With one
        // shard there is nothing to exchange — phase 2 is empty and the run
        // must stay counter-identical to single-node — and a zero budget
        // disables the round entirely. No candidates, no round: the band
        // would be empty, so the exchange runs exactly when it broadcasts a
        // non-empty band (the obs contract keys its span clauses on this).
        let mut pruner_total = 0usize;
        let mut exchange_time = Duration::ZERO;
        if self.pruner_budget > 0 && k > 1 && total_candidates > 0 {
            let ex = robs.scope("exchange", &stats, stats.io);
            robs.check_cancelled()?;
            // Coordinator side: gather each shard's exported band (shards
            // ascending, ids ascending within a shard — a deterministic
            // band layout) and broadcast the merge.
            let mut band_rows = RowBuf::new(m);
            for (i, part) in self.parts.iter().enumerate() {
                per_shard[i].exported = select_pruners(
                    part,
                    &candidates[i],
                    cache,
                    &query.subset,
                    self.pruner_budget,
                    &mut band_rows,
                );
            }
            pruner_total = band_rows.len();
            let band = ColumnarBatch::from_rows(&band_rows);
            let ex_ctx = ex.ctx();
            let killed: Vec<Result<(Vec<RecordId>, RunStats)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..k)
                    .map(|i| {
                        let (robs, cands, band) = (&robs, &candidates[i], &band);
                        let src = kern.source(dissim);
                        let part = &*self.parts[i];
                        s.spawn(move || {
                            obs::with_parent(ex_ctx, || {
                                exchange_kill(i, cands, part, band, src, query, cache, robs)
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard exchange panicked")).collect()
            });
            for (i, r) in killed.into_iter().enumerate() {
                let (alive, ks) = r?;
                stats.merge(&ks);
                per_shard[i].post_exchange = alive.len();
                per_shard[i].exchange = ks;
                candidates[i] = alive;
            }
            let post: usize = candidates.iter().map(Vec::len).sum();
            robs.handle().counter_add(names::SHARD_EXCHANGE_PRUNERS, pruner_total as u64);
            robs.handle().counter_add(names::SHARD_PHASE2_CANDIDATES_PRE, total_candidates as u64);
            robs.handle().counter_add(names::SHARD_PHASE2_CANDIDATES_POST, post as u64);
            exchange_time = ex
                .field("shards", k as u64)
                // `band`, not `pruners`: the flattened span field must not
                // alias the explicit `shard.exchange.pruners` registry
                // counter (one series, two writers).
                .field("band", pruner_total as u64)
                .field("candidates", total_candidates as u64)
                .field("survivors", post as u64)
                .close(&stats, stats.io);
        }
        let post_candidates: usize = candidates.iter().map(Vec::len).sum();

        // --- Phase two (gather): verify candidates against foreign windows.
        let p2 = robs.scope("phase2", &stats, stats.io);
        // Every non-empty part's Original image, as the part keeps it: the
        // shard "windows" the verification scans.
        let windows: Vec<Option<SharedRecords>> = self
            .parts
            .iter()
            .map(|part| {
                if part.rows.is_empty() {
                    return Ok(None);
                }
                part.table.image(schema, &part.rows, &Layout::Original, &budget).map(Some)
            })
            .collect::<Result<_>>()?;
        let p2_ctx = p2.ctx();
        let verified: Vec<Result<(Vec<RecordId>, RunStats)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|i| {
                    let (robs, windows, cands) = (&robs, &windows, &candidates[i]);
                    let src = kern.source(dissim);
                    let part = &*self.parts[i];
                    s.spawn(move || {
                        obs::with_parent(p2_ctx, || {
                            verify_shard(i, cands, part, windows, src, query, cache, robs)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard phase-2 panicked")).collect()
        });
        let mut ids: Vec<RecordId> = Vec::new();
        for (i, r) in verified.into_iter().enumerate() {
            let (survivors, verify) = r?;
            stats.merge(&verify);
            per_shard[i].survivors = survivors.len();
            per_shard[i].verify = verify;
            ids.extend(survivors);
        }
        let verify_time = p2
            .field("shards", k as u64)
            .field("candidates", post_candidates as u64)
            .field("survivors", ids.len() as u64)
            .close(&stats, stats.io);

        ids.sort_unstable();
        // Merged durations measure total work across shards; report the
        // coordinator's wall clock instead (the RunStats::merge contract).
        // Phase 2 covers the whole gather side: exchange plus verification.
        stats.phase1_time = scatter_time;
        stats.phase2_time = exchange_time + verify_time;
        stats.result_size = ids.len();
        stats.total_time = run.close_run(&stats);
        Ok(ShardedRun {
            ids,
            stats,
            plan,
            per_shard,
            candidates: total_candidates,
            pruners: pruner_total,
            post_candidates,
        })
    }

    /// Runs an influence workload through the sharded executor: `|RS(q)|`
    /// per query with TRS on every shard, each part's images encoded once
    /// for all queries, through the one influence loop
    /// ([`influence::run_queries`]).
    pub fn run_influence(&self, queries: &[Query], keep_ids: bool) -> Result<InfluenceReport> {
        influence::run_queries(queries.iter().enumerate(), keep_ids, |q| {
            let run = self.run_query("trs", 1, q)?;
            Ok(RsRun { ids: run.ids, stats: run.stats })
        })
    }

    /// One shard's scatter step: the engine over the part's image of
    /// `layout` (encoded on first use), mounted on a scratch disk of its own
    /// as [`run_on_image`](crate::prep::run_on_image) mounts it, with the
    /// coordinator's query cache, inside the `shard.phase1.local` scope.
    #[allow(clippy::too_many_arguments)]
    fn local_run(
        &self,
        shard: usize,
        engine_name: &str,
        engine_threads: usize,
        layout: &Layout,
        budget: MemoryBudget,
        query: &Query,
        cache: &QueryDistCache,
        robs: &RunObs<'_>,
    ) -> Result<(Vec<RecordId>, RunStats)> {
        robs.check_cancelled()?;
        let scope = robs.scope("phase1.local", &RunStats::default(), IoCounts::default());
        let (part, schema, dissim) = (&self.parts[shard], &*self.schema, &*self.dissim);
        let records = part.rows.len();
        let (ids, stats) = if records == 0 {
            (Vec::new(), RunStats::default())
        } else {
            let image = part.table.image(schema, &part.rows, layout, &budget)?;
            let engine = engine_by_name(engine_name, schema, engine_threads)?;
            let mut disk = Disk::new_mem(image.page_size());
            let table = image.mount(&mut disk)?;
            let mut ctx = EngineCtx { disk: &mut disk, schema, dissim, budget };
            let run = engine.run_with_cache(&mut ctx, &table, query, Some(cache))?;
            (run.ids, run.stats)
        };
        scope
            .field("shard", shard as u64)
            .field("records", records as u64)
            .field("candidates", ids.len() as u64)
            .close(&stats, stats.io);
        Ok((ids, stats))
    }
}

/// Selects the pruners one shard exports to the exchange round and appends
/// them to the merged band. The export set is the shard's local candidate
/// band itself: every member survived the shard's own phase 1 (locally
/// unprunable), and ballooned foreign candidates are typically killed by
/// their cross-shard twins — which are candidates too — so the bands double
/// as the effective kill band. Over budget, candidates are ranked by total
/// query distance ascending (records near the query dominate the largest
/// share of the space — the paper's midpoint intuition), ties by id, then
/// the picks are re-sorted into id order so the band layout — and with it
/// the kill pass's scan order and counters — is deterministic. Returns the
/// number of pruners exported.
fn select_pruners(
    part: &Part,
    cands: &[RecordId],
    cache: &QueryDistCache,
    subset: &AttrSubset,
    budget: usize,
    band: &mut RowBuf,
) -> usize {
    if cands.is_empty() || budget == 0 {
        return 0;
    }
    let mut picked: Vec<RecordId>;
    if cands.len() <= budget {
        picked = cands.to_vec();
    } else {
        let mut scored: Vec<(f64, RecordId)> = cands
            .iter()
            .map(|&id| {
                let vals = part.values_of(id);
                let score: f64 = subset.indices().iter().map(|&i| cache.d(i, vals[i])).sum();
                (score, id)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        picked = scored[..budget].iter().map(|&(_, id)| id).collect();
        picked.sort_unstable();
    }
    let exported = picked.len();
    for &id in &picked {
        band.push(id, part.values_of(id));
    }
    exported
}

/// One shard's exchange step: a kill pass over its phase-2 candidates
/// against the merged pruner band, through the batched kernel. The band
/// contains the shard's own candidates, so the scan excludes a candidate's
/// own id (`skip_self`); any *other* band member that prunes a candidate
/// disproves its membership outright. No IO moves (the band lives in
/// memory) and no `query_dist_checks` move (query-side distances come from
/// the coordinator's shared cache), so the pass costs at most
/// `candidates × band × |subset|` dist checks — the bound the differential
/// suite asserts.
#[allow(clippy::too_many_arguments)]
fn exchange_kill(
    shard: usize,
    cands: &[RecordId],
    part: &Part,
    band: &ColumnarBatch,
    src: DistSource<'_>,
    query: &Query,
    cache: &QueryDistCache,
    robs: &RunObs<'_>,
) -> Result<(Vec<RecordId>, RunStats)> {
    robs.check_cancelled()?;
    let mut ks = RunStats::default();
    let scope = robs.scope("exchange.kill", &ks, ks.io);
    let survivors = if cands.is_empty() || band.is_empty() {
        cands.to_vec()
    } else {
        let subset = &query.subset;
        let mut blocks = candidate_blocks(src, cache, subset, cands, part);
        blocks.scan(subset, band, true, &mut ks);
        alive_ids(&blocks, cands)
    };
    scope
        .field("shard", shard as u64)
        .field("candidates", cands.len() as u64)
        .field("survivors", survivors.len() as u64)
        .close(&ks, ks.io);
    Ok((survivors, ks))
}

/// The candidates `blocks` still holds alive, in candidate order.
fn alive_ids(blocks: &CandidateBlocks<'_>, cands: &[RecordId]) -> Vec<RecordId> {
    cands.iter().enumerate().filter(|&(xi, _)| blocks.is_alive(xi)).map(|(_, &id)| id).collect()
}

/// Blocks one shard's candidates (in the given id order) for a kernel pass.
fn candidate_blocks<'a>(
    src: DistSource<'a>,
    cache: &QueryDistCache,
    subset: &AttrSubset,
    cands: &[RecordId],
    part: &Part,
) -> CandidateBlocks<'a> {
    CandidateBlocks::build(src, cache, subset, cands.len(), |xi| {
        (cands[xi], part.values_of(cands[xi]))
    })
}

/// One shard's gather step: scan every *foreign* shard's window pages and
/// drop any candidate a foreign record prunes. Scan order is fixed (shards
/// ascending, pages ascending, candidates in id order), so the verification
/// counters are deterministic. The query-distance cache is the coordinator's
/// (its build cost lives in the `shard.plan` span), and the scan runs
/// through the batched pruner kernel. Each window's scanner records its
/// `storage.scanner` span on the run's recorder, under this shard's
/// `shard.phase2.verify` span. Foreign windows never contain a candidate's
/// own id, so the kernel scans with `skip_self = false`.
#[allow(clippy::too_many_arguments)]
fn verify_shard(
    shard: usize,
    cands: &[RecordId],
    part: &Part,
    windows: &[Option<SharedRecords>],
    src: DistSource<'_>,
    query: &Query,
    cache: &QueryDistCache,
    robs: &RunObs<'_>,
) -> Result<(Vec<RecordId>, RunStats)> {
    robs.check_cancelled()?;
    let mut vs = RunStats::default();
    let scope = robs.scope("phase2.verify", &vs, vs.io);
    let has_foreign = windows.iter().enumerate().any(|(j, w)| j != shard && w.is_some());
    let survivors = if cands.is_empty() || !has_foreign {
        cands.to_vec()
    } else {
        let subset = &query.subset;
        let mut dpage = RowBuf::new(part.rows.num_attrs());
        let mut blocks = candidate_blocks(src, cache, subset, cands, part);
        'shards: for (j, win) in windows.iter().enumerate() {
            let Some(win) = win else { continue };
            if j == shard {
                continue; // local pruners were phase 1's job
            }
            let mut scanner = win.scanner(robs.handle());
            for p in 0..win.num_pages() {
                robs.check_cancelled()?;
                if blocks.alive_count() == 0 {
                    vs.io.add(scanner.io_stats());
                    break 'shards;
                }
                dpage.clear();
                scanner.read_page_rows(p, &mut dpage)?;
                let ys = ColumnarBatch::from_rows(&dpage);
                blocks.scan(subset, &ys, false, &mut vs);
            }
            vs.io.add(scanner.io_stats());
        }
        alive_ids(&blocks, cands)
    };
    scope
        .field("shard", shard as u64)
        .field("candidates", cands.len() as u64)
        .field("survivors", survivors.len() as u64)
        .close(&vs, vs.io);
    Ok((survivors, vs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_storage::ShardPolicy;

    fn sharded(ds: &Dataset, k: usize, policy: ShardPolicy) -> ShardedTables {
        let spec = ShardSpec::new(k, policy).unwrap();
        ShardedTables::new(ds, spec, 50.0, 64, 4).unwrap()
    }

    #[test]
    fn paper_example_matches_single_node_for_all_shard_counts() {
        let (ds, q) = rsky_data::paper_example();
        for k in [1, 2, 3, 8] {
            for policy in [ShardPolicy::RoundRobin, ShardPolicy::HashById] {
                let st = sharded(&ds, k, policy);
                for engine in ["naive", "brs", "srs", "trs", "trs-bf", "tsrs", "ttrs"] {
                    let run = st.run_query(engine, 1, &q).unwrap();
                    assert_eq!(run.ids, vec![3, 6], "{engine} k={k} {policy}");
                }
            }
        }
    }

    #[test]
    fn single_shard_matches_single_node_counters_exactly() {
        let (ds, q) = rsky_data::paper_example();
        let st = sharded(&ds, 1, ShardPolicy::RoundRobin);
        let run = st.run_query("brs", 1, &q).unwrap();

        let budget = MemoryBudget::from_percent(ds.data_bytes(), 50.0, 64).unwrap();
        let table = SortedTable::new(&ds.schema, &ds.rows);
        let image = table.image(&ds.schema, &ds.rows, &Layout::Original, &budget).unwrap();
        let single =
            crate::run_on_image(&crate::Brs, &image, &ds.schema, &ds.dissim, budget, &q).unwrap();
        assert_eq!(run.ids, single.ids);
        assert_eq!(run.stats.dist_checks, single.stats.dist_checks);
        assert_eq!(run.stats.query_dist_checks, single.stats.query_dist_checks);
        assert_eq!(run.stats.obj_comparisons, single.stats.obj_comparisons);
        assert_eq!(run.stats.io, single.stats.io);
        // With one shard there are no foreign windows: every local candidate
        // survives, and all candidates are exactly the final result.
        assert_eq!(run.candidates, single.ids.len());
        assert_eq!(run.per_shard[0].verify.obj_comparisons, 0);
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let (ds, q) = rsky_data::paper_example();
        let st = sharded(&ds, 3, ShardPolicy::HashById);
        let a = st.run_query("trs", 1, &q).unwrap();
        let b = st.run_query("trs", 1, &q).unwrap();
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.stats.dist_checks, b.stats.dist_checks);
        assert_eq!(a.stats.obj_comparisons, b.stats.obj_comparisons);
        assert_eq!(a.stats.query_dist_checks, b.stats.query_dist_checks);
        assert_eq!(a.stats.io, b.stats.io);
    }

    #[test]
    fn per_shard_costs_sum_to_merged_stats() {
        let (ds, q) = rsky_data::paper_example();
        let st = sharded(&ds, 3, ShardPolicy::RoundRobin);
        let run = st.run_query("srs", 1, &q).unwrap();
        let sum_checks: u64 = run
            .per_shard
            .iter()
            .map(|c| c.local.dist_checks + c.exchange.dist_checks + c.verify.dist_checks)
            .sum();
        assert_eq!(sum_checks, run.stats.dist_checks);
        let sum_surv: usize = run.per_shard.iter().map(|c| c.survivors).sum();
        assert_eq!(sum_surv, run.ids.len());
        assert_eq!(run.candidates, run.per_shard.iter().map(|c| c.candidates).sum::<usize>());
        assert_eq!(
            run.post_candidates,
            run.per_shard.iter().map(|c| c.post_exchange).sum::<usize>()
        );
    }

    #[test]
    fn exchange_off_matches_exchange_on_ids_and_shrinks_nothing() {
        let (ds, q) = rsky_data::paper_example();
        let spec = ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap();
        let on = ShardedTables::new(&ds, spec, 50.0, 64, 4).unwrap();
        let off =
            ShardedTables::new(&ds, spec, 50.0, 64, 4).unwrap().with_pruner_budget(0);
        assert_eq!(off.pruner_budget(), 0);
        let a = on.run_query("trs", 1, &q).unwrap();
        let b = off.run_query("trs", 1, &q).unwrap();
        assert_eq!(a.ids, b.ids);
        // Off: no band, no kill work, candidates pass through untouched.
        assert_eq!(b.pruners, 0);
        assert_eq!(b.post_candidates, b.candidates);
        assert!(b.per_shard.iter().all(|c| c.exchange.obj_comparisons == 0));
        assert!(b.per_shard.iter().all(|c| c.exported == 0));
        // On: the band is every local candidate (well under the budget),
        // and killed candidates never reach verification.
        assert_eq!(a.pruners, a.candidates);
        assert!(a.post_candidates <= a.candidates);
        for c in &a.per_shard {
            assert_eq!(c.exchange.query_dist_checks, 0, "kill pass must reuse the cache");
            assert_eq!(c.exchange.io.total(), 0, "kill pass runs in memory");
            assert!(c.post_exchange <= c.candidates);
        }
    }

    #[test]
    fn tiny_pruner_budgets_truncate_the_band_but_keep_ids_exact() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let ds = rsky_data::synthetic::normal_dataset(3, 6, 120, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let expect = {
            let spec = ShardSpec::new(1, ShardPolicy::RoundRobin).unwrap();
            let st = ShardedTables::new(&ds, spec, 15.0, 128, 4).unwrap();
            st.run_query("trs", 1, &q).unwrap().ids
        };
        let spec = ShardSpec::new(4, ShardPolicy::HashById).unwrap();
        for budget in [1usize, 2, 3, 7, DEFAULT_PRUNER_BUDGET] {
            let st = ShardedTables::new(&ds, spec, 15.0, 128, 4)
                .unwrap()
                .with_pruner_budget(budget);
            let run = st.run_query("trs", 1, &q).unwrap();
            assert_eq!(run.ids, expect, "budget={budget}");
            assert!(
                run.per_shard.iter().all(|c| c.exported <= budget),
                "budget={budget}: export cap violated"
            );
            assert_eq!(
                run.pruners,
                run.per_shard.iter().map(|c| c.exported).sum::<usize>(),
                "budget={budget}"
            );
        }
    }

    #[test]
    fn more_shards_than_records_still_exact() {
        let (ds, q) = rsky_data::paper_example();
        // 6 records over 8 shards: some shards are empty.
        let st = sharded(&ds, 8, ShardPolicy::HashById);
        let run = st.run_query("trs", 1, &q).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
    }

    #[test]
    fn sharded_influence_matches_sequential_influence() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let ds = rsky_data::synthetic::normal_dataset(3, 6, 120, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 4, &mut rng).unwrap();
        let seq = crate::InfluenceEngine::new(ds.clone(), 15.0, 256)
            .unwrap()
            .run(&qs, true)
            .unwrap();
        let spec = ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap();
        let st = ShardedTables::new(&ds, spec, 15.0, 256, 4).unwrap();
        let sharded = st.run_influence(&qs, true).unwrap();
        for (a, b) in seq.per_query.iter().zip(&sharded.per_query) {
            assert_eq!(a.cardinality, b.cardinality);
            assert_eq!(a.ids, b.ids);
        }
    }

    #[test]
    fn rejects_unknown_engine_and_bad_query() {
        let (ds, _) = rsky_data::paper_example();
        let st = sharded(&ds, 2, ShardPolicy::RoundRobin);
        let other = Schema::with_cardinalities(&[3, 2, 3, 4]).unwrap();
        let bad = Query::new(&other, vec![0, 0, 0, 0]).unwrap();
        let (_, good) = rsky_data::paper_example();
        assert!(st.run_query("nope", 1, &good).is_err());
        assert!(st.run_query("trs", 1, &bad).is_err());
    }
}
