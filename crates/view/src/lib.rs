//! # rsky-view
//!
//! Materialized reverse-skyline views: a [`MaterializedView`] holds the
//! current RS(Q) member set of one registered query plus the bookkeeping
//! needed to maintain it **incrementally** under dataset mutations, instead
//! of recomputing RS(Q) from scratch on every insert/expire.
//!
//! ## Maintenance invariants
//!
//! The view stores, besides the member set:
//!
//! * a **witness** per non-member — the first record (in scan order) that
//!   prunes it. A witness stays valid exactly as long as it lives, because
//!   the pruning relation `Y ≻_X Q` depends only on `Y`, `X` and `Q`;
//! * the run-shared **query-distance cache** and the captured pruner
//!   kernel, both invariant under mutations (they depend only on schema,
//!   dissimilarity table and query).
//!
//! Reverse skylines are monotone under single mutations:
//!
//! * **insert Z** can evict members (Z may prune them) and can add at most
//!   Z itself; it can never re-admit another non-member (their witnesses
//!   still live). Cost: one first-pruner scan for Z + one single-record
//!   probe over the members, both through [`rsky_algos::delta`]'s witness
//!   scan.
//! * **expire Z** can admit only the non-members whose witness was Z (the
//!   *orphans*); members stay members. Orphans are re-qualified against a
//!   pruner band first (the PR 7 exchange ranking, one band per shard part,
//!   merged in scan order), then against the full parts.
//!
//! When a mutation's effect cannot be bounded locally — an orphan set
//! larger than the re-qualification budget, or a generation gap in the
//! event feed — the view falls back to a scoped re-run through the engine
//! factory ([`engine_by_name`]) and, for gaps, reports a `resync` delta
//! carrying the full snapshot so subscribers can recover from missed
//! frames.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap};

use rsky_algos::delta::{first_pruners, pruner_band};
use rsky_algos::kernels::PrunerKernel;
use rsky_algos::prep::{load_dataset, prepare_table};
use rsky_algos::qcache::QueryDistCache;
use rsky_algos::shard::layout_for;
use rsky_algos::{engine_by_name, EngineCtx};
use rsky_core::dataset::Dataset;
use rsky_core::error::Result;
use rsky_core::obs::{self, names};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_storage::{Disk, MemoryBudget, MutationEvent, MutationKind};

/// Per-part budget for the expire-path pruner band (the PR 7 exchange
/// default): the strongest pruners of each part, merged in part order,
/// probed before the full scan so most orphans die without one.
const BAND_BUDGET: usize = 256;

/// Default orphan count above which an expire stops re-qualifying
/// incrementally and falls back to the engine factory.
const DEFAULT_REQUALIFY_LIMIT: usize = 512;

/// Memory percent / page size for fallback engine runs (the serving tier's
/// defaults).
const FALLBACK_MEM_PCT: f64 = 10.0;
const FALLBACK_PAGE: usize = 4096;
const FALLBACK_TILES: u32 = 4;

/// The identity of a registered view: which engine backs its fallback
/// recomputes and the query key (values + optional attribute subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewSpec {
    /// Engine used for fallback recomputes (`naive|brs|srs|trs|trs-bf|tsrs|ttrs`).
    pub engine: String,
    /// Query values, one per schema attribute.
    pub values: Vec<ValueId>,
    /// Attribute subset (`None` = all attributes).
    pub subset: Option<Vec<usize>>,
}

impl ViewSpec {
    /// Builds the query this spec describes.
    pub fn query(&self, schema: &rsky_core::schema::Schema) -> Result<Query> {
        match &self.subset {
            Some(indices) => Query::on_subset(schema, self.values.clone(), indices),
            None => Query::new(schema, self.values.clone()),
        }
    }

    /// Whether a request with this key (values + subset) is answered by
    /// this view. The engine is deliberately ignored: all engines return
    /// the identical id set, so any live view answers for any engine.
    pub fn matches_key(&self, values: &[ValueId], subset: Option<&[usize]>) -> bool {
        self.values == values && self.subset.as_deref() == subset
    }
}

/// One maintenance step's outcome: the ids that entered and left RS(Q).
///
/// `epoch` increases by exactly 1 per frame on a view; a subscriber seeing
/// a gap knows it missed frames and must resync. When the *view itself*
/// detected a gap (or was rebuilt), `resync` carries the full member
/// snapshot and `added`/`removed` are relative to the last incremental
/// state — apply the snapshot, not the diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDelta {
    /// Generation of the dataset this delta brings the view to.
    pub generation: u64,
    /// The view's frame counter after this delta.
    pub epoch: u64,
    /// Ids that joined RS(Q), ascending.
    pub added: Vec<RecordId>,
    /// Ids that left RS(Q), ascending.
    pub removed: Vec<RecordId>,
    /// Full member snapshot, present only on resync.
    pub resync: Option<Vec<RecordId>>,
}

/// A maintained RS(Q) result for one registered query.
pub struct MaterializedView {
    spec: ViewSpec,
    query: Query,
    cache: QueryDistCache,
    kernel: PrunerKernel,
    members: BTreeSet<RecordId>,
    /// Non-member → the live record that prunes it (scan-order-first).
    witness: HashMap<RecordId, RecordId>,
    generation: u64,
    epoch: u64,
    fallbacks: u64,
    requalify_limit: usize,
}

impl MaterializedView {
    /// Builds the view from scratch over `ds` (at `generation`), storing a
    /// witness for every non-member.
    pub fn build(ds: &Dataset, spec: ViewSpec, generation: u64) -> Result<Self> {
        let query = spec.query(&ds.schema)?;
        let obs = obs::handle();
        let mut span = obs.span(names::VIEW, "build");
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &query);
        let kernel = PrunerKernel::new(&ds.schema, &ds.dissim);
        let mut checks = 0u64;
        let pruners =
            first_pruners(&kernel, &ds.dissim, &cache, &query, &ds.rows, &[&ds.rows], &mut checks);
        let mut members = BTreeSet::new();
        let mut witness = HashMap::new();
        for (i, w) in pruners.iter().enumerate() {
            match w {
                Some(w) => {
                    witness.insert(ds.rows.id(i), *w);
                }
                None => {
                    members.insert(ds.rows.id(i));
                }
            }
        }
        if span.is_recording() {
            span.field("rows", ds.rows.len() as u64);
            span.field("members", members.len() as u64);
            span.field("dist_checks", checks);
            span.field("generation", generation);
        }
        Ok(Self {
            spec,
            query,
            cache,
            kernel,
            members,
            witness,
            generation,
            epoch: 0,
            fallbacks: 0,
            requalify_limit: DEFAULT_REQUALIFY_LIMIT,
        })
    }

    /// Overrides the orphan budget above which `expire` falls back to the
    /// engine factory (tests use 0 to force the fallback path).
    pub fn with_requalify_limit(mut self, limit: usize) -> Self {
        self.requalify_limit = limit;
        self
    }

    /// The view's identity.
    pub fn spec(&self) -> &ViewSpec {
        &self.spec
    }

    /// Dataset generation the member set reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Frame counter (0 = snapshot only, +1 per applied delta).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many times maintenance fell back to a full recompute.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Current members, ascending.
    pub fn members(&self) -> Vec<RecordId> {
        self.members.iter().copied().collect()
    }

    /// Answers a query against the view **only** if the view is exactly at
    /// `generation` — a view mid-maintenance (or ahead, because a mutation
    /// landed while the request was in flight) must not serve that
    /// request's snapshot.
    pub fn lookup(&self, generation: u64) -> Option<Vec<RecordId>> {
        (self.generation == generation).then(|| self.members())
    }

    /// Applies one mutation event. `ds` is the **post-mutation** dataset;
    /// `parts` its shard parts when serving sharded (per-shard local deltas
    /// are computed part by part and merged in part order — scan order, and
    /// therefore witness identity, then matches the sharded layout).
    ///
    /// Returns `Ok(None)` for a stale event (generation not after the
    /// view's — already applied, e.g. replayed after a resync). A
    /// generation *gap* triggers a rebuild and a `resync` delta.
    pub fn apply(
        &mut self,
        ds: &Dataset,
        parts: Option<&[&RowBuf]>,
        event: &MutationEvent,
    ) -> Result<Option<ViewDelta>> {
        if event.generation <= self.generation {
            return Ok(None);
        }
        let obs = obs::handle();
        let mut span = obs.span(names::VIEW, "delta");
        let scan = scan_parts(ds, parts);
        let mut checks = 0u64;
        let (added, removed, resync) = if !event.follows(self.generation) {
            let before = std::mem::take(&mut self.members);
            self.rebuild(ds, &scan, &mut checks)?;
            obs.counter_add(names::VIEW_FALLBACK, 1);
            self.fallbacks += 1;
            let added = diff(&self.members, &before);
            let removed = diff(&before, &self.members);
            (added, removed, Some(self.members()))
        } else {
            match &event.kind {
                MutationKind::Insert { values } => {
                    self.insert(&ds.dissim, event.id, values, &scan, &mut checks)
                }
                MutationKind::Expire => self.expire(ds, event.id, parts, &scan, &obs, &mut checks)?,
            }
        };
        self.generation = event.generation;
        self.epoch += 1;
        obs.counter_add(names::VIEW_DELTA_ADD, added.len() as u64);
        obs.counter_add(names::VIEW_DELTA_REMOVE, removed.len() as u64);
        if span.is_recording() {
            span.field("add", added.len() as u64);
            span.field("remove", removed.len() as u64);
            span.field("resync", u64::from(resync.is_some()));
            span.field("dist_checks", checks);
            span.field("generation", self.generation);
        }
        Ok(Some(ViewDelta {
            generation: self.generation,
            epoch: self.epoch,
            added,
            removed,
            resync,
        }))
    }

    /// Insert classification: does Z join RS(Q), and which members does it
    /// evict? Nothing else can change (witnesses of other non-members
    /// still live).
    fn insert(
        &mut self,
        dt: &rsky_core::dissim::DissimTable,
        id: RecordId,
        values: &[ValueId],
        scan: &[&RowBuf],
        checks: &mut u64,
    ) -> (Vec<RecordId>, Vec<RecordId>, Option<Vec<RecordId>>) {
        let mut zbuf = RowBuf::with_capacity(values.len(), 1);
        zbuf.push(id, values);
        let mut added = Vec::new();
        match first_pruners(&self.kernel, dt, &self.cache, &self.query, &zbuf, scan, checks)
            .swap_remove(0)
        {
            Some(w) => {
                self.witness.insert(id, w);
            }
            None => {
                self.members.insert(id);
                added.push(id);
            }
        }
        // Probe the members against the single new record: survivors keep
        // their membership, casualties now have Z as their witness.
        let mut cands = RowBuf::with_capacity(values.len(), self.members.len());
        for part in scan {
            for i in 0..part.len() {
                let pid = part.id(i);
                if pid != id && self.members.contains(&pid) {
                    cands.push(pid, part.values(i));
                }
            }
        }
        let mut removed = Vec::new();
        let hits =
            first_pruners(&self.kernel, dt, &self.cache, &self.query, &cands, &[&zbuf], checks);
        for (i, hit) in hits.iter().enumerate() {
            if hit.is_some() {
                let victim = cands.id(i);
                self.members.remove(&victim);
                self.witness.insert(victim, id);
                removed.push(victim);
            }
        }
        added.sort_unstable();
        removed.sort_unstable();
        (added, removed, None)
    }

    /// Expire re-qualification: only the records Z witnessed can change
    /// state. Orphans probe the per-part pruner bands first, then the full
    /// parts; survivors join RS(Q). Above the budget, fall back to the
    /// engine factory.
    #[allow(clippy::type_complexity)]
    fn expire(
        &mut self,
        ds: &Dataset,
        id: RecordId,
        parts: Option<&[&RowBuf]>,
        scan: &[&RowBuf],
        obs: &obs::ObsHandle,
        checks: &mut u64,
    ) -> Result<(Vec<RecordId>, Vec<RecordId>, Option<Vec<RecordId>>)> {
        let mut removed = Vec::new();
        if self.members.remove(&id) {
            removed.push(id);
        }
        self.witness.remove(&id);
        let orphans: BTreeSet<RecordId> = self
            .witness
            .iter()
            .filter(|(_, w)| **w == id)
            .map(|(x, _)| *x)
            .collect();
        for x in &orphans {
            self.witness.remove(x);
        }
        if orphans.len() > self.requalify_limit {
            // Bookkeeping exhausted: scoped re-run through the engine
            // factory (members), then witness refresh for the non-members.
            let before = std::mem::take(&mut self.members);
            self.rebuild(ds, scan, checks)?;
            obs.counter_add(names::VIEW_FALLBACK, 1);
            self.fallbacks += 1;
            let added = diff(&self.members, &before);
            // `before` no longer holds the expired member, so the rebuild
            // diff misses it — merge it back into the removals.
            removed.extend(diff(&before, &self.members));
            removed.sort_unstable();
            return Ok((added, removed, None));
        }
        let mut cands = RowBuf::with_capacity(ds.schema.num_attrs(), orphans.len());
        for part in scan {
            for i in 0..part.len() {
                if orphans.contains(&part.id(i)) {
                    cands.push(part.id(i), part.values(i));
                }
            }
        }
        let bands: Vec<RowBuf> = match parts {
            Some(_) => scan
                .iter()
                .map(|p| pruner_band(p, &self.cache, &self.query.subset, BAND_BUDGET))
                .collect(),
            None => Vec::new(),
        };
        let mut order: Vec<&RowBuf> = bands.iter().collect();
        order.extend(scan.iter().copied());
        let hits = first_pruners(
            &self.kernel,
            &ds.dissim,
            &self.cache,
            &self.query,
            &cands,
            &order,
            checks,
        );
        let mut added = Vec::new();
        for (i, hit) in hits.iter().enumerate() {
            match hit {
                Some(w) => {
                    self.witness.insert(cands.id(i), *w);
                }
                None => {
                    self.members.insert(cands.id(i));
                    added.push(cands.id(i));
                }
            }
        }
        added.sort_unstable();
        Ok((added, removed, None))
    }

    /// Full recompute: members through the engine factory, witnesses for
    /// the non-members through one scoped classification pass.
    fn rebuild(&mut self, ds: &Dataset, scan: &[&RowBuf], checks: &mut u64) -> Result<()> {
        let ids = if ds.rows.is_empty() {
            Vec::new()
        } else {
            let mut disk = Disk::new_mem(FALLBACK_PAGE);
            let raw = load_dataset(&mut disk, ds)?;
            let budget =
                MemoryBudget::from_percent(ds.data_bytes(), FALLBACK_MEM_PCT, FALLBACK_PAGE)?;
            let layout = layout_for(&self.spec.engine, FALLBACK_TILES)?;
            let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget)?;
            let engine = engine_by_name(&self.spec.engine, &ds.schema, 1)?;
            let mut ctx = EngineCtx {
                disk: &mut disk,
                schema: &ds.schema,
                dissim: &ds.dissim,
                budget,
            };
            engine.run(&mut ctx, &prepared.file, &self.query)?.ids
        };
        self.members = ids.iter().copied().collect();
        self.witness.clear();
        let mut cands = RowBuf::with_capacity(ds.schema.num_attrs(), ds.rows.len());
        for part in scan {
            for i in 0..part.len() {
                if !self.members.contains(&part.id(i)) {
                    cands.push(part.id(i), part.values(i));
                }
            }
        }
        let hits =
            first_pruners(&self.kernel, &ds.dissim, &self.cache, &self.query, &cands, scan, checks);
        for (i, hit) in hits.iter().enumerate() {
            let w = hit.expect("engine-reported non-member must have a pruner");
            self.witness.insert(cands.id(i), w);
        }
        Ok(())
    }
}

/// The ordered scan parts of a dataset version: shard parts when sharded,
/// the whole row buffer otherwise.
fn scan_parts<'a>(ds: &'a Dataset, parts: Option<&[&'a RowBuf]>) -> Vec<&'a RowBuf> {
    parts.map_or_else(|| vec![&ds.rows], <[_]>::to_vec)
}

fn diff(a: &BTreeSet<RecordId>, b: &BTreeSet<RecordId>) -> Vec<RecordId> {
    a.difference(b).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rsky_core::skyline::reverse_skyline_by_definition;

    fn spec(engine: &str, values: Vec<ValueId>) -> ViewSpec {
        ViewSpec { engine: engine.into(), values, subset: None }
    }

    fn mutate(ds: &mut Dataset, event: &MutationEvent) {
        match &event.kind {
            MutationKind::Insert { values } => ds.rows.push(event.id, values),
            MutationKind::Expire => {
                let mut rows = RowBuf::new(ds.schema.num_attrs());
                for i in 0..ds.rows.len() {
                    if ds.rows.id(i) != event.id {
                        rows.push(ds.rows.id(i), ds.rows.values(i));
                    }
                }
                ds.rows = rows;
            }
        }
    }

    fn oracle(ds: &Dataset, q: &Query) -> Vec<RecordId> {
        reverse_skyline_by_definition(&ds.dissim, &ds.rows, q)
    }

    /// A random insert/expire stream tracks the by-definition oracle after
    /// every single event, and the emitted deltas replay to the member set.
    #[test]
    fn random_stream_tracks_oracle_and_deltas_replay() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ds = rsky_data::synthetic::normal_dataset(3, 8, 60, &mut rng).unwrap();
        let s = spec("trs", vec![3, 5, 2]);
        let q = s.query(&ds.schema).unwrap();
        let mut view = MaterializedView::build(&ds, s, 0).unwrap();
        let mut replay: BTreeSet<RecordId> = view.members().into_iter().collect();
        let mut next_id = 10_000;
        for gen in 1..=80u64 {
            let event = if rng.gen_range(0..2) == 0 || ds.rows.is_empty() {
                next_id += 1;
                let values = (0..3).map(|_| rng.gen_range(0..8)).collect();
                MutationEvent::insert(next_id, values, gen)
            } else {
                let victim = ds.rows.id(rng.gen_range(0..ds.rows.len()));
                MutationEvent::expire(victim, gen)
            };
            mutate(&mut ds, &event);
            let delta = view.apply(&ds, None, &event).unwrap().unwrap();
            assert_eq!(delta.epoch, gen, "one frame per event");
            for id in &delta.removed {
                assert!(replay.remove(id), "removed id {id} was not a member");
            }
            for id in &delta.added {
                assert!(replay.insert(*id), "added id {id} already a member");
            }
            let want = oracle(&ds, &q);
            assert_eq!(view.members(), want, "view after event {event:?}");
            assert_eq!(replay.iter().copied().collect::<Vec<_>>(), want, "delta replay");
        }
        assert_eq!(view.fallbacks(), 0, "no fallback on a gap-free stream");
    }

    /// Stale events are ignored; a generation gap rebuilds and reports a
    /// resync snapshot.
    #[test]
    fn stale_is_ignored_and_gap_resyncs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ds = rsky_data::synthetic::normal_dataset(3, 6, 40, &mut rng).unwrap();
        let s = spec("brs", vec![2, 3, 1]);
        let q = s.query(&ds.schema).unwrap();
        let mut view = MaterializedView::build(&ds, s, 5).unwrap();
        assert!(view.apply(&ds, None, &MutationEvent::expire(1, 5)).unwrap().is_none());
        assert!(view.apply(&ds, None, &MutationEvent::expire(1, 3)).unwrap().is_none());
        // Gap: generation jumps 5 -> 8. The view must resync from `ds`.
        let first = ds.rows.id(0);
        mutate(&mut ds, &MutationEvent::expire(first, 6));
        mutate(&mut ds, &MutationEvent::insert(900, vec![1, 1, 1], 7));
        let event = MutationEvent::insert(901, vec![4, 2, 0], 8);
        mutate(&mut ds, &event);
        let delta = view.apply(&ds, None, &event).unwrap().unwrap();
        let want = oracle(&ds, &q);
        assert_eq!(delta.resync.as_deref(), Some(&want[..]), "resync carries the snapshot");
        assert_eq!(view.members(), want);
        assert_eq!(view.generation(), 8);
        assert_eq!(view.fallbacks(), 1);
    }

    /// An exhausted re-qualification budget falls back to the engine
    /// factory and still lands on the oracle, with witnesses restored
    /// (subsequent incremental maintenance keeps working).
    #[test]
    fn engine_fallback_matches_oracle_and_restores_bookkeeping() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ds = rsky_data::synthetic::normal_dataset(3, 6, 50, &mut rng).unwrap();
        let s = spec("srs", vec![1, 4, 2]);
        let q = s.query(&ds.schema).unwrap();
        let mut view =
            MaterializedView::build(&ds, s, 0).unwrap().with_requalify_limit(0);
        for gen in 1..=20u64 {
            let event = if gen % 2 == 0 {
                MutationEvent::insert(1000 + gen as u32, vec![gen as u32 % 6, 2, 3], gen)
            } else {
                MutationEvent::expire(ds.rows.id((gen as usize * 7) % ds.rows.len()), gen)
            };
            mutate(&mut ds, &event);
            let delta = view.apply(&ds, None, &event).unwrap().unwrap();
            assert!(delta.resync.is_none(), "in-order fallback is a plain delta");
            assert_eq!(view.members(), oracle(&ds, &q), "after event {event:?}");
        }
        assert!(view.fallbacks() > 0, "limit 0 must have forced fallbacks");
    }

    /// `view.build` and `view.delta` spans carry the distance checks of the
    /// view's witness scans: a build spends exactly one `first_pruners` pass
    /// over the dataset, an insert always scans, an expire that orphans
    /// nothing scans nothing, and a resync rescans the non-members.
    #[test]
    fn spans_report_witness_scan_checks() {
        use rsky_core::obs::MemorySink;
        let mut rng = StdRng::seed_from_u64(19);
        let mut ds = rsky_data::synthetic::normal_dataset(3, 6, 50, &mut rng).unwrap();
        let s = spec("trs", vec![2, 3, 1]);
        let q = s.query(&ds.schema).unwrap();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        let kernel = PrunerKernel::new(&ds.schema, &ds.dissim);
        let mut build_checks = 0u64;
        first_pruners(&kernel, &ds.dissim, &cache, &q, &ds.rows, &[&ds.rows], &mut build_checks);
        assert!(build_checks > 0);

        let sink = MemorySink::new();
        let last_checks = |span: &str| {
            let events = sink.events();
            let e = events.iter().rev().find(|e| e.name.ends_with(span)).expect(span);
            e.field("dist_checks").expect("span carries dist_checks")
        };
        obs::with_recorder(sink.handle(), || {
            let mut view = MaterializedView::build(&ds, s, 0).unwrap();
            assert_eq!(last_checks("view.build"), build_checks);

            let event = MutationEvent::insert(500, vec![1, 2, 3], 1);
            mutate(&mut ds, &event);
            view.apply(&ds, None, &event).unwrap().unwrap();
            assert!(last_checks("view.delta") > 0, "an insert scans for its witness");

            let witnesses: BTreeSet<RecordId> = view.witness.values().copied().collect();
            let loner = (0..ds.rows.len())
                .map(|i| ds.rows.id(i))
                .find(|id| !witnesses.contains(id))
                .expect("some record witnesses nothing");
            let event = MutationEvent::expire(loner, 2);
            mutate(&mut ds, &event);
            view.apply(&ds, None, &event).unwrap().unwrap();
            assert_eq!(last_checks("view.delta"), 0, "no orphans, no scan");

            let event = MutationEvent::insert(501, vec![0, 0, 0], 4);
            mutate(&mut ds, &event);
            let delta = view.apply(&ds, None, &event).unwrap().unwrap();
            assert!(delta.resync.is_some());
            let gap_checks = last_checks("view.delta");
            assert!(gap_checks > 0, "a resync rescans the non-members");
        });
    }

    /// The hot-query-cache entry point refuses any generation but the one
    /// the view is exactly at (the satellite-2 epoch check).
    #[test]
    fn lookup_requires_exact_generation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = rsky_data::synthetic::normal_dataset(3, 6, 30, &mut rng).unwrap();
        let s = spec("naive", vec![0, 1, 2]);
        let mut view = MaterializedView::build(&ds, s, 4).unwrap();
        assert_eq!(view.lookup(4), Some(view.members()));
        assert_eq!(view.lookup(3), None, "older generation must miss");
        assert_eq!(view.lookup(5), None, "newer generation must miss");
        let event = MutationEvent::insert(77, vec![5, 5, 5], 5);
        mutate(&mut ds, &event);
        view.apply(&ds, None, &event).unwrap().unwrap();
        assert_eq!(view.lookup(4), None, "stale generation after a mutation must miss");
        assert_eq!(view.lookup(5), Some(view.members()));
    }
}
