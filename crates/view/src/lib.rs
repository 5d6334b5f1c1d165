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
//! Every step scans the dataset as its parts: the shard parts of the
//! served partition in part order, one part when unsharded. Reverse
//! skylines are monotone under single mutations:
//!
//! * **insert Z** can evict members (Z may prune them) and can add at most
//!   Z itself; it can never re-admit another non-member (their witnesses
//!   still live). Cost: one first-pruner scan for Z + one single-record
//!   probe over the members, both through [`rsky_algos::delta`]'s witness
//!   scan.
//! * **expire Z** can admit only the non-members whose witness was Z (the
//!   *orphans*); members stay members. Orphans are re-qualified against
//!   the parts — with more than one part, against a pruner band first (the
//!   shard exchange's ranking, one band per part, merged in part order).
//!
//! When the event feed has a generation gap, the view cannot tell what it
//! missed: it rebuilds, classifying every row of the parts with
//! [`first_pruners`] as [`MaterializedView::build`] does, and reports a
//! `resync` delta carrying the full snapshot so subscribers can recover
//! from missed frames.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap};

use rsky_algos::delta::{first_pruners, pruner_band};
use rsky_algos::kernels::PrunerKernel;
use rsky_algos::qcache::QueryDistCache;
use rsky_core::dataset::Dataset;
use rsky_core::error::Result;
use rsky_core::obs::{self, names};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_storage::{MutationEvent, MutationKind};

/// Per-part budget for the expire-path pruner band (the PR 7 exchange
/// default): the strongest pruners of each part, merged in part order,
/// probed before the full scan so most orphans die without one.
const BAND_BUDGET: usize = 256;

/// The identity of a registered view: the query key (values + optional
/// attribute subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewSpec {
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
    /// this view. Every engine returns the identical id set, so a view
    /// answers for any engine.
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
        let mut view = Self {
            spec,
            query,
            cache,
            kernel,
            members: BTreeSet::new(),
            witness: HashMap::new(),
            generation,
            epoch: 0,
            fallbacks: 0,
        };
        let mut checks = 0u64;
        view.classify(ds, &[&ds.rows], &mut checks);
        if span.is_recording() {
            span.field("rows", ds.rows.len() as u64);
            span.field("members", view.members.len() as u64);
            span.field("dist_checks", checks);
            span.field("generation", generation);
        }
        Ok(view)
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

    /// How many times a generation gap made the view rebuild.
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

    /// Applies one mutation event. `ds` is the **post-mutation** dataset
    /// and `parts` its rows as the served partition holds them, in part
    /// order (one part when unsharded): per-part local deltas are computed
    /// part by part and merged in part order, so scan order, and with it
    /// witness identity, matches the partition.
    ///
    /// Returns `None` for a stale event (generation not after the view's
    /// — already applied, e.g. replayed after a resync). A generation
    /// *gap* triggers a rebuild and a `resync` delta.
    pub fn apply(
        &mut self,
        ds: &Dataset,
        parts: &[&RowBuf],
        event: &MutationEvent,
    ) -> Option<ViewDelta> {
        if event.generation <= self.generation {
            return None;
        }
        let obs = obs::handle();
        let mut span = obs.span(names::VIEW, "delta");
        let mut checks = 0u64;
        let (added, removed, resync) = if !event.follows(self.generation) {
            let before = std::mem::take(&mut self.members);
            self.witness.clear();
            self.classify(ds, parts, &mut checks);
            obs.counter_add(names::VIEW_FALLBACK, 1);
            self.fallbacks += 1;
            let added = diff(&self.members, &before);
            let removed = diff(&before, &self.members);
            (added, removed, Some(self.members()))
        } else {
            match &event.kind {
                MutationKind::Insert { values } => {
                    self.insert(&ds.dissim, event.id, values, parts, &mut checks)
                }
                MutationKind::Expire => self.expire(ds, event.id, parts, &mut checks),
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
        Some(ViewDelta { generation: self.generation, epoch: self.epoch, added, removed, resync })
    }

    /// Classifies every row of `parts` against `parts` in scan order:
    /// a row without a pruner joins the members, any other gets its first
    /// pruner as its witness.
    fn classify(&mut self, ds: &Dataset, parts: &[&RowBuf], checks: &mut u64) {
        for part in parts {
            let (kernel, dt, cache, query) = (&self.kernel, &ds.dissim, &self.cache, &self.query);
            let hits = first_pruners(kernel, dt, cache, query, part, parts, checks);
            for (i, hit) in hits.into_iter().enumerate() {
                match hit {
                    Some(w) => {
                        self.witness.insert(part.id(i), w);
                    }
                    None => {
                        self.members.insert(part.id(i));
                    }
                }
            }
        }
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
    /// state. Orphans probe the per-part pruner bands first when there is
    /// more than one part, then the parts themselves; survivors join RS(Q).
    fn expire(
        &mut self,
        ds: &Dataset,
        id: RecordId,
        scan: &[&RowBuf],
        checks: &mut u64,
    ) -> (Vec<RecordId>, Vec<RecordId>, Option<Vec<RecordId>>) {
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
        let mut cands = RowBuf::with_capacity(ds.schema.num_attrs(), orphans.len());
        for part in scan {
            for i in 0..part.len() {
                if orphans.contains(&part.id(i)) {
                    cands.push(part.id(i), part.values(i));
                }
            }
        }
        let bands: Vec<RowBuf> = match scan.len() {
            1 => Vec::new(),
            _ => scan
                .iter()
                .map(|p| pruner_band(p, &self.cache, &self.query.subset, BAND_BUDGET))
                .collect(),
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
        (added, removed, None)
    }
}

fn diff(a: &BTreeSet<RecordId>, b: &BTreeSet<RecordId>) -> Vec<RecordId> {
    a.difference(b).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rsky_core::skyline::reverse_skyline_by_definition;

    fn spec(values: Vec<ValueId>) -> ViewSpec {
        ViewSpec { values, subset: None }
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
        let s = spec(vec![3, 5, 2]);
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
            let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
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
        let s = spec(vec![2, 3, 1]);
        let q = s.query(&ds.schema).unwrap();
        let mut view = MaterializedView::build(&ds, s, 5).unwrap();
        assert!(view.apply(&ds, &[&ds.rows], &MutationEvent::expire(1, 5)).is_none());
        assert!(view.apply(&ds, &[&ds.rows], &MutationEvent::expire(1, 3)).is_none());
        // Gap: generation jumps 5 -> 8. The view must resync from `ds`.
        let first = ds.rows.id(0);
        mutate(&mut ds, &MutationEvent::expire(first, 6));
        mutate(&mut ds, &MutationEvent::insert(900, vec![1, 1, 1], 7));
        let event = MutationEvent::insert(901, vec![4, 2, 0], 8);
        mutate(&mut ds, &event);
        let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
        let want = oracle(&ds, &q);
        assert_eq!(delta.resync.as_deref(), Some(&want[..]), "resync carries the snapshot");
        assert_eq!(view.members(), want);
        assert_eq!(view.generation(), 8);
        assert_eq!(view.fallbacks(), 1);
    }

    /// A generation gap rebuilds the view by classifying every row of the
    /// parts, with one part and with several: it lands on the oracle with
    /// a witness for every non-member, so incremental maintenance keeps
    /// working after it.
    #[test]
    fn gap_rebuild_matches_oracle_and_restores_bookkeeping() {
        use rsky_storage::{partition_rows, ShardPolicy, ShardSpec};
        for k in [1, 3] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut ds = rsky_data::synthetic::normal_dataset(3, 6, 50, &mut rng).unwrap();
            let s = spec(vec![1, 4, 2]);
            let q = s.query(&ds.schema).unwrap();
            let mut view = MaterializedView::build(&ds, s, 0).unwrap();
            let shards = ShardSpec::new(k, ShardPolicy::RoundRobin).unwrap();
            let mut generation = 0;
            for step in 1..=20u64 {
                let next = |ds: &Dataset, generation: u64| {
                    if generation.is_multiple_of(2) {
                        let values = vec![generation as u32 % 6, 2, 3];
                        MutationEvent::insert(1000 + generation as u32, values, generation)
                    } else {
                        let victim = ds.rows.id((generation as usize * 7) % ds.rows.len());
                        MutationEvent::expire(victim, generation)
                    }
                };
                // Every third step the view misses an event.
                let gap = step.is_multiple_of(3);
                if gap {
                    generation += 1;
                    let missed = next(&ds, generation);
                    mutate(&mut ds, &missed);
                }
                generation += 1;
                let event = next(&ds, generation);
                mutate(&mut ds, &event);
                let parts = partition_rows(&ds.rows, &shards);
                let parts: Vec<&RowBuf> = parts.iter().collect();
                let delta = view.apply(&ds, &parts, &event).unwrap();
                let want = oracle(&ds, &q);
                assert_eq!(delta.resync.as_ref(), gap.then_some(&want), "k={k} step {step}");
                assert_eq!(view.members(), want, "k={k} after event {event:?}");
                assert_eq!(view.members.len() + view.witness.len(), ds.rows.len());
            }
            assert_eq!(view.fallbacks(), 6, "k={k}: one rebuild per gap");
        }
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
        let s = spec(vec![2, 3, 1]);
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
            view.apply(&ds, &[&ds.rows], &event).unwrap();
            assert!(last_checks("view.delta") > 0, "an insert scans for its witness");

            let witnesses: BTreeSet<RecordId> = view.witness.values().copied().collect();
            let loner = (0..ds.rows.len())
                .map(|i| ds.rows.id(i))
                .find(|id| !witnesses.contains(id))
                .expect("some record witnesses nothing");
            let event = MutationEvent::expire(loner, 2);
            mutate(&mut ds, &event);
            view.apply(&ds, &[&ds.rows], &event).unwrap();
            assert_eq!(last_checks("view.delta"), 0, "no orphans, no scan");

            let event = MutationEvent::insert(501, vec![0, 0, 0], 4);
            mutate(&mut ds, &event);
            let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
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
        let s = spec(vec![0, 1, 2]);
        let mut view = MaterializedView::build(&ds, s, 4).unwrap();
        assert_eq!(view.lookup(4), Some(view.members()));
        assert_eq!(view.lookup(3), None, "older generation must miss");
        assert_eq!(view.lookup(5), None, "newer generation must miss");
        let event = MutationEvent::insert(77, vec![5, 5, 5], 5);
        mutate(&mut ds, &event);
        view.apply(&ds, &[&ds.rows], &event).unwrap();
        assert_eq!(view.lookup(4), None, "stale generation after a mutation must miss");
        assert_eq!(view.lookup(5), Some(view.members()));
    }
}
