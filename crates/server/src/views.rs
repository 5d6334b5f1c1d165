//! Server-side registry of materialized views and their subscribers.
//!
//! One `Entry` per distinct query key (values + subset): the maintained
//! [`MaterializedView`] plus every connection subscribed to it. The
//! registry is driven from the mutation path — [`ViewRegistry::apply`] runs
//! under the server's mutation-order lock, so every view consumes the
//! mutation event feed in generation order and a gap (which would force a
//! resync) cannot arise from in-process races.
//!
//! Delta frames are **pushed**: `apply` renders one frame per mutation per
//! subscription and sends it down the subscriber's channel; the owning
//! connection thread drains the channel onto the socket between request
//! lines (and on every idle poll). A dropped receiver (client gone) removes
//! the subscription; an entry with no subscribers left is dropped — views
//! live exactly as long as someone is watching them.
//!
//! Views double as a hot-query cache: [`ViewRegistry::lookup`] answers a
//! `query` (and [`ViewRegistry::influence_cardinalities`] an `influence`
//! workload) in O(|RS(Q)|) when a live view matches the key **and** is at
//! exactly the request's generation — the epoch check that keeps a mutation
//! racing a same-generation request from serving a stale (or too-new)
//! snapshot.

use std::sync::{mpsc, Mutex};

use rsky_core::error::Result;
use rsky_core::obs::{self, names};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, ValueId};
use rsky_storage::MutationEvent;
use rsky_view::{MaterializedView, ViewSpec};

use crate::proto;
use crate::state::{DataState, DatasetVersion};

/// What `subscribe` returns to the connection: the subscription id and the
/// snapshot the delta feed starts from.
pub struct SubscribeAck {
    /// Subscription id (unique per server, echoed in every frame).
    pub sub: u64,
    /// Generation of the snapshot.
    pub generation: u64,
    /// Epoch the feed starts at (frames carry epoch+1, +2, …).
    pub epoch: u64,
    /// The RS(Q) snapshot, ascending.
    pub ids: Vec<RecordId>,
}

struct Subscriber {
    sub: u64,
    tx: mpsc::Sender<String>,
}

struct Entry {
    view: MaterializedView,
    subs: Vec<Subscriber>,
}

#[derive(Default)]
struct Inner {
    next_sub: u64,
    entries: Vec<Entry>,
}

/// Registry of live materialized views, keyed by query key.
#[derive(Default)]
pub struct ViewRegistry {
    inner: Mutex<Inner>,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscription: reuses the live view for the same query
    /// key or builds one at the current generation. `data` is read under
    /// the registry lock — callers must mutate `data` and `apply` the event
    /// under the same mutation-order discipline (see `server::mutate`), so
    /// the snapshot cannot race a concurrent mutation.
    pub fn subscribe(
        &self,
        data: &DataState,
        spec: ViewSpec,
        tx: mpsc::Sender<String>,
    ) -> Result<SubscribeAck> {
        let mut inner = self.inner.lock().unwrap();
        let version = data.current();
        let at = match inner
            .entries
            .iter()
            .position(|e| e.view.spec().matches_key(&spec.values, spec.subset.as_deref()))
        {
            Some(at) => {
                debug_assert_eq!(
                    inner.entries[at].view.generation(),
                    version.generation,
                    "live views are maintained on every mutation"
                );
                at
            }
            None => {
                let view = MaterializedView::build(&version.dataset, spec, version.generation)?;
                inner.entries.push(Entry { view, subs: Vec::new() });
                inner.entries.len() - 1
            }
        };
        inner.next_sub += 1;
        let sub = inner.next_sub;
        let entry = &mut inner.entries[at];
        entry.subs.push(Subscriber { sub, tx });
        let ack = SubscribeAck {
            sub,
            generation: entry.view.generation(),
            epoch: entry.view.epoch(),
            ids: entry.view.members(),
        };
        let live = inner.entries.len();
        drop(inner);
        obs::handle().gauge_set(names::VIEW_LIVE, live as f64);
        Ok(ack)
    }

    /// Applies one mutation event to every live view and pushes the
    /// resulting delta frame to each subscriber. Dead subscribers (client
    /// hung up) are pruned; entries left without subscribers are dropped.
    /// Must be called in generation order (the caller holds the server's
    /// mutation-order lock).
    pub fn apply(&self, version: &DatasetVersion, event: &MutationEvent) {
        let mut inner = self.inner.lock().unwrap();
        let obs = obs::handle();
        let mut frames = 0u64;
        for entry in &mut inner.entries {
            let parts = version.shards.as_ref().map(|s| s.parts.as_slice());
            let delta = match entry.view.apply(&version.dataset, parts, event) {
                Ok(Some(delta)) => delta,
                // Stale event (already covered by a resync) — nothing to push.
                Ok(None) => continue,
                // A failed maintenance step leaves the view at its old
                // generation; the next event sees a gap and resyncs.
                Err(_) => continue,
            };
            entry.subs.retain(|s| {
                let frame = proto::delta_frame(
                    s.sub,
                    delta.generation,
                    delta.epoch,
                    &delta.added,
                    &delta.removed,
                    delta.resync.as_deref(),
                );
                let delivered = s.tx.send(frame).is_ok();
                frames += u64::from(delivered);
                delivered
            });
        }
        inner.entries.retain(|e| !e.subs.is_empty());
        let live = inner.entries.len();
        drop(inner);
        if frames > 0 {
            obs.counter_add(names::VIEW_FRAMES, frames);
        }
        obs.gauge_set(names::VIEW_LIVE, live as f64);
    }

    /// Removes this connection's subscriptions (on disconnect), dropping
    /// views nobody watches anymore.
    pub fn drop_subs(&self, subs: &[u64]) {
        if subs.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for entry in &mut inner.entries {
            entry.subs.retain(|s| !subs.contains(&s.sub));
        }
        inner.entries.retain(|e| !e.subs.is_empty());
        let live = inner.entries.len();
        drop(inner);
        obs::handle().gauge_set(names::VIEW_LIVE, live as f64);
    }

    /// Answers a query from a live view in O(|RS(Q)|) — only when the view
    /// is at exactly `generation` (the satellite epoch check; see the
    /// module docs). The engine is irrelevant: all engines return the same
    /// id set.
    pub fn lookup(
        &self,
        values: &[ValueId],
        subset: Option<&[usize]>,
        generation: u64,
    ) -> Option<Vec<RecordId>> {
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .find(|e| e.view.spec().matches_key(values, subset))
            .and_then(|e| e.view.lookup(generation))
    }

    /// Answers an influence workload entirely from live views: per query
    /// its |RS(Q)| — but only when **every** workload query has a live view
    /// at `generation` (a partial answer would still pay a full engine
    /// run).
    pub fn influence_cardinalities(
        &self,
        workload: &[Query],
        generation: u64,
    ) -> Option<Vec<usize>> {
        let inner = self.inner.lock().unwrap();
        workload
            .iter()
            .map(|q| {
                let subset =
                    if q.subset.is_full() { None } else { Some(q.subset.indices()) };
                inner
                    .entries
                    .iter()
                    .find(|e| e.view.spec().matches_key(&q.values, subset))
                    .and_then(|e| e.view.lookup(generation))
                    .map(|ids| ids.len())
            })
            .collect()
    }

    /// Number of live views (for tests).
    pub fn live(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> (DataState, Vec<ValueId>) {
        let (ds, q) = rsky_data::paper_example();
        (DataState::new(ds), q.values)
    }

    #[test]
    fn subscribe_snapshot_and_push_on_mutations() {
        let (state, values) = state();
        let reg = ViewRegistry::new();
        let (tx, rx) = mpsc::channel();
        let spec = ViewSpec { engine: "trs".into(), values: values.clone(), subset: None };
        let ack = reg.subscribe(&state, spec, tx).unwrap();
        assert_eq!(ack.ids, vec![3, 6], "paper example snapshot");
        assert_eq!((ack.generation, ack.epoch), (1, 0));
        assert_eq!(reg.live(), 1);

        // A duplicate of record 3's values prunes it away (they do not tie
        // the query), so the insert must push a `-3` frame.
        let v = state.current();
        let row3 = (0..v.dataset.rows.len())
            .find(|&i| v.dataset.rows.id(i) == 3)
            .map(|i| v.dataset.rows.values(i).to_vec())
            .unwrap();
        let (version, event) = state.insert(100, &row3).unwrap();
        reg.apply(&version, &event);
        let frame = rx.try_recv().expect("one frame per mutation");
        assert!(frame.contains("\"op\":\"delta\""), "{frame}");
        assert!(frame.contains("\"epoch\":1"), "{frame}");

        let (version, event) = state.expire(100).unwrap();
        reg.apply(&version, &event);
        let frame = rx.try_recv().expect("expire frame");
        assert!(frame.contains("\"epoch\":2"), "{frame}");
        assert!(rx.try_recv().is_err(), "exactly one frame per mutation");
    }

    /// The satellite-2 regression: a view that moved on (mutation landed
    /// while a same-generation request was mid-flight) must not answer for
    /// the stale generation — and the stale request falls through to the
    /// engine path instead.
    #[test]
    fn lookup_refuses_stale_generation_after_racing_mutation() {
        let (state, values) = state();
        let reg = ViewRegistry::new();
        let (tx, _rx) = mpsc::channel();
        let spec = ViewSpec { engine: "trs".into(), values: values.clone(), subset: None };
        reg.subscribe(&state, spec, tx).unwrap();
        // A request reads generation 1, then the mutation lands.
        let stale_generation = state.current().generation;
        let (version, event) = state.insert(101, &values).unwrap();
        reg.apply(&version, &event);
        assert_eq!(
            reg.lookup(&values, None, stale_generation),
            None,
            "view at generation 2 must not answer a generation-1 request"
        );
        let fresh = reg.lookup(&values, None, version.generation);
        assert!(fresh.is_some(), "current generation is served from the view");
        assert_eq!(reg.lookup(&[9, 9, 9, 9, 9], None, version.generation), None, "other key");
    }

    #[test]
    fn dead_subscribers_drop_their_views() {
        let (state, values) = state();
        let reg = ViewRegistry::new();
        let (tx, rx) = mpsc::channel();
        let spec = ViewSpec { engine: "trs".into(), values: values.clone(), subset: None };
        let ack = reg.subscribe(&state, spec.clone(), tx).unwrap();
        assert_eq!(reg.live(), 1);
        drop(rx);
        let (version, event) = state.insert(102, &values).unwrap();
        reg.apply(&version, &event);
        assert_eq!(reg.live(), 0, "send failure prunes the sub and the view");

        let (tx, _rx) = mpsc::channel();
        let ack2 = reg.subscribe(&state, spec, tx).unwrap();
        assert!(ack2.sub > ack.sub, "subscription ids are never reused");
        reg.drop_subs(&[ack2.sub]);
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn influence_answers_only_when_every_query_has_a_view() {
        let (state, values) = state();
        let reg = ViewRegistry::new();
        let (tx, _rx) = mpsc::channel();
        let spec = ViewSpec { engine: "trs".into(), values: values.clone(), subset: None };
        reg.subscribe(&state, spec, tx).unwrap();
        let v = state.current();
        let q = Query::new(&v.dataset.schema, values.clone()).unwrap();
        assert_eq!(
            reg.influence_cardinalities(std::slice::from_ref(&q), v.generation),
            Some(vec![2]),
            "paper example has |RS(Q)| = 2"
        );
        let mut other_values = values.clone();
        other_values[0] = (other_values[0] + 1) % 2;
        let other = Query::new(&v.dataset.schema, other_values).unwrap();
        assert_eq!(
            reg.influence_cardinalities(&[q, other], v.generation),
            None,
            "one unmatched query forfeits the whole workload"
        );
    }

    #[test]
    fn sharded_versions_apply_part_by_part() {
        use rsky_storage::{ShardPolicy, ShardSpec};
        let (ds, q) = rsky_data::paper_example();
        let state =
            DataState::new_sharded(ds, ShardSpec::new(3, ShardPolicy::HashById).unwrap());
        let reg = ViewRegistry::new();
        let (tx, rx) = mpsc::channel();
        let spec = ViewSpec { engine: "brs".into(), values: q.values.clone(), subset: None };
        let ack = reg.subscribe(&state, spec, tx).unwrap();
        assert_eq!(ack.ids, vec![3, 6]);
        let (version, event) = state.insert(100, &q.values).unwrap();
        reg.apply(&version, &event);
        let frame = rx.try_recv().unwrap();
        assert!(frame.contains("\"resync\":false"), "{frame}");
        // The view tracks the oracle over the sharded mutation too.
        let want = rsky_core::skyline::reverse_skyline_by_definition(
            &version.dataset.dissim,
            &version.dataset.rows,
            &Query::new(&version.dataset.schema, q.values.clone()).unwrap(),
        );
        assert_eq!(reg.lookup(&q.values, None, version.generation), Some(want));
    }
}
