//! Sliding-window reverse skylines through a materialized view.
//!
//! A count-based window is a [`MaterializedView`] driven by mutation
//! events: an arrival is an insert, and a full window first expires its
//! oldest record. The window must agree with the batch engines run over a
//! snapshot of the same records, and with the by-definition oracle through
//! the cases that make windows non-trivial: an expiry that resurrects the
//! records its departure un-prunes, exact duplicate pairs that prune each
//! other, and FIFO eviction at capacity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky::prelude::*;
use rsky::view::{MaterializedView, ViewDelta, ViewSpec};
use rsky_storage::MutationEvent;

/// A FIFO window of at most `capacity` records maintained by a view.
struct Window {
    /// The records in the window, oldest first.
    ds: Dataset,
    view: MaterializedView,
    capacity: usize,
}

impl Window {
    fn new(domain: &Dataset, query: &Query, capacity: usize) -> Self {
        let ds = Dataset {
            schema: domain.schema.clone(),
            dissim: domain.dissim.clone(),
            rows: RowBuf::new(domain.schema.num_attrs()),
            label: "window".into(),
        };
        let subset = (!query.subset.is_full()).then(|| query.subset.indices().to_vec());
        let spec = ViewSpec { values: query.values.clone(), subset };
        let view = MaterializedView::build(&ds, spec, 0).unwrap();
        Self { ds, view, capacity }
    }

    fn apply(&mut self, event: MutationEvent) -> ViewDelta {
        self.view.apply(&self.ds, &[&self.ds.rows], &event).expect("in-order event")
    }

    /// Admits a record, expiring the oldest first when the window is full;
    /// returns the expired id.
    fn insert(&mut self, id: RecordId, values: &[ValueId]) -> Option<RecordId> {
        let full = self.ds.rows.len() == self.capacity;
        let expired = if full { self.expire_oldest() } else { None };
        self.ds.rows.push(id, values);
        let generation = self.view.generation() + 1;
        self.apply(MutationEvent::insert(id, values.to_vec(), generation));
        expired
    }

    /// Expires the oldest record, if any.
    fn expire_oldest(&mut self) -> Option<RecordId> {
        self.expire_oldest_delta().map(|(id, _)| id)
    }

    fn expire_oldest_delta(&mut self) -> Option<(RecordId, ViewDelta)> {
        if self.ds.rows.is_empty() {
            return None;
        }
        let id = self.ds.rows.id(0);
        let w = self.ds.rows.row_width();
        let rest = self.ds.rows.as_flat()[w..].to_vec();
        self.ds.rows = RowBuf::from_flat(self.ds.schema.num_attrs(), rest).unwrap();
        let generation = self.view.generation() + 1;
        Some((id, self.apply(MutationEvent::expire(id, generation))))
    }

    fn current(&self) -> Vec<RecordId> {
        self.view.members()
    }

    fn oracle(&self, q: &Query) -> Vec<RecordId> {
        let mut ids = reverse_skyline_by_definition(&self.ds.dissim, &self.ds.rows, q);
        ids.sort_unstable();
        ids
    }

    /// A batch engine's ids over the window's records.
    fn batch_ids(&self, engine: &dyn ReverseSkylineAlgo, q: &Query) -> Vec<RecordId> {
        let snap = &self.ds;
        let mut disk = Disk::new_mem(128);
        let raw = load_dataset(&mut disk, snap).unwrap();
        let budget = MemoryBudget::from_percent(snap.data_bytes().max(1), 10.0, 128).unwrap();
        let sorted =
            prepare_table(&mut disk, &snap.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let table =
            if engine.name() == "BRS" || engine.name() == "BRS-P" { &raw } else { &sorted.file };
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &snap.schema, dissim: &snap.dissim, budget };
        engine.run(&mut ctx, table, q).unwrap().ids
    }
}

#[test]
fn streaming_agrees_with_batch_engines() {
    let mut rng = StdRng::seed_from_u64(2024);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 120, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut w = Window::new(&ds, &q, 120);
    for i in 0..ds.rows.len() {
        w.insert(ds.rows.id(i), ds.rows.values(i));
    }
    let trs = Trs::for_schema(&ds.schema);
    let streaming = w.current();
    assert_eq!(streaming, w.batch_ids(&Brs, &q), "streaming vs BRS");
    assert_eq!(streaming, w.batch_ids(&Srs, &q), "streaming vs SRS");
    assert_eq!(streaming, w.batch_ids(&trs, &q), "streaming vs TRS");
    assert_eq!(streaming, w.batch_ids(&Brs { threads: 3 }, &q), "streaming vs BRS-P");
}

#[test]
fn streaming_agrees_with_batch_engines_under_expiration() {
    // A capacity-limited window: every prefix state (with evictions in play)
    // must still match a batch run over the surviving objects.
    let mut rng = StdRng::seed_from_u64(2025);
    let ds = rsky::data::synthetic::uniform_dataset(3, 5, 90, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut w = Window::new(&ds, &q, 30);
    let trs = Trs::for_schema(&ds.schema);
    for i in 0..ds.rows.len() {
        w.insert(ds.rows.id(i), ds.rows.values(i));
        if i % 17 == 0 {
            assert_eq!(w.current(), w.batch_ids(&trs, &q), "step {i}");
        }
    }
    assert_eq!(w.current(), w.batch_ids(&Brs, &q), "final window");
}

#[test]
fn paper_example_streamed_in_matches_batch() {
    let (ds, q) = rsky::data::paper_example();
    let mut w = Window::new(&ds, &q, 10);
    for i in 0..ds.rows.len() {
        w.insert(ds.rows.id(i), ds.rows.values(i));
        assert_eq!(w.current(), w.oracle(&q), "after inserting O{}", i + 1);
    }
    assert_eq!(w.current(), vec![3, 6]);
}

#[test]
fn expiration_resurrects_pruned_objects() {
    // O2's pruners are {O1, O4, O5}; stream O1 then O2, then expire O1:
    // O2 must re-enter the result.
    let (ds, q) = rsky::data::paper_example();
    let mut w = Window::new(&ds, &q, 10);
    w.insert(1, ds.rows.values(0)); // O1
    w.insert(2, ds.rows.values(1)); // O2 (pruned by O1)
    assert_eq!(w.current(), vec![1]);
    let (expired, delta) = w.expire_oldest_delta().unwrap();
    assert_eq!(expired, 1);
    assert_eq!((delta.added, delta.removed), (vec![2], vec![1]), "O2 resurrects");
    assert_eq!(w.current(), vec![2], "O2 resurrects when its only pruner leaves");
}

#[test]
fn window_capacity_evicts_fifo() {
    let (ds, q) = rsky::data::paper_example();
    let mut w = Window::new(&ds, &q, 3);
    for i in 0..ds.rows.len() {
        let expired = w.insert(ds.rows.id(i), ds.rows.values(i));
        if i >= 3 {
            assert_eq!(expired, Some(ds.rows.id(i - 3)));
        } else {
            assert_eq!(expired, None);
        }
        assert!(w.ds.rows.len() <= 3);
        assert_eq!(w.current(), w.oracle(&q), "step {i}");
    }
}

#[test]
fn random_stream_always_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(300);
    let ds = rsky::data::synthetic::normal_dataset(3, 5, 1, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut w = Window::new(&ds, &q, 25);
    let (mut expiries, mut resurrections) = (0, 0);
    for step in 0..400u32 {
        if rng.gen_bool(0.8) || w.ds.rows.is_empty() {
            let vals: Vec<u32> =
                (0..3).map(|i| rng.gen_range(0..ds.schema.cardinality(i))).collect();
            w.insert(step, &vals);
        } else {
            let (_, delta) = w.expire_oldest_delta().unwrap();
            expiries += 1;
            resurrections += usize::from(!delta.added.is_empty());
        }
        if step % 7 == 0 {
            assert_eq!(w.current(), w.oracle(&q), "step {step}");
        }
    }
    assert!(expiries > 0 && resurrections > 0, "the stream must exercise resurrection");
    assert_eq!(w.view.fallbacks(), 0);
}

#[test]
fn duplicate_arrivals_knock_each_other_out_and_resurrect() {
    let (ds, q) = rsky::data::paper_example();
    let mut w = Window::new(&ds, &q, 10);
    w.insert(10, &[2, 0, 2]);
    w.insert(11, &[2, 0, 2]); // exact duplicate
    assert!(w.current().is_empty(), "duplicate pair eliminates itself");
    w.expire_oldest();
    assert_eq!(w.current(), vec![11], "survivor resurrects");
}

#[test]
fn empty_window_behaviour() {
    let (ds, q) = rsky::data::paper_example();
    let mut w = Window::new(&ds, &q, 5);
    assert!(w.current().is_empty());
    assert_eq!(w.expire_oldest(), None);
    assert_eq!(w.view.generation(), 0, "no event for an empty window");
}
