//! Differential harness for the served data state.
//!
//! The server's [`DataState`] sorts its rows once and keeps the multi-sort
//! order across inserts and expires; each generation encodes its page
//! images once and every worker mounts them. The contract under test, at
//! every generation of seeded insert/expire streams:
//!
//! * the Original image is byte for byte the file `load_dataset` writes,
//!   and the MultiSort and Tiled images are byte for byte `prepare_table`'s
//!   external sort of that file;
//! * every engine on one long-lived worker returns the oracle's ids, with
//!   every `RunStats` counter and IO count equal to a run on a freshly
//!   prepared table.
//!
//! The streams start from a dataset with a duplicated id (an expire removes
//! every copy), insert rows equal to existing ones, expire the first and
//! the last row of the sort order, and empty the dataset before inserting
//! again.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky::core::skyline::reverse_skyline_by_definition;
use rsky::core::stats::RunStats;
use rsky::order::{ascending_cardinality_order, sort_rows_lex};
use rsky::prelude::*;
use rsky::server::state::{DataState, DatasetVersion, WorkerState};
use rsky::storage::SharedRecords;

/// Four records of three attributes per page, so tables span many pages.
const PAGE: usize = 64;
/// Small enough that the external sort writes several runs and merges.
const MEM_PCT: f64 = 20.0;
const TILES: u32 = 2;
const ENGINES: &[&str] = &["naive", "brs", "srs", "trs", "trs-bf", "tsrs", "ttrs"];
const LAYOUTS: &[Layout] =
    &[Layout::Original, Layout::MultiSort, Layout::Tiled { tiles_per_attr: TILES }];

/// Every counter and IO count of a run (never a time).
fn costs(s: &RunStats) -> String {
    format!(
        "dist_checks={} query_dist_checks={} obj_comparisons={} tree_nodes_visited={} \
         phase1_batches={} phase1_survivors={} phase2_batches={} result_size={} io={:?}",
        s.dist_checks,
        s.query_dist_checks,
        s.obj_comparisons,
        s.tree_nodes_visited,
        s.phase1_batches,
        s.phase1_survivors,
        s.phase2_batches,
        s.result_size,
        s.io,
    )
}

/// Every page of `rf`, padding included.
fn pages(disk: &mut Disk, rf: &RecordFile) -> Vec<Vec<u8>> {
    (0..rf.num_pages(disk))
        .map(|p| {
            let mut buf = vec![0u8; disk.page_size()];
            disk.read_page(rf.file_id(), p, &mut buf).unwrap();
            buf
        })
        .collect()
}

fn image_pages(image: &SharedRecords) -> Vec<Vec<u8>> {
    let mut disk = Disk::new_mem(image.page_size());
    let rf = image.mount(&mut disk).unwrap();
    pages(&mut disk, &rf)
}

/// The run on a freshly loaded and prepared table.
fn fresh_run(ds: &Dataset, engine: &str, query: &Query) -> RsRun {
    let mut disk = Disk::new_mem(PAGE);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEM_PCT, PAGE).unwrap();
    let layout = layout_for(engine, TILES).unwrap();
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget).unwrap();
    let algo = engine_by_name(engine, &ds.schema, 1).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    algo.run(&mut ctx, &prepared.file, query).unwrap()
}

/// The whole contract at one generation.
fn check_generation(version: &DatasetVersion, worker: &mut WorkerState, queries: &[Query]) {
    let ds = &version.dataset;
    let g = version.generation;
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEM_PCT, PAGE).unwrap();
    for layout in LAYOUTS {
        let mut disk = Disk::new_mem(PAGE);
        let raw = load_dataset(&mut disk, ds).unwrap();
        let prepared =
            prepare_table(&mut disk, &ds.schema, &raw, layout.clone(), &budget).unwrap();
        let want = pages(&mut disk, &prepared.file);
        let got = image_pages(&version.image(layout, &budget).unwrap());
        assert_eq!(got, want, "generation {g}: {layout:?} image");
    }

    // The oracle tells rows apart by position and the engines by id, so
    // they may part ways while an id is duplicated; the fresh run still
    // pins those generations.
    let mut ids: Vec<RecordId> = (0..ds.rows.len()).map(|i| ds.rows.id(i)).collect();
    ids.sort_unstable();
    let unique_ids = ids.windows(2).all(|w| w[0] != w[1]);
    for (qi, q) in queries.iter().enumerate() {
        let mut oracle = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
        oracle.sort_unstable();
        for &engine in ENGINES {
            let what = format!("generation {g} ({} rows), query {qi}, {engine}", ds.len());
            let fresh = fresh_run(ds, engine, q);
            let got = worker.run_query(version, engine, 1, q).unwrap();
            assert_eq!(got.ids, fresh.ids, "{what}: ids");
            assert_eq!(costs(&got.stats), costs(&fresh.stats), "{what}: costs");
            if unique_ids {
                assert_eq!(got.ids, oracle, "{what}: oracle");
            }
        }
    }
}

/// A full and an attribute-subset query.
fn queries(schema: &Schema, rng: &mut StdRng) -> Vec<Query> {
    let mut qs = rsky::data::random_queries(schema, 1, rng).unwrap();
    qs.extend(rsky::data::workload::random_subset_queries(schema, &[0, 2], 1, rng).unwrap());
    qs
}

/// Values for an insert: half the time an existing row's, so equal rows
/// meet in the kept order.
fn insert_values(version: &DatasetVersion, rng: &mut StdRng) -> Vec<u32> {
    let ds = &version.dataset;
    if !ds.rows.is_empty() && rng.gen_bool(0.5) {
        return ds.rows.values(rng.gen_range(0..ds.rows.len())).to_vec();
    }
    (0..ds.schema.num_attrs()).map(|a| rng.gen_range(0..ds.schema.cardinality(a))).collect()
}

/// One seeded stream: the state, one worker serving every generation, and
/// the writes still to come.
struct Stream {
    state: DataState,
    worker: WorkerState,
    queries: Vec<Query>,
    rng: StdRng,
    next_id: RecordId,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = rsky::data::normal_dataset(3, 4, 30, &mut rng).unwrap();
        // Id 3 twice with the same values, id 5 twice with other values.
        let (v3, v9) = (ds.rows.values(3).to_vec(), ds.rows.values(9).to_vec());
        ds.rows.push(3, &v3);
        ds.rows.push(5, &v9);
        let queries = queries(&ds.schema, &mut rng);
        let mut stream = Self {
            state: DataState::new(ds),
            worker: WorkerState::new(PAGE, MEM_PCT, TILES).unwrap(),
            queries,
            rng,
            next_id: 1000,
        };
        stream.check(&stream.state.current());
        stream
    }

    fn check(&mut self, version: &DatasetVersion) {
        check_generation(version, &mut self.worker, &self.queries);
    }

    fn insert(&mut self) {
        self.next_id += 1;
        let values = insert_values(&self.state.current(), &mut self.rng);
        let (version, _) = self.state.insert(self.next_id, &values).unwrap();
        self.check(&version);
    }

    fn expire(&mut self, id: RecordId) {
        let (version, _) = self.state.expire(id).unwrap();
        let rows = &version.dataset.rows;
        assert!((0..rows.len()).all(|i| rows.id(i) != id), "a copy of {id} is left");
        self.check(&version);
    }

    /// The id of a random row.
    fn any_id(&mut self) -> RecordId {
        let rows = &self.state.current().dataset.rows;
        rows.id(self.rng.gen_range(0..rows.len()))
    }

    /// The id of the first or the last row of the multi-sort order.
    fn sorted_end(&self, last: bool) -> RecordId {
        let ds = &self.state.current().dataset;
        let mut sorted = ds.rows.clone();
        sort_rows_lex(&mut sorted, &ascending_cardinality_order(&ds.schema));
        sorted.id(if last { sorted.len() - 1 } else { 0 })
    }
}

fn run_stream(seed: u64) {
    let mut s = Stream::new(seed);
    s.expire(3);
    s.expire(5);
    s.expire(s.sorted_end(false));
    s.expire(s.sorted_end(true));
    for _ in 0..24 {
        if s.rng.gen_bool(0.5) {
            s.insert();
        } else {
            let id = s.any_id();
            s.expire(id);
        }
    }
    while !s.state.current().dataset.is_empty() {
        let id = s.any_id();
        s.expire(id);
    }
    for _ in 0..6 {
        s.insert();
    }
}

#[test]
fn kept_order_and_shared_images_match_a_fresh_preparation() {
    for seed in [17, 1701] {
        run_stream(seed);
    }
}
