//! Differential harness for the served data state.
//!
//! The server's [`DataState`] holds its rows as shard parts, one part when
//! unsharded, each sorted once and kept in the multi-sort order across
//! inserts and expires; each generation encodes its page images once and
//! every worker mounts them. The contract under test, at every generation
//! of seeded insert/expire streams:
//!
//! * an unsharded state's one part has an Original image that is byte for
//!   byte the file `load_dataset` writes, and MultiSort and Tiled images
//!   that are byte for byte `prepare_table`'s external sort of that file;
//! * every engine through that one part returns the oracle's ids, with
//!   every `RunStats` counter and IO count equal to a run on a freshly
//!   prepared table;
//! * a sharded state fed the same writes, under each placement policy,
//!   keeps shard parts that hold exactly the flat rows, duplicates counted;
//!   each part's three images are byte for byte `load_dataset` and
//!   `prepare_table` of the part's rows; a part a write did not touch still
//!   holds the very images it held before the write; and every engine
//!   through the sharded state returns the unsharded state's ids, with
//!   every counter and IO count equal to a `ShardedTables` built afresh
//!   from the same part rows.
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
use rsky::server::state::{DataState, DatasetVersion};
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

/// The pages of every layout of `ds`, freshly loaded and prepared.
fn fresh_pages(ds: &Dataset) -> Vec<Vec<Vec<u8>>> {
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEM_PCT, PAGE).unwrap();
    let mut disk = Disk::new_mem(PAGE);
    let raw = load_dataset(&mut disk, ds).unwrap();
    LAYOUTS
        .iter()
        .map(|layout| {
            let prepared =
                prepare_table(&mut disk, &ds.schema, &raw, layout.clone(), &budget).unwrap();
            pages(&mut disk, &prepared.file)
        })
        .collect()
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

/// The whole contract at one generation of an unsharded state; returns
/// its ids per query and engine.
fn check_generation(version: &DatasetVersion, queries: &[Query]) -> Vec<Vec<RecordId>> {
    let ds = &version.dataset;
    let g = version.generation;
    assert_eq!(version.tables.num_shards(), 1, "an unsharded state is one part");
    for (layout, want) in LAYOUTS.iter().zip(fresh_pages(ds)) {
        let got = image_pages(&version.tables.image(0, layout).unwrap());
        assert_eq!(got, want, "generation {g}: {layout:?} image");
    }

    // The oracle tells rows apart by position and the engines by id, so
    // they may part ways while an id is duplicated; the fresh run still
    // pins those generations.
    let mut ids: Vec<RecordId> = (0..ds.rows.len()).map(|i| ds.rows.id(i)).collect();
    ids.sort_unstable();
    let unique_ids = ids.windows(2).all(|w| w[0] != w[1]);
    let mut answers = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut oracle = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
        oracle.sort_unstable();
        for &engine in ENGINES {
            let what = format!("generation {g} ({} rows), query {qi}, {engine}", ds.len());
            let fresh = fresh_run(ds, engine, q);
            let got = version.tables.run_query(engine, 1, q).unwrap();
            assert_eq!(got.ids, fresh.ids, "{what}: ids");
            assert_eq!(costs(&got.stats), costs(&fresh.stats), "{what}: costs");
            if unique_ids {
                assert_eq!(got.ids, oracle, "{what}: oracle");
            }
            answers.push(got.ids);
        }
    }
    answers
}

/// Every row of `rows` with its id, sorted: the rows as a multiset.
fn row_multiset<'a>(rows: impl IntoIterator<Item = &'a RowBuf>) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> =
        rows.into_iter().flat_map(|r| (0..r.len()).map(|i| r.flat_row(i).to_vec())).collect();
    out.sort_unstable();
    out
}

/// A `ShardedTables` built afresh from `parts` under `spec`: an empty
/// partition with each part's rows inserted in order. The rows handed to
/// `insert` only give a row its arrival position, which round-robin
/// placement reads, so each row lands in its own part; hash placement
/// reads the id, which put the row in that part in the first place.
fn fresh_tables(ds: &Dataset, parts: &[RowBuf], spec: ShardSpec) -> ShardedTables {
    let m = ds.schema.num_attrs();
    let empty = Dataset { rows: RowBuf::new(m), ..ds.clone() };
    let mut tables = ShardedTables::new(&empty, spec, MEM_PCT, PAGE, TILES).unwrap();
    for (j, part) in parts.iter().enumerate() {
        let arrival = RowBuf::from_flat(m, vec![0; j * (m + 1)]).unwrap();
        for i in 0..part.len() {
            tables = tables.insert(&arrival, part.flat_row(i)).1;
        }
    }
    tables
}

/// A sharded state fed the flat state's writes, and each part's rows and
/// images at the last checked generation.
struct Sharded {
    state: DataState,
    spec: ShardSpec,
    last: Vec<(RowBuf, Vec<SharedRecords>)>,
}

impl Sharded {
    fn new(ds: &Dataset, policy: ShardPolicy) -> Self {
        let spec = ShardSpec::new(3, policy).unwrap();
        let tables = ShardedTables::new(ds, spec, MEM_PCT, PAGE, TILES).unwrap();
        Self { state: DataState::with_tables(ds.clone(), tables), spec, last: Vec::new() }
    }

    /// The sharded contract at one generation: the state holds `flat`'s
    /// generation, its parts hold exactly the flat rows, duplicates
    /// counted, each part's images are a fresh preparation's and a part
    /// the last write left alone kept its images, and every run answers
    /// `answers`, the unsharded state's ids per query and engine, at the
    /// costs of a sharded run on fresh tables.
    fn check(&mut self, flat: &DatasetVersion, queries: &[Query], answers: &[Vec<RecordId>]) {
        let version = self.state.current();
        let g = flat.generation;
        let what = format!("generation {g}, {}", self.spec.policy);
        assert_eq!(version.generation, g);
        assert_eq!(version.dataset.rows, flat.dataset.rows, "{what}: flat rows");
        let tables = &version.tables;
        let parts: Vec<RowBuf> = tables.part_rows().cloned().collect();
        assert_eq!(row_multiset(&parts), row_multiset([&flat.dataset.rows]), "{what}: parts");

        let mut images = Vec::new();
        for (i, rows) in parts.iter().enumerate() {
            let part_ds = Dataset { rows: rows.clone(), ..(*version.dataset).clone() };
            let held: Vec<SharedRecords> =
                LAYOUTS.iter().map(|layout| tables.image(i, layout).unwrap()).collect();
            for ((layout, image), want) in LAYOUTS.iter().zip(&held).zip(fresh_pages(&part_ds)) {
                assert_eq!(image_pages(image), want, "{what}: part {i} {layout:?} image");
            }
            match self.last.get(i) {
                Some((before, kept)) if before == rows => {
                    for ((layout, image), kept) in LAYOUTS.iter().zip(&held).zip(kept) {
                        assert!(image.same_pages(kept), "{what}: untouched part {i} {layout:?}");
                    }
                }
                _ => {}
            }
            images.push((rows.clone(), held));
        }
        self.last = images;

        let fresh = fresh_tables(&version.dataset, &parts, self.spec);
        let runs = queries.iter().flat_map(|q| ENGINES.iter().map(move |&e| (q, e)));
        for ((q, engine), want) in runs.zip(answers) {
            let got = tables.run_query(engine, 1, q).unwrap();
            let run = fresh.run_query(engine, 1, q).unwrap();
            assert_eq!(&got.ids, want, "{what}, {engine}: sharded ids");
            assert_eq!(got.ids, run.ids, "{what}, {engine}: fresh sharded ids");
            assert_eq!(costs(&got.stats), costs(&run.stats), "{what}, {engine}: costs");
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

/// One seeded stream: the unsharded state, the sharded states that see the
/// same writes, and the writes still to come.
struct Stream {
    state: DataState,
    sharded: Vec<Sharded>,
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
        let sharded = [ShardPolicy::RoundRobin, ShardPolicy::HashById]
            .into_iter()
            .map(|policy| Sharded::new(&ds, policy))
            .collect();
        let tables = ShardedTables::new(&ds, ShardSpec::single(), MEM_PCT, PAGE, TILES).unwrap();
        let mut stream = Self {
            state: DataState::with_tables(ds, tables),
            sharded,
            queries,
            rng,
            next_id: 1000,
        };
        stream.check(&stream.state.current());
        stream
    }

    fn check(&mut self, version: &DatasetVersion) {
        let answers = check_generation(version, &self.queries);
        for sharded in &mut self.sharded {
            sharded.check(version, &self.queries, &answers);
        }
    }

    fn insert(&mut self) {
        self.next_id += 1;
        let values = insert_values(&self.state.current(), &mut self.rng);
        for sharded in &self.sharded {
            sharded.state.insert(self.next_id, &values).unwrap();
        }
        let (version, _) = self.state.insert(self.next_id, &values).unwrap();
        self.check(&version);
    }

    fn expire(&mut self, id: RecordId) {
        for sharded in &self.sharded {
            sharded.state.expire(id).unwrap();
        }
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
