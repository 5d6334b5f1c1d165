//! Shared dataset state and per-worker engine state.
//!
//! The served dataset lives behind a [`DataState`]: an `Arc<Dataset>` plus
//! a monotonically increasing **generation**, bumped by every mutation
//! (`insert`/`expire`). The generation is the invalidation signal for the
//! result cache (it is part of the cache key) and for the page images
//! below.
//!
//! ## One table-image path
//!
//! Every version holds its rows as [`SortedTable`]s: sorted once, when the
//! state is created, into the multi-sort order of the MultiSort layout,
//! and kept in that order by binary-search insertion and removal, so no
//! write re-sorts. A table encodes each layout's page image at most once,
//! on first use, and every worker reads that one image: Original from the
//! generation-order rows, MultiSort from the kept order, and Tiled by one
//! external sort of the Original image.
//!
//! * An unsharded state ([`DataState::new`]) holds one table for the whole
//!   dataset per generation.
//! * A sharded state ([`DataState::new_sharded`]) holds a
//!   [`ShardedTables`]: the dataset partitioned into K shard parts, one
//!   table each, **copy-on-write per part**. An insert rebuilds only the
//!   one part the record lands in, and an expire only the parts that hold
//!   a copy of the id (every copy goes, as from the flat rows); every other
//!   part, with the images it encoded in earlier generations, is shared
//!   with the older versions. Placement is *sticky*: hash-by-id records
//!   land by their id; round-robin records are placed by their arrival
//!   position and keep that shard for life (an expire does not
//!   re-balance). Query results never depend on placement — the
//!   scatter-gather executor is exact for any partition — so stickiness
//!   only affects load spread, not answers.
//!
//! Workers cannot share one disk — `EngineCtx` takes `&mut Disk` because
//! engines create scratch files (the R-file) during a run — so every query
//! mounts the image it reads on a fresh in-memory scratch disk
//! ([`run_on_image`]; the mount shares the pages instead of copying them),
//! and drops the disk with the engine's scratch files when the run ends.
//! A mounted image reads exactly like a freshly prepared table, so the
//! engines' costs do not depend on the worker or on the queries it ran
//! before. A [`WorkerState`] keeps no tables: one version serves every
//! worker.

use std::sync::{Arc, RwLock};

use rsky_algos::influence::run_queries;
use rsky_algos::shard::ShardedTables;
use rsky_algos::{engine_by_name, layout_for, run_on_image, InfluenceReport, RsRun, SortedTable};
use rsky_core::dataset::Dataset;
use rsky_core::error::{Error, Result};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_storage::{MemoryBudget, MutationEvent};

/// The tables a version holds its rows in.
#[derive(Clone)]
pub enum Tables {
    /// The whole dataset as one table.
    Whole(Arc<SortedTable>),
    /// One table per shard part, with the scatter-gather settings.
    Sharded(Arc<ShardedTables>),
}

impl Tables {
    /// `rows`, the dataset's rows in generation order, with `row` appended,
    /// and these tables with `row` in them.
    fn insert(&self, rows: &RowBuf, row: &[u32]) -> (RowBuf, Self) {
        match self {
            Self::Whole(table) => {
                let (rows, table) = table.insert(rows, row);
                (rows, Self::Whole(Arc::new(table)))
            }
            Self::Sharded(tables) => {
                let (rows, tables) = tables.insert(rows, row);
                (rows, Self::Sharded(Arc::new(tables)))
            }
        }
    }

    /// `rows` and these tables without any copy of record `id`; `None`
    /// when there is none.
    fn expire(&self, rows: &RowBuf, id: RecordId) -> Option<(RowBuf, Self)> {
        Some(match self {
            Self::Whole(table) => {
                let (rows, table) = table.expire(rows, id)?;
                (rows, Self::Whole(Arc::new(table)))
            }
            Self::Sharded(tables) => {
                let (rows, tables) = tables.expire(rows, id)?;
                (rows, Self::Sharded(Arc::new(tables)))
            }
        })
    }
}

/// The served dataset at one point in time.
#[derive(Clone)]
pub struct DatasetVersion {
    /// Mutation counter; starts at 1 and grows with every `insert`/`expire`.
    pub generation: u64,
    /// The dataset itself (shared, immutable — mutations replace the Arc).
    pub dataset: Arc<Dataset>,
    /// The dataset's rows as tables: whole, or one per shard part.
    pub tables: Tables,
}

impl DatasetVersion {
    /// The shard partition, when serving sharded.
    pub fn shards(&self) -> Option<&ShardedTables> {
        match &self.tables {
            Tables::Sharded(tables) => Some(tables),
            Tables::Whole(_) => None,
        }
    }

    /// The next generation: `rows` held as `tables`.
    fn next(&self, rows: RowBuf, tables: Tables) -> Self {
        let ds = &self.dataset;
        let dataset = Dataset {
            schema: ds.schema.clone(),
            dissim: ds.dissim.clone(),
            rows,
            label: ds.label.clone(),
        };
        Self { generation: self.generation + 1, dataset: Arc::new(dataset), tables }
    }
}

/// Shared, versioned dataset state.
pub struct DataState {
    current: RwLock<DatasetVersion>,
}

impl DataState {
    /// Wraps `dataset` as generation 1, sorting a copy of its rows into
    /// the kept multi-sort order.
    pub fn new(dataset: Dataset) -> Self {
        let table = SortedTable::new(&dataset.schema, &dataset.rows);
        Self::wrap(dataset, Tables::Whole(Arc::new(table)))
    }

    /// Wraps `dataset` as generation 1, held as `tables`, its partition
    /// ([`ShardedTables::new`] of `dataset`), which carries the shard spec
    /// and the scatter-gather settings and is maintained copy-on-write
    /// across mutations.
    pub fn new_sharded(dataset: Dataset, tables: ShardedTables) -> Self {
        Self::wrap(dataset, Tables::Sharded(Arc::new(tables)))
    }

    fn wrap(dataset: Dataset, tables: Tables) -> Self {
        let version = DatasetVersion { generation: 1, dataset: Arc::new(dataset), tables };
        Self { current: RwLock::new(version) }
    }

    /// The current version (cheap: clones an Arc under a read lock).
    pub fn current(&self) -> DatasetVersion {
        self.current.read().unwrap().clone()
    }

    /// Adds a record, returning the new version together with the mutation
    /// event downstream maintainers (materialized views) consume. Fails
    /// without bumping the generation when the id is taken or the values
    /// don't fit the schema. The record goes where a binary search puts it
    /// in the kept order.
    pub fn insert(
        &self,
        id: RecordId,
        values: &[ValueId],
    ) -> Result<(DatasetVersion, MutationEvent)> {
        let mut cur = self.current.write().unwrap();
        let ds = &cur.dataset;
        if values.len() != ds.schema.num_attrs() {
            return Err(Error::SchemaMismatch(format!(
                "insert has {} values, schema has {} attributes",
                values.len(),
                ds.schema.num_attrs()
            )));
        }
        ds.schema.validate_values(values)?;
        if (0..ds.rows.len()).any(|i| ds.rows.id(i) == id) {
            return Err(Error::InvalidConfig(format!("record id {id} already exists")));
        }
        let row: Vec<u32> = std::iter::once(id).chain(values.iter().copied()).collect();
        let (rows, tables) = cur.tables.insert(&ds.rows, &row);
        *cur = cur.next(rows, tables);
        let event = MutationEvent::insert(id, values.to_vec(), cur.generation);
        Ok((cur.clone(), event))
    }

    /// Removes every record with id `id`, returning the new version and the
    /// mutation event.
    pub fn expire(&self, id: RecordId) -> Result<(DatasetVersion, MutationEvent)> {
        let mut cur = self.current.write().unwrap();
        let Some((rows, tables)) = cur.tables.expire(&cur.dataset.rows, id) else {
            return Err(Error::InvalidConfig(format!("record id {id} does not exist")));
        };
        *cur = cur.next(rows, tables);
        let event = MutationEvent::expire(id, cur.generation);
        Ok((cur.clone(), event))
    }
}

/// One worker's engine settings for unsharded versions: page size, memory
/// knob and tile count. It holds no tables — each query mounts the
/// version's page image on a scratch disk of its own, and a sharded
/// version runs on its own [`ShardedTables`] — so one version serves every
/// worker.
pub struct WorkerState {
    page: usize,
    mem_pct: f64,
    tiles: u32,
}

impl WorkerState {
    /// Creates a worker state.
    pub fn new(page: usize, mem_pct: f64, tiles: u32) -> Result<Self> {
        // Refuses a page size no budget can be built on.
        MemoryBudget::from_bytes(page as u64, page)?;
        Ok(Self { page, mem_pct, tiles })
    }

    /// Runs one reverse-skyline query with `engine_name` on the layout it
    /// needs: over the version's image on a scratch disk when unsharded,
    /// through the scatter-gather executor otherwise. Cancellation
    /// (deadline) is taken from the scoped token installed by the caller.
    pub fn run_query(
        &mut self,
        version: &DatasetVersion,
        engine_name: &str,
        engine_threads: usize,
        query: &Query,
    ) -> Result<RsRun> {
        let table = match &version.tables {
            Tables::Whole(table) => table,
            Tables::Sharded(tables) => {
                let run = tables.run_query(engine_name, engine_threads, query)?;
                return Ok(RsRun { ids: run.ids, stats: run.stats });
            }
        };
        let ds = &version.dataset;
        let layout = layout_for(engine_name, self.tiles)?;
        let budget = MemoryBudget::from_percent(ds.data_bytes(), self.mem_pct, self.page)?;
        let image = table.image(&ds.schema, &ds.rows, &layout, &budget)?;
        let engine = engine_by_name(engine_name, &ds.schema, engine_threads)?;
        run_on_image(engine.as_ref(), &image, &ds.schema, &ds.dissim, budget, query)
    }

    /// Runs an influence workload: `|RS(q)|` per query with single-threaded
    /// TRS through [`run_query`](Self::run_query), in the one influence
    /// loop ([`rsky_algos::influence::run_queries`]).
    pub fn run_influence(
        &mut self,
        version: &DatasetVersion,
        queries: &[Query],
        keep_ids: bool,
    ) -> Result<InfluenceReport> {
        run_queries(queries.iter().enumerate(), keep_ids, |q| self.run_query(version, "trs", 1, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_algos::Layout;
    use rsky_storage::{ShardSpec, SharedRecords};

    #[test]
    fn insert_and_expire_bump_generations() {
        let (ds, _) = rsky_data::paper_example();
        let m = ds.schema.num_attrs();
        let n = ds.len();
        let state = DataState::new(ds);
        assert_eq!(state.current().generation, 1);

        let (v2, e2) = state.insert(100, &vec![0; m]).unwrap();
        assert_eq!(v2.generation, 2);
        assert_eq!(v2.dataset.len(), n + 1);
        assert_eq!(e2, MutationEvent::insert(100, vec![0; m], 2));

        let (v3, e3) = state.expire(100).unwrap();
        assert_eq!(v3.generation, 3);
        assert_eq!(v3.dataset.len(), n);
        assert_eq!(e3, MutationEvent::expire(100, 3));
        assert!(e3.follows(e2.generation), "events form a gap-free feed");

        // Failed mutations leave the generation untouched.
        assert!(state.insert(100, &vec![0; m + 1]).is_err(), "wrong width");
        assert!(state.expire(100).is_err(), "already gone");
        let dup = state.current().dataset.rows.id(0);
        assert!(state.insert(dup, &vec![0; m]).is_err(), "duplicate id");
        assert_eq!(state.current().generation, 3);
    }

    #[test]
    fn worker_results_match_direct_runs_across_generations() {
        let (ds, q) = rsky_data::paper_example();
        let state = DataState::new(ds);
        let mut worker = WorkerState::new(64, 50.0, 4).unwrap();

        let v1 = state.current();
        for engine in ["naive", "brs", "srs", "trs", "trs-bf", "tsrs", "ttrs"] {
            let run = worker.run_query(&v1, engine, 1, &q).unwrap();
            let expect = rsky_core::skyline::reverse_skyline_by_definition(
                &v1.dataset.dissim,
                &v1.dataset.rows,
                &q,
            );
            assert_eq!(run.ids, expect, "{engine} on generation 1");
        }

        // Mutate, then verify the worker rebuilds and agrees again.
        let (v2, _) = state.insert(100, &q.values.clone()).unwrap();
        let run = worker.run_query(&v2, "trs", 1, &q).unwrap();
        let expect = rsky_core::skyline::reverse_skyline_by_definition(
            &v2.dataset.dissim,
            &v2.dataset.rows,
            &q,
        );
        assert_eq!(run.ids, expect, "trs on generation 2");
    }

    #[test]
    fn worker_rejects_unknown_engine() {
        let (ds, q) = rsky_data::paper_example();
        let state = DataState::new(ds);
        let mut worker = WorkerState::new(64, 50.0, 4).unwrap();
        assert!(worker.run_query(&state.current(), "nope", 1, &q).is_err());
    }

    /// Union of the shard parts must equal the flat rows (as an id set)
    /// across any mutation sequence — the copy-on-write invariant.
    fn assert_parts_cover(version: &DatasetVersion) {
        let sp = version.shards().expect("sharded state");
        let mut ids: Vec<u32> = sp
            .part_rows()
            .flat_map(|p| (0..p.len()).map(|i| p.id(i)).collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        let mut expect: Vec<u32> =
            (0..version.dataset.rows.len()).map(|i| version.dataset.rows.id(i)).collect();
        expect.sort_unstable();
        assert_eq!(ids, expect);
    }

    #[test]
    fn sharded_state_mutations_are_copy_on_write_per_shard() {
        use rsky_storage::ShardPolicy;
        let (ds, q) = rsky_data::paper_example();
        for policy in [ShardPolicy::RoundRobin, ShardPolicy::HashById] {
            let spec = ShardSpec::new(3, policy).unwrap();
            let tables = ShardedTables::new(&ds, spec, 50.0, 64, 4).unwrap();
            let state = DataState::new_sharded(ds.clone(), tables);
            let v1 = state.current();
            assert_parts_cover(&v1);

            let (v2, _) = state.insert(100, &q.values.clone()).unwrap();
            assert_parts_cover(&v2);
            // Exactly one part was rewritten; the others are still the very
            // parts v1 holds (copy-on-write).
            let rewritten = |a: &DatasetVersion, b: &DatasetVersion| {
                let (a, b) = (a.shards().unwrap(), b.shards().unwrap());
                a.part_rows().zip(b.part_rows()).filter(|(a, b)| !std::ptr::eq(*a, *b)).count()
            };
            assert_eq!(rewritten(&v1, &v2), 1, "{policy}: insert rewrites exactly one shard part");

            let (v3, _) = state.expire(100).unwrap();
            assert_parts_cover(&v3);
            assert_eq!(rewritten(&v2, &v3), 1, "{policy}: expire rewrites exactly one shard part");

            // A sharded worker answers identically to the definition across
            // the mutation history.
            let mut worker = WorkerState::new(64, 50.0, 4).unwrap();
            for v in [&v2, &v3] {
                let run = worker.run_query(v, "trs", 1, &q).unwrap();
                let expect = rsky_core::skyline::reverse_skyline_by_definition(
                    &v.dataset.dissim,
                    &v.dataset.rows,
                    &q,
                );
                assert_eq!(run.ids, expect, "{policy} generation {}", v.generation);
            }
        }
    }

    /// The records of `image`, in file order.
    fn image_rows(image: &SharedRecords) -> RowBuf {
        let mut scanner = image.scanner();
        let mut rows = RowBuf::new(image.num_attrs());
        for page in 0..image.num_pages() {
            scanner.read_page_rows(page, &mut rows).unwrap();
        }
        rows
    }

    /// The image of `layout` an unsharded version's workers mount.
    fn whole_image(
        version: &DatasetVersion,
        layout: &Layout,
        budget: &MemoryBudget,
    ) -> Result<SharedRecords> {
        let Tables::Whole(table) = &version.tables else { panic!("an unsharded version") };
        table.image(&version.dataset.schema, &version.dataset.rows, layout, budget)
    }

    #[test]
    fn failed_encodes_are_not_kept() {
        let (ds, _) = rsky_data::paper_example();
        let version = DataState::new(ds).current();
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        let err = whole_image(&version, &Layout::Tiled { tiles_per_attr: 0 }, &budget).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        let tiled = Layout::Tiled { tiles_per_attr: 2 };
        let image = whole_image(&version, &tiled, &budget).unwrap();
        assert_eq!(image.len(), version.dataset.len() as u64);
        let again = whole_image(&version, &tiled, &budget).unwrap();
        assert_eq!(image_rows(&again), image_rows(&image));
        let other = Layout::Tiled { tiles_per_attr: 3 };
        assert!(whole_image(&version, &other, &budget).is_err(), "one tile count a generation");
    }

    #[test]
    fn sharded_states_keep_each_parts_order_and_images() {
        use rsky_storage::ShardPolicy;
        let (ds, q) = rsky_data::paper_example();
        let spec = ShardSpec::new(2, ShardPolicy::RoundRobin).unwrap();
        let tables = ShardedTables::new(&ds, spec, 50.0, 64, 2).unwrap();
        let state = DataState::new_sharded(ds.clone(), tables);
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        let layouts = [Layout::Original, Layout::MultiSort, Layout::Tiled { tiles_per_attr: 2 }];
        let first = ds.rows.id(0);
        for step in 0..3 {
            let version = state.current();
            let tables = version.shards().expect("a sharded version");
            for (i, rows) in tables.part_rows().enumerate() {
                // A part kept through the writes encodes what a part sorted
                // afresh encodes.
                let fresh = SortedTable::new(&ds.schema, rows);
                for layout in &layouts {
                    let want = image_rows(&fresh.image(&ds.schema, rows, layout, &budget).unwrap());
                    let got = image_rows(&tables.image(i, layout).unwrap());
                    assert_eq!(got, want, "step {step}: part {i} {layout:?}");
                }
            }
            match step {
                0 => state.insert(100, &q.values).map(drop).unwrap(),
                _ => state.expire(if step == 1 { first } else { 100 }).map(drop).unwrap(),
            }
        }
    }

    #[test]
    fn unsharded_worker_influence_matches_the_influence_engine() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let ds = rsky_data::synthetic::normal_dataset(3, 6, 120, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 5, &mut rng).unwrap();
        let expect = rsky_algos::InfluenceEngine::new(ds.clone(), 15.0, 256)
            .unwrap()
            .run(&qs, true)
            .unwrap();
        let state = DataState::new(ds);
        let mut worker = WorkerState::new(256, 15.0, 4).unwrap();
        let got = worker.run_influence(&state.current(), &qs, true).unwrap();
        assert_eq!(got.per_query.len(), qs.len());
        for (a, b) in expect.per_query.iter().zip(&got.per_query) {
            assert_eq!((a.query_index, a.cardinality), (b.query_index, b.cardinality));
            assert_eq!(a.ids, b.ids);
        }
        assert_eq!(got.ranking(), expect.ranking());
    }
}
