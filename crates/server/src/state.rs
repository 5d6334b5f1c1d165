//! Shared, versioned dataset state.
//!
//! The served dataset lives behind a [`DataState`]: an `Arc<Dataset>` plus
//! a monotonically increasing **generation**, bumped by every mutation
//! (`insert`/`expire`). The generation is the invalidation signal for the
//! result cache (it is part of the cache key) and for the page images
//! below.
//!
//! ## One serving path
//!
//! Every version holds its rows as a [`ShardedTables`]: the dataset
//! partitioned into shard parts, one [`SortedTable`](rsky_algos::SortedTable)
//! each, sorted once, when the state is created, into the multi-sort order
//! of the MultiSort layout and kept in that order by binary-search
//! insertion and removal, so no write re-sorts. A part encodes each
//! layout's page image at most once, on first use, and every worker reads
//! that one image. An unsharded state is one part
//! ([`ShardSpec::single`]): its run is the single-node engine run, counters
//! and pages included, so queries, influence workloads and `top_k`
//! rankings all run through [`ShardedTables::run_query`] and
//! [`ShardedTables::run_influence`], whatever the part count.
//!
//! The partition is **copy-on-write per part**. An insert rebuilds only the
//! one part the record lands in, and an expire only the parts that hold a
//! copy of the id (every copy goes, as from the flat rows); every other
//! part, with the images it encoded in earlier generations, is shared with
//! the older versions. Placement is *sticky*: hash-by-id records land by
//! their id; round-robin records are placed by their arrival position and
//! keep that shard for life (an expire does not re-balance). Query results
//! never depend on placement — the scatter-gather executor is exact for any
//! partition — so stickiness only affects load spread, not answers.
//!
//! Workers cannot share one disk — engines create scratch files (the
//! R-file) during a run — so every query mounts the image it reads on a
//! fresh in-memory scratch disk (the mount shares the pages instead of
//! copying them) and drops the disk with the engine's scratch files when
//! the run ends. A mounted image reads exactly like a freshly prepared
//! table, so the engines' costs do not depend on the worker or on the
//! queries it ran before, and one version serves every worker.

use std::sync::{Arc, PoisonError, RwLock};

use rsky_algos::shard::ShardedTables;
use rsky_core::dataset::Dataset;
use rsky_core::error::{Error, Result};
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_storage::{MutationEvent, ShardSpec};

use crate::server::ServerConfig;

/// The served dataset at one point in time.
#[derive(Clone)]
pub struct DatasetVersion {
    /// Mutation counter; starts at 1 and grows with every `insert`/`expire`.
    pub generation: u64,
    /// The dataset itself (shared, immutable — mutations replace the Arc).
    pub dataset: Arc<Dataset>,
    /// The dataset's rows as shard parts: one part when unsharded.
    pub tables: Arc<ShardedTables>,
}

impl DatasetVersion {
    /// The next generation: `rows` held as `tables`.
    fn next(&self, rows: RowBuf, tables: ShardedTables) -> Self {
        let ds = &self.dataset;
        let dataset = Dataset {
            schema: ds.schema.clone(),
            dissim: ds.dissim.clone(),
            rows,
            label: ds.label.clone(),
        };
        let generation = self.generation + 1;
        Self { generation, dataset: Arc::new(dataset), tables: Arc::new(tables) }
    }
}

/// Shared, versioned dataset state. A write replaces the current version
/// whole, so a panic that poisoned the lock left a whole version behind,
/// and the lock is taken as it is.
pub struct DataState {
    current: RwLock<DatasetVersion>,
}

impl DataState {
    /// Wraps `dataset` as generation 1, held as one part at the default
    /// serving settings ([`ServerConfig::default`]'s memory knob, page size
    /// and tile count).
    pub fn new(dataset: Dataset) -> Self {
        let c = ServerConfig::default();
        let tables = ShardedTables::new(&dataset, ShardSpec::single(), c.mem_pct, c.page, c.tiles)
            .expect("the default serving settings are valid");
        Self::with_tables(dataset, tables)
    }

    /// Wraps `dataset` as generation 1, held as `tables`, its partition
    /// ([`ShardedTables::new`] of `dataset`), which carries the shard spec
    /// and the scatter-gather settings and is maintained copy-on-write
    /// across mutations.
    pub fn with_tables(dataset: Dataset, tables: ShardedTables) -> Self {
        let (dataset, tables) = (Arc::new(dataset), Arc::new(tables));
        let version = DatasetVersion { generation: 1, dataset, tables };
        Self { current: RwLock::new(version) }
    }

    /// The current version (cheap: clones an Arc under a read lock).
    pub fn current(&self) -> DatasetVersion {
        self.current.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Adds a record, returning the new version together with the mutation
    /// event downstream maintainers (materialized views) consume. Fails
    /// without bumping the generation when the id is taken or the values
    /// don't fit the schema. The record goes where a binary search puts it
    /// in its part's kept order.
    pub fn insert(
        &self,
        id: RecordId,
        values: &[ValueId],
    ) -> Result<(DatasetVersion, MutationEvent)> {
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
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
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let Some((rows, tables)) = cur.tables.expire(&cur.dataset.rows, id) else {
            return Err(Error::InvalidConfig(format!("record id {id} does not exist")));
        };
        *cur = cur.next(rows, tables);
        let event = MutationEvent::expire(id, cur.generation);
        Ok((cur.clone(), event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_algos::{Layout, SortedTable};
    use rsky_storage::{Disk, MemoryBudget, SharedRecords};

    /// `ds` held as one part at memory knob `mem_pct` and page size `page`.
    fn one_part(ds: Dataset, mem_pct: f64, page: usize) -> DataState {
        let tables = ShardedTables::new(&ds, ShardSpec::single(), mem_pct, page, 4).unwrap();
        DataState::with_tables(ds, tables)
    }

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
        let state = one_part(ds, 50.0, 64);

        let v1 = state.current();
        assert_eq!(v1.tables.num_shards(), 1, "an unsharded state is one part");
        for engine in ["naive", "brs", "srs", "trs", "trs-bf", "tsrs", "ttrs"] {
            let run = v1.tables.run_query(engine, 1, &q).unwrap();
            let expect = rsky_core::skyline::reverse_skyline_by_definition(
                &v1.dataset.dissim,
                &v1.dataset.rows,
                &q,
            );
            assert_eq!(run.ids, expect, "{engine} on generation 1");
        }

        // Mutate, then verify the next version's part agrees again.
        let (v2, _) = state.insert(100, &q.values.clone()).unwrap();
        let run = v2.tables.run_query("trs", 1, &q).unwrap();
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
        assert!(state.current().tables.run_query("nope", 1, &q).is_err());
    }

    /// Union of the shard parts must equal the flat rows (as an id set)
    /// across any mutation sequence — the copy-on-write invariant.
    fn assert_parts_cover(version: &DatasetVersion) {
        let mut ids: Vec<u32> = version
            .tables
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
            let state = DataState::with_tables(ds.clone(), tables);
            let v1 = state.current();
            assert_parts_cover(&v1);

            let (v2, _) = state.insert(100, &q.values.clone()).unwrap();
            assert_parts_cover(&v2);
            // Exactly one part was rewritten; the others are still the very
            // parts v1 holds (copy-on-write).
            let rewritten = |a: &DatasetVersion, b: &DatasetVersion| {
                let (a, b) = (a.tables.part_rows(), b.tables.part_rows());
                a.zip(b).filter(|(a, b)| !std::ptr::eq(*a, *b)).count()
            };
            assert_eq!(rewritten(&v1, &v2), 1, "{policy}: insert rewrites exactly one shard part");

            let (v3, _) = state.expire(100).unwrap();
            assert_parts_cover(&v3);
            assert_eq!(rewritten(&v2, &v3), 1, "{policy}: expire rewrites exactly one shard part");

            // A sharded version answers identically to the definition
            // across the mutation history.
            for v in [&v2, &v3] {
                let run = v.tables.run_query("trs", 1, &q).unwrap();
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
        let mut disk = Disk::new_mem(image.page_size());
        image.mount(&mut disk).unwrap().read_all(&mut disk).unwrap()
    }

    #[test]
    fn failed_encodes_are_not_kept() {
        let (ds, _) = rsky_data::paper_example();
        let version = one_part(ds, 50.0, 64).current();
        let image = |tiles_per_attr| version.tables.image(0, &Layout::Tiled { tiles_per_attr });
        let err = image(0).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        let first = image(2).unwrap();
        assert_eq!(first.len(), version.dataset.len() as u64);
        assert_eq!(image_rows(&image(2).unwrap()), image_rows(&first));
        assert!(image(3).is_err(), "one tile count a generation");
    }

    #[test]
    fn sharded_states_keep_each_parts_order_and_images() {
        use rsky_storage::ShardPolicy;
        let (ds, q) = rsky_data::paper_example();
        let spec = ShardSpec::new(2, ShardPolicy::RoundRobin).unwrap();
        let tables = ShardedTables::new(&ds, spec, 50.0, 64, 2).unwrap();
        let state = DataState::with_tables(ds.clone(), tables);
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        let layouts = [Layout::Original, Layout::MultiSort, Layout::Tiled { tiles_per_attr: 2 }];
        let first = ds.rows.id(0);
        for step in 0..3 {
            let version = state.current();
            let tables = &version.tables;
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
        let state = one_part(ds, 15.0, 256);
        let got = state.current().tables.run_influence(&qs, true).unwrap();
        assert_eq!(got.per_query.len(), qs.len());
        for (a, b) in expect.per_query.iter().zip(&got.per_query) {
            assert_eq!((a.query_index, a.cardinality), (b.query_index, b.cardinality));
            assert_eq!(a.ids, b.ids);
        }
        assert_eq!(got.ranking(), expect.ranking());
        // One part runs the influence engine's TRS over the same image.
        let costs = |r: &rsky_algos::InfluenceReport| {
            let t = &r.totals;
            (t.dist_checks, t.query_dist_checks, t.obj_comparisons, t.tree_nodes_visited, t.io)
        };
        assert_eq!(costs(&got), costs(&expect));
    }
}
