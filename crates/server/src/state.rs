//! Shared dataset state and per-worker engine state.
//!
//! The served dataset lives behind a [`DataState`]: an `Arc<Dataset>` plus
//! a monotonically increasing **generation**, bumped by every mutation
//! (`insert`/`expire`). The generation is the invalidation signal for the
//! result cache (it is part of the cache key) and for the page images
//! below.
//!
//! ## Sorted once, encoded once per generation
//!
//! The data state sorts the rows once, when it is created, into the
//! multi-attribute order of the MultiSort layout (the ascending-cardinality
//! attribute ordering, ties broken by record id, so the order is total),
//! and keeps that order beside the generation-order rows. An insert is a
//! binary-search insertion into it and an expire a binary-search removal;
//! no write re-sorts. Each [`DatasetVersion`] encodes a layout's page image
//! at most once, on first use, and every worker reads that one image:
//! Original from the generation-order rows, MultiSort from the kept order,
//! and Tiled by one external sort of the Original image. Only a successful
//! encode is kept: a failure reaches its caller as it is, and the next
//! reader encodes again.
//!
//! Workers cannot share one disk — `EngineCtx` takes `&mut Disk` because
//! engines create scratch files (the R-file) during a run — so a
//! [`WorkerState`] gives each query a fresh in-memory scratch disk, mounts
//! the layout's image on it ([`SharedRecords::mount`], which shares the
//! pages instead of copying them), and drops the disk with the engine's
//! scratch files when the query ends. A mounted image reads exactly like a
//! freshly prepared table, so the engines' costs do not depend on the
//! worker or on the queries it ran before.
//!
//! ## Sharded serving
//!
//! A [`DataState::new_sharded`] state additionally maintains the dataset
//! partitioned into K shard parts ([`ShardParts`]), each behind its own
//! `Arc<RowBuf>`. Mutations are **copy-on-write per shard**: an insert or
//! expire clones and rewrites only the one part the record belongs to — the
//! other K−1 parts keep sharing their buffers with every older version.
//! Placement is *sticky*: hash-by-id records always land by their id;
//! round-robin records are placed by their arrival position and keep that
//! shard for life (an expire does not re-balance). Query results never
//! depend on placement — the scatter-gather executor is exact for any
//! partition — so stickiness only affects load spread, not answers. A
//! sharded worker prepares its own [`ShardedTables`] on each generation and
//! reads no page image, so a sharded state keeps no multi-sort order: its
//! writes copy no sorted rows, and an image asked of it anyway is sorted
//! from the Original image, like Tiled.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use rsky_algos::prep::{sort_order, Layout};
use rsky_algos::shard::ShardedTables;
use rsky_algos::{engine_by_name, layout_for, EngineCtx, InfluenceReport, RsRun};
use rsky_core::dataset::Dataset;
use rsky_core::error::{Error, Result};
use rsky_core::obs::{self, ObsHandle};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_order::{ascending_cardinality_order, external_sort, lex_cmp, sort_rows_lex};
use rsky_storage::{
    partition_rows, Disk, MemoryBudget, MutationEvent, RecordFile, RecordWriter, SharedRecords,
    ShardSpec,
};

/// The served dataset partitioned into shard parts, versioned together with
/// the flat dataset it partitions.
#[derive(Clone)]
pub struct ShardParts {
    /// Shard count and placement policy.
    pub spec: ShardSpec,
    /// One part per shard; every part is shared copy-on-write across
    /// versions (mutations replace only the affected part's Arc).
    pub parts: Vec<Arc<RowBuf>>,
}

impl ShardParts {
    /// Partitions `rows` according to `spec`.
    fn build(rows: &RowBuf, spec: ShardSpec) -> Self {
        let parts = partition_rows(rows, &spec).into_iter().map(Arc::new).collect();
        Self { spec, parts }
    }

    /// Owned copies of the parts (what `ShardedTables::from_parts` loads).
    pub fn to_row_bufs(&self) -> Vec<RowBuf> {
        self.parts.iter().map(|p| (**p).clone()).collect()
    }

    /// The shard currently holding record `id`, if any.
    fn shard_holding(&self, id: RecordId) -> Option<(usize, usize)> {
        for (s, part) in self.parts.iter().enumerate() {
            for i in 0..part.len() {
                if part.id(i) == id {
                    return Some((s, i));
                }
            }
        }
        None
    }
}

/// A page image kept with the layout it holds.
type Slot = Mutex<Option<(Layout, SharedRecords)>>;

/// One generation's rows in the multi-sort order and its page images, each
/// encoded on first use and then shared by every worker.
struct Layouts {
    /// The generation's rows in the multi-sort order; `None` on a sharded
    /// state, whose workers prepare their own tables and read no image.
    sorted: Option<RowBuf>,
    original: Slot,
    multisort: Slot,
    tiled: Slot,
}

impl Layouts {
    fn new(sorted: Option<RowBuf>) -> Arc<Self> {
        Arc::new(Self {
            sorted,
            original: Slot::default(),
            multisort: Slot::default(),
            tiled: Slot::default(),
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
    /// The shard partition of `dataset.rows`, when serving sharded.
    pub shards: Option<ShardParts>,
    layouts: Arc<Layouts>,
}

impl DatasetVersion {
    /// This generation's page image of `layout` on pages of `budget`'s
    /// size: encoded by the first caller, which the others wait for, and
    /// shared from then on. Original and, when the state keeps the
    /// multi-sort order, MultiSort are written from rows in memory; any
    /// other order is one external sort of the Original image within
    /// `budget`. A failed encode is not kept: the next caller tries again.
    ///
    /// # Errors
    /// The error encoding fails with, unchanged (a record that does not fit
    /// a page is [`Error::InvalidConfig`]); [`Error::InvalidConfig`] when
    /// the Tiled image was encoded with another tile count.
    pub fn image(&self, layout: &Layout, budget: &MemoryBudget) -> Result<SharedRecords> {
        let (layouts, page) = (&self.layouts, budget.page_size());
        let slot = match layout {
            Layout::Original => &layouts.original,
            Layout::MultiSort => &layouts.multisort,
            Layout::Tiled { .. } => &layouts.tiled,
        };
        // A slot holds nothing or a whole image, so a panic in another
        // caller's encode leaves it usable.
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some((kept, image)) if kept == layout => return Ok(image.clone()),
            Some((kept, _)) => {
                return Err(Error::InvalidConfig(format!(
                    "generation {} holds {kept:?}, not {layout:?}",
                    self.generation
                )))
            }
            None => {}
        }
        let image = match (layout, &layouts.sorted) {
            (Layout::Original, _) => encode(page, |disk| write(disk, &self.dataset.rows))?,
            (Layout::MultiSort, Some(sorted)) => encode(page, |disk| write(disk, sorted))?,
            _ => {
                let original = self.image(&Layout::Original, budget)?;
                encode(page, |disk| {
                    let raw = original.mount(disk)?;
                    let order = sort_order(&self.dataset.schema, layout)?
                        .expect("only Original keeps generation order");
                    Ok(external_sort(disk, &raw, budget, &order)?.file)
                })?
            }
        };
        *slot = Some((layout.clone(), image.clone()));
        Ok(image)
    }
}

/// Keeps the pages of the file `build` writes on a scratch disk.
fn encode(
    page: usize,
    build: impl FnOnce(&mut Disk) -> Result<RecordFile>,
) -> Result<SharedRecords> {
    // An image outlives the request that encodes it, and a snapshot keeps
    // the recorder in effect when it is taken: record nothing.
    obs::with_recorder(ObsHandle::noop(), || {
        let mut disk = Disk::new_mem(page);
        build(&mut disk)?.share(&disk)
    })
}

/// Writes `rows` as a new record file.
fn write(disk: &mut Disk, rows: &RowBuf) -> Result<RecordFile> {
    let mut writer = RecordWriter::create(disk, rows.num_attrs())?;
    writer.push_all(disk, rows)?;
    writer.finish(disk)
}

/// `rows` with `row` inserted before row `at`, built in one exact-capacity
/// pass.
fn with_row_at(rows: &RowBuf, at: usize, row: &[u32]) -> RowBuf {
    let (flat, w) = (rows.as_flat(), rows.row_width());
    let mut out = RowBuf::with_capacity(rows.num_attrs(), rows.len() + 1);
    out.extend_flat(flat[..at * w].iter().copied());
    out.push_flat(row);
    out.extend_flat(flat[at * w..].iter().copied());
    out
}

/// `rows` without the rows in `gaps` (ascending, disjoint ranges of row
/// indices), built in one exact-capacity pass.
fn without_rows(rows: &RowBuf, gaps: &[Range<usize>]) -> RowBuf {
    let (flat, w) = (rows.as_flat(), rows.row_width());
    let removed: usize = gaps.iter().map(ExactSizeIterator::len).sum();
    let mut out = RowBuf::with_capacity(rows.num_attrs(), rows.len() - removed);
    let mut from = 0;
    for gap in gaps.iter().chain([&(rows.len()..rows.len())]) {
        out.extend_flat(flat[from * w..gap.start * w].iter().copied());
        from = gap.end;
    }
    out
}

/// The first row of `sorted` that does not order before `row`.
fn lower_bound(sorted: &RowBuf, row: &[u32], order: &[usize]) -> usize {
    let (mut lo, mut hi) = (0, sorted.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if lex_cmp(sorted.flat_row(mid), row, order) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Shared, versioned dataset state.
pub struct DataState {
    /// The attribute ordering of the kept multi-sort order.
    order: Vec<usize>,
    current: RwLock<DatasetVersion>,
}

impl DataState {
    /// Wraps `dataset` as generation 1, sorting a copy of its rows into
    /// the kept multi-sort order.
    pub fn new(dataset: Dataset) -> Self {
        Self::wrap(dataset, None)
    }

    /// Wraps `dataset` as generation 1, partitioned into `spec.shards`
    /// parts maintained copy-on-write across mutations. It keeps no
    /// multi-sort order.
    pub fn new_sharded(dataset: Dataset, spec: ShardSpec) -> Self {
        Self::wrap(dataset, Some(spec))
    }

    fn wrap(dataset: Dataset, spec: Option<ShardSpec>) -> Self {
        let order = ascending_cardinality_order(&dataset.schema);
        let sorted = spec.is_none().then(|| {
            let mut sorted = dataset.rows.clone();
            sort_rows_lex(&mut sorted, &order);
            sorted
        });
        let shards = spec.map(|spec| ShardParts::build(&dataset.rows, spec));
        Self {
            order,
            current: RwLock::new(DatasetVersion {
                generation: 1,
                dataset: Arc::new(dataset),
                shards,
                layouts: Layouts::new(sorted),
            }),
        }
    }

    /// The current version (cheap: clones an Arc under a read lock).
    pub fn current(&self) -> DatasetVersion {
        self.current.read().unwrap().clone()
    }

    /// Adds a record, returning the new version together with the mutation
    /// event downstream maintainers (materialized views) consume. Fails
    /// without bumping the generation when the id is taken or the values
    /// don't fit the schema. The record goes where a binary search puts it
    /// in the kept order, if the state keeps one.
    pub fn insert(
        &self,
        id: RecordId,
        values: &[ValueId],
    ) -> Result<(DatasetVersion, MutationEvent)> {
        let mut cur = self.current.write().unwrap();
        let ds = Arc::clone(&cur.dataset);
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
        let rows = with_row_at(&ds.rows, ds.rows.len(), &row);
        let sorted = (cur.layouts.sorted.as_ref())
            .map(|sorted| with_row_at(sorted, lower_bound(sorted, &row, &self.order), &row));
        if let Some(shards) = &mut cur.shards {
            // Copy-on-write on the one target shard; round-robin places by
            // arrival position (the new row's index in generation order),
            // hash-by-id by the id alone.
            let k = shards.spec.shards;
            let target = shards.spec.policy.shard_of(id, rows.len() - 1, k);
            let mut part = (*shards.parts[target]).clone();
            part.push(id, values);
            shards.parts[target] = Arc::new(part);
        }
        let next = Dataset {
            schema: ds.schema.clone(),
            dissim: ds.dissim.clone(),
            rows,
            label: ds.label.clone(),
        };
        cur.generation += 1;
        cur.dataset = Arc::new(next);
        cur.layouts = Layouts::new(sorted);
        let event = MutationEvent::insert(id, values.to_vec(), cur.generation);
        Ok((cur.clone(), event))
    }

    /// Removes every record with id `id`, returning the new version and the
    /// mutation event.
    pub fn expire(&self, id: RecordId) -> Result<(DatasetVersion, MutationEvent)> {
        let mut cur = self.current.write().unwrap();
        let ds = Arc::clone(&cur.dataset);
        let copies: Vec<usize> = (0..ds.rows.len()).filter(|&i| ds.rows.id(i) == id).collect();
        if copies.is_empty() {
            return Err(Error::InvalidConfig(format!("record id {id} does not exist")));
        }
        let rows = without_rows(&ds.rows, &copies.iter().map(|&i| i..i + 1).collect::<Vec<_>>());
        let sorted = cur.layouts.sorted.as_ref().map(|sorted| {
            // Each copy sits in the kept order where a binary search puts
            // it, in a run of rows identical to it (the order is total up
            // to identical rows).
            let mut gaps: Vec<Range<usize>> = copies
                .iter()
                .map(|&i| {
                    let row = ds.rows.flat_row(i);
                    let start = lower_bound(sorted, row, &self.order);
                    let len = (start..sorted.len())
                        .take_while(|&j| sorted.flat_row(j) == row)
                        .count();
                    start..start + len
                })
                .collect();
            gaps.sort_unstable_by_key(|gap| gap.start);
            gaps.dedup();
            without_rows(sorted, &gaps)
        });
        if let Some(shards) = &mut cur.shards {
            let (s, at) =
                shards.shard_holding(id).expect("flat rows and shard parts hold the same ids");
            let old = &shards.parts[s];
            let mut part = RowBuf::with_capacity(old.num_attrs(), old.len() - 1);
            for i in 0..old.len() {
                if i != at {
                    part.push(old.id(i), old.values(i));
                }
            }
            shards.parts[s] = Arc::new(part);
        }
        let next = Dataset {
            schema: ds.schema.clone(),
            dissim: ds.dissim.clone(),
            rows,
            label: ds.label.clone(),
        };
        cur.generation += 1;
        cur.dataset = Arc::new(next);
        cur.layouts = Layouts::new(sorted);
        let event = MutationEvent::expire(id, cur.generation);
        Ok((cur.clone(), event))
    }
}

/// One worker's engine state. Unsharded, it holds only its configuration:
/// each query runs on a scratch disk that mounts the version's page image.
/// With a shard spec set, the worker instead maintains a private
/// [`ShardedTables`] (one miniature node per shard) for one generation and
/// routes queries through the scatter-gather executor.
pub struct WorkerState {
    page: usize,
    mem_pct: f64,
    tiles: u32,
    shard_spec: Option<ShardSpec>,
    pruner_budget: usize,
    /// The sharded tables and the generation they hold.
    sharded: Option<(u64, ShardedTables)>,
}

impl WorkerState {
    /// Creates a worker state; a sharded worker prepares its tables on its
    /// first query.
    pub fn new(page: usize, mem_pct: f64, tiles: u32) -> Result<Self> {
        // Refuses a page size no budget can be built on.
        MemoryBudget::from_bytes(page as u64, page)?;
        Ok(Self {
            page,
            mem_pct,
            tiles,
            shard_spec: None,
            pruner_budget: rsky_algos::shard::DEFAULT_PRUNER_BUDGET,
            sharded: None,
        })
    }

    /// Switches this worker to sharded scatter-gather execution (`None`
    /// keeps single-node execution).
    pub fn with_shards(mut self, spec: Option<ShardSpec>) -> Self {
        self.shard_spec = spec;
        self
    }

    /// Sets the pruner-exchange band budget for sharded execution (0
    /// disables the exchange). No effect without a shard spec.
    pub fn with_pruner_budget(mut self, budget: usize) -> Self {
        self.pruner_budget = budget;
        self
    }

    /// This worker's sharded tables for `version`, rebuilt on a
    /// generation change; `None` on an unsharded worker.
    fn sharded(&mut self, version: &DatasetVersion) -> Result<Option<&mut ShardedTables>> {
        let Some(spec) = self.shard_spec else {
            return Ok(None);
        };
        if !matches!(&self.sharded, Some((g, _)) if *g == version.generation) {
            // Reuse the version's copy-on-write partition when the data
            // state maintains one under the same spec; partition afresh
            // otherwise (a differently-configured or unsharded DataState).
            let parts = match &version.shards {
                Some(sp) if sp.spec == spec => sp.to_row_bufs(),
                _ => partition_rows(&version.dataset.rows, &spec),
            };
            let tables = ShardedTables::from_parts(
                &version.dataset.schema,
                &version.dataset.dissim,
                parts,
                spec,
                version.dataset.data_bytes(),
                self.mem_pct,
                self.page,
                self.tiles,
            )?
            .with_pruner_budget(self.pruner_budget);
            self.sharded = Some((version.generation, tables));
        }
        Ok(self.sharded.as_mut().map(|(_, tables)| tables))
    }

    /// Runs one reverse-skyline query with `engine_name` on the layout it
    /// needs. Cancellation (deadline) is taken from the scoped token
    /// installed by the caller.
    pub fn run_query(
        &mut self,
        version: &DatasetVersion,
        engine_name: &str,
        engine_threads: usize,
        query: &Query,
    ) -> Result<RsRun> {
        if let Some(sharded) = self.sharded(version)? {
            let run = sharded.run_query(engine_name, engine_threads, query)?;
            return Ok(RsRun { ids: run.ids, stats: run.stats });
        }
        let layout = layout_for(engine_name, self.tiles)?;
        let budget =
            MemoryBudget::from_percent(version.dataset.data_bytes(), self.mem_pct, self.page)?;
        let image = version.image(&layout, &budget)?;
        let mut disk = Disk::new_mem(self.page);
        let file = image.mount(&mut disk)?;
        let engine = engine_by_name(engine_name, &version.dataset.schema, engine_threads)?;
        let mut ctx = EngineCtx {
            disk: &mut disk,
            schema: &version.dataset.schema,
            dissim: &version.dataset.dissim,
            budget,
        };
        engine.run(&mut ctx, &file, query)
    }

    /// Runs an influence workload through this worker's sharded tables.
    /// Only available on sharded workers — unsharded servers use
    /// [`rsky_algos::run_influence_parallel`] instead, which owns its
    /// per-thread state.
    pub fn run_influence(
        &mut self,
        version: &DatasetVersion,
        queries: &[Query],
        keep_ids: bool,
    ) -> Result<InfluenceReport> {
        let sharded = self.sharded(version)?.ok_or_else(|| {
            Error::InvalidConfig("run_influence on WorkerState requires a shard spec".into())
        })?;
        sharded.run_influence(queries, keep_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let sp = version.shards.as_ref().expect("sharded state");
        let mut ids: Vec<u32> = sp
            .parts
            .iter()
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
            let state = DataState::new_sharded(ds.clone(), spec);
            let v1 = state.current();
            assert_parts_cover(&v1);

            let (v2, _) = state.insert(100, &q.values.clone()).unwrap();
            assert_parts_cover(&v2);
            // Exactly one part was rewritten; the others still share their
            // buffers with v1 (copy-on-write).
            let (s1, s2) = (v1.shards.as_ref().unwrap(), v2.shards.as_ref().unwrap());
            let rewritten = (0..3)
                .filter(|&s| !Arc::ptr_eq(&s1.parts[s], &s2.parts[s]))
                .count();
            assert_eq!(rewritten, 1, "{policy}: insert rewrites exactly one shard part");

            let (v3, _) = state.expire(100).unwrap();
            assert_parts_cover(&v3);
            let s3 = v3.shards.as_ref().unwrap();
            let rewritten = (0..3)
                .filter(|&s| !Arc::ptr_eq(&s2.parts[s], &s3.parts[s]))
                .count();
            assert_eq!(rewritten, 1, "{policy}: expire rewrites exactly one shard part");

            // A sharded worker answers identically to the definition across
            // the mutation history.
            let mut worker = WorkerState::new(64, 50.0, 4).unwrap().with_shards(Some(spec));
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

    #[test]
    fn failed_encodes_are_not_kept() {
        let (ds, _) = rsky_data::paper_example();
        let version = DataState::new(ds).current();
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        let err = version.image(&Layout::Tiled { tiles_per_attr: 0 }, &budget).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        let tiled = Layout::Tiled { tiles_per_attr: 2 };
        let image = version.image(&tiled, &budget).unwrap();
        assert_eq!(image.len(), version.dataset.len() as u64);
        let again = version.image(&tiled, &budget).unwrap();
        assert_eq!(image_rows(&again), image_rows(&image));
        let other = Layout::Tiled { tiles_per_attr: 3 };
        assert!(version.image(&other, &budget).is_err(), "one tile count a generation");
    }

    #[test]
    fn sharded_states_keep_no_order_and_sort_images_on_demand() {
        use rsky_storage::ShardPolicy;
        let (ds, q) = rsky_data::paper_example();
        let spec = ShardSpec::new(2, ShardPolicy::RoundRobin).unwrap();
        let flat = DataState::new(ds.clone());
        let sharded = DataState::new_sharded(ds, spec);
        let budget = MemoryBudget::from_bytes(256, 64).unwrap();
        let layouts = [Layout::Original, Layout::MultiSort, Layout::Tiled { tiles_per_attr: 2 }];
        let first = flat.current().dataset.rows.id(0);
        for step in 0..3 {
            let (f, s) = (flat.current(), sharded.current());
            assert!(f.layouts.sorted.is_some(), "an unsharded state keeps the order");
            assert!(s.layouts.sorted.is_none(), "a sharded state keeps none");
            for layout in &layouts {
                let want = image_rows(&f.image(layout, &budget).unwrap());
                let got = image_rows(&s.image(layout, &budget).unwrap());
                assert_eq!(got, want, "step {step}: {layout:?}");
            }
            for state in [&flat, &sharded] {
                match step {
                    0 => state.insert(100, &q.values).map(drop).unwrap(),
                    _ => state.expire(if step == 1 { first } else { 100 }).map(drop).unwrap(),
                }
            }
        }
    }

    #[test]
    fn sharded_worker_influence_requires_spec() {
        let (ds, _) = rsky_data::paper_example();
        let state = DataState::new(ds);
        let mut worker = WorkerState::new(64, 50.0, 4).unwrap();
        assert!(worker.run_influence(&state.current(), &[], false).is_err());
    }
}
