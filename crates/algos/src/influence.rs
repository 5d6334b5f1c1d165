//! Influence analytics: batched reverse-skyline cardinalities.
//!
//! The paper's motivating use cases are *influence* computations — "highly
//! influential admins (those who are suitable for many servers, due to
//! having a larger RS set) are critical to the business"; the car dealer
//! "may want to source more of the influential cars". This module runs many
//! queries against one prepared table and reports `|RS|` per query, reusing
//! the prepared layout and disk across queries (the expensive part —
//! sorting — is paid once).
//!
//! The *bichromatic* flavor takes the queries from a second dataset mapped
//! into the same schema (e.g. cars as queries against customer-preference
//! data), which is just a workload definition here: any `Vec<Query>` works.
//!
//! Every workload runs through one loop, [`run_queries`], which takes the
//! per-query run as a closure: [`InfluenceEngine`] runs TRS over its own
//! sorted image, [`crate::ShardedTables::run_influence`] runs the
//! scatter-gather executor, and the server's workers run their query path.
//! Each query closes one `influence.query` cost scope.

use rsky_core::dataset::Dataset;
use rsky_core::error::Result;
use rsky_core::query::Query;
use rsky_core::stats::RunStats;
use rsky_storage::{MemoryBudget, SharedRecords};

use crate::engine::{RsRun, RunObs};
use crate::prep::{run_on_image, Layout, SortedTable};
use crate::trs::Trs;

/// Influence of one query: its reverse-skyline cardinality (and the ids on
/// request).
#[derive(Debug, Clone)]
pub struct Influence {
    /// Index of the query in the submitted workload.
    pub query_index: usize,
    /// `|RS(query)|`.
    pub cardinality: usize,
    /// The result ids, kept only when requested.
    pub ids: Option<Vec<u32>>,
}

/// Aggregate outcome of an influence batch.
#[derive(Debug, Clone)]
pub struct InfluenceReport {
    /// Per-query influence, in workload order.
    pub per_query: Vec<Influence>,
    /// Summed engine statistics across the batch.
    pub totals: RunStats,
}

impl InfluenceReport {
    /// Query indices sorted by descending influence.
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.per_query.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.per_query[i].cardinality));
        idx
    }

    /// Total influence mass (`Σ |RS|`).
    pub fn total_influence(&self) -> usize {
        self.per_query.iter().map(|i| i.cardinality).sum()
    }

    /// Share of total influence held by the `k` most influential queries
    /// (a concentration/risk measure; 0.0 when there is no influence at all).
    pub fn top_k_share(&self, k: usize) -> f64 {
        let total = self.total_influence();
        if total == 0 {
            return 0.0;
        }
        let ranking = self.ranking();
        let top: usize =
            ranking.iter().take(k).map(|&i| self.per_query[i].cardinality).sum();
        top as f64 / total as f64
    }
}

/// A dataset prepared once for many influence queries: sorted once into
/// its MultiSort page image, which each query mounts on a scratch disk of
/// its own ([`run_on_image`]), so no query's scratch files outlive it.
///
/// ```
/// use rsky_algos::InfluenceEngine;
///
/// let (ds, q) = rsky_data::paper_example();
/// let mut engine = InfluenceEngine::new(ds, 50.0, 64).unwrap();
/// let report = engine.run(std::slice::from_ref(&q), true).unwrap();
/// assert_eq!(report.per_query[0].cardinality, 2); // |RS| of the paper query
/// assert_eq!(report.per_query[0].ids.as_deref(), Some(&[3, 6][..]));
/// ```
pub struct InfluenceEngine {
    dataset: Dataset,
    image: SharedRecords,
    budget: MemoryBudget,
    trs: Trs,
}

impl InfluenceEngine {
    /// Sorts `dataset` into its MultiSort page image and keeps the TRS
    /// engine ready. `mem_pct` is the usual memory knob.
    pub fn new(dataset: Dataset, mem_pct: f64, page_size: usize) -> Result<Self> {
        let budget = MemoryBudget::from_percent(dataset.data_bytes(), mem_pct, page_size)?;
        let (schema, rows) = (&dataset.schema, &dataset.rows);
        let table = SortedTable::new(schema, rows);
        let image = table.image(schema, rows, &Layout::MultiSort, &budget)?;
        let trs = Trs::for_schema(schema);
        Ok(Self { dataset, image, budget, trs })
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Runs the workload, returning per-query influence. Set `keep_ids` to
    /// retain the result id lists (memory proportional to total influence).
    /// Each query closes one `influence.query` span (see [`run_queries`]).
    pub fn run(&self, queries: &[Query], keep_ids: bool) -> Result<InfluenceReport> {
        self.run_share(queries.iter().enumerate(), keep_ids)
    }

    /// Runs `queries`, each paired with its workload index.
    fn run_share<'q>(
        &self,
        queries: impl IntoIterator<Item = (usize, &'q Query)>,
        keep_ids: bool,
    ) -> Result<InfluenceReport> {
        let ds = &self.dataset;
        run_queries(queries, keep_ids, |q| {
            run_on_image(&self.trs, &self.image, &ds.schema, &ds.dissim, self.budget, q, None)
        })
    }
}

/// The one influence loop: runs `queries`, each paired with its workload
/// index, in the given order through `run`, the caller's per-query
/// reverse-skyline run, and reports `|RS|` per query with the summed stats.
/// With a recorder active, each query closes one `influence.query` span
/// carrying the workload index and its cardinality: a cost scope over the
/// running totals, so its deltas are that query's costs and the spans tile
/// [`InfluenceReport::totals`].
pub fn run_queries<'q>(
    queries: impl IntoIterator<Item = (usize, &'q Query)>,
    keep_ids: bool,
    mut run: impl FnMut(&Query) -> Result<RsRun>,
) -> Result<InfluenceReport> {
    let robs = RunObs::capture("influence");
    let mut per_query = Vec::new();
    let mut totals = RunStats::default();
    for (qi, q) in queries {
        let scope = robs.scope("query", &totals, totals.io);
        let run = run(q)?;
        totals.merge(&run.stats);
        scope
            .field("query", qi as u64)
            .field("cardinality", run.ids.len() as u64)
            .close(&totals, totals.io);
        per_query.push(Influence {
            query_index: qi,
            cardinality: run.ids.len(),
            ids: keep_ids.then_some(run.ids),
        });
    }
    Ok(InfluenceReport { per_query, totals })
}

/// Runs an influence workload across `threads` OS threads. One
/// [`InfluenceEngine`] sorts the dataset once; every thread mounts its
/// image for each of its share of the queries (partitioned round-robin).
/// Results come back in workload order, identical to the sequential
/// [`InfluenceEngine::run`].
///
/// Threading is safe and simple here because every engine run is pure with
/// respect to its own scratch disk: no shared mutable state exists across
/// queries.
pub fn run_influence_parallel(
    dataset: &Dataset,
    queries: &[Query],
    mem_pct: f64,
    page_size: usize,
    threads: usize,
    keep_ids: bool,
) -> Result<InfluenceReport> {
    let engine = InfluenceEngine::new(dataset.clone(), mem_pct, page_size)?;
    let threads = threads.clamp(1, queries.len().max(1));
    if threads <= 1 || queries.len() <= 1 {
        return engine.run(queries, keep_ids);
    }
    // Capture the caller's recorder, cancel token and span context (all
    // scoped thread-locals) and re-install them inside each worker, so
    // per-query spans from worker threads reach the same sink *in the same
    // trace* and a deadline set by the caller cancels every shard.
    let obs = rsky_core::obs::handle();
    let cancel = rsky_core::cancel::current();
    let parent = rsky_core::obs::current_parent();
    let results: Vec<Result<InfluenceReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let obs = obs.clone();
                let cancel = cancel.clone();
                let engine = &engine;
                scope.spawn(move || -> Result<InfluenceReport> {
                    rsky_core::obs::with_recorder(obs, || {
                        rsky_core::cancel::with_token(cancel, || {
                            rsky_core::obs::with_parent(parent, || {
                                let share = (t..queries.len())
                                    .step_by(threads)
                                    .map(|qi| (qi, &queries[qi]));
                                engine.run_share(share, keep_ids)
                            })
                        })
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("influence worker panicked")).collect()
    });

    let mut per_query: Vec<Option<Influence>> = vec![None; queries.len()];
    let mut totals = RunStats::default();
    for report in results {
        let report = report?;
        totals.merge(&report.totals);
        for inf in report.per_query {
            let qi = inf.query_index;
            per_query[qi] = Some(inf);
        }
    }
    Ok(InfluenceReport {
        per_query: per_query.into_iter().map(|i| i.expect("all queries answered")).collect(),
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn influence_matches_individual_runs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(200);
        let ds = rsky_data::synthetic::normal_dataset(3, 6, 200, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 5, &mut rng).unwrap();
        let engine = InfluenceEngine::new(ds.clone(), 15.0, 256).unwrap();
        let report = engine.run(&qs, true).unwrap();
        assert_eq!(report.per_query.len(), 5);
        for (qi, q) in qs.iter().enumerate() {
            let expect =
                rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
            assert_eq!(report.per_query[qi].cardinality, expect.len());
            assert_eq!(report.per_query[qi].ids.as_ref().unwrap(), &expect);
        }
        assert_eq!(report.total_influence(), report.totals.result_size);
    }

    #[test]
    fn ranking_and_concentration() {
        let report = InfluenceReport {
            per_query: vec![
                Influence { query_index: 0, cardinality: 5, ids: None },
                Influence { query_index: 1, cardinality: 20, ids: None },
                Influence { query_index: 2, cardinality: 0, ids: None },
                Influence { query_index: 3, cardinality: 75, ids: None },
            ],
            totals: RunStats::default(),
        };
        assert_eq!(report.ranking(), vec![3, 1, 0, 2]);
        assert_eq!(report.total_influence(), 100);
        assert!((report.top_k_share(1) - 0.75).abs() < 1e-12);
        assert!((report.top_k_share(2) - 0.95).abs() < 1e-12);
        assert!((report.top_k_share(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_and_empty_influence() {
        let (ds, _) = rsky_data::paper_example();
        let engine = InfluenceEngine::new(ds, 50.0, 64).unwrap();
        let report = engine.run(&[], false).unwrap();
        assert!(report.per_query.is_empty());
        assert_eq!(report.top_k_share(3), 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(202);
        let ds = rsky_data::synthetic::normal_dataset(4, 5, 180, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 9, &mut rng).unwrap();
        let seq = InfluenceEngine::new(ds.clone(), 12.0, 256).unwrap().run(&qs, true).unwrap();
        let par = run_influence_parallel(&ds, &qs, 12.0, 256, 4, true).unwrap();
        assert_eq!(seq.per_query.len(), par.per_query.len());
        for (a, b) in seq.per_query.iter().zip(&par.per_query) {
            assert_eq!(a.query_index, b.query_index);
            assert_eq!(a.cardinality, b.cardinality);
            assert_eq!(a.ids, b.ids);
        }
        assert_eq!(seq.totals.dist_checks, par.totals.dist_checks);
    }

    #[test]
    fn parallel_workers_cost_what_sequential_queries_cost() {
        // Each worker mounts the one sorted image instead of loading and
        // sorting its own copy; the queries' own costs, IO included, stay
        // those of the sequential engine.
        let mut rng = rand::rngs::StdRng::seed_from_u64(203);
        let ds = rsky_data::synthetic::normal_dataset(4, 5, 300, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 6, &mut rng).unwrap();
        let seq = InfluenceEngine::new(ds.clone(), 12.0, 256).unwrap().run(&qs, false).unwrap();
        let par = run_influence_parallel(&ds, &qs, 12.0, 256, 2, false).unwrap();
        let (a, b) = (&seq.totals, &par.totals);
        assert_eq!(
            (a.dist_checks, a.query_dist_checks, a.obj_comparisons, a.tree_nodes_visited),
            (b.dist_checks, b.query_dist_checks, b.obj_comparisons, b.tree_nodes_visited)
        );
        assert_eq!(a.io, b.io);
    }

    #[test]
    fn parallel_single_thread_falls_back() {
        let (ds, q) = rsky_data::paper_example();
        let par = run_influence_parallel(&ds, &[q], 50.0, 64, 8, false).unwrap();
        assert_eq!(par.per_query.len(), 1);
        assert_eq!(par.per_query[0].cardinality, 2);
    }

    #[test]
    fn bichromatic_workload_from_second_dataset() {
        // Queries drawn from a second dataset over the same schema.
        let mut rng = rand::rngs::StdRng::seed_from_u64(201);
        let base = rsky_data::synthetic::normal_dataset(3, 5, 150, &mut rng).unwrap();
        let probes = rsky_data::synthetic::uniform_rows(&base.schema, 10, &mut rng);
        let queries: Vec<Query> = (0..probes.len())
            .map(|i| rsky_core::query::Query::new(&base.schema, probes.values(i).to_vec()).unwrap())
            .collect();
        let engine = InfluenceEngine::new(base.clone(), 10.0, 256).unwrap();
        let report = engine.run(&queries, false).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let expect =
                rsky_core::skyline::reverse_skyline_by_definition(&base.dissim, &base.rows, q);
            assert_eq!(report.per_query[qi].cardinality, expect.len());
        }
    }
}
