//! The paper's cost units, pinned.
//!
//! The paper compares its algorithms by counts — distance checks and
//! sequential and random page accesses — not by wall-clock, and those
//! counts repeat exactly for a seed. This test runs every engine
//! single-threaded, plus the sharded executor at k = 3, on small seeded
//! datasets with full and attribute-subset queries, and compares every
//! `RunStats` counter and `IoCounts` field (never a time) with the
//! checked-in `tests/cost_baseline.txt`. `tests/paper_claims.rs` pins the
//! orderings the paper reports; this pins the values.
//!
//! The `normal-wide` rows run the `normal` rows under the non-flattening
//! twin domain ([`rsky::data::twin`]), so the distance source for domains
//! `FlatDissim` refuses is pinned too.
//!
//! A change that moves costs on purpose replaces the baseline with the
//! table this test prints on a mismatch, in the same commit, and says why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::core::stats::RunStats;
use rsky::prelude::*;

const BASELINE: &str = include_str!("cost_baseline.txt");

/// Every engine, single-threaded.
const ENGINES: &[&str] = &["naive", "brs", "srs", "trs", "trs-bf", "tsrs", "ttrs"];
/// Engines run through the sharded executor at [`SHARDS`] shards.
const SHARDED: &[&str] = &["brs", "trs"];
const SHARDS: usize = 3;
const N: usize = 400;
const MEM_PCT: f64 = 10.0;
const PAGE: usize = 128;
const TILES: u32 = 3;

/// `(name, dataset, [(query name, query)])`, all seeded.
type Fixture = (&'static str, Dataset, Vec<(&'static str, Query)>);

fn fixtures() -> Vec<Fixture> {
    let queries = |ds: &Dataset, subset: &[usize], seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let full = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let sub = rsky::data::workload::random_subset_queries(&ds.schema, subset, 1, &mut rng)
            .unwrap()
            .remove(0);
        vec![("full", full), ("subset", sub)]
    };
    let normal = rsky::data::normal_dataset(4, 8, N, &mut StdRng::seed_from_u64(1601)).unwrap();
    let census = rsky::data::census_income_like(N, &mut StdRng::seed_from_u64(1602)).unwrap();
    let forest = rsky::data::forest_cover_like(N, &mut StdRng::seed_from_u64(1603)).unwrap();
    let (_, wide) = rsky::data::twin::linear_twins(&normal).unwrap();
    // The twin shares the normal rows and queries; its subset query
    // selects the widened attribute.
    let normal_q = queries(&normal, &[1, 3], 1611);
    let census_q = queries(&census, &[0, 2, 4], 1612);
    let forest_q = queries(&forest, &[1, 3, 5], 1613);
    vec![
        ("normal", normal, normal_q.clone()),
        ("census", census, census_q),
        ("forest", forest, forest_q),
        ("normal-wide", wide, normal_q),
    ]
}

fn line(key: &str, s: &RunStats) -> String {
    format!(
        "{key}: dist_checks={} query_dist_checks={} obj_comparisons={} tree_nodes_visited={} \
         phase1_batches={} phase1_survivors={} phase2_batches={} result_size={} \
         seq_reads={} rand_reads={} seq_writes={} rand_writes={}",
        s.dist_checks,
        s.query_dist_checks,
        s.obj_comparisons,
        s.tree_nodes_visited,
        s.phase1_batches,
        s.phase1_survivors,
        s.phase2_batches,
        s.result_size,
        s.io.seq_reads,
        s.io.rand_reads,
        s.io.seq_writes,
        s.io.rand_writes,
    )
}

/// The current cost table: one line per run, and for sharded runs one
/// line per shard for the exchange kill pass and the verification pass.
fn current_table() -> Vec<String> {
    let mut out = Vec::new();
    for (name, ds, queries) in fixtures() {
        for (qname, q) in &queries {
            for &engine in ENGINES {
                let mut disk = Disk::new_mem(PAGE);
                let raw = load_dataset(&mut disk, &ds).unwrap();
                let budget = MemoryBudget::from_percent(ds.data_bytes(), MEM_PCT, PAGE).unwrap();
                let layout = layout_for(engine, TILES).unwrap();
                let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget).unwrap();
                let algo = engine_by_name(engine, &ds.schema, 1).unwrap();
                let mut ctx =
                    EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
                let run = algo.run(&mut ctx, &prepared.file, q).unwrap();
                out.push(line(&format!("{name} {qname} {engine}"), &run.stats));
            }
            for &engine in SHARDED {
                let spec = ShardSpec::new(SHARDS, ShardPolicy::RoundRobin).unwrap();
                let tables = ShardedTables::new(&ds, spec, MEM_PCT, PAGE, TILES).unwrap();
                let run = tables.run_query(engine, 1, q).unwrap();
                let key = format!("{name} {qname} {engine}/k{SHARDS}");
                out.push(line(&key, &run.stats));
                for c in &run.per_shard {
                    out.push(line(&format!("{key} shard{} kill", c.shard), &c.exchange));
                    out.push(line(&format!("{key} shard{} verify", c.shard), &c.verify));
                }
            }
        }
    }
    out
}

#[test]
fn every_engine_matches_the_cost_baseline() {
    let got = current_table();
    let want: Vec<&str> =
        BASELINE.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let key = |l: &str| l.split(": ").next().unwrap_or_default().to_string();
    let mut diffs = Vec::new();
    for (i, g) in got.iter().enumerate() {
        match want.iter().find(|w| key(w) == key(g)) {
            Some(w) if *w == g => {}
            Some(w) => diffs.push(format!("  want {w}\n  got  {g}")),
            None => diffs.push(format!("  entry {i} missing from the baseline: {g}")),
        }
    }
    for w in &want {
        if !got.iter().any(|g| key(g) == key(w)) {
            diffs.push(format!("  baseline entry no longer produced: {w}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} cost entries differ from tests/cost_baseline.txt:\n{}\n\ncurrent table:\n{}\n",
        diffs.len(),
        diffs.join("\n"),
        got.join("\n"),
    );
}
