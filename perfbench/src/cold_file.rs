//! `cold-file`: each op is one `rsky query --file-backend` — load the CSV
//! dataset directory, write its pages to a file-backed disk, sort them
//! externally to the multi-sort layout at 10 % memory, run the engine.
//! Storage IO and sorting do most of the work; the engine about a third.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::prep::{load_dataset, prepare_table};
use rsky_algos::{engine_by_name, layout_for, EngineCtx, RsRun};
use rsky_core::error::Error;
use rsky_core::query::Query;
use rsky_core::record::RecordId;
use rsky_core::stats::IoCounts;
use rsky_data::csv::{load_dataset_dir, save_dataset};
use rsky_storage::{Disk, MemoryBudget};

use crate::check::check_ids;
use crate::costs::{engine_layer, rotated, run_passes, Costs, Latencies};
use crate::report::Outcome;
use crate::stats::{median, ratio};
use crate::trace::{fold, SpanId, Tracer, OP};
use crate::{Config, DATA_SEED};

const ROWS: usize = 100_000;
const ATTRS: usize = 5;
const VALUES: u32 = 50;
const PAGE: usize = 4096;
const MEMORY_PCT: f64 = 10.0;
const QUERIES: usize = 16;
const OPS: &[&str] = &["trs", "srs"];
const MIN_PASSES: usize = 3;
/// Set-ups timed at the start of each pass.
const SETUP_REPS: usize = 3;

/// What one cold query returned, beside its ids.
struct ColdRun {
    run: RsRun,
    ms: f64,
    /// Page IO of the whole op: load, sort and engine.
    io: IoCounts,
    sort_pages: u64,
    sort: Option<(usize, usize)>,
    user_bytes: u64,
}

/// One `rsky query --file-backend --algo <engine>` with pages under `disk_dir`.
fn cold_query(
    engine: &str,
    data: &Path,
    disk_dir: &Path,
    values: &[u32],
    tr: &mut Tracer,
    op: u64,
) -> Result<ColdRun, Error> {
    let t0 = Instant::now();
    let root = tr.open(OP, SpanId::ROOT, op);
    let span = tr.open("data::csv", root, op);
    let ds = load_dataset_dir(data)?;
    tr.close(span);
    let query = Query::new(&ds.schema, values.to_vec())?;
    let span = tr.open("storage::disk", root, op);
    let mut disk = Disk::new_dir(disk_dir, PAGE)?;
    let raw = load_dataset(&mut disk, &ds)?;
    tr.close(span);
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEMORY_PCT, PAGE)?;
    let layout = layout_for(engine, 4)?;
    let span = tr.open("algos::prep", root, op);
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget)?;
    tr.close(span);
    let (layer, phase1, phase2) = engine_layer(engine);
    let span = tr.open(layer, root, op);
    let algo = engine_by_name(engine, &ds.schema, 1)?;
    let mut ctx = EngineCtx {
        disk: &mut disk,
        schema: &ds.schema,
        dissim: &ds.dissim,
        budget,
    };
    let run = algo.run(&mut ctx, &prepared.file, &query)?;
    tr.close(span);
    tr.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.derived(phase1, span, run.stats.phase1_time);
    tr.derived(phase2, span, run.stats.phase2_time);
    Ok(ColdRun {
        ms,
        io: disk.io_stats(),
        sort_pages: prepared.prep_io.total(),
        sort: prepared.sort_outcome,
        user_bytes: ds.data_bytes(),
        run,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let err = |e: Error| e.to_string();
    let mut out = Outcome::new("cold-file");
    out.sizes = format!(
        "n={ROWS} attrs={ATTRS} values={VALUES} page={PAGE} memory={MEMORY_PCT}% queries={QUERIES} ops={}",
        OPS.join(",")
    );
    let mut data_rng = StdRng::seed_from_u64(DATA_SEED);
    let ds =
        rsky_data::synthetic::normal_dataset(ATTRS, VALUES, ROWS, &mut data_rng).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let queries: Vec<Vec<u32>> = rsky_data::random_queries(&ds.schema, QUERIES, &mut rng)
        .map_err(err)?
        .into_iter()
        .map(|q| q.values)
        .collect();

    // Set-up writes the dataset directory the ops load. It is timed a few
    // times at the start of every pass, so that its samples spread over
    // the whole window as the ops' do: set-ups timed back to back all land
    // in the same few hundred ms of the host's state.
    let data = cfg.work.join("data");
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            save_dataset(&ds, &data).map_err(|e| format!("set-up: {e}"))?;
            setup.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    };

    let disk_dir = cfg.work.join("disk");
    let mut tracer = Tracer::new(cfg.traced, Instant::now());
    let mut lat = Latencies::default();
    let mut costs: BTreeMap<&str, Costs> = BTreeMap::new();
    let mut answers: BTreeMap<usize, Vec<RecordId>> = BTreeMap::new();
    let (mut io, mut sort_pages, mut runs, mut passes, mut user_bytes) =
        (IoCounts::default(), 0, 0, 0, 0);
    let mut op_id = 0u64;
    let walls = run_passes(cfg.seconds, MIN_PASSES, |p| {
        set_up(&mut setup)?;
        tracer.set_on(cfg.traced && p % 2 == 0);
        lat.start_pass(tracer.is_on());
        let t = Instant::now();
        for (qi, values) in queries.iter().enumerate() {
            for op in rotated(OPS, p) {
                op_id += 1;
                let result = cold_query(op, &data, &disk_dir, values, &mut tracer, op_id);
                let _ = std::fs::remove_dir_all(&disk_dir);
                out.attempted += 1;
                let r = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("{op} query {qi}: {e}"));
                        lat.push(op, f64::INFINITY);
                        continue;
                    }
                };
                // trs and srs must agree on every query, in every pass.
                let reference = answers.entry(qi).or_insert_with(|| r.run.ids.clone());
                if let Err(e) = check_ids(reference, &r.run.ids) {
                    out.fail(format!("{op} query {qi} pass {p}: {e}"));
                    lat.push(op, f64::INFINITY);
                    continue;
                }
                lat.push(op, r.ms);
                io.add(r.io);
                sort_pages += r.sort_pages;
                user_bytes += r.user_bytes;
                if let Some((rs, mp)) = r.sort {
                    runs += rs;
                    passes += mp;
                }
                costs.entry(op).or_default().add(&r.run.stats);
            }
        }
        Ok(t.elapsed())
    })?;

    out.set("setup_s", median(&setup), setup.len());
    lat.record_mean(&mut out, "trs", "trs_ms");
    lat.record_mean(&mut out, "srs", "srs_ms");
    lat.record_quantiles(&mut out, "trs");
    lat.record_throughput(&mut out, &walls);
    let ops = costs.values().map(|c| c.runs).sum::<usize>();
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    out.set("disk.seq_pages", per_op(io.sequential()), ops);
    out.set("disk.rand_pages", per_op(io.random()), ops);
    out.set(
        "disk.bytes_per_user_byte",
        ratio((io.total() * PAGE as u64) as f64, user_bytes as f64),
        ops,
    );
    out.set("prep.sort_pages", per_op(sort_pages), ops);
    out.set("prep.sort_runs", per_op(runs as u64), ops);
    out.set("prep.merge_passes", per_op(passes as u64), ops);
    for (op, c) in &costs {
        c.record(&mut out, op);
        out.notes.push(c.note(op));
    }
    out.notes.push(format!(
        "cost per op, all layers: seq_pages={} rand_pages={} sort_pages={} over {} passes",
        per_op(io.sequential()),
        per_op(io.random()),
        per_op(sort_pages),
        walls.len()
    ));
    if cfg.traced {
        let f = fold(tracer.spans());
        out.set("csv.load_ms", f.self_ms("data::csv"), f.spans("data::csv"));
        out.set(
            "disk.load_ms",
            f.self_ms("storage::disk"),
            f.spans("storage::disk"),
        );
        out.set(
            "prep.sort_ms",
            f.self_ms("algos::prep"),
            f.spans("algos::prep"),
        );
        for op in OPS {
            let (layer, _, _) = engine_layer(op);
            out.set(&format!("{op}.run_ms"), f.total_ms(layer), f.spans(layer));
        }
        crate::finish_trace(&mut out, cfg, &tracer, &f, lat.trace_overhead_pct());
    }
    Ok(out)
}
