//! The observability *stats contract*: for every engine, the span stream an
//! in-memory sink records during a run must reconcile **exactly** with the
//! `RunStats` the engine returns —
//!
//! * Σ `dist_checks` / `obj_comparisons` / `tree_nodes_visited` over the
//!   per-batch spans equals the run totals (the engines' `CostScope` writes
//!   the same delta fields into phase and batch spans, so each sum runs over
//!   one level — the batch spans — and nothing double-counts);
//! * the number of `*.phase{1,2}.batch` spans equals
//!   `phase1_batches`/`phase2_batches`, and a phase that ran a batch
//!   reports a non-zero `phase{1,2}_time`;
//! * the two phase spans' IO fields tile `RunStats::io` component-wise;
//! * the closing `*.run` span repeats the final totals verbatim;
//! * the `qcache.build_checks` counter equals `query_dist_checks`.
//!
//! Engines on one thread and on several are held to the identical
//! contract: worker-thread spans must reach the same sink the calling
//! thread captured at run start.
//!
//! On top of the counting clauses, every run is held to the *trace tree*
//! contract: all spans of a run share one `trace_id`, exactly one span is a
//! root (`parent_id == None`), every non-root span references a parent that
//! closed in the same trace (no orphans), and the root's wall time is at
//! least the sum of its direct children's (children on the root's thread
//! run sequentially inside it). The same clauses are applied to requests
//! served over TCP, where the tree must span server → engine → shard →
//! influence layers, and to the view-maintenance work a mutation triggers
//! on a server with live subscriptions (`server.request` → `view.delta`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::core::obs;
use rsky::prelude::*;

/// Trace-tree contract over one run's span events: one trace, one root,
/// no orphans, unique span ids, and (when `check_durations` — valid when
/// the root's direct children are sequential, as coordinator-side spans
/// are) root wall time ≥ Σ direct children's. Returns the root span.
fn assert_single_trace_tree(
    spans: &[rsky::core::obs::SpanEvent],
    check_durations: bool,
    ctx: &str,
) -> rsky::core::obs::SpanEvent {
    use std::collections::HashSet;
    assert!(!spans.is_empty(), "no spans recorded ({ctx})");
    let trace = spans[0].trace_id;
    assert!(
        spans.iter().all(|s| s.trace_id == trace),
        "spans from more than one trace ({ctx})"
    );
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "duplicate span ids ({ctx})");
    let roots: Vec<_> = spans.iter().filter(|s| s.parent_id.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "expected exactly one root span, got {:?} ({ctx})",
        roots.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    for s in spans {
        if let Some(p) = s.parent_id {
            assert!(ids.contains(&p), "span {} orphaned: parent {p} never closed ({ctx})", s.name);
        }
    }
    let root = roots[0].clone();
    if check_durations {
        let child_sum: u64 = spans
            .iter()
            .filter(|s| s.parent_id == Some(root.span_id))
            .map(|s| s.wall_us)
            .sum();
        assert!(
            root.wall_us >= child_sum,
            "root {} wall {}us < Σ direct children {}us ({ctx})",
            root.name,
            root.wall_us,
            child_sum
        );
    }
    root
}

/// Runs `engine` under a fresh in-memory sink and checks every clause of the
/// contract against the returned stats.
fn assert_contract(
    engine: &dyn ReverseSkylineAlgo,
    prefix: &str,
    ds: &Dataset,
    table: &RecordFile,
    q: &Query,
    disk: &mut Disk,
    budget: MemoryBudget,
) -> RsRun {
    let sink = MemorySink::new();
    let run = obs::with_recorder(sink.handle(), || {
        let mut ctx = EngineCtx { disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        engine.run(&mut ctx, table, q).unwrap()
    });
    let s = &run.stats;
    let ctx = format!("{prefix} on {}", ds.label);

    // 1. Batch-span deltas sum to the run totals.
    let p1b = format!("{prefix}.phase1.batch");
    let p2b = format!("{prefix}.phase2.batch");
    assert_eq!(
        sink.sum_field(&p1b, "dist_checks") + sink.sum_field(&p2b, "dist_checks"),
        s.dist_checks,
        "batch dist_checks don't tile the total ({ctx})"
    );
    assert_eq!(
        sink.sum_field(&p1b, "obj_comparisons") + sink.sum_field(&p2b, "obj_comparisons"),
        s.obj_comparisons,
        "batch obj_comparisons don't tile the total ({ctx})"
    );
    assert_eq!(
        sink.sum_field(&p1b, "tree_nodes_visited") + sink.sum_field(&p2b, "tree_nodes_visited"),
        s.tree_nodes_visited,
        "batch tree_nodes_visited don't tile the total ({ctx})"
    );

    // 2. One batch span per counted batch, and a timed phase behind each.
    assert_eq!(sink.span_count(&p1b), s.phase1_batches, "phase-1 batch spans ({ctx})");
    assert_eq!(sink.span_count(&p2b), s.phase2_batches, "phase-2 batch spans ({ctx})");
    if s.phase1_batches > 0 {
        assert!(!s.phase1_time.is_zero(), "phase-1 batches but no phase1_time ({ctx})");
    }
    if s.phase2_batches > 0 {
        assert!(!s.phase2_time.is_zero(), "phase-2 batches but no phase2_time ({ctx})");
    }

    // 3. Phase-span IO tiles RunStats::io component-wise.
    let p1 = format!("{prefix}.phase1");
    let p2 = format!("{prefix}.phase2");
    let io = [
        ("seq_reads", s.io.seq_reads),
        ("rand_reads", s.io.rand_reads),
        ("seq_writes", s.io.seq_writes),
        ("rand_writes", s.io.rand_writes),
    ];
    for (key, total) in io {
        assert_eq!(
            sink.sum_field(&p1, key) + sink.sum_field(&p2, key),
            total,
            "phase {key} don't tile the run IO ({ctx})"
        );
    }
    let phase1_spans = sink.spans_ending_with(&p1);
    assert_eq!(phase1_spans.len(), 1, "exactly one phase-1 span ({ctx})");
    assert_eq!(
        phase1_spans[0].field("batches"),
        Some(s.phase1_batches as u64),
        "phase-1 span batches ({ctx})"
    );
    // Naive has no survivor set, so its phase-1 span omits the field.
    assert_eq!(
        phase1_spans[0].field("survivors").unwrap_or(0),
        s.phase1_survivors as u64,
        "phase-1 span survivors ({ctx})"
    );

    // 4. The closing run span repeats the final totals.
    let runs = sink.spans_ending_with(&format!("{prefix}.run"));
    assert_eq!(runs.len(), 1, "exactly one run span ({ctx})");
    let r = &runs[0];
    assert_eq!(r.field("dist_checks"), Some(s.dist_checks), "run span dist_checks ({ctx})");
    assert_eq!(
        r.field("query_dist_checks"),
        Some(s.query_dist_checks),
        "run span query_dist_checks ({ctx})"
    );
    assert_eq!(
        r.field("obj_comparisons"),
        Some(s.obj_comparisons),
        "run span obj_comparisons ({ctx})"
    );
    assert_eq!(
        r.field("phase1_batches"),
        Some(s.phase1_batches as u64),
        "run span phase1_batches ({ctx})"
    );
    assert_eq!(
        r.field("phase2_batches"),
        Some(s.phase2_batches as u64),
        "run span phase2_batches ({ctx})"
    );
    assert_eq!(
        r.field("tree_nodes_visited"),
        Some(s.tree_nodes_visited),
        "run span tree_nodes_visited ({ctx})"
    );
    assert_eq!(r.field("result_size"), Some(run.ids.len() as u64), "run span result_size ({ctx})");
    assert_eq!(r.field("seq_reads"), Some(s.io.seq_reads), "run span seq_reads ({ctx})");
    assert_eq!(r.field("rand_reads"), Some(s.io.rand_reads), "run span rand_reads ({ctx})");

    // 5. The query-side cache reports its build cost as a counter.
    assert_eq!(
        sink.registry().counter("qcache.build_checks"),
        s.query_dist_checks,
        "qcache.build_checks counter ({ctx})"
    );

    // 6. No engine run opens a snapshot scanner, at any thread count: every
    // worker reads through the run's one disk.
    let scanners = sink.span_count("storage.scanner");
    assert_eq!(scanners, 0, "engine run opened snapshot scanners ({ctx})");

    // 7. Every span of the run — coordinator- and worker-side — joins one
    // rooted trace tree, rooted at the closing run span.
    let root = assert_single_trace_tree(&sink.events(), true, &ctx);
    assert!(root.name.ends_with(".run"), "trace rooted at {}, not the run span ({ctx})", root.name);
    run
}

/// All engines over one dataset (small pages + tight memory ⇒ several
/// batches per phase, so the tiling claims are non-trivial).
fn exercise_dataset(ds: &Dataset, page: usize, mem_pct: f64) {
    let mut rng = StdRng::seed_from_u64(42);
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let trs = Trs::for_schema(&ds.schema);
    let bf = TrsBf::for_schema(&ds.schema);

    let mut ids = Vec::new();
    let seq: [(&dyn ReverseSkylineAlgo, &str, &RecordFile); 5] = [
        (&Naive, "naive", &raw),
        (&Brs, "brs", &raw),
        (&Srs, "srs", &sorted.file),
        (&trs, "trs", &sorted.file),
        (&bf, "trs-bf", &sorted.file),
    ];
    for (engine, prefix, table) in seq {
        let run = assert_contract(engine, prefix, ds, table, &q, &mut disk, budget);
        ids.push(run.ids);
    }
    for t in [2usize, 5] {
        let par_brs = Brs { threads: t };
        let par_srs = Srs { threads: t };
        let par_trs = Trs::for_schema(&ds.schema).with_threads(t);
        let par: [(&dyn ReverseSkylineAlgo, &str, &RecordFile); 3] = [
            (&par_brs, "brs-p", &raw),
            (&par_srs, "srs-p", &sorted.file),
            (&par_trs, "trs-p", &sorted.file),
        ];
        for (engine, prefix, table) in par {
            let run = assert_contract(engine, prefix, ds, table, &q, &mut disk, budget);
            ids.push(run.ids);
        }
    }
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "engines disagree on {}: {ids:?}", ds.label);
}

#[test]
fn contract_holds_on_normal_data() {
    let mut rng = StdRng::seed_from_u64(1001);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 160, &mut rng).unwrap();
    exercise_dataset(&ds, 128, 6.0);
}

#[test]
fn contract_holds_on_uniform_data() {
    // Uniform data prunes weakly ⇒ many phase-1 survivors and phase-2 work.
    let mut rng = StdRng::seed_from_u64(1002);
    let ds = rsky::data::synthetic::uniform_dataset(4, 5, 140, &mut rng).unwrap();
    exercise_dataset(&ds, 64, 8.0);
}

#[test]
fn contract_holds_with_whole_db_in_memory() {
    // One batch per phase: the degenerate tiling still has to be exact.
    let mut rng = StdRng::seed_from_u64(1003);
    let ds = rsky::data::synthetic::normal_dataset(3, 8, 90, &mut rng).unwrap();
    exercise_dataset(&ds, 4096, 100.0);
}

/// The contract must hold identically on both kernel distance sources.
/// The fixtures above all flatten; this test runs the same rows under a
/// flattening domain and its non-flattening twin, so the batch-span deltas
/// provably reconcile with `RunStats` on the flat tables and on the
/// `DissimTable` source alike.
#[test]
fn contract_holds_on_both_kernel_paths() {
    let mut rng = StdRng::seed_from_u64(1006);
    let ds = rsky::data::synthetic::uniform_dataset(3, 5, 120, &mut rng).unwrap();
    let (flat, wide) = rsky::data::twin::linear_twins(&ds).unwrap();
    exercise_dataset(&flat, 64, 8.0);
    exercise_dataset(&wide, 64, 8.0);
}

/// Beyond the generic contract (covered above, which includes the
/// `tree_nodes_visited` tiling), the best-first engine's extra telemetry
/// must reconcile: the `trs-bf.heap.pushes` / `trs-bf.group.kills` registry
/// counters repeat the phase-1 span's summary fields exactly.
#[test]
fn best_first_span_deltas_and_counters_reconcile() {
    let mut rng = StdRng::seed_from_u64(1010);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 160, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut disk = Disk::new_mem(128);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 6.0, 128).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let bf = TrsBf::for_schema(&ds.schema);

    let sink = MemorySink::new();
    let run = obs::with_recorder(sink.handle(), || {
        let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        bf.run(&mut ctx, &sorted.file, &q).unwrap()
    });
    assert!(run.stats.tree_nodes_visited > 0, "best-first run visited no tree nodes");
    let p1 = sink.spans_ending_with("trs-bf.phase1");
    assert_eq!(p1.len(), 1, "exactly one phase-1 span");
    let pushes = sink.registry().counter("trs-bf.heap.pushes");
    let kills = sink.registry().counter("trs-bf.group.kills");
    assert!(pushes > 0, "phase 1 never pushed a bound");
    assert_eq!(p1[0].field("heap_pushes"), Some(pushes), "heap_pushes field vs counter");
    assert_eq!(p1[0].field("group_kills"), Some(kills), "group_kills field vs counter");
}

/// Cancellation mid-run (the serving layer's deadline path) must leave the
/// observability stream and the disk in a sane state: the spans that closed
/// before the cancel are a strict prefix of an uncancelled run's, and the
/// same disk serves a full, contract-clean run immediately afterwards.
#[test]
fn cancellation_mid_run_keeps_contract_and_disk_intact() {
    use rsky::core::cancel::{self, CancelToken};

    let mut rng = StdRng::seed_from_u64(1004);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 160, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut disk = Disk::new_mem(128);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 6.0, 128).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let trs = Trs::for_schema(&ds.schema);

    // Uncancelled baseline for batch counts and ids.
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let baseline = trs.run(&mut ctx, &sorted.file, &q).unwrap();
    assert!(
        baseline.stats.phase1_batches + baseline.stats.phase2_batches >= 3,
        "need a multi-batch run for a mid-run cancel (got {} batches)",
        baseline.stats.phase1_batches + baseline.stats.phase2_batches
    );

    // Cancel after two batch-boundary polls: deterministic mid-run firing.
    let sink = MemorySink::new();
    let err = obs::with_recorder(sink.handle(), || {
        cancel::with_token(CancelToken::after_checks(2), || {
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            trs.run(&mut ctx, &sorted.file, &q).unwrap_err()
        })
    });
    assert!(
        matches!(err, rsky::core::error::Error::Cancelled(_)),
        "expected Cancelled, got {err}"
    );
    let cancelled_batches = sink.span_count("trs.phase1.batch") + sink.span_count("trs.phase2.batch");
    assert!(cancelled_batches <= 2, "token fired after 2 polls, saw {cancelled_batches} batches");
    assert!(
        cancelled_batches < baseline.stats.phase1_batches + baseline.stats.phase2_batches,
        "cancellation must cut the run short"
    );
    // Every batch span that did close is fully formed (carries its delta).
    for span in sink.spans_ending_with("trs.phase1.batch") {
        assert!(span.field("dist_checks").is_some(), "half-written batch span: {span:?}");
    }

    // The same disk immediately serves a complete run under the full
    // contract — a cancelled run must not poison later ones.
    let run = assert_contract(&trs, "trs", &ds, &sorted.file, &q, &mut disk, budget);
    assert_eq!(run.ids, baseline.ids, "post-cancel run changed the result");

    // Parallel twin: worker threads observe the shared token too.
    let par = Trs::for_schema(&ds.schema).with_threads(3);
    let err = cancel::with_token(CancelToken::after_checks(1), || {
        let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        par.run(&mut ctx, &sorted.file, &q).unwrap_err()
    });
    assert!(matches!(err, rsky::core::error::Error::Cancelled(_)), "parallel: {err}");
    let run = assert_contract(&par, "trs-p", &ds, &sorted.file, &q, &mut disk, budget);
    assert_eq!(run.ids, baseline.ids, "post-cancel parallel run changed the result");

    // Best-first twin: mid-traversal cancellation (the heap-driven phase 1
    // polls at batch tops, phase 2 at chunk and batch boundaries) must leave
    // the same disk reusable and the rerun bit-identical.
    let bf = TrsBf::for_schema(&ds.schema);
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let bf_baseline = bf.run(&mut ctx, &sorted.file, &q).unwrap();
    assert_eq!(bf_baseline.ids, baseline.ids, "best-first baseline disagrees with TRS");
    assert!(
        bf_baseline.stats.phase1_batches + bf_baseline.stats.phase2_batches >= 3,
        "need a multi-batch best-first run for a mid-run cancel"
    );
    let sink = MemorySink::new();
    let err = obs::with_recorder(sink.handle(), || {
        cancel::with_token(CancelToken::after_checks(2), || {
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            bf.run(&mut ctx, &sorted.file, &q).unwrap_err()
        })
    });
    assert!(matches!(err, rsky::core::error::Error::Cancelled(_)), "best-first: {err}");
    let cancelled =
        sink.span_count("trs-bf.phase1.batch") + sink.span_count("trs-bf.phase2.batch");
    assert!(cancelled <= 2, "token fired after 2 polls, saw {cancelled} batches");
    assert!(
        cancelled < bf_baseline.stats.phase1_batches + bf_baseline.stats.phase2_batches,
        "cancellation must cut the best-first run short"
    );
    // Every batch span that did close carries its visit delta — no
    // half-written spans from an abandoned traversal.
    for span in sink.spans_ending_with("trs-bf.phase1.batch") {
        assert!(span.field("tree_nodes_visited").is_some(), "half-written batch span: {span:?}");
    }
    let run = assert_contract(&bf, "trs-bf", &ds, &sorted.file, &q, &mut disk, budget);
    assert_eq!(run.ids, baseline.ids, "post-cancel best-first run changed the result");
}

/// An already-expired deadline cancels every engine before real work
/// happens, and the error names the deadline.
#[test]
fn expired_deadline_cancels_all_engines_up_front() {
    use rsky::core::cancel::{self, CancelToken};
    use std::time::Duration;

    let (ds, q) = rsky::data::paper_example();
    let mut disk = Disk::default_mem();
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 50.0, disk.page_size()).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let trs = Trs::for_schema(&ds.schema);
    let bf = TrsBf::for_schema(&ds.schema);
    let par_trs = Trs::for_schema(&ds.schema).with_threads(2);
    let engines: [(&dyn ReverseSkylineAlgo, &RecordFile); 7] = [
        (&Naive, &raw),
        (&Brs, &raw),
        (&Srs, &sorted.file),
        (&trs, &sorted.file),
        (&bf, &sorted.file),
        (&Brs { threads: 2 }, &raw),
        (&par_trs, &sorted.file),
    ];
    for (engine, table) in engines {
        let err = cancel::with_token(CancelToken::with_deadline(Duration::ZERO), || {
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            engine.run(&mut ctx, table, &q).unwrap_err()
        });
        assert!(
            err.to_string().contains("deadline"),
            "{}: expected a deadline error, got {err}",
            engine.name()
        );
    }
}

/// The sharded scatter-gather layer is held to the same stats contract:
/// the coordinator's `shard.plan` span plus every shard's
/// `shard.phase1.local` and `shard.phase2.verify` span deltas must tile the
/// merged `RunStats` exactly, with no coordinator-side bookkeeping hiding
/// work from the span stream.
fn assert_sharded_tiling(sink: &MemorySink, run: &ShardedRun, k: usize, ctx: &str) {
    const PLAN: &str = "shard.plan";
    const LOCAL: &str = "shard.phase1.local";
    const KILL: &str = "shard.exchange.kill";
    const VERIFY: &str = "shard.phase2.verify";
    let s = &run.stats;
    // One plan span per run, one span per shard per phase — empty shards
    // report zero-work spans rather than vanishing from the stream. The
    // exchange round runs exactly when the run broadcast a band (more than
    // one shard, budget on); it then emits one phase span and one kill span
    // per shard.
    assert_eq!(sink.span_count(PLAN), 1, "one plan span per run ({ctx})");
    assert_eq!(sink.span_count(LOCAL), k, "one local span per shard ({ctx})");
    assert_eq!(sink.span_count(VERIFY), k, "one verify span per shard ({ctx})");
    let exchanges = sink.spans_ending_with("shard.exchange");
    if run.pruners > 0 {
        assert_eq!(exchanges.len(), 1, "one exchange span per exchanging run ({ctx})");
        assert_eq!(sink.span_count(KILL), k, "one kill span per shard ({ctx})");
        assert_eq!(
            exchanges[0].field("band"),
            Some(run.pruners as u64),
            "exchange pruner band size ({ctx})"
        );
        assert_eq!(
            exchanges[0].field("candidates"),
            Some(run.candidates as u64),
            "exchange pre-kill candidates ({ctx})"
        );
        assert_eq!(
            exchanges[0].field("survivors"),
            Some(run.post_candidates as u64),
            "exchange post-kill candidates ({ctx})"
        );
        // The kill pass runs in memory off the shared cache: counters may
        // move, IO and query-side evals must not.
        assert_eq!(sink.sum_field(KILL, "query_dist_checks"), 0, "kill qdc leak ({ctx})");
        for key in ["seq_reads", "rand_reads", "seq_writes", "rand_writes"] {
            assert_eq!(sink.sum_field(KILL, key), 0, "kill {key} leak ({ctx})");
        }
    } else {
        assert_eq!(exchanges.len(), 0, "no exchange span without a band ({ctx})");
        assert_eq!(sink.span_count(KILL), 0, "no kill spans without a band ({ctx})");
    }

    // The plan span reports exactly the coordinator's one-time cache build.
    assert_eq!(
        sink.sum_field(PLAN, "query_dist_checks"),
        run.plan.query_dist_checks,
        "plan span query_dist_checks ({ctx})"
    );

    // Plan + Σ per-shard span deltas ≡ merged RunStats, counter by counter.
    let totals = [
        ("dist_checks", s.dist_checks),
        ("query_dist_checks", s.query_dist_checks),
        ("obj_comparisons", s.obj_comparisons),
        ("seq_reads", s.io.seq_reads),
        ("rand_reads", s.io.rand_reads),
        ("seq_writes", s.io.seq_writes),
        ("rand_writes", s.io.rand_writes),
    ];
    for (key, total) in totals {
        assert_eq!(
            sink.sum_field(PLAN, key)
                + sink.sum_field(LOCAL, key)
                + sink.sum_field(KILL, key)
                + sink.sum_field(VERIFY, key),
            total,
            "shard span {key} don't tile the merged stats ({ctx})"
        );
    }
    // Tree visits too: every shard span is a cost scope, so a TRS shard's
    // local run reports the nodes it visited.
    assert_eq!(
        sink.sum_field(PLAN, "tree_nodes_visited")
            + sink.sum_field(LOCAL, "tree_nodes_visited")
            + sink.sum_field(KILL, "tree_nodes_visited")
            + sink.sum_field(VERIFY, "tree_nodes_visited"),
        s.tree_nodes_visited,
        "shard span tree_nodes_visited don't tile the merged stats ({ctx})"
    );

    // The phase spans summarize the fan-out; the closing run span repeats
    // the merged totals verbatim (same clause as the single-node contract).
    let p1 = sink.spans_ending_with("shard.phase1");
    assert_eq!(p1.len(), 1, "exactly one phase-1 span ({ctx})");
    assert_eq!(p1[0].field("shards"), Some(k as u64), "phase-1 shards field ({ctx})");
    assert_eq!(
        p1[0].field("candidates"),
        Some(run.candidates as u64),
        "phase-1 candidate total ({ctx})"
    );
    let p2 = sink.spans_ending_with("shard.phase2");
    assert_eq!(p2.len(), 1, "exactly one phase-2 span ({ctx})");
    assert_eq!(
        p2[0].field("survivors"),
        Some(run.ids.len() as u64),
        "phase-2 survivor total ({ctx})"
    );
    let runs = sink.spans_ending_with("shard.run");
    assert_eq!(runs.len(), 1, "exactly one shard.run span ({ctx})");
    assert_eq!(runs[0].field("dist_checks"), Some(s.dist_checks), "run span ({ctx})");
    assert_eq!(runs[0].field("result_size"), Some(run.ids.len() as u64), "run span ({ctx})");

    // The query-side cache is built exactly once per sharded run — the
    // coordinator's plan step — and shared by every shard-local engine run
    // and every verify task, so the counter equals the merged stat.
    assert_eq!(
        sink.registry().counter("qcache.build_checks"),
        s.query_dist_checks,
        "qcache.build_checks counter ({ctx})"
    );

    // The whole scatter-gather — coordinator, per-shard workers, and the
    // engines running inside them — closes as one rooted trace tree.
    let root = assert_single_trace_tree(&sink.events(), true, ctx);
    assert!(root.name.ends_with("shard.run"), "trace rooted at {} ({ctx})", root.name);
}

#[test]
fn sharded_span_deltas_tile_merged_stats() {
    let mut rng = StdRng::seed_from_u64(1005);
    let ds = rsky::data::synthetic::uniform_dataset(3, 5, 130, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
    for (engine, threads) in [("naive", 1), ("brs", 1), ("trs", 1), ("srs", 2), ("trs", 5)] {
        for k in [1usize, 3, 8] {
            for policy in [ShardPolicy::RoundRobin, ShardPolicy::HashById] {
                let ctx = format!("{engine}×{threads} k={k} {policy}");
                let spec = ShardSpec::new(k, policy).unwrap();
                let tables = ShardedTables::new(&ds, spec, 8.0, 64, 3).unwrap();
                let sink = MemorySink::new();
                let run = obs::with_recorder(sink.handle(), || {
                    tables.run_query(engine, threads, &q).unwrap()
                });
                assert_eq!(run.ids, expect, "{ctx}");
                assert_sharded_tiling(&sink, &run, k, &ctx);
            }
        }
    }
}

/// The `influence.query` spans of an influence batch tile the report's
/// totals on every cost counter and IO field, whether the batch runs on
/// one prepared table, across worker threads or through the sharded
/// executor: each span is a cost scope over the running totals. Each span
/// names its query's workload index, once per query.
#[test]
fn influence_query_spans_tile_the_report_totals() {
    let mut rng = StdRng::seed_from_u64(1011);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 150, &mut rng).unwrap();
    let qs = rsky::data::random_queries(&ds.schema, 4, &mut rng).unwrap();
    let spec = ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap();
    let engine = rsky::algos::InfluenceEngine::new(ds.clone(), 8.0, 128).unwrap();
    let tables = ShardedTables::new(&ds, spec, 8.0, 128, 3).unwrap();
    let runs: [(&str, &mut dyn FnMut() -> rsky::algos::InfluenceReport); 3] = [
        ("single table", &mut || engine.run(&qs, false).unwrap()),
        ("2 threads", &mut || {
            rsky::algos::run_influence_parallel(&ds, &qs, 8.0, 128, 2, false).unwrap()
        }),
        ("sharded", &mut || tables.run_influence(&qs, false).unwrap()),
    ];
    for (ctx, run) in runs {
        let sink = MemorySink::new();
        let report = obs::with_recorder(sink.handle(), run);
        let t = &report.totals;
        assert!(t.tree_nodes_visited > 0, "TRS visited no tree nodes ({ctx})");
        assert_eq!(sink.span_count("influence.query"), qs.len(), "one span per query ({ctx})");
        let mut indices: Vec<u64> = sink
            .spans_ending_with("influence.query")
            .iter()
            .map(|s| s.field("query").expect("query index field"))
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..qs.len() as u64).collect::<Vec<_>>(), "span query indices ({ctx})");
        for (key, total) in [
            ("dist_checks", t.dist_checks),
            ("query_dist_checks", t.query_dist_checks),
            ("obj_comparisons", t.obj_comparisons),
            ("tree_nodes_visited", t.tree_nodes_visited),
            ("seq_reads", t.io.seq_reads),
            ("rand_reads", t.io.rand_reads),
            ("seq_writes", t.io.seq_writes),
            ("rand_writes", t.io.rand_writes),
        ] {
            assert_eq!(
                sink.sum_field("influence.query", key),
                total,
                "influence.query {key} don't tile the report totals ({ctx})"
            );
        }
    }
}

/// Cancellation that fires **mid-phase-2** (after the scatter barrier,
/// during verification) must leave every shard's disk and the stats
/// contract intact: the very next run on the *same* shard tables returns
/// the full result with identical counters and exact span tiling.
#[test]
fn sharded_cancellation_mid_phase2_keeps_contract_and_disks_intact() {
    use rsky::core::cancel::{self, CancelToken};

    let mut rng = StdRng::seed_from_u64(1006);
    let ds = rsky::data::synthetic::uniform_dataset(3, 5, 140, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let spec = ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap();
    let tables = ShardedTables::new(&ds, spec, 8.0, 64, 3).unwrap();
    let baseline = tables.run_query("trs", 1, &q).unwrap();
    assert!(baseline.candidates > baseline.ids.len(), "need real phase-2 work to interrupt");

    // Sweep the poll budget upward. The phases are barrier-separated, so
    // once the budget exceeds phase 1's (deterministic) poll count, the
    // firing poll provably sits in phase 2 — detected by the phase-1 span
    // having closed with its summary fields.
    let mut fired_mid_phase2 = false;
    for checks in 1..10_000u64 {
        let sink = MemorySink::new();
        let result = obs::with_recorder(sink.handle(), || {
            cancel::with_token(CancelToken::after_checks(checks), || {
                tables.run_query("trs", 1, &q)
            })
        });
        match result {
            Err(err) => {
                assert!(
                    matches!(err, rsky::core::error::Error::Cancelled(_)),
                    "expected Cancelled, got {err}"
                );
                let phase1_done = sink
                    .spans_ending_with("shard.phase1")
                    .iter()
                    .any(|s| s.field("candidates").is_some());
                if phase1_done {
                    // All shards' local spans closed before the barrier…
                    assert_eq!(
                        sink.span_count("shard.phase1.local"),
                        3,
                        "phase-1 completed, so every local span must have closed"
                    );
                    // …and the cancel genuinely cut the gather short.
                    assert!(
                        sink.spans_ending_with("shard.run")
                            .iter()
                            .all(|s| s.field("result_size").is_none()),
                        "a cancelled run must not close its run span with totals"
                    );
                    fired_mid_phase2 = true;
                    break;
                }
            }
            Ok(run) => {
                // Budget outlived every poll: the earlier iterations covered
                // all of phase 1, yet none fired mid-phase-2 — fail loudly
                // below rather than looping forever.
                assert_eq!(run.ids, baseline.ids);
                break;
            }
        }
    }
    assert!(fired_mid_phase2, "no poll budget produced a mid-phase-2 cancellation");

    // Same tables, same per-shard disks, immediately after the cancel: the
    // full contract holds and the counters replay exactly.
    let sink = MemorySink::new();
    let rerun =
        obs::with_recorder(sink.handle(), || tables.run_query("trs", 1, &q).unwrap());
    assert_eq!(rerun.ids, baseline.ids, "post-cancel sharded run changed the result");
    assert_eq!(rerun.stats.dist_checks, baseline.stats.dist_checks);
    assert_eq!(rerun.stats.query_dist_checks, baseline.stats.query_dist_checks);
    assert_eq!(rerun.stats.obj_comparisons, baseline.stats.obj_comparisons);
    assert_sharded_tiling(&sink, &rerun, 3, "post-cancel rerun");
}

/// Cancellation that fires **mid-exchange** (after the scatter barrier,
/// during the pruner kill pass) must leave every shard's disk reusable and
/// the contract intact. Detection: the phase-1 span closed with its summary
/// fields, an exchange span exists, but it never closed with its `pruners`
/// field — the cancel cut the round short.
#[test]
fn sharded_cancellation_mid_exchange_keeps_disks_reusable() {
    use rsky::core::cancel::{self, CancelToken};

    let mut rng = StdRng::seed_from_u64(1008);
    let ds = rsky::data::synthetic::uniform_dataset(3, 5, 140, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let spec = ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap();
    let tables = ShardedTables::new(&ds, spec, 8.0, 64, 3).unwrap();
    let baseline = tables.run_query("trs", 1, &q).unwrap();
    assert!(baseline.pruners > 0, "need a real exchange round to interrupt");

    let mut fired_mid_exchange = false;
    for checks in 1..10_000u64 {
        let sink = MemorySink::new();
        let result = obs::with_recorder(sink.handle(), || {
            cancel::with_token(CancelToken::after_checks(checks), || {
                tables.run_query("trs", 1, &q)
            })
        });
        match result {
            Err(err) => {
                assert!(
                    matches!(err, rsky::core::error::Error::Cancelled(_)),
                    "expected Cancelled, got {err}"
                );
                let phase1_done = sink
                    .spans_ending_with("shard.phase1")
                    .iter()
                    .any(|s| s.field("candidates").is_some());
                let exchange_open = sink
                    .spans_ending_with("shard.exchange")
                    .iter()
                    .any(|s| s.field("band").is_none());
                if phase1_done && exchange_open {
                    // The cancel fired inside the exchange round: phase 2
                    // never started, and the aborted run closed no totals.
                    assert_eq!(sink.span_count("shard.phase2.verify"), 0, "phase 2 ran anyway");
                    assert!(
                        sink.spans_ending_with("shard.run")
                            .iter()
                            .all(|s| s.field("result_size").is_none()),
                        "a cancelled run must not close its run span with totals"
                    );
                    fired_mid_exchange = true;
                    break;
                }
            }
            Ok(run) => {
                assert_eq!(run.ids, baseline.ids);
                break;
            }
        }
    }
    assert!(fired_mid_exchange, "no poll budget produced a mid-exchange cancellation");

    // Same tables, same per-shard disks, immediately after the cancel: the
    // full contract holds and the counters replay exactly.
    let sink = MemorySink::new();
    let rerun = obs::with_recorder(sink.handle(), || tables.run_query("trs", 1, &q).unwrap());
    assert_eq!(rerun.ids, baseline.ids, "post-cancel sharded run changed the result");
    assert_eq!(rerun.stats.dist_checks, baseline.stats.dist_checks);
    assert_eq!(rerun.stats.query_dist_checks, baseline.stats.query_dist_checks);
    assert_eq!(rerun.stats.obj_comparisons, baseline.stats.obj_comparisons);
    assert_eq!(rerun.pruners, baseline.pruners);
    assert_eq!(rerun.post_candidates, baseline.post_candidates);
    assert_sharded_tiling(&sink, &rerun, 3, "post-cancel mid-exchange rerun");
}

/// Acceptance: requests served over TCP — on a *sharded* server, so the
/// deepest layering is in play — trace as single rooted trees spanning
/// server admission → scatter-gather → per-shard engines → influence
/// workers; the Prometheus exposition carries queue-wait quantiles; and a
/// 1µs slow-request threshold retains every request's span tree in the
/// slowlog ring.
#[test]
fn served_requests_trace_as_single_rooted_trees() {
    use rsky::server::json::{self, JsonValue};
    use rsky::server::{Client, Server, ServerConfig};

    let mut rng = StdRng::seed_from_u64(1007);
    let ds = rsky::data::synthetic::uniform_dataset(3, 5, 120, &mut rng).unwrap();
    let sink = MemorySink::new();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shard: Some(ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap()),
        slow_request_us: 1,
        slowlog_cap: 8,
        ..ServerConfig::default()
    };
    // The server captures the scoped recorder at start; every worker tees
    // its per-request spans into this sink.
    let handle = obs::with_recorder(sink.handle(), || Server::start(config, ds)).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let reply = client.send(r#"{"op":"query","engine":"trs","values":[1,1,1]}"#).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let reply = client.send(r#"{"op":"query","engine":"trs-bf","values":[1,1,1]}"#).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let reply = client.send(r#"{"op":"influence","queries":4,"seed":9,"top":2}"#).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // Prometheus exposition over the wire: valid text with queue-wait
    // quantiles (the three pooled requests above recorded waits).
    let reply = client.send(r#"{"op":"metrics","format":"prometheus"}"#).unwrap();
    assert!(reply.contains("\"format\":\"prometheus\""), "{reply}");
    for needle in
        [r#"server_queue_wait_us{quantile=\"0.5\"}"#, r#"server_queue_wait_us{quantile=\"0.99\"}"#]
    {
        assert!(reply.contains(needle), "prometheus body missing {needle}: {reply}");
    }

    // Slowlog over the wire: with a 1µs threshold every pooled request is
    // slow, and each retained entry carries its complete span tree.
    let reply = client.send(r#"{"op":"slowlog"}"#).unwrap();
    let v = json::parse(&reply).unwrap_or_else(|e| panic!("bad slowlog reply {reply:?}: {e}"));
    let entries = v.get("entries").and_then(JsonValue::as_arr).expect("entries array");
    assert_eq!(entries.len(), 3, "all pooled requests cross the 1µs threshold");
    for e in entries {
        let spans = e.get("spans").and_then(JsonValue::as_arr).expect("spans array");
        assert!(!spans.is_empty(), "slowlog entry without spans");
        let roots = spans
            .iter()
            .filter(|s| s.get("parent_id") == Some(&JsonValue::Null))
            .count();
        assert_eq!(roots, 1, "slowlog entry must hold one rooted tree");
    }

    client.send(r#"{"op":"shutdown"}"#).unwrap();
    handle.join();

    // Group the sink's spans by trace: one trace per pooled request (the
    // startup prep work and inline ops don't open request spans).
    let mut by_trace: std::collections::BTreeMap<u64, Vec<rsky::core::obs::SpanEvent>> =
        Default::default();
    for e in sink.events() {
        by_trace.entry(e.trace_id).or_default().push(e);
    }
    let request_traces: Vec<&Vec<_>> = by_trace
        .values()
        .filter(|t| t.iter().any(|s| s.name.ends_with("server.request")))
        .collect();
    assert_eq!(request_traces.len(), 3, "one trace per pooled request");
    for t in &request_traces {
        let root = assert_single_trace_tree(t, true, "served request");
        assert!(root.name.ends_with("server.request"), "request trace rooted at {}", root.name);
    }

    // Each sharded query's trace spans every layer of the system — the
    // best-first engine roots under the same server → shard layering as TRS.
    for engine_run in ["trs.run", "trs-bf.run"] {
        let query_trace = request_traces
            .iter()
            .find(|t| t.iter().any(|s| s.name.ends_with(engine_run)))
            .unwrap_or_else(|| panic!("no sharded query trace for {engine_run}"));
        for needle in
            ["server.request", "shard.run", "shard.phase1.local", "shard.phase2.verify", engine_run]
        {
            assert!(
                query_trace.iter().any(|s| s.name.ends_with(needle)),
                "query trace missing a {needle} span"
            );
        }
    }
    // The influence request's trace reaches the per-query influence spans.
    let infl_trace = request_traces
        .iter()
        .find(|t| t.iter().any(|s| s.name == "influence.query"))
        .expect("no influence trace");
    assert!(infl_trace.iter().any(|s| s.name.ends_with("server.request")));
}

/// View maintenance traces: on a server with a live subscription, the
/// subscribe handshake roots one `server.request` trace containing the
/// `view.build` span, and **every mutation** roots its own `server.request`
/// trace containing the `view.delta` maintenance span — so the delta pushed
/// to subscribers is attributable to the mutation that caused it. A
/// mutation with no live views opens no request trace at all (the
/// mutation fast path stays span-free).
#[test]
fn view_maintenance_traces_as_single_rooted_trees() {
    use rsky::server::{Client, Server, ServerConfig};
    use std::time::Duration;

    let mut rng = StdRng::seed_from_u64(1009);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 40, &mut rng).unwrap();
    let sink = MemorySink::new();
    let config =
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() };
    let handle = obs::with_recorder(sink.handle(), || Server::start(config, ds)).unwrap();

    let mut mutator = Client::connect(handle.local_addr()).unwrap();
    mutator.set_timeout(Duration::from_secs(10)).unwrap();
    // No live view yet: this mutation must not open a request span.
    let reply = mutator.send(r#"{"op":"insert","id":9000,"values":[1,1,1]}"#).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let mut subscriber = Client::connect(handle.local_addr()).unwrap();
    subscriber.set_timeout(Duration::from_secs(10)).unwrap();
    let ack = subscriber.send(r#"{"op":"subscribe","engine":"trs","values":[2,3,1]}"#).unwrap();
    assert!(ack.contains("\"ok\":true"), "{ack}");

    for body in
        [r#"{"op":"insert","id":9001,"values":[2,3,1]}"#, r#"{"op":"expire","id":9001}"#]
    {
        let reply = mutator.send(body).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        // One frame per mutation reaches the subscriber.
        subscriber.read_line().unwrap();
    }

    drop(subscriber);
    mutator.send(r#"{"op":"shutdown"}"#).unwrap();
    handle.join();

    let mut by_trace: std::collections::BTreeMap<u64, Vec<rsky::core::obs::SpanEvent>> =
        Default::default();
    for e in sink.events() {
        by_trace.entry(e.trace_id).or_default().push(e);
    }
    let request_traces: Vec<&Vec<_>> = by_trace
        .values()
        .filter(|t| t.iter().any(|s| s.name.ends_with("server.request")))
        .collect();
    // Subscribe + two maintained mutations; the pre-subscription insert
    // contributed nothing.
    assert_eq!(request_traces.len(), 3, "one trace per subscribe/maintained mutation");
    for t in &request_traces {
        let root = assert_single_trace_tree(t, true, "view maintenance");
        assert!(root.name.ends_with("server.request"), "trace rooted at {}", root.name);
    }
    let builds = request_traces
        .iter()
        .filter(|t| t.iter().any(|s| s.name.ends_with("view.build")))
        .count();
    assert_eq!(builds, 1, "the subscribe handshake traces the view build");
    let deltas = request_traces
        .iter()
        .filter(|t| t.iter().any(|s| s.name.ends_with("view.delta")))
        .count();
    assert_eq!(deltas, 2, "each maintained mutation traces its view.delta span");
}

/// Continuous-telemetry contract, clause 1: the time-series ring is a
/// bounded window — beyond `capacity` samples the oldest fall off, every
/// surviving sample keeps its timestamp, and the tick counter keeps the
/// full history count. With a deterministic clock the retained window is
/// exactly predictable.
#[test]
fn timeseries_ring_wraps_deterministically() {
    use rsky::core::obs::MetricsRegistry;
    use rsky::core::obs_ts::{Clock, ManualClock, TimeSeriesRing};

    let clock = ManualClock::shared(0);
    let ring = TimeSeriesRing::new(4, 64, clock.clone());
    let reg = MetricsRegistry::new();
    for i in 1..=10u64 {
        reg.counter_add("server.served", 1);
        clock.advance(1_000_000);
        ring.sample(&reg);
        assert_eq!(ring.ticks(), i, "ticks count the full history");
        assert_eq!(ring.len() as u64, i.min(4), "ring never exceeds capacity");
    }
    // Only the newest four samples (t = 7..10s) survive: a 10s window sees
    // exactly the in-ring counter increments, not the evicted history.
    let r = ring.rate("server.served", 10_000_000, clock.now_us()).unwrap();
    assert_eq!(r.samples, 4, "evicted samples are gone");
    assert_eq!(r.delta, 3, "delta spans the 4 retained samples");
    assert_eq!(r.dt_us, 3_000_000);
    assert!((r.per_sec - 1.0).abs() < 1e-9, "1 increment/s: {}", r.per_sec);
}

/// Clause 2: windowed counter rates reconcile exactly with registry deltas,
/// and a counter reset (generation bump — registry cleared, dataset
/// handover) is never bridged with a subtraction: the post-reset value
/// counts as fresh increments instead of a huge negative (or wrapped) delta.
#[test]
fn windowed_rates_reconcile_across_counter_resets() {
    use rsky::core::obs::MetricsRegistry;
    use rsky::core::obs_ts::{Clock, ManualClock, TimeSeriesRing};

    let clock = ManualClock::shared(0);
    let ring = TimeSeriesRing::new(64, 64, clock.clone());
    let reg = MetricsRegistry::new();

    // Normal operation: the windowed delta is exactly the counted work.
    let mut counted = 0u64;
    for add in [5u64, 0, 12, 3] {
        reg.counter_add("server.served", add);
        counted += add;
        clock.advance(1_000_000);
        ring.sample(&reg);
    }
    let r = ring.rate("server.served", 60_000_000, clock.now_us()).unwrap();
    assert_eq!(r.delta + 5, counted, "window delta ≡ Σ increments after the first sample");

    // Reset: clear the registry, bump the generation, then count anew.
    reg.clear();
    ring.bump_generation();
    reg.counter_add("server.served", 2);
    clock.advance(1_000_000);
    ring.sample(&reg);
    let r = ring.rate("server.served", 60_000_000, clock.now_us()).unwrap();
    // 5 (first→second) + 0 + 12 + 3 from the old generation, then the
    // post-reset counter value 2 as fresh increments — never 2 - 20.
    assert_eq!(r.delta, 15 + 2, "reset counted as fresh increments: {r:?}");
}

/// Clause 3: SLO health evaluation is hysteretic at the contract level —
/// one breaching window never flips the effective level, two do, and
/// recovery needs the window to slide clean plus two clean evaluations.
/// Driven entirely on an injected clock: no sleeps, no flakes.
#[test]
fn health_hysteresis_contract_on_injected_clock() {
    use rsky::core::obs::MetricsRegistry;
    use rsky::core::obs_ts::{Clock, ManualClock, TimeSeriesRing};
    use rsky::server::{HealthEvaluator, Level, Rule, RuleKind};

    let clock = ManualClock::shared(0);
    let ring = TimeSeriesRing::new(64, 64, clock.clone());
    let reg = MetricsRegistry::new();
    let eval = HealthEvaluator::new(vec![Rule {
        name: "shed_rate".into(),
        metric: "server.shed".into(),
        kind: RuleKind::Rate,
        window_us: 10_000_000,
        warn: 0.5,
        critical: 5.0,
        raise_after: 2,
        clear_after: 2,
    }]);
    let tick = |sheds: u64| {
        reg.counter_add("server.shed", sheds);
        clock.advance(1_000_000);
        ring.sample(&reg);
        eval.evaluate(&ring, clock.now_us())
    };
    assert_eq!(tick(0).level, Level::Ok);
    // One noisy window: raw breaches, effective holds.
    let r = tick(100);
    assert_eq!((r.level, r.rules[0].raw), (Level::Ok, Level::Critical));
    // A second breaching window raises, and the report names the rule.
    let r = tick(100);
    assert_eq!(r.level, Level::Critical);
    assert_eq!(r.firing(), vec!["shed_rate"]);
    // Shedding stops; the 10s window still sees the storm for a while.
    let mut cleared_at = None;
    for i in 0..16 {
        if tick(0).level == Level::Ok {
            cleared_at = Some(i);
            break;
        }
    }
    // 10 ticks for the window to slide clean, then the 2-evaluation clear
    // streak — so the flip lands on the 11th clean tick at the earliest.
    let cleared_at = cleared_at.expect("health never recovered");
    assert!(cleared_at >= 10, "cleared after only {cleared_at} clean ticks");
}

/// Clause 4: span-derived profiles partition wall time. For any engine run
/// (a sequential trace), the per-path self times of the profile built from
/// the recorded span stream sum *exactly* to the root span's wall time,
/// and every profiled path is rooted at the run span.
#[test]
fn profile_self_times_partition_engine_run_wall_time() {
    use rsky::core::profile::Profile;

    let mut rng = StdRng::seed_from_u64(1011);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 160, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut disk = Disk::new_mem(128);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 6.0, 128).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let trs = Trs::for_schema(&ds.schema);

    let sink = MemorySink::new();
    obs::with_recorder(sink.handle(), || {
        let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        trs.run(&mut ctx, &sorted.file, &q).unwrap()
    });
    let spans = sink.events();
    let root = assert_single_trace_tree(&spans, true, "profile source");
    let profile = Profile::from_spans(&spans);
    assert_eq!(profile.traces(), 1);
    assert_eq!(profile.spans(), spans.len() as u64);
    assert_eq!(profile.roots_wall_us(), root.wall_us);
    assert_eq!(
        profile.self_sum(),
        root.wall_us,
        "self times must partition the sequential run's wall time exactly"
    );
    for stat in profile.stats() {
        assert_eq!(stat.path[0], root.name, "path not rooted at the run span: {:?}", stat.path);
        assert!(stat.total_us >= stat.self_us, "self exceeds total on {:?}", stat.path);
    }
    // The heaviest self-time path is where a flame graph would point; it
    // must be a real path with non-zero accounting on a 160-record run.
    let top = profile.top_self(1);
    assert_eq!(top.len(), 1);
}

#[test]
fn noop_recorder_records_nothing() {
    // Without an installed recorder a run must leave a fresh sink untouched —
    // the inert path the <3% overhead bound relies on.
    let (ds, q) = rsky::data::paper_example();
    let sink = MemorySink::new();
    let mut disk = Disk::default_mem();
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 50.0, disk.page_size()).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = Brs.run(&mut ctx, &raw, &q).unwrap();
    assert_eq!(run.ids, vec![3, 6]);
    assert!(sink.events().is_empty(), "events recorded without an installed recorder");
    assert_eq!(sink.registry().counter("qcache.build_checks"), 0);
}
