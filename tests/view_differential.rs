//! Differential harness for materialized-view maintenance.
//!
//! The contract under test: a [`MaterializedView`] driven by an
//! insert/expire event stream equals the by-definition oracle
//! (`reverse_skyline_by_definition`) over the post-mutation dataset **after
//! every single mutation**, and the `+id`/`-id` deltas it emits replay a
//! subscriber's snapshot to exactly the member set — for every shard-part
//! count (one part is how an unsharded server holds its rows) and kernel
//! distance source. Three layers:
//!
//! * a deterministic sweep over seeded streams × part counts × distance
//!   sources (a flattening domain and its non-flattening twin), ≥100
//!   randomized mutations per configuration (plus a rebuild sweep whose
//!   streams withhold every third event, so the view sees generation gaps
//!   and rebuilds by classifying every row of the parts);
//! * fixed adversarial fixtures — member-eviction chains, expire of a
//!   record that witnesses many others, a reverse skyline collapsed by
//!   duplicate pairs, and sharded maintenance with (mostly) empty shards;
//! * a property sweep over random datasets, queries, and streams
//!   (`--features property-tests` widens the case count);
//!
//! plus a server end-to-end pass: a real subscription over TCP whose
//! pushed delta frames replay to the oracle while mutations land, and the
//! view answering a racing same-key query only at the exact generation.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky::data::twin::linear_twins;
use rsky::prelude::*;
use rsky::view::{MaterializedView, ViewSpec};
use rsky_storage::{MutationEvent, MutationKind};

/// Seeded streams per configuration of the deterministic sweeps.
const STREAMS: u64 = 7;
const PART_COUNTS: &[usize] = &[1, 2, 3];

/// Applies an event to the flat dataset (the test-side mirror of
/// `DataState`'s mutations).
fn mutate(ds: &mut Dataset, event: &MutationEvent) {
    match &event.kind {
        MutationKind::Insert { values } => ds.rows.push(event.id, values),
        MutationKind::Expire => {
            let mut rows = RowBuf::new(ds.schema.num_attrs());
            for i in 0..ds.rows.len() {
                if ds.rows.id(i) != event.id {
                    rows.push(ds.rows.id(i), ds.rows.values(i));
                }
            }
            ds.rows = rows;
        }
    }
}

/// `ds`'s rows as `k` round-robin shard parts.
fn parts_for(ds: &Dataset, k: usize) -> Vec<RowBuf> {
    let spec = ShardSpec::new(k, ShardPolicy::RoundRobin).unwrap();
    partition_rows(&ds.rows, &spec)
}

fn oracle(ds: &Dataset, q: &Query) -> Vec<RecordId> {
    reverse_skyline_by_definition(&ds.dissim, &ds.rows, q)
}

/// A seeded random mutation of `ds` at `generation`: two inserts in three.
fn random_event(
    rng: &mut StdRng,
    ds: &Dataset,
    vals: u32,
    next_id: &mut u32,
    generation: u64,
) -> MutationEvent {
    if ds.rows.is_empty() || rng.gen_range(0..3) < 2 {
        *next_id += 1;
        // Stay inside each attribute's domain (the server validates
        // inserted values against the schema; the view assumes that).
        let values = (0..ds.schema.num_attrs())
            .map(|a| rng.gen_range(0..vals.min(ds.schema.cardinality(a))))
            .collect();
        MutationEvent::insert(*next_id, values, generation)
    } else {
        let victim = ds.rows.id(rng.gen_range(0..ds.rows.len()));
        MutationEvent::expire(victim, generation)
    }
}

/// Drives `muts` seeded random mutations through `view`, asserting after
/// **every** event that (a) the member set equals the oracle over the
/// post-mutation dataset and (b) a subscriber replaying the deltas onto the
/// initial snapshot holds exactly the member set. With `gap_every = n`,
/// every n-th step first lands a mutation the view never sees, so the next
/// event arrives after a generation gap and the view rebuilds.
#[allow(clippy::too_many_arguments)]
fn drive(
    view: &mut MaterializedView,
    ds: &mut Dataset,
    parts_k: usize,
    q: &Query,
    vals: u32,
    muts: u64,
    seed: u64,
    gap_every: Option<u64>,
    label: &str,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replay: BTreeSet<RecordId> = view.members().into_iter().collect();
    let mut next_id = 50_000u32;
    let mut generation = view.generation();
    let rebuilds = view.fallbacks();
    for step in 1..=muts {
        if gap_every.is_some_and(|n| step.is_multiple_of(n)) {
            generation += 1;
            let missed = random_event(&mut rng, ds, vals, &mut next_id, generation);
            mutate(ds, &missed);
        }
        generation += 1;
        let event = random_event(&mut rng, ds, vals, &mut next_id, generation);
        mutate(ds, &event);
        let parts = parts_for(ds, parts_k);
        let parts: Vec<&RowBuf> = parts.iter().collect();
        let delta = view
            .apply(ds, &parts, &event)
            .unwrap_or_else(|| panic!("{label}: in-order event ignored at step {step}"));
        if let Some(snapshot) = &delta.resync {
            replay = snapshot.iter().copied().collect();
        } else {
            for id in &delta.removed {
                assert!(replay.remove(id), "{label} step {step}: -{id} was not a member");
            }
            for id in &delta.added {
                assert!(replay.insert(*id), "{label} step {step}: +{id} already a member");
            }
        }
        let want = oracle(ds, q);
        assert_eq!(view.members(), want, "{label}: members vs oracle at step {step}");
        assert_eq!(
            replay.iter().copied().collect::<Vec<_>>(),
            want,
            "{label}: snapshot ⊕ deltas vs oracle at step {step}"
        );
    }
    let gaps = gap_every.map_or(0, |n| muts / n);
    assert_eq!(view.fallbacks() - rebuilds, gaps, "{label}: one rebuild per gap");
}

/// The headline sweep: seeded streams × part count × kernel source (a
/// flattening domain and its non-flattening twin), ≥100 randomized
/// mutations each, oracle-checked after every one.
#[test]
fn randomized_streams_track_oracle_across_parts_and_kernels() {
    for stream in 0..STREAMS {
        for (p, &parts_k) in PART_COUNTS.iter().enumerate() {
            for wide in [false, true] {
                let label = format!("stream {stream}/parts={parts_k}/wide={wide}");
                let seed = 100 + stream * 10 + p as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let normal = rsky::data::synthetic::normal_dataset(3, 8, 40, &mut rng).unwrap();
                let (flat_ds, wide_ds) = linear_twins(&normal).unwrap();
                let mut ds = if wide { wide_ds } else { flat_ds };
                let spec = ViewSpec { values: vec![3, 5, 2], subset: None };
                let q = spec.query(&ds.schema).unwrap();
                let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
                drive(&mut view, &mut ds, parts_k, &q, 8, 100, seed, None, &label);
            }
        }
    }
}

/// Streams that withhold every third event: each gap makes the view
/// rebuild by classifying every row of the parts, with one part and with
/// several, and the stream goes on incrementally from the rebuilt state.
#[test]
fn gap_rebuild_sweep_tracks_oracle() {
    for stream in 0..STREAMS {
        for parts_k in [1, 2] {
            let label = format!("rebuild/stream {stream}/parts={parts_k}");
            let seed = 900 + stream;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ds = rsky::data::synthetic::normal_dataset(3, 6, 30, &mut rng).unwrap();
            let spec = ViewSpec { values: vec![1, 4, 2], subset: None };
            let q = spec.query(&ds.schema).unwrap();
            let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
            drive(&mut view, &mut ds, parts_k, &q, 6, 30, seed, Some(3), &label);
        }
    }
}

/// Attribute-subset views are maintained on the projected dominance
/// relation, same contract.
#[test]
fn subset_views_track_oracle() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut ds = rsky::data::synthetic::normal_dataset(4, 6, 40, &mut rng).unwrap();
    let spec =
        ViewSpec { values: vec![2, 3, 1, 4], subset: Some(vec![0, 2, 3]) };
    let q = spec.query(&ds.schema).unwrap();
    let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
    drive(&mut view, &mut ds, 1, &q, 6, 60, 78, None, "subset");
}

/// Member-eviction chain: each inserted duplicate of the current strongest
/// member evicts it (identical values prune each other unless they tie the
/// query everywhere), then expiring the chain head re-admits its victim —
/// the expire-of-witness transition, asserted edge by edge.
#[test]
fn eviction_chain_and_expire_of_witness() {
    let (mut ds, q) = rsky::data::paper_example();
    let spec = ViewSpec { values: q.values.clone(), subset: None };
    let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
    assert_eq!(view.members(), vec![3, 6], "the paper's RS = {{O3, O6}}");

    // Record 3's values duplicated under a fresh id: the pair prunes each
    // other, so the insert must evict member 3 without admitting 100.
    let row3: Vec<ValueId> = (0..ds.rows.len())
        .find(|&i| ds.rows.id(i) == 3)
        .map(|i| ds.rows.values(i).to_vec())
        .unwrap();
    let event = MutationEvent::insert(100, row3.clone(), 1);
    mutate(&mut ds, &event);
    let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
    assert_eq!(delta.removed, vec![3], "duplicate evicts the member");
    assert!(delta.added.is_empty(), "the duplicate prunes itself too");

    // A second duplicate keeps everything out (all three prune each other).
    let event = MutationEvent::insert(101, row3, 2);
    mutate(&mut ds, &event);
    let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
    assert!(delta.added.is_empty() && delta.removed.is_empty());

    // Expiring one duplicate re-admits nobody (the other still witnesses);
    // expiring the second restores 3 — the orphan re-qualification path.
    let event = MutationEvent::expire(100, 3);
    mutate(&mut ds, &event);
    let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
    assert!(delta.added.is_empty(), "a surviving duplicate still prunes");
    let event = MutationEvent::expire(101, 4);
    mutate(&mut ds, &event);
    let delta = view.apply(&ds, &[&ds.rows], &event).unwrap();
    assert_eq!(delta.added, vec![3], "expire of the last witness re-admits");
    assert_eq!(view.members(), oracle(&ds, &q));
}

/// Duplicating every record collapses the reverse skyline: a duplicate
/// prunes its twin unless the twin ties the query at distance zero on every
/// attribute (domination needs one strictly smaller distance, and nothing
/// beats a self-distance of zero), so survivors can only be such unprunable
/// records — and they survive **in twin pairs**, drawn from the original
/// RS. Expiring the duplicates restores the original RS. The view tracks
/// both the collapse and the recovery.
#[test]
fn reverse_skyline_collapsed_by_duplicate_pairs_and_refilled() {
    let (mut ds, q) = rsky::data::paper_example();
    let spec = ViewSpec { values: q.values.clone(), subset: None };
    let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
    let originals: Vec<(RecordId, Vec<ValueId>)> =
        (0..ds.rows.len()).map(|i| (ds.rows.id(i), ds.rows.values(i).to_vec())).collect();
    let mut generation = 0;
    for (id, values) in &originals {
        generation += 1;
        let event = MutationEvent::insert(200 + id, values.clone(), generation);
        mutate(&mut ds, &event);
        view.apply(&ds, &[&ds.rows], &event).unwrap();
        assert_eq!(view.members(), oracle(&ds, &q), "after duplicating {id}");
    }
    let collapsed = view.members();
    for &id in &collapsed {
        let twin = if id >= 200 { id - 200 } else { id + 200 };
        assert!(
            collapsed.contains(&twin),
            "duplicates survive only in twin pairs: {id} without {twin} in {collapsed:?}"
        );
        assert!(
            [3, 6, 203, 206].contains(&id),
            "a record outside the original RS survived duplication: {id} in {collapsed:?}"
        );
    }
    for (id, _) in &originals {
        generation += 1;
        let event = MutationEvent::expire(200 + id, generation);
        mutate(&mut ds, &event);
        view.apply(&ds, &[&ds.rows], &event).unwrap();
        assert_eq!(view.members(), oracle(&ds, &q), "after expiring duplicate of {id}");
    }
    assert_eq!(view.members(), vec![3, 6], "the original RS is restored");
}

/// Sharded maintenance where most shards are empty (8 parts over ≤6 rows),
/// shrinking to a single surviving record and back up.
#[test]
fn sharded_maintenance_with_empty_shards() {
    let (mut ds, q) = rsky::data::paper_example();
    let spec = ViewSpec { values: q.values.clone(), subset: None };
    let qq = spec.query(&ds.schema).unwrap();
    let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
    let ids: Vec<RecordId> = (0..ds.rows.len()).map(|i| ds.rows.id(i)).collect();
    let mut generation = 0;
    for id in ids.iter().skip(1) {
        generation += 1;
        let event = MutationEvent::expire(*id, generation);
        mutate(&mut ds, &event);
        let parts = parts_for(&ds, 8);
        let parts: Vec<&RowBuf> = parts.iter().collect();
        view.apply(&ds, &parts, &event).unwrap();
        assert_eq!(view.members(), oracle(&ds, &qq), "after expiring {id}");
    }
    assert_eq!(ds.rows.len(), 1, "only the first record survives");
    drive(&mut view, &mut ds, 8, &qq, 5, 40, 404, None, "empty-shards");
    let _ = q;
}

const CASES: u32 = if cfg!(feature = "property-tests") { 48 } else { 8 };

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    /// Any dataset, any query, any seeded stream: the view equals the
    /// oracle after every mutation and its deltas replay exactly.
    #[test]
    fn view_matches_oracle_on_random_streams(
        seed in 0u64..1_000_000,
        n in 5usize..50,
        vals in 3u32..9,
        muts in 20u64..60,
        parts_at in 0usize..4,
    ) {
        let parts_k = [1, 2, 3, 5][parts_at];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = rsky::data::synthetic::normal_dataset(3, vals, n, &mut rng).unwrap();
        let values: Vec<ValueId> = (0..3).map(|_| rng.gen_range(0..vals)).collect();
        let spec = ViewSpec { values, subset: None };
        let q = spec.query(&ds.schema).unwrap();
        let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
        drive(&mut view, &mut ds, parts_k, &q, vals, muts, seed ^ 0xD1F, None, "property");
    }
}

// ---------------------------------------------------------------------------
// Server end-to-end: the subscription protocol over TCP.
// ---------------------------------------------------------------------------

/// Extracts the id list behind `"key":[…]` from a wire frame.
fn id_list(frame: &str, key: &str) -> Vec<RecordId> {
    let tag = format!("\"{key}\":[");
    let start = frame.find(&tag).unwrap_or_else(|| panic!("no {key:?} in {frame}")) + tag.len();
    let end = start + frame[start..].find(']').expect("unterminated list");
    frame[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().expect("numeric id"))
        .collect()
}

fn field_u64(frame: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = frame.find(&tag).unwrap_or_else(|| panic!("no {key:?} in {frame}")) + tag.len();
    frame[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

/// A live subscription's snapshot ⊕ pushed frames replays to the oracle
/// across a mutation stream, frames arrive exactly once per mutation with
/// contiguous epochs, and same-key queries are answered from the view (and
/// only at the exact current generation).
#[test]
fn server_subscription_replays_to_oracle_over_tcp() {
    use rsky::server::{Client, Server, ServerConfig};
    use std::time::Duration;

    let mut rng = StdRng::seed_from_u64(31);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 30, &mut rng).unwrap();
    let schema = ds.schema.clone();
    let dissim = ds.dissim.clone();
    let mut mirror = ds.clone();
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let handle = Server::start(config, ds).unwrap();

    let mut subscriber = Client::connect(handle.local_addr()).unwrap();
    subscriber.set_timeout(Duration::from_secs(10)).unwrap();
    let ack = subscriber.send(r#"{"op":"subscribe","engine":"trs","values":[3,4,2]}"#).unwrap();
    let query = Query::new(&schema, vec![3, 4, 2]).unwrap();
    let mut replay: BTreeSet<RecordId> = id_list(&ack, "ids").into_iter().collect();
    assert_eq!(
        replay.iter().copied().collect::<Vec<_>>(),
        reverse_skyline_by_definition(&dissim, &mirror.rows, &query),
        "snapshot equals the oracle"
    );

    let mut mutator = Client::connect(handle.local_addr()).unwrap();
    mutator.set_timeout(Duration::from_secs(10)).unwrap();
    let mut next_id = 7000u32;
    for step in 0..20 {
        let event = if step % 3 == 2 && mirror.rows.len() > 1 {
            let victim = mirror.rows.id(step % mirror.rows.len());
            let reply = mutator.send(&format!(r#"{{"op":"expire","id":{victim}}}"#)).unwrap();
            assert!(reply.contains("\"ok\":true"), "{reply}");
            MutationEvent::expire(victim, 0)
        } else {
            next_id += 1;
            let values: Vec<ValueId> = (0..3).map(|a| (step as u32 * 5 + a + 1) % 6).collect();
            let body = format!(
                r#"{{"op":"insert","id":{next_id},"values":[{},{},{}]}}"#,
                values[0], values[1], values[2]
            );
            let reply = mutator.send(&body).unwrap();
            assert!(reply.contains("\"ok\":true"), "{reply}");
            MutationEvent::insert(next_id, values, 0)
        };
        mutate(&mut mirror, &event);

        let frame = subscriber.read_line().unwrap();
        assert_eq!(field_u64(&frame, "epoch"), step as u64 + 1, "contiguous epochs: {frame}");
        if frame.contains("\"resync\":true") {
            replay = id_list(&frame, "ids").into_iter().collect();
        } else {
            for id in id_list(&frame, "remove") {
                assert!(replay.remove(&id), "-{id} was not a member: {frame}");
            }
            for id in id_list(&frame, "add") {
                assert!(replay.insert(id), "+{id} already a member: {frame}");
            }
        }
        let want = reverse_skyline_by_definition(&dissim, &mirror.rows, &query);
        assert_eq!(
            replay.iter().copied().collect::<Vec<_>>(),
            want,
            "snapshot ⊕ frames vs oracle after step {step}: {frame}"
        );

        // The live view doubles as a hot-query cache: a same-key query at
        // the current generation is answered without an engine run, for
        // any engine name, and reports itself as cached.
        let reply =
            mutator.send(r#"{"op":"query","engine":"naive","values":[3,4,2]}"#).unwrap();
        assert!(reply.contains("\"cached\":true"), "view-served query: {reply}");
        assert_eq!(id_list(&reply, "ids"), want, "view-served ids: {reply}");
        assert_eq!(field_u64(&reply, "generation"), step as u64 + 2);
    }

    // Top-k ranking rides the same op, served from the view: entries come
    // strongest-first and never exceed k.
    let reply = mutator
        .send(r#"{"op":"query","engine":"trs","values":[3,4,2],"top_k":2}"#)
        .unwrap();
    assert!(reply.contains("\"ranked\":["), "{reply}");
    let want = reverse_skyline_by_definition(&dissim, &mirror.rows, &query);
    let entries = reply.matches("\"strength\":").count();
    assert_eq!(entries, want.len().min(2), "top-k entry count: {reply}");

    drop(subscriber);
    mutator.send(r#"{"op":"shutdown"}"#).unwrap();
    handle.join();
}
