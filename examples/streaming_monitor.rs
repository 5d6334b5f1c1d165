//! Continuous influence monitoring over a sliding window.
//!
//! A job marketplace keeps the most recent 5 000 candidate profiles in a
//! sliding window and continuously tracks, for one job posting (the query),
//! which candidates are a *non-dominated* match — the reverse skyline,
//! maintained by a [`MaterializedView`] as profiles arrive (insert events)
//! and the oldest profile leaves a full window (expire events). An
//! expiration can **resurrect** candidates whose witness — the record that
//! pruned them — left the window; the view re-qualifies exactly those.
//!
//! ```text
//! cargo run --release --example streaming_monitor
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky::prelude::*;
use rsky::storage::MutationEvent;
use rsky::view::{MaterializedView, ViewSpec};

fn main() -> rsky::core::error::Result<()> {
    let mut rng = StdRng::seed_from_u64(31);

    // Candidate profiles over categorical skill-family attributes.
    let schema = Schema::new(vec![
        AttrMeta::new("Domain", 10),
        AttrMeta::new("Seniority", 5),
        AttrMeta::new("Stack", 12),
        AttrMeta::new("Region", 6),
    ])?;
    let dissim = rsky::data::dissim_gen::random_dissim_table(&schema, &mut rng)?;
    let posting = vec![3, 2, 7, 1];

    // The window's records, newest first, and the view maintaining RS over
    // them. A record's witness is the first record in scan order that
    // prunes it — here the newest, which outlives the others — so an expiry
    // orphans only the records the departing profile alone pruned. Every
    // mutation bumps the generation by one.
    let m = schema.num_attrs();
    let mut window =
        Dataset { schema: schema.clone(), dissim, rows: RowBuf::new(m), label: "window".into() };
    let spec = ViewSpec { values: posting.clone(), subset: None };
    let mut view = MaterializedView::build(&window, spec, 0)?;
    let mut generation = 0u64;

    let capacity = 5_000;
    println!("sliding window of {capacity} candidate profiles; posting = {posting:?}\n");
    println!("{:>8} {:>9} {:>12} {:>14}", "arrivals", "window", "|RS| now", "resurrections");

    let t0 = std::time::Instant::now();
    let mut resurrections = 0usize;
    for step in 0..25_000u32 {
        let mut flat = std::mem::replace(&mut window.rows, RowBuf::new(m)).into_flat();
        if flat.len() == capacity * (m + 1) {
            // The oldest profile (the last row) leaves, then the view hears.
            let oldest = flat[flat.len() - (m + 1)];
            flat.truncate(flat.len() - (m + 1));
            window.rows = RowBuf::from_flat(m, flat)?;
            generation += 1;
            let expire = MutationEvent::expire(oldest, generation);
            let delta = view.apply(&window, &[&window.rows], &expire);
            // An expiry can only add the records it stopped pruning.
            resurrections += delta.map_or(0, |d| d.added.len());
            flat = std::mem::replace(&mut window.rows, RowBuf::new(m)).into_flat();
        }
        let vals: Vec<u32> = (0..m).map(|i| rng.gen_range(0..schema.cardinality(i))).collect();
        flat.splice(0..0, std::iter::once(step).chain(vals.iter().copied()));
        window.rows = RowBuf::from_flat(m, flat)?;
        generation += 1;
        view.apply(&window, &[&window.rows], &MutationEvent::insert(step, vals, generation));
        if step % 5_000 == 4_999 {
            let now = view.members().len();
            println!("{:>8} {:>9} {:>12} {:>14}", step + 1, window.len(), now, resurrections);
        }
    }
    println!(
        "\nprocessed 25k arrivals (+{} expirations) in {:.2?} — {:.1} µs/update",
        25_000usize.saturating_sub(capacity),
        t0.elapsed(),
        t0.elapsed().as_micros() as f64 / 25_000.0
    );
    println!("current non-dominated candidates: {}", view.members().len());
    println!("candidates resurrected by expirations: {resurrections}");

    // Cross-check the final window against the batch oracle.
    let q = Query::new(&schema, posting)?;
    let mut expect = reverse_skyline_by_definition(&window.dissim, &window.rows, &q);
    expect.sort_unstable();
    assert_eq!(view.members(), expect, "incremental state must equal batch recomputation");
    println!("✓ incremental result verified against a full batch recomputation");
    Ok(())
}
