//! Disk-based **dynamic skyline** via Block-Nested-Loops (Börzsönyi et al.,
//! ICDE 2001 — reference \[4\] of the paper).
//!
//! The forward operator the reverse skyline is built on: the dynamic skyline
//! of a query `Q` is the set of objects not dominated *with respect to `Q`*
//! by any other object. The paper's use cases need both directions — "the
//! choice of admins for a particular server would be from the skyline set
//! for the server", while influence is the reverse skyline — so the library
//! ships a paged BNL alongside the RS engines.
//!
//! Classic multi-pass BNL: stream the input past a bounded in-memory
//! *window*; a streamed object is dropped if dominated by a window member,
//! replaces the window members it dominates, and joins the window (or
//! overflows to a temp file when the window is full). At the end of a pass,
//! window members that entered **before the first overflow** have been
//! compared against every surviving object and are final; the rest are
//! carried into the next pass over the overflow file.

use rsky_core::dominate::dominates;
use rsky_core::error::Result;
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf};
use rsky_core::stats::RunStats;
use rsky_storage::{RecordFile, RecordWriter};

use crate::engine::EngineCtx;

/// Outcome of a dynamic-skyline computation.
#[derive(Debug, Clone)]
pub struct SkylineRun {
    /// Ids of the dynamic skyline, ascending.
    pub ids: Vec<RecordId>,
    /// Cost counters (`phase1_batches` = BNL passes).
    pub stats: RunStats,
}

/// Computes the dynamic skyline of `query` over `table` with a window
/// bounded by the context's memory budget.
pub fn dynamic_skyline_bnl(
    ctx: &mut EngineCtx<'_>,
    table: &RecordFile,
    query: &Query,
) -> Result<SkylineRun> {
    crate::engine::validate_inputs(ctx, table, query)?;
    let t0 = std::time::Instant::now();
    let io_before = ctx.disk.io_stats();
    let m = table.num_attrs();
    let subset = &query.subset;
    let q = query.values.as_slice();
    let window_cap = ctx.budget.phase2_records(table.record_bytes()).max(1);

    let mut stats = RunStats::default();
    let mut result: Vec<RecordId> = Vec::new();
    let mut input: RecordFile = table.clone();

    loop {
        stats.phase1_batches += 1; // pass counter
        let mut window = RowBuf::new(m);
        // Stream position at which each window entry was inserted.
        let mut inserted_at: Vec<u64> = Vec::new();
        let mut overflow: Option<RecordWriter> = None;
        let mut first_overflow_pos: u64 = u64::MAX;
        let mut pos: u64 = 0;
        let mut page_buf = RowBuf::new(m);

        for page in 0..input.num_pages(ctx.disk) {
            page_buf.clear();
            input.read_page_rows(ctx.disk, page, &mut page_buf)?;
            'stream: for r in 0..page_buf.len() {
                pos += 1;
                let p = page_buf.values(r);
                let p_id = page_buf.id(r);
                // Compare against the window.
                let mut i = 0;
                while i < window.len() {
                    stats.obj_comparisons += 1;
                    if dominates(
                        ctx.dissim,
                        subset,
                        window.values(i),
                        p,
                        q,
                        &mut stats.dist_checks,
                    ) {
                        continue 'stream; // p is dominated: gone for good
                    }
                    if dominates(ctx.dissim, subset, p, window.values(i), q, &mut stats.dist_checks)
                    {
                        // p kills a window member (swap-remove the row).
                        let last = window.len() - 1;
                        let last_row = window.flat_row(last).to_vec();
                        let last_ins = inserted_at[last];
                        if i != last {
                            replace_row(&mut window, i, &last_row);
                            inserted_at[i] = last_ins;
                        }
                        truncate_rows(&mut window, last);
                        inserted_at.pop();
                        continue; // re-examine slot i
                    }
                    i += 1;
                }
                if window.len() < window_cap {
                    window.push(p_id, p);
                    inserted_at.push(pos);
                } else {
                    let w = match overflow.as_mut() {
                        Some(w) => w,
                        None => overflow.insert(RecordWriter::create(ctx.disk, m)?),
                    };
                    w.push(ctx.disk, page_buf.flat_row(r))?;
                    first_overflow_pos = first_overflow_pos.min(pos);
                }
            }
        }

        match overflow {
            None => {
                // Everything met everything: the whole window is final.
                result.extend((0..window.len()).map(|i| window.id(i)));
                break;
            }
            Some(mut next) => {
                // Confirmed: window members inserted before the first
                // overflow (they were compared against every later object,
                // and everything earlier is dead or in the window). The rest
                // are carried into the next pass: appended to the still-open
                // overflow file, so one file holds the whole next input.
                for (i, &ins) in inserted_at.iter().enumerate() {
                    if ins < first_overflow_pos {
                        result.push(window.id(i));
                    } else {
                        next.push(ctx.disk, window.flat_row(i))?;
                    }
                }
                input = next.finish(ctx.disk)?;
            }
        }
    }

    result.sort_unstable();
    stats.result_size = result.len();
    stats.total_time = t0.elapsed();
    stats.io = ctx.disk.io_stats().delta_since(io_before);
    Ok(SkylineRun { ids: result, stats })
}

/// Overwrites row `i` of `buf` with `flat` (same width).
fn replace_row(buf: &mut RowBuf, i: usize, flat: &[u32]) {
    let mut rebuilt = RowBuf::with_capacity(buf.num_attrs(), buf.len());
    for r in 0..buf.len() {
        if r == i {
            rebuilt.push_flat(flat);
        } else {
            rebuilt.push_flat(buf.flat_row(r));
        }
    }
    *buf = rebuilt;
}

/// Truncates `buf` to its first `len` rows.
fn truncate_rows(buf: &mut RowBuf, len: usize) {
    let mut rebuilt = RowBuf::with_capacity(buf.num_attrs(), len);
    for r in 0..len {
        rebuilt.push_flat(buf.flat_row(r));
    }
    *buf = rebuilt;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::load_dataset;
    use rsky_core::skyline::dynamic_skyline;
    use rsky_core::dataset::Dataset;
    use rsky_storage::{Disk, MemoryBudget};

    /// A normal dataset with one random query and its oracle skyline.
    fn instance(m: usize, values: u32, n: usize, seed: u64) -> (Dataset, Query, Vec<RecordId>) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ds = rsky_data::synthetic::normal_dataset(m, values, n, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let mut expect = dynamic_skyline(&ds.dissim, &q.subset, &ds.rows, &q.values);
        expect.sort_unstable();
        (ds, q, expect)
    }

    /// The paged BNL over `ds` at one memory budget and page size.
    fn bnl(ds: &Dataset, q: &Query, mem_bytes: u64, page: usize) -> SkylineRun {
        let mut disk = Disk::new_mem(page);
        let table = load_dataset(&mut disk, ds).unwrap();
        let budget = MemoryBudget::from_bytes(mem_bytes, page).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        dynamic_skyline_bnl(&mut ctx, &table, q).unwrap()
    }

    fn check_against_oracle(n: usize, seed: u64, mem_bytes: u64, page: usize) {
        let (ds, q, expect) = instance(3, 6, n, seed);
        assert_eq!(bnl(&ds, &q, mem_bytes, page).ids, expect, "n={n} seed={seed} mem={mem_bytes}");
    }

    #[test]
    fn matches_in_memory_oracle_single_pass() {
        check_against_oracle(120, 1, 1 << 20, 128);
    }

    #[test]
    fn matches_oracle_with_tiny_window_multi_pass() {
        // Window of ~8 records forces many overflow passes.
        for seed in [2, 3, 4] {
            check_against_oracle(150, seed, 256, 128);
        }
    }

    #[test]
    fn multi_pass_sweep_matches_oracle() {
        // Windows of 3–22 records over pages of 3–6 records: most configs
        // overflow, and the carried survivors rarely fill a whole page.
        let mut multi_pass = 0;
        for n in (150..=400).step_by(50) {
            for seed in 0..4 {
                let (ds, q, expect) = instance(4, 12, n, 100 + seed);
                for mem in (200..=512).step_by(34) {
                    for page in (64..=128).step_by(16) {
                        let run = bnl(&ds, &q, mem, page);
                        assert_eq!(run.ids, expect, "n={n} seed={seed} mem={mem} page={page}");
                        multi_pass += usize::from(run.stats.phase1_batches > 1);
                    }
                }
            }
        }
        assert!(multi_pass >= 700, "only {multi_pass} of 1200 configs took several passes");
    }

    #[test]
    fn paper_example_skyline_of_query() {
        // Dynamic skyline w.r.t. Q on the running example: objects not
        // dominated w.r.t. Q by any other.
        let (ds, q) = rsky_data::paper_example();
        let mut expect = dynamic_skyline(&ds.dissim, &q.subset, &ds.rows, &q.values);
        expect.sort_unstable();
        let mut disk = Disk::new_mem(32);
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(64, 32).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = dynamic_skyline_bnl(&mut ctx, &table, &q).unwrap();
        assert_eq!(run.ids, expect);
        assert!(run.stats.phase1_batches >= 1);
    }

    #[test]
    fn empty_input() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(64);
        let table = RecordFile::create(&mut disk, 3).unwrap();
        let budget = MemoryBudget::from_bytes(64, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = dynamic_skyline_bnl(&mut ctx, &table, &q).unwrap();
        assert!(run.ids.is_empty());
    }

    #[test]
    fn duplicates_all_survive_when_not_dominated() {
        // Two identical objects never dominate each other (no strict edge).
        let (paper, q) = rsky_data::paper_example();
        let mut rows = RowBuf::new(3);
        rows.push(1, &[2, 0, 2]);
        rows.push(2, &[2, 0, 2]);
        let ds = Dataset { schema: paper.schema, dissim: paper.dissim, rows, label: "dup".into() };
        let mut disk = Disk::new_mem(32);
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(32, 32).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = dynamic_skyline_bnl(&mut ctx, &table, &q).unwrap();
        assert_eq!(run.ids, vec![1, 2]);
    }
}
