//! Shared experiment runner: prepare a dataset in the right layout for each
//! algorithm, run a batch of queries, aggregate the cost profile.

use std::time::Duration;

use rsky_algos::prep::{load_dataset, prepare_table};
use rsky_algos::{engine_by_name, layout_for, EngineCtx};
use rsky_core::dataset::Dataset;
use rsky_core::error::Result;
use rsky_core::query::Query;
use rsky_core::stats::IoCounts;
use rsky_storage::{Disk, MemoryBudget, ScratchDir};

/// Z-order tiles per attribute of the tiled layouts (Section 5.6).
const TILES: u32 = 4;

/// One algorithm of the paper's evaluation: the legend it is plotted under
/// and the [`engine_by_name`] name that picks its engine and, through
/// [`layout_for`], its layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoKind {
    /// Display name matching the paper's legends.
    pub name: &'static str,
    /// Engine name (`naive|brs|srs|trs|tsrs|ttrs`).
    pub engine: &'static str,
}

impl AlgoKind {
    /// Algorithm 1, on the original layout.
    pub const NAIVE: AlgoKind = AlgoKind { name: "Naive", engine: "naive" };
    /// Algorithm 2, on the original layout.
    pub const BRS: AlgoKind = AlgoKind { name: "BRS", engine: "brs" };
    /// Section 4.2, on the multi-attribute-sorted layout.
    pub const SRS: AlgoKind = AlgoKind { name: "SRS", engine: "srs" };
    /// Algorithms 3–5, on the multi-attribute-sorted layout.
    pub const TRS: AlgoKind = AlgoKind { name: "TRS", engine: "trs" };
    /// SRS on the Z-ordered tiled layout (Section 5.6).
    pub const TSRS: AlgoKind = AlgoKind { name: "T-SRS", engine: "tsrs" };
    /// TRS on the Z-ordered tiled layout (Section 5.6).
    pub const TTRS: AlgoKind = AlgoKind { name: "T-TRS", engine: "ttrs" };

    /// The trio the paper's main figures compare.
    pub const MAIN: [AlgoKind; 3] = [AlgoKind::BRS, AlgoKind::SRS, AlgoKind::TRS];
}

/// Where the pages live during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// In-memory pages: isolates computational cost and counts IOs without
    /// paying them (Figures 3–6 style).
    Mem,
    /// Real files in a temp directory: response-time experiments
    /// (Figures 7, 8, 10 style).
    File,
}

/// Aggregated outcome of one `(algorithm, parameter point)` cell.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Algorithm display name.
    pub algo: &'static str,
    /// Mean response (total) time per query.
    pub response: Duration,
    /// Mean phase-1 + phase-2 computation time per query (excludes IO price
    /// only under the Mem backend, where IO is free).
    pub compute: Duration,
    /// Page IOs summed over the queries, divided by query count.
    pub io: IoCounts,
    /// Mean attribute-level distance checks per query.
    pub checks: f64,
    /// Mean result cardinality.
    pub result_size: f64,
    /// Mean phase-1 survivors.
    pub phase1_survivors: f64,
    /// Pre-processing (sort) time for the layout, once per dataset.
    pub prep: Duration,
}

/// Runs `algo` over `queries` on a fresh disk and aggregates the stats.
pub fn run_algo(
    dataset: &Dataset,
    queries: &[Query],
    algo: AlgoKind,
    mem_pct: f64,
    page_size: usize,
    backend: BackendKind,
) -> Result<PointResult> {
    static DIR_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // Declared before the disk, so the disk is dropped first.
    let pages_dir = (backend == BackendKind::File).then(|| {
        ScratchDir::new(std::env::temp_dir().join(format!(
            "rsky-bench-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        )))
    });
    let mut disk = match &pages_dir {
        Some(dir) => Disk::new_dir(dir.path(), page_size)?,
        None => Disk::new_mem(page_size),
    };
    let budget = MemoryBudget::from_percent(dataset.data_bytes(), mem_pct, page_size)?;
    let raw = load_dataset(&mut disk, dataset)?;
    let layout = layout_for(algo.engine, TILES)?;
    let prepared = prepare_table(&mut disk, &dataset.schema, &raw, layout, &budget)?;
    let engine = engine_by_name(algo.engine, &dataset.schema, 1)?;

    let mut io = IoCounts::default();
    let mut response = Duration::ZERO;
    let mut compute = Duration::ZERO;
    let (mut checks, mut result_size, mut survivors) = (0.0, 0.0, 0.0);
    for q in queries {
        let mut ctx = EngineCtx {
            disk: &mut disk,
            schema: &dataset.schema,
            dissim: &dataset.dissim,
            budget,
        };
        let run = engine.run(&mut ctx, &prepared.file, q)?;
        io.add(run.stats.io);
        response += run.stats.total_time;
        compute += run.stats.phase1_time + run.stats.phase2_time;
        checks += run.stats.all_checks() as f64;
        result_size += run.stats.result_size as f64;
        survivors += run.stats.phase1_survivors as f64;
    }
    let nq = queries.len().max(1) as u32;
    Ok(PointResult {
        algo: algo.name,
        response: response / nq,
        compute: compute / nq,
        io: IoCounts {
            seq_reads: io.seq_reads / nq as u64,
            rand_reads: io.rand_reads / nq as u64,
            seq_writes: io.seq_writes / nq as u64,
            rand_writes: io.rand_writes / nq as u64,
        },
        checks: checks / nq as f64,
        result_size: result_size / nq as f64,
        phase1_survivors: survivors / nq as f64,
        prep: prepared.prep_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_algorithms_agree_through_the_runner() {
        let mut rng = StdRng::seed_from_u64(50);
        let ds = rsky_data::synthetic::normal_dataset(3, 8, 300, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 2, &mut rng).unwrap();
        let mut sizes = Vec::new();
        for algo in [
            AlgoKind::NAIVE,
            AlgoKind::BRS,
            AlgoKind::SRS,
            AlgoKind::TRS,
            AlgoKind::TSRS,
            AlgoKind::TTRS,
        ] {
            let r = run_algo(&ds, &qs, algo, 10.0, 512, BackendKind::Mem).unwrap();
            sizes.push((algo.name, r.result_size));
        }
        let first = sizes[0].1;
        for (name, s) in sizes {
            assert_eq!(s, first, "{name} disagrees on mean result size");
        }
    }

    #[test]
    fn file_backend_round_trips() {
        let mut rng = StdRng::seed_from_u64(51);
        let ds = rsky_data::synthetic::normal_dataset(3, 6, 120, &mut rng).unwrap();
        let qs = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap();
        let mem = run_algo(&ds, &qs, AlgoKind::TRS, 20.0, 512, BackendKind::Mem).unwrap();
        let file = run_algo(&ds, &qs, AlgoKind::TRS, 20.0, 512, BackendKind::File).unwrap();
        assert_eq!(mem.result_size, file.result_size);
        assert_eq!(mem.io.sequential(), file.io.sequential());
    }
}
