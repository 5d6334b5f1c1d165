//! Figure 19: response time vs attribute-subset selections for SRS, T-SRS,
//! TRS and T-TRS (paper: 100 k objects × 7 attributes × 50 values each).
//!
//! Paper shape: SRS deteriorates when the selected attributes skip the top
//! of the sort order; T-SRS is insensitive to the selection; TRS matches or
//! beats T-TRS whenever the leading sort attribute is selected, and stays
//! competitive otherwise — "for querying on attribute subsets, tiling is
//! effective for the SRS method, whereas the simple multi-dimensional sort
//! is good enough for the TRS method".

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_bench::{report, AlgoKind, BackendKind, BenchConfig};

fn main() {
    let cfg = BenchConfig::from_env();
    println!("{}", cfg.banner("Figure 19: response time vs attribute subsets"));

    let n = cfg.n(100_000);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ds = rsky_data::synthetic::normal_dataset(7, 50, n, &mut rng).unwrap();
    // The schema is uniform-cardinality, so the sort order is [0..7); subsets
    // below are phrased relative to that order, as in the paper.
    let subsets: [(&str, &[usize]); 5] = [
        ("{A1,A2,A3} (prefix)", &[0, 1, 2]),
        ("{A3,A4,A5} (middle)", &[2, 3, 4]),
        ("{A5,A6,A7} (suffix)", &[4, 5, 6]),
        ("{A1,A4,A7} (spread)", &[0, 3, 6]),
        ("{A1..A7} (all)", &[0, 1, 2, 3, 4, 5, 6]),
    ];
    let algos = [AlgoKind::SRS, AlgoKind::TSRS, AlgoKind::TRS, AlgoKind::TTRS];

    let mut points = Vec::new();
    for (label, subset) in subsets {
        let qs =
            rsky_data::workload::random_subset_queries(&ds.schema, subset, cfg.queries, &mut rng)
                .unwrap();
        let results: Vec<_> = algos
            .iter()
            .map(|&a| {
                rsky_bench::run_algo(&ds, &qs, a, 10.0, cfg.page_size, BackendKind::Mem).unwrap()
            })
            .collect();
        points.push((label.to_string(), results));
    }
    report::figure_tables(
        &format!("Attribute subsets (n = {n}, 7 attrs × 50 values, 10% memory)"),
        "subset",
        &points,
    );
}
