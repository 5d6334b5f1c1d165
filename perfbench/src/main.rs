//! The rsky benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-file|warm-mem|tcp-mixed|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. Each workload builds its inputs from
//! the seed, sets up, measures for `S` seconds, checks every answer and
//! prints a human-readable report followed by one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the workloads and metrics.

mod check;
mod cold_file;
mod costs;
mod host;
mod report;
mod stats;
mod tcp_mixed;
mod trace;
mod warm_mem;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{json_line, Declared, Outcome};

/// Each workload's dataset, dissimilarities included, is part of the
/// workload's definition, as the paper's datasets are: it comes from this
/// fixed seed, and so do the queries its set-up runs. `--seed` draws the
/// measured queries and the write stream. Datasets drawn per seed differ
/// in their random dissimilarities enough to move a workload's mean cost
/// by 10–25 %, which would drown the changes the benchmark is there to
/// show.
pub const DATA_SEED: u64 = 2011;

/// The seed that claims are re-checked on: never used while the benchmark
/// or a change is tuned.
pub const HELD_OUT_SEED: u64 = 7919;

/// Where runs keep their temporary files and traces, relative to the
/// repository root.
const WORK_DIR: &str = ".bench_work";

const WORKLOADS: &[&str] = &["cold-file", "warm-mem", "tcp-mixed"];

/// What every workload is given.
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// This run's temporary directory, removed when the run ends.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} ({} | all)",
            WORKLOADS.join(" | ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Removes a run's temporary directory however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An op's wall time that no layer span covers may not exceed this floor
/// plus [`RESIDUAL_SHARE`] of the op.
const RESIDUAL_FLOOR: Duration = Duration::from_millis(1);
const RESIDUAL_SHARE: f64 = 0.02;

/// Finishes a traced run: records the residual and the tracing overhead,
/// checks that the layer spans cover every op, notes each layer's
/// self-time, and writes the spans out.
pub fn finish_trace(
    out: &mut Outcome,
    cfg: &Config,
    tracer: &trace::Tracer,
    f: &trace::Fold,
    overhead_pct: f64,
) {
    out.set("bench.residual_ms", f.max_residual_ms(), f.ops.len());
    out.set("bench.trace_overhead_pct", overhead_pct, f.ops.len());
    let uncovered = f
        .ops
        .iter()
        .filter(|(wall, r)| *r > RESIDUAL_FLOOR + wall.mul_f64(RESIDUAL_SHARE))
        .count();
    if uncovered > 0 {
        out.problem(format!(
            "{uncovered} of {} traced ops have more than {RESIDUAL_FLOOR:?} + {}% of their wall time outside every layer span",
            f.ops.len(),
            RESIDUAL_SHARE * 100.0
        ));
    }
    let wall: Duration = f.ops.iter().map(|(w, _)| *w).sum();
    for (layer, (d, n)) in &f.self_time {
        out.notes.push(format!(
            "self-time {layer:<22} {:>10.3} ms/span  {n:>6} spans  {:>5.1}% of traced op time",
            d.as_secs_f64() * 1e3 / *n as f64,
            d.as_secs_f64() / wall.as_secs_f64() * 100.0
        ));
    }
    let path = Path::new(WORK_DIR).join(format!("trace-{}-seed{}.jsonl", out.workload, cfg.seed));
    match std::fs::write(&path, tracer.to_jsonl()) {
        Ok(()) => out.notes.push(format!(
            "{} spans of {} ops written to {}",
            tracer.spans().len(),
            f.ops.len(),
            path.display()
        )),
        Err(e) => out.problem(format!("cannot write {}: {e}", path.display())),
    }
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&cfg.work);
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    let _temp = TempDir(cfg.work.clone());
    let mut outcome = match name {
        "cold-file" => cold_file::run(cfg),
        "warm-mem" => warm_mem::run(cfg),
        _ => tcp_mixed::run(cfg),
    }?;
    // The process's peak, unless the workload measured its own.
    if !outcome.values.contains_key("peak_rss_mb") {
        let rss = host::peak_rss_mb().ok_or("cannot read the peak resident memory")?;
        outcome.set("peak_rss_mb", rss, 1);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    let declared = match Declared::load(&root.join("BENCHMARK.json")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    println!(
        "# rsky benchmark: host_cpus={} revision={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={}",
        host::cpus(),
        host::git_revision(root),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut outcomes = Vec::new();
    for (i, name) in names.iter().enumerate() {
        if i > 0 && !host::reset_peak_rss() {
            println!("# peak_rss_mb of {name} includes the workloads before it (watermark reset refused)");
        }
        let cfg = Config {
            seed: args.seed,
            seconds: Duration::from_secs(args.seconds),
            traced: args.traced,
            work: root
                .join(WORK_DIR)
                .join(format!("{name}-{}", std::process::id())),
        };
        let t = Instant::now();
        match run_workload(name, &cfg) {
            Ok(o) => {
                print!("{}", o.human(args.traced, &declared));
                println!("  (workload wall time {:.1} s)", t.elapsed().as_secs_f64());
                outcomes.push(o);
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = outcomes.iter().all(Outcome::correct);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<(String, f64, &str)> = match outcomes.as_slice() {
        [one] => one.json_metrics(args.traced, &declared),
        all => all
            .iter()
            .flat_map(|o| {
                o.json_metrics(args.traced, &declared)
                    .into_iter()
                    .map(|(n, v, u)| (format!("{}/{n}", o.workload), v, u))
            })
            .collect(),
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
