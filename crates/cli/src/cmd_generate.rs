//! `rsky generate` — materialize a dataset directory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_core::error::{Error, Result};

use crate::args::Flags;

pub const HELP: &str = "\
rsky generate --kind <normal|uniform|ci|fc> --out <DIR> [OPTIONS]

Generates a dataset and writes it as a CSV dataset directory (schema.csv,
data.csv, dissim_<i>.csv) loadable by `rsky query` / `rsky influence`.

OPTIONS:
    --kind KIND      normal (paper synthetic), uniform, ci (Census-Income-
                     like shape), fc (ForestCover-like shape)   [normal]
    --out DIR        output directory                            (required)
    --n N            number of records                           [10000]
    --attrs M        attributes (normal/uniform only)            [5]
    --values K       values per attribute (normal/uniform only)  [50]
    --seed S         RNG seed                                    [42]";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let out = flags.require("out")?.to_string();
    let kind = flags.get("kind").unwrap_or("normal");
    let n: usize = flags.num("n", 10_000)?;
    let m: usize = flags.num("attrs", 5)?;
    let k: u32 = flags.num("values", 50)?;
    let seed: u64 = flags.num("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let ds = match kind {
        "normal" => rsky_data::synthetic::normal_dataset(m, k, n, &mut rng)?,
        "uniform" => rsky_data::synthetic::uniform_dataset(m, k, n, &mut rng)?,
        "ci" => rsky_data::census_income_like(n, &mut rng)?,
        "fc" => rsky_data::forest_cover_like(n, &mut rng)?,
        other => {
            return Err(Error::InvalidConfig(format!(
                "unknown --kind {other:?} (normal|uniform|ci|fc)"
            )))
        }
    };
    rsky_data::csv::save_dataset(&ds, &out)?;
    println!(
        "wrote {} — {} records, {} attributes, density {:.5}% → {out}",
        ds.label,
        ds.len(),
        ds.schema.num_attrs(),
        100.0 * ds.density()
    );
    Ok(())
}
