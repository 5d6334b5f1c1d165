//! `rsky info` — describe a dataset directory.

use rsky_core::error::Result;

use crate::args::Flags;

pub const HELP: &str = "\
rsky info --data <DIR>

Prints schema, cardinalities, density and dissimilarity characteristics
(including which attributes are genuinely non-metric) of a dataset
directory.";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let dir = flags.require("data")?;
    let ds = rsky_data::csv::load_dataset_dir(dir)?;
    println!("dataset:  {}", ds.label);
    println!("records:  {}", ds.len());
    println!("density:  {:.6}% (n / Π cardinality)", 100.0 * ds.density());
    println!("bytes:    {} on disk ({}-byte records)", ds.data_bytes(), (ds.schema.num_attrs() + 1) * 4);
    println!("\n{:<24} {:>12} {:>12} {:>11}", "attribute", "cardinality", "measure", "non-metric?");
    for (i, a) in ds.schema.attrs().iter().enumerate() {
        let m = ds.dissim.attr(i);
        let kind = match m {
            rsky_core::AttrDissim::Matrix { .. } => "matrix",
            rsky_core::AttrDissim::Identity => "identity",
            rsky_core::AttrDissim::Linear { .. } => "linear",
        };
        println!(
            "{:<24} {:>12} {:>12} {:>11}",
            a.name,
            a.cardinality,
            kind,
            if m.is_non_metric() { "yes" } else { "no" }
        );
    }
    let order = rsky_order::ascending_cardinality_order(&ds.schema);
    let names: Vec<&str> = order.iter().map(|&i| ds.schema.attrs()[i].name.as_str()).collect();
    println!("\nAL-Tree attribute order (ascending cardinality): {}", names.join(" → "));
    Ok(())
}
