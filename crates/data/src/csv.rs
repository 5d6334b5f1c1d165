//! Plain-text dataset interchange: load and save datasets as a directory of
//! small CSV-like files, so users can run the engines on their own data
//! without writing Rust.
//!
//! A dataset directory contains:
//!
//! * `schema.csv` — one line per attribute: `name,cardinality` (the name is
//!   everything before the last comma);
//! * `data.csv` — one line per record: `m` comma-separated numeric value
//!   ids, each below its attribute's cardinality. Records get the ids
//!   `0..n` in file order;
//! * `dissim_<i>.csv` — the dissimilarity of attribute `i`: the single word
//!   `identity`, the single line `linear,<scale>`, or a full `k × k` matrix
//!   (k lines of k comma-separated numbers; line `a`, column `b` holds
//!   `d(a, b)`);
//! * `label.txt` — optional: the dataset's label, free text. Without it the
//!   label is the directory path.
//!
//! Blank lines are ignored in every `.csv` file. The format is deliberately
//! trivial — no quoting, no escapes, no value labels: attribute names must
//! not contain commas or newlines. For anything richer, construct
//! [`Dataset`] in code.

use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use rsky_core::dataset::Dataset;
use rsky_core::dissim::{AttrDissim, DissimTable, MatrixBuilder};
use rsky_core::error::{Error, Result};
use rsky_core::record::RowBuf;
use rsky_core::schema::{AttrMeta, Schema};

/// Saves `dataset` into `dir` (created if missing; existing files are
/// overwritten).
pub fn save_dataset(dataset: &Dataset, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;

    // schema.csv
    let mut schema_txt = String::new();
    for a in dataset.schema.attrs() {
        if a.name.contains(',') || a.name.contains('\n') {
            return Err(Error::InvalidConfig(format!(
                "attribute name {:?} contains a delimiter",
                a.name
            )));
        }
        let _ = writeln!(schema_txt, "{},{}", a.name, a.cardinality);
    }
    fs::write(dir.join("schema.csv"), schema_txt)?;

    // data.csv — numeric ids (dictionaries are optional on the read side).
    let mut w = BufWriter::new(fs::File::create(dir.join("data.csv"))?);
    for i in 0..dataset.rows.len() {
        let vals = dataset.rows.values(i);
        let line: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
        writeln!(w, "{}", line.join(","))?;
    }
    w.flush()?;

    // dissim_<i>.csv
    for (i, a) in dataset.schema.attrs().iter().enumerate() {
        let path = dir.join(format!("dissim_{i}.csv"));
        match dataset.dissim.attr(i) {
            AttrDissim::Identity => fs::write(path, "identity\n")?,
            AttrDissim::Linear { scale } => fs::write(path, format!("linear,{scale}\n"))?,
            m @ AttrDissim::Matrix { .. } => {
                let k = a.cardinality;
                let mut txt = String::new();
                for x in 0..k {
                    let row: Vec<String> = (0..k).map(|y| format!("{}", m.d(x, y))).collect();
                    let _ = writeln!(txt, "{}", row.join(","));
                }
                fs::write(path, txt)?;
            }
        }
    }
    fs::write(dir.join("label.txt"), &dataset.label)?;
    Ok(())
}

/// Loads a dataset directory written by [`save_dataset`] (or hand-authored
/// in the same format).
pub fn load_dataset_dir(dir: impl AsRef<Path>) -> Result<Dataset> {
    let dir = dir.as_ref();
    // schema.csv
    let schema_txt = fs::read_to_string(dir.join("schema.csv"))?;
    let mut attrs = Vec::new();
    for (lineno, line) in schema_txt.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (name, card) = line.rsplit_once(',').ok_or_else(|| {
            Error::Corrupt(format!("schema.csv line {}: expected name,cardinality", lineno + 1))
        })?;
        let cardinality: u32 = card.trim().parse().map_err(|_| {
            Error::Corrupt(format!("schema.csv line {}: bad cardinality {card:?}", lineno + 1))
        })?;
        attrs.push(AttrMeta::new(name.trim(), cardinality));
    }
    let schema = Schema::new(attrs)?;
    let m = schema.num_attrs();

    // data.csv
    let file = fs::File::open(dir.join("data.csv"))?;
    let mut rows = RowBuf::new(m);
    let mut vals = vec![0u32; m];
    let mut line = String::new();
    let mut reader = BufReader::new(file);
    let mut id: u32 = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut fields = trimmed.split(',');
        for (i, v) in vals.iter_mut().enumerate() {
            let f = fields.next().ok_or_else(|| {
                Error::Corrupt(format!("data.csv record {id}: expected {m} values"))
            })?;
            *v = f.trim().parse().map_err(|_| {
                Error::Corrupt(format!("data.csv record {id}, attribute {i}: bad value id {f:?}"))
            })?;
        }
        if fields.next().is_some() {
            return Err(Error::Corrupt(format!("data.csv record {id}: more than {m} values")));
        }
        schema.validate_values(&vals)?;
        rows.push(id, &vals);
        id = id.checked_add(1).ok_or_else(|| Error::Corrupt("too many records".into()))?;
    }

    // dissim_<i>.csv
    let mut measures = Vec::with_capacity(m);
    for i in 0..m {
        let txt = fs::read_to_string(dir.join(format!("dissim_{i}.csv")))?;
        let lines: Vec<&str> = txt.lines().filter(|line| !line.trim().is_empty()).collect();
        let first = lines.first().map_or("", |line| line.trim());
        if first == "identity" {
            measures.push(AttrDissim::Identity);
            continue;
        }
        if let Some(rest) = first.strip_prefix("linear,") {
            let scale: f64 = rest.trim().parse().map_err(|_| {
                Error::Corrupt(format!("dissim_{i}.csv: bad linear scale {rest:?}"))
            })?;
            measures.push(AttrDissim::Linear { scale });
            continue;
        }
        let k = schema.cardinality(i);
        if lines.len() != k as usize {
            return Err(Error::Corrupt(format!(
                "dissim_{i}.csv: {} rows, expected {k}",
                lines.len()
            )));
        }
        let mut b = MatrixBuilder::new(k);
        for (x, line) in lines.iter().enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != k as usize {
                return Err(Error::Corrupt(format!(
                    "dissim_{i}.csv row {x}: {} cells, expected {k}",
                    cells.len()
                )));
            }
            for (y, c) in cells.iter().enumerate() {
                let v: f64 = c.trim().parse().map_err(|_| {
                    Error::Corrupt(format!("dissim_{i}.csv row {x} col {y}: bad number {c:?}"))
                })?;
                b = b.set(x as u32, y as u32, v);
            }
        }
        measures.push(b.build()?);
    }
    let dissim = DissimTable::new(&schema, measures)?;
    let label = fs::read_to_string(dir.join("label.txt"))
        .unwrap_or_else(|_| dir.display().to_string());
    Ok(Dataset { schema, dissim, rows, label })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rsky-csv-{}-{name}", std::process::id()))
    }

    #[test]
    fn paper_example_round_trips() {
        let (ds, _) = crate::example::paper_example();
        let dir = tmp("paper");
        let _ = fs::remove_dir_all(&dir);
        save_dataset(&ds, &dir).unwrap();
        let back = load_dataset_dir(&dir).unwrap();
        assert_eq!(back.schema, ds.schema);
        assert_eq!(back.dissim, ds.dissim);
        // Ids are re-densified on load (0..n); values must match in order.
        assert_eq!(back.rows.len(), ds.rows.len());
        for i in 0..ds.rows.len() {
            assert_eq!(back.rows.values(i), ds.rows.values(i));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synthetic_round_trips_with_identity_and_linear() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut ds = crate::synthetic::normal_dataset(3, 5, 40, &mut rng).unwrap();
        // Mix in the non-matrix measures.
        let schema = ds.schema.clone();
        ds.dissim = DissimTable::new(
            &schema,
            vec![
                ds.dissim.attr(0).clone(),
                AttrDissim::Identity,
                AttrDissim::Linear { scale: 0.25 },
            ],
        )
        .unwrap();
        let dir = tmp("synth");
        let _ = fs::remove_dir_all(&dir);
        save_dataset(&ds, &dir).unwrap();
        let back = load_dataset_dir(&dir).unwrap();
        assert_eq!(back.dissim, ds.dissim);
        for i in 0..ds.rows.len() {
            assert_eq!(back.rows.values(i), ds.rows.values(i));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_inputs() {
        let dir = tmp("bad");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("schema.csv"), "A,3\nB,2\n").unwrap();
        fs::write(dir.join("data.csv"), "0,1\n5,0\n").unwrap(); // 5 out of domain
        fs::write(dir.join("dissim_0.csv"), "identity\n").unwrap();
        fs::write(dir.join("dissim_1.csv"), "identity\n").unwrap();
        assert!(load_dataset_dir(&dir).is_err());

        fs::write(dir.join("data.csv"), "0,1,9\n").unwrap(); // arity
        assert!(load_dataset_dir(&dir).is_err());

        fs::write(dir.join("data.csv"), "0,1\n").unwrap();
        fs::write(dir.join("dissim_0.csv"), "0,0.5\n0.5,0\n").unwrap(); // 2x2 for k=3
        assert!(load_dataset_dir(&dir).is_err());
        // Too few or too many non-blank rows, a short row, a bad number, no
        // rows at all: corrupt, never a panic.
        for d0 in [
            "0,0.1,0.2\n\n0.3,0,0.4\n",
            "0,0.1,0.2\n0.3,0,0.4\n0.5,0.6,0\n\n0.5,0.6,0\n",
            "\n0,0.1,0.2\n0.3,0,0.4\n0.5,0.6\n",
            "0,0.1,0.2\n\n0.3,x,0.4\n0.5,0.6,0\n",
            "\n\n",
        ] {
            fs::write(dir.join("dissim_0.csv"), d0).unwrap();
            let err = load_dataset_dir(&dir).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{d0:?}: {err:?}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a two-attribute directory whose `dissim_0.csv` (k = 3) and
    /// `dissim_1.csv` (k = 2) are the given texts.
    fn write_matrix_dir(dir: &Path, d0: &str, d1: &str) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("schema.csv"), "A,3\nB,2\n").unwrap();
        fs::write(dir.join("data.csv"), "0,1\n2,0\n").unwrap();
        fs::write(dir.join("dissim_0.csv"), d0).unwrap();
        fs::write(dir.join("dissim_1.csv"), d1).unwrap();
    }

    #[test]
    fn blank_lines_in_a_matrix_do_not_shift_rows() {
        let dir = tmp("blank");
        let d0 = "0,0.1,0.2\n0.3,0,0.4\n0.5,0.6,0\n";
        let d1 = "0,0.7\n0.8,0\n";
        write_matrix_dir(&dir, d0, d1);
        let want = load_dataset_dir(&dir).unwrap().dissim;
        assert_eq!(want.d(0, 1, 0), 0.3);
        assert_eq!(want.d(0, 0, 2), 0.2);
        assert_eq!(want.d(1, 1, 0), 0.8);
        for (d0, d1) in [
            ("\n0,0.1,0.2\n0.3,0,0.4\n0.5,0.6,0\n", "\n0,0.7\n0.8,0\n"),
            ("0,0.1,0.2\n\n0.3,0,0.4\n  \n0.5,0.6,0\n\n", "0,0.7\n\n0.8,0\n"),
            ("\n\n0,0.1,0.2\n0.3,0,0.4\n\n0.5,0.6,0", "\n0,0.7\n\n\n0.8,0"),
        ] {
            write_matrix_dir(&dir, d0, d1);
            let got = load_dataset_dir(&dir).unwrap_or_else(|e| panic!("{d0:?}/{d1:?}: {e}"));
            assert_eq!(got.dissim, want, "{d0:?} / {d1:?}");
        }
        write_matrix_dir(&dir, "\nidentity\n", "\nlinear,0.5\n");
        let got = load_dataset_dir(&dir).unwrap();
        assert_eq!(got.dissim.attr(0), &AttrDissim::Identity);
        assert_eq!(got.dissim.attr(1), &AttrDissim::Linear { scale: 0.5 });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_dataset_is_queryable() {
        let (ds, q) = crate::example::paper_example();
        let dir = tmp("query");
        let _ = fs::remove_dir_all(&dir);
        save_dataset(&ds, &dir).unwrap();
        let back = load_dataset_dir(&dir).unwrap();
        // Paper result {O3, O6} = 0-based loaded ids {2, 5}.
        let rs = rsky_core::skyline::reverse_skyline_by_definition(&back.dissim, &back.rows, &q);
        assert_eq!(rs, vec![2, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
