//! Plain-text dataset interchange: load and save datasets as a directory of
//! small CSV-like files, so users can run the engines on their own data
//! without writing Rust.
//!
//! A dataset directory contains:
//!
//! * `schema.csv` — one line per attribute: `name,cardinality` (the name is
//!   everything before the last comma);
//! * `data.csv` — one line per record: `m` comma-separated decimal value
//!   ids, each below its attribute's cardinality (a value may carry a
//!   leading `+` and surrounding ASCII whitespace; lines may end in
//!   `\r\n`). Records get the ids `0..n` in file order. The file is parsed
//!   as bytes, a chunk at a time;
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
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

use rsky_core::dataset::Dataset;
use rsky_core::dissim::{AttrDissim, DissimTable, MatrixBuilder};
use rsky_core::error::{Error, Result};
use rsky_core::record::RowBuf;
use rsky_core::schema::{AttrMeta, Schema};

/// Bytes `data.csv` is read and written in at a time: the default buffer of
/// `BufReader` and `BufWriter`. Larger chunks parse no faster.
const CHUNK: usize = 8 * 1024;

/// `bytes` without the leading and trailing ASCII whitespace `str::trim`
/// removes (it also removes vertical tab, which `u8::is_ascii_whitespace`
/// keeps).
fn trim(bytes: &[u8]) -> &[u8] {
    let space = |b: &u8| matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c);
    let start = bytes.iter().position(|b| !space(b)).unwrap_or(bytes.len());
    let end = bytes.iter().rposition(|b| !space(b)).map_or(start, |i| i + 1);
    &bytes[start..end]
}

/// A value id as `u32::from_str` reads it: decimal digits after an optional
/// `+`, no overflow.
fn parse_u32(field: &[u8]) -> Option<u32> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u32::from(d))
    })
}

/// The records of `data.csv` parsed so far, and the values of the next.
struct Records<'a> {
    schema: &'a Schema,
    rows: RowBuf,
    vals: Vec<u32>,
    /// The id the next record gets: records are numbered in file order.
    id: u32,
}

impl Records<'_> {
    fn push(&mut self) -> Result<()> {
        self.schema.validate_values(&self.vals)?;
        self.rows.push(self.id, &self.vals);
        self.id = self.id.checked_add(1).ok_or_else(|| Error::Corrupt("too many records".into()))?;
        Ok(())
    }

    /// Adds the record of one line (without its `\n`) as `str::trim` and
    /// `u32::from_str` read it; a blank line holds none.
    fn line(&mut self, line: &[u8]) -> Result<()> {
        let (m, id) = (self.vals.len(), self.id);
        let line = trim(line);
        if line.is_empty() {
            return Ok(());
        }
        // `at` is where the next field starts; past the end, there is none.
        let mut at = 0;
        for (i, v) in self.vals.iter_mut().enumerate() {
            if at > line.len() {
                return Err(Error::Corrupt(format!("data.csv record {id}: expected {m} values")));
            }
            let end = line[at..].iter().position(|&b| b == b',').map_or(line.len(), |p| at + p);
            let field = &line[at..end];
            *v = parse_u32(trim(field)).ok_or_else(|| {
                let f = String::from_utf8_lossy(field);
                Error::Corrupt(format!("data.csv record {id}, attribute {i}: bad value id {f:?}"))
            })?;
            at = end + 1;
        }
        if at <= line.len() {
            return Err(Error::Corrupt(format!("data.csv record {id}: more than {m} values")));
        }
        self.push()
    }
}

/// The records of `data.csv`, parsed straight from the bytes of `input`,
/// read `chunk` bytes at a time (more for a longer line).
fn read_data(mut input: impl Read, schema: &Schema, chunk: usize) -> Result<RowBuf> {
    let m = schema.num_attrs();
    let mut records = Records { schema, rows: RowBuf::new(m), vals: vec![0; m], id: 0 };
    // `buf[..filled]` holds the bytes read and not parsed yet: the start of
    // a line whose end is still to come.
    let mut buf = vec![0u8; chunk.max(1)];
    let mut filled = 0;
    loop {
        let got = match input.read(&mut buf[filled..]) {
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if got == 0 {
            records.line(&buf[..filled])?;
            return Ok(records.rows);
        }
        filled += got;
        let mut start = 0;
        while let Some(nl) = buf[start..filled].iter().position(|&b| b == b'\n') {
            records.line(&buf[start..start + nl])?;
            start += nl + 1;
        }
        buf.copy_within(start..filled, 0);
        filled -= start;
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
    }
}

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

    // data.csv — numeric ids (dictionaries are optional on the read side),
    // each row written straight into one reused buffer.
    let mut file = fs::File::create(dir.join("data.csv"))?;
    let mut buf = Vec::with_capacity(CHUNK);
    for i in 0..dataset.rows.len() {
        for (k, &v) in dataset.rows.values(i).iter().enumerate() {
            if k > 0 {
                buf.push(b',');
            }
            write!(buf, "{v}")?;
        }
        buf.push(b'\n');
        if buf.len() >= CHUNK {
            file.write_all(&buf)?;
            buf.clear();
        }
    }
    file.write_all(&buf)?;

    // dissim_<i>.csv
    for (i, a) in dataset.schema.attrs().iter().enumerate() {
        let path = dir.join(format!("dissim_{i}.csv"));
        match dataset.dissim.attr(i) {
            AttrDissim::Identity => fs::write(path, "identity\n")?,
            AttrDissim::Linear { scale } => fs::write(path, format!("linear,{scale}\n"))?,
            m @ AttrDissim::Matrix { .. } => {
                let k = a.cardinality;
                buf.clear();
                for x in 0..k {
                    for y in 0..k {
                        if y > 0 {
                            buf.push(b',');
                        }
                        write!(buf, "{}", m.d(x, y))?;
                    }
                    buf.push(b'\n');
                }
                fs::write(path, &buf)?;
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

    let rows = read_data(fs::File::open(dir.join("data.csv"))?, &schema, CHUNK)?;

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

    /// The line loader `read_data` replaced: `read_line`, `trim`, `split`
    /// and `str::parse`, kept as the reference for what a file means.
    fn read_data_by_line(path: &Path, schema: &Schema) -> Result<RowBuf> {
        use std::io::{BufRead, BufReader};
        let m = schema.num_attrs();
        let file = fs::File::open(path)?;
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
                    Error::Corrupt(format!(
                        "data.csv record {id}, attribute {i}: bad value id {f:?}"
                    ))
                })?;
            }
            if fields.next().is_some() {
                return Err(Error::Corrupt(format!("data.csv record {id}: more than {m} values")));
            }
            schema.validate_values(&vals)?;
            rows.push(id, &vals);
            id = id.checked_add(1).ok_or_else(|| Error::Corrupt("too many records".into()))?;
        }
        Ok(rows)
    }

    /// A seeded `data.csv` over `cards`: `n` records, either plain or
    /// written with the spacing, signs, zeros, line ends and blank lines
    /// both loaders accept, and, when `corrupt`, one field or line end
    /// broken.
    fn data_file(rng: &mut StdRng, cards: &[u32], n: usize, corrupt: bool) -> Vec<u8> {
        use rand::Rng;
        const SPACE: [&str; 7] = ["", "", " ", "  ", "\t", "\x0b", "\x0c"];
        let plain = rng.gen_bool(0.5);
        let p = |p: f64| if plain { 0.0 } else { p };
        let space = |rng: &mut StdRng| if plain { "" } else { SPACE[rng.gen_range(0..SPACE.len())] };
        const BAD: [&[u8]; 16] = [
            b"", b"x", b"-1", b"-0", b"+", b"++1", b"1 2", b"4294967296", b"99999999999",
            b"\xc3\xa9", b"\xff", b"1\r2", b"0x1", b"1.0", b" , ", b"1,",
        ];
        let mut out = Vec::new();
        let bad_line = corrupt.then(|| rng.gen_range(0..n.max(1)));
        for line in 0..n {
            if rng.gen_bool(p(0.1)) {
                out.extend_from_slice(space(rng).as_bytes());
                out.extend_from_slice(if rng.gen_bool(0.5) { b"\n" } else { b"\r\n" });
            }
            let broken = (bad_line == Some(line)).then(|| rng.gen_range(0..cards.len() + 3));
            for (a, &card) in cards.iter().enumerate() {
                if a > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(space(rng).as_bytes());
                if broken == Some(a) {
                    if rng.gen_bool(0.2) {
                        // Out of its attribute's domain.
                        write!(out, "{}", card + rng.gen_range(0..3u32)).unwrap();
                    } else {
                        out.extend_from_slice(BAD[rng.gen_range(0..BAD.len())]);
                    }
                } else {
                    if rng.gen_bool(p(0.1)) {
                        out.push(b'+');
                    }
                    // Leading zeros, some making a value wider than ten digits.
                    let zeros = if rng.gen_bool(0.1) { rng.gen_range(1..12) } else { 0 };
                    out.resize(out.len() + zeros, b'0');
                    write!(out, "{}", rng.gen_range(0..card)).unwrap();
                }
                out.extend_from_slice(space(rng).as_bytes());
            }
            match broken.and_then(|b| b.checked_sub(cards.len())) {
                Some(0) => out.extend_from_slice(b",1"), // one value too many
                Some(1) => out.truncate(out.iter().rposition(|&b| b == b',').unwrap_or(0)),
                Some(2) => out.push(b'\r'), // a lone carriage return before more values
                _ => {}
            }
            let last = line + 1 == n && rng.gen_bool(0.5);
            if !last {
                out.extend_from_slice(if rng.gen_bool(1.0 - p(0.3)) { b"\n" } else { b"\r\n" });
            }
            if broken == Some(cards.len() + 2) {
                out.extend_from_slice(b"1,2,3\n");
            }
        }
        out
    }

    #[test]
    fn byte_loader_matches_the_line_loader() {
        let dir = tmp("bytes");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.csv");
        let cards = [5, 12, 300];
        let schema =
            Schema::new(cards.iter().enumerate().map(|(i, &c)| AttrMeta::new(format!("a{i}"), c)).collect())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let (mut accepted, mut refused) = (0, 0);
        for trial in 0..400 {
            // Every tenth file spans several whole read chunks.
            let n = if trial % 10 == 0 { 6000 } else { trial % 37 };
            let corrupt = trial % 2 == 1;
            let bytes = data_file(&mut rng, &cards, n, corrupt);
            fs::write(&path, &bytes).unwrap();
            let want = read_data_by_line(&path, &schema);
            // Chunks shorter than a line make the buffer grow.
            for chunk in [1, 7, 64, CHUNK].into_iter().filter(|&c| c > 1 || n < 100) {
                let got = read_data(fs::File::open(&path).unwrap(), &schema, chunk);
                let text = String::from_utf8_lossy(&bytes[..bytes.len().min(400)]);
                match (&got, &want) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want, "trial {trial}: {text:?}"),
                    // Bytes that are not UTF-8 fail `read_line` itself.
                    (Err(_), Err(Error::Io(_))) => {}
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "trial {trial}: {text:?}")
                    }
                    _ => panic!("trial {trial}, chunk {chunk}: {got:?} against {want:?}: {text:?}"),
                }
            }
            match want {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(accepted > 200 && refused > 100, "{accepted} accepted, {refused} refused");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `save_dataset`'s formatting before it wrote into one reused buffer:
    /// a `Vec<String>` joined per row and per matrix row.
    fn save_by_join(ds: &Dataset, dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        let mut data = String::new();
        for i in 0..ds.rows.len() {
            let line: Vec<String> = ds.rows.values(i).iter().map(|v| v.to_string()).collect();
            let _ = writeln!(data, "{}", line.join(","));
        }
        fs::write(dir.join("data.csv"), data).unwrap();
        for (i, a) in ds.schema.attrs().iter().enumerate() {
            if let m @ AttrDissim::Matrix { .. } = ds.dissim.attr(i) {
                let k = a.cardinality;
                let mut txt = String::new();
                for x in 0..k {
                    let row: Vec<String> = (0..k).map(|y| format!("{}", m.d(x, y))).collect();
                    let _ = writeln!(txt, "{}", row.join(","));
                }
                fs::write(dir.join(format!("dissim_{i}.csv")), txt).unwrap();
            }
        }
    }

    #[test]
    fn saved_files_keep_their_bytes() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(99);
        let matrices = crate::synthetic::uniform_dataset(2, 200, 1, &mut rng).unwrap().dissim;
        // Every value of the two matrix attributes, and values of every
        // width up to `u32::MAX - 1`.
        let schema = Schema::with_cardinalities(&[200, 200, 100_000, u32::MAX]).unwrap();
        let dissim = DissimTable::new(
            &schema,
            vec![
                matrices.attr(0).clone(),
                matrices.attr(1).clone(),
                AttrDissim::Identity,
                AttrDissim::Linear { scale: 0.125 },
            ],
        )
        .unwrap();
        let mut rows = RowBuf::new(4);
        for id in 0..12_000 {
            let wide = rng.gen_range(0..u32::MAX) >> rng.gen_range(0..32u32);
            let values = [rng.gen_range(0..200), rng.gen_range(0..200), rng.gen_range(0..100_000), wide];
            rows.push(id, &values);
        }
        let ds = Dataset { schema, dissim, rows, label: "save".into() };
        let (dir, reference) = (tmp("save"), tmp("save-ref"));
        for d in [&dir, &reference] {
            let _ = fs::remove_dir_all(d);
        }
        save_dataset(&ds, &dir).unwrap();
        save_by_join(&ds, &reference);
        for file in ["data.csv", "dissim_0.csv", "dissim_1.csv"] {
            let got = fs::read(dir.join(file)).unwrap();
            assert!(got == fs::read(reference.join(file)).unwrap(), "{file} changed");
        }
        assert!(fs::metadata(dir.join("data.csv")).unwrap().len() > 2 * CHUNK as u64);
        for d in [&dir, &reference] {
            fs::remove_dir_all(d).unwrap();
        }
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
