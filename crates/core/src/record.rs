//! Fixed-width records.
//!
//! A record is `m` categorical value ids plus a stable [`RecordId`] assigned
//! at load time. Records are stored *flat*: each row occupies `m + 1`
//! consecutive `u32`s — `[id, v_0, …, v_{m-1}]`. The id travels with the row
//! through sorting, tiling and batching, so results can always be reported in
//! terms of the original dataset positions.
//!
//! The flat layout is shared verbatim with `rsky-storage`, which packs the
//! same `u32` stream into fixed-size pages, and with `rsky-altree`, which
//! consumes `(id, values)` pairs.

use crate::error::{Error, Result};
use crate::schema::Schema;

/// Dense id of a categorical value within one attribute's domain.
pub type ValueId = u32;

/// Stable identifier of a record (its position in the original dataset).
pub type RecordId = u32;

/// Helpers to view one flat row (`[id, v_0, …, v_{m-1}]`).
pub mod row {
    use super::{RecordId, ValueId};

    /// Record id of a flat row.
    #[inline]
    pub fn id(row: &[u32]) -> RecordId {
        row[0]
    }

    /// Attribute values of a flat row.
    #[inline]
    pub fn values(row: &[u32]) -> &[ValueId] {
        &row[1..]
    }

    /// Number of `u32`s a row occupies for `m` attributes.
    #[inline]
    pub const fn width(m: usize) -> usize {
        m + 1
    }
}

/// Growable buffer of fixed-width rows.
///
/// `RowBuf` is the in-memory working set representation used by all
/// algorithms: batches are `RowBuf`s, phase-one survivors accumulate in a
/// `RowBuf`, generators emit a `RowBuf`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowBuf {
    m: usize,
    data: Vec<u32>,
}

impl RowBuf {
    /// Creates an empty buffer for rows of `m` attributes.
    pub fn new(m: usize) -> Self {
        Self { m, data: Vec::new() }
    }

    /// Creates an empty buffer with room for `rows` rows.
    pub fn with_capacity(m: usize, rows: usize) -> Self {
        Self { m, data: Vec::with_capacity(rows * row::width(m)) }
    }

    /// Wraps an existing flat buffer. `data.len()` must be a multiple of
    /// `m + 1`.
    pub fn from_flat(m: usize, data: Vec<u32>) -> Result<Self> {
        if !data.len().is_multiple_of(row::width(m)) {
            return Err(Error::Corrupt(format!(
                "flat buffer of {} u32s is not a multiple of row width {}",
                data.len(),
                row::width(m)
            )));
        }
        Ok(Self { m, data })
    }

    /// Number of attributes per row.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.m
    }

    /// Number of `u32`s per row.
    #[inline]
    pub fn row_width(&self) -> usize {
        row::width(self.m)
    }

    /// Number of rows stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.row_width()
    }

    /// Whether the buffer holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a record.
    ///
    /// # Panics
    /// Panics if `values.len() != m`.
    pub fn push(&mut self, id: RecordId, values: &[ValueId]) {
        assert_eq!(values.len(), self.m, "record arity mismatch");
        self.data.push(id);
        self.data.extend_from_slice(values);
    }

    /// Appends an already-flat row (`[id, v_0, …]`).
    ///
    /// # Panics
    /// Panics if `flat.len() != m + 1`.
    pub fn push_flat(&mut self, flat: &[u32]) {
        assert_eq!(flat.len(), self.row_width(), "flat row width mismatch");
        self.data.extend_from_slice(flat);
    }

    /// Appends whole rows given as one flat word stream (`[id, v_0, …]`
    /// repeated), in a single bulk copy.
    ///
    /// # Panics
    /// Panics if the stream does not hold a whole number of rows.
    pub fn extend_flat(&mut self, words: impl ExactSizeIterator<Item = u32>) {
        assert!(words.len().is_multiple_of(self.row_width()), "flat row width mismatch");
        self.data.extend(words);
    }

    /// Flat row `i` (`[id, v_0, …, v_{m-1}]`).
    #[inline]
    pub fn flat_row(&self, i: usize) -> &[u32] {
        let w = self.row_width();
        &self.data[i * w..(i + 1) * w]
    }

    /// Record id of row `i`.
    #[inline]
    pub fn id(&self, i: usize) -> RecordId {
        self.data[i * self.row_width()]
    }

    /// Attribute values of row `i`.
    #[inline]
    pub fn values(&self, i: usize) -> &[ValueId] {
        let w = self.row_width();
        &self.data[i * w + 1..(i + 1) * w]
    }

    /// Iterator over flat rows.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.data.chunks_exact(self.row_width())
    }

    /// The underlying flat buffer.
    #[inline]
    pub fn as_flat(&self) -> &[u32] {
        &self.data
    }

    /// Consumes the buffer, returning the flat `u32` vector.
    pub fn into_flat(self) -> Vec<u32> {
        self.data
    }

    /// Removes all rows, keeping the allocation (workhorse-buffer pattern).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Bytes one row occupies on disk / in memory (`4 * (m + 1)`).
    #[inline]
    pub fn record_bytes(&self) -> usize {
        self.row_width() * 4
    }

    /// Validates every row against `schema` (arity and value domains).
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if schema.num_attrs() != self.m {
            return Err(Error::SchemaMismatch(format!(
                "buffer rows have {} attributes, schema has {}",
                self.m,
                schema.num_attrs()
            )));
        }
        for i in 0..self.len() {
            schema.validate_values(self.values(i))?;
        }
        Ok(())
    }

    /// Sorts rows in place by a caller-supplied comparison on flat rows.
    pub fn sort_by(&mut self, mut cmp: impl FnMut(&[u32], &[u32]) -> std::cmp::Ordering) {
        let w = self.row_width();
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| cmp(&self.data[a * w..(a + 1) * w], &self.data[b * w..(b + 1) * w]));
        let mut out = Vec::with_capacity(self.data.len());
        for i in idx {
            out.extend_from_slice(&self.data[i * w..(i + 1) * w]);
        }
        self.data = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowBuf {
        let mut b = RowBuf::new(3);
        b.push(0, &[0, 0, 1]); // O1 = [MSW, AMD, DB2]
        b.push(1, &[1, 0, 0]); // O2 = [RHL, AMD, Informix]
        b.push(2, &[2, 1, 2]); // O3 = [SL, Intel, Oracle]
        b
    }

    #[test]
    fn push_and_access() {
        let b = sample();
        assert_eq!(b.len(), 3);
        assert_eq!(b.id(1), 1);
        assert_eq!(b.values(2), &[2, 1, 2]);
        assert_eq!(b.flat_row(0), &[0, 0, 0, 1]);
        assert_eq!(b.record_bytes(), 16);
    }

    #[test]
    fn iter_yields_all_rows_in_order() {
        let b = sample();
        let ids: Vec<u32> = b.iter().map(row::id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let vals: Vec<&[u32]> = b.iter().map(row::values).collect();
        assert_eq!(vals[1], &[1, 0, 0]);
    }

    #[test]
    fn from_flat_validates_width() {
        assert!(RowBuf::from_flat(3, vec![0, 1, 2, 3]).is_ok());
        assert!(RowBuf::from_flat(3, vec![0, 1, 2]).is_err());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_wrong_arity_panics() {
        let mut b = RowBuf::new(3);
        b.push(0, &[1, 2]);
    }

    #[test]
    fn validate_against_schema() {
        let s = Schema::with_cardinalities(&[3, 2, 3]).unwrap();
        let b = sample();
        assert!(b.validate(&s).is_ok());
        let tight = Schema::with_cardinalities(&[3, 2, 2]).unwrap();
        assert!(b.validate(&tight).is_err());
    }

    #[test]
    fn sort_by_reorders_whole_rows() {
        let mut b = sample();
        b.sort_by(|a, b| row::values(b).cmp(row::values(a))); // descending
        assert_eq!(b.id(0), 2);
        assert_eq!(b.values(0), &[2, 1, 2]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn extend_flat_appends_whole_rows() {
        let mut b = sample();
        b.extend_flat([3, 0, 1, 1, 4, 2, 0, 0].into_iter());
        assert_eq!(b.len(), 5);
        assert_eq!(b.flat_row(4), &[4, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn extend_flat_rejects_partial_rows() {
        let mut b = sample();
        b.extend_flat([3, 0, 1].into_iter());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = sample();
        let cap = b.data.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.data.capacity(), cap);
    }
}
