//! Batched dominance kernels over columnar candidate blocks.
//!
//! The dominance inner loop — "does scan object `y` prune candidate `x`?" —
//! is the hot path of every engine. Evaluated one candidate at a time it
//! goes through [`DissimTable::d`]'s per-attribute enum dispatch. The
//! kernels here restructure that loop around three ideas:
//!
//! 1. **Flat dissimilarity tables** ([`FlatDissim`]): every measure is
//!    materialized into one contiguous cardinality-stride `Vec<f64>`, so a
//!    lookup is a single offset add — no nested-`Vec` pointer chase, no
//!    enum dispatch.
//! 2. **Columnar candidates** ([`CandidateBlocks`]): candidates are split
//!    into chunks of [`LANES`] (8). Fresh chunks are probed by *gathering*
//!    from the scan object's moving row; once a chunk survives enough
//!    probes to amortize the build, the distances `d_i(v, x_i)` for
//!    *every* domain value `v` are pretranslated into a `[card_i × 8]`
//!    table and a probe becomes one contiguous 8-wide `f64` load plus
//!    compares. Both probes use the exact-chunk `&[f64; LANES]` idiom to
//!    stay bounds-check-free so rustc autovectorizes them. The scan is
//!    chunk-major with an early break at chunk death, so pruned chunks
//!    cost nothing for the rest of a pass.
//! 3. **Masked early exit**: liveness, feasibility and strictness are
//!    `f64` 0/1 lane masks updated by branchless selects (the form rustc
//!    reliably turns into `cmppd`/`andpd`; `u8` bitmask chains never
//!    vectorize), and the cost counters advance by summing the masks —
//!    exact, since sums of 0/1 stay integral far below 2^53. The evaluated
//!    (candidate, object, attribute-prefix) set is *identical* to a
//!    per-pair loop's with first-failing-attribute early exit, so
//!    `dist_checks` / `obj_comparisons` — and of course the result ids —
//!    are the paper's counts.
//!
//! The domain picks the distance source, once per run: [`PrunerKernel::new`]
//! flattens it when [`FlatDissim::build_for`] accepts it, and otherwise the
//! kernels read [`DissimTable::d`] directly ([`DistSource`]).
//! [`CandidateBlocks`] serves both sources with the same chunk loop and
//! counter contract; on the table source it gathers distances for the
//! lanes still feasible and never pretranslates. The twin-domain suites
//! (`tests/kernel_differential.rs`) hold the two sources to identical ids
//! and counters.

use rsky_core::dissim::{DissimTable, FlatDissim};
use rsky_core::query::AttrSubset;
use rsky_core::record::{RecordId, ValueId};
use rsky_core::schema::Schema;
use rsky_core::stats::RunStats;
use rsky_storage::columnar::{ColumnarBatch, LANES};

use crate::qcache::QueryDistCache;

/// Where the kernels read `d_i(moving, center)` from.
#[derive(Debug, Clone, Copy)]
pub enum DistSource<'a> {
    /// The flattened tables of a domain [`FlatDissim`] accepts.
    Flat(&'a FlatDissim),
    /// The measures themselves, for a domain too large to flatten.
    Table(&'a DissimTable),
}

/// Per-run kernel state: the flattened dissimilarity tables, present
/// exactly when the run's domain fits
/// [`rsky_core::dissim::MAX_FLAT_CELLS`]. Built once per run on the thread
/// that starts it; worker threads receive it by reference.
#[derive(Debug)]
pub struct PrunerKernel {
    flat: Option<FlatDissim>,
}

impl PrunerKernel {
    /// Flattens the domain when [`FlatDissim::build_for`] accepts it;
    /// otherwise the kernels read the [`DissimTable`].
    pub fn new(schema: &Schema, dissim: &DissimTable) -> Self {
        Self { flat: FlatDissim::build_for(schema, dissim) }
    }

    /// A kernel that never flattens: every source is the [`DissimTable`]
    /// (reference runs over the enum-dispatch measures).
    pub fn scalar() -> Self {
        Self { flat: None }
    }

    /// The flat tables, when the domain flattened.
    #[inline]
    pub fn flat(&self) -> Option<&FlatDissim> {
        self.flat.as_ref()
    }

    /// The source the kernels read `dissim`'s distances from: the flat
    /// tables when the domain flattened, `dissim` itself otherwise.
    #[inline]
    pub fn source<'a>(&'a self, dissim: &'a DissimTable) -> DistSource<'a> {
        match &self.flat {
            Some(flat) => DistSource::Flat(flat),
            None => DistSource::Table(dissim),
        }
    }
}

/// Cap on the number of pretranslated `d(v, x_lane)` cells a
/// [`CandidateBlocks`] may allocate across all of its chunks (64 MiB of
/// `f64`). Chunks beyond the budget stay on the gather path: same masked
/// lane loop, but distances are fetched through [`FlatDissim::moving_row`]
/// per scan object instead of being pretranslated per candidate.
pub const MAX_DMAT_CELLS: usize = 1 << 23;

/// Probes a chunk must survive before its pretranslated table is built.
/// Chunks pruned on their first probes — the common case in phase 1 —
/// never pay the `Σ card_k · LANES` build; long-lived chunks (phase-2
/// survivors) translate almost immediately and spend the rest of their
/// scan on the contiguous probe.
const TRANSLATE_AFTER: u32 = 32;

// `lane_sum` spells out the 8-lane reduction tree.
const _: () = assert!(LANES == 8);

/// A set of candidate records blocked into chunks of [`LANES`] for batched
/// pruner passes, with cached query distances, lane liveness masks, and —
/// on the flat source, for chunks that survive long enough to amortize the
/// build — lazily pretranslated per-chunk distance tables.
///
/// Counter contract: a lane participates in a probe only while alive (and
/// not the scan object itself), `obj_comparisons` advances by the count of
/// participating lanes, and `dist_checks` advances per attribute by the
/// count of lanes still feasible — the early exit of a per-pair check that
/// stops at the first failing attribute. Both distance sources keep it.
pub struct CandidateBlocks<'a> {
    src: DistSource<'a>,
    n: usize,
    chunks: usize,
    slen: usize,
    /// Stride of one chunk's region in `dmat`: `Σ_k card_k · LANES` (flat
    /// source only).
    chunk_stride: usize,
    /// Start of subset attribute `k`'s table inside a chunk's region.
    attr_off: Vec<usize>,
    /// Candidate ids, `chunks · LANES` entries (padding lanes hold 0 and
    /// are never alive).
    ids: Vec<RecordId>,
    /// Candidate values in subset order: `xvals[(c · slen + k) · LANES + lane]`.
    xvals: Vec<ValueId>,
    /// Cached query distances: `dqx[(c · slen + k) · LANES + lane]`.
    dqx: Vec<f64>,
    /// Pretranslated distances per chunk:
    /// `dmat[c][attr_off[k] + v · LANES + lane] = d_k(v, x_lane)`.
    /// A chunk's table is built lazily once it survives enough probes to
    /// amortize the build; chunks that never do keep an empty table and
    /// stay on the gather probe.
    dmat: Vec<Vec<f64>>,
    /// Probes chunk `c` has survived so far (across scan calls); drives the
    /// lazy translation decision.
    survived: Vec<u32>,
    /// Pretranslated cells this block may still allocate (0 disables
    /// translation — the explicit-cap knob the tests use).
    translate_budget: usize,
    /// Lane liveness as 0.0/1.0 — kept in the f64 domain so the level
    /// update (compare + select + multiply) autovectorizes; padding lanes
    /// start dead.
    lane_alive: Vec<f64>,
    alive_count: usize,
}

/// Horizontal sum of one chunk's lane mask. The masks hold exact 0.0/1.0,
/// so the sum is an exact lane count.
#[inline]
fn lane_sum(m: &[f64; LANES]) -> f64 {
    ((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7]))
}

/// One dominance level over 8 lanes: kill feasibility where `d > q`, mark
/// strictness where `d < q` — the ordered compares of a per-pair check, in
/// select form so LLVM lowers them to packed compares and masked blends.
#[inline]
fn level_update(d8: &[f64; LANES], q8: &[f64; LANES], feas: &mut [f64; LANES], strict: &mut [f64; LANES]) {
    for lane in 0..LANES {
        feas[lane] = if d8[lane] > q8[lane] { 0.0 } else { feas[lane] };
        strict[lane] = if d8[lane] < q8[lane] { 1.0 } else { strict[lane] };
    }
}

impl<'a> CandidateBlocks<'a> {
    /// Blocks `n` candidates fetched through `row(i) -> (id, values)`
    /// (full-width schema values; `i < n` in candidate order); every scan
    /// reads distances from `src`.
    pub fn build<'r>(
        src: DistSource<'a>,
        cache: &QueryDistCache,
        subset: &AttrSubset,
        n: usize,
        row: impl FnMut(usize) -> (RecordId, &'r [ValueId]),
    ) -> Self {
        Self::build_with_cap(src, cache, subset, n, MAX_DMAT_CELLS, row)
    }

    /// [`build`](Self::build) with an explicit pretranslation cap — tests
    /// use a cap of 0 to force the gather path. The table source never
    /// pretranslates, whatever the cap.
    pub fn build_with_cap<'r>(
        src: DistSource<'a>,
        cache: &QueryDistCache,
        subset: &AttrSubset,
        n: usize,
        cap: usize,
        mut row: impl FnMut(usize) -> (RecordId, &'r [ValueId]),
    ) -> Self {
        let indices = subset.indices();
        let slen = indices.len();
        let chunks = n.div_ceil(LANES);
        let mut attr_off = Vec::with_capacity(slen);
        let mut chunk_stride = 0usize;
        if let DistSource::Flat(flat) = src {
            for &i in indices {
                attr_off.push(chunk_stride);
                chunk_stride += flat.cardinality(i) as usize * LANES;
            }
        }
        let mut blocks = Self {
            src,
            n,
            chunks,
            slen,
            chunk_stride,
            attr_off,
            ids: vec![0; chunks * LANES],
            xvals: vec![0; chunks * slen * LANES],
            dqx: vec![0.0; chunks * slen * LANES],
            dmat: vec![Vec::new(); chunks],
            survived: vec![0; chunks],
            translate_budget: cap,
            lane_alive: vec![0.0; chunks * LANES],
            alive_count: n,
        };
        for idx in 0..n {
            let (c, lane) = (idx / LANES, idx % LANES);
            let (id, vals) = row(idx);
            blocks.ids[idx] = id;
            blocks.lane_alive[idx] = 1.0;
            for (k, &i) in indices.iter().enumerate() {
                let xv = vals[i];
                blocks.xvals[(c * slen + k) * LANES + lane] = xv;
                // Query-side distances come from the run's cache — counted
                // once at build time as query_dist_checks, same as a
                // per-pair loop's hoisted center rows.
                blocks.dqx[(c * slen + k) * LANES + lane] = cache.d(i, xv);
            }
        }
        blocks
    }

    /// Builds chunk `c`'s pretranslated table and switches it to the
    /// contiguous probe. Pure layout change: the probed values are
    /// identical, so no counter moves.
    fn translate_chunk(&mut self, flat: &FlatDissim, indices: &[usize], c: usize) {
        let mut table = vec![0.0; self.chunk_stride];
        for (k, &i) in indices.iter().enumerate() {
            for lane in 0..LANES {
                let xv = self.xvals[(c * self.slen + k) * LANES + lane];
                let col = flat.center_row(i, xv);
                let base = self.attr_off[k];
                for (v, &d) in col.iter().enumerate() {
                    table[base + v * LANES + lane] = d;
                }
            }
        }
        self.dmat[c] = table;
    }

    /// Counts one more probe survived by chunk `c` on the gather probe and
    /// pretranslates it once it has survived [`TRANSLATE_AFTER`], budget
    /// permitting.
    fn note_survival(&mut self, flat: &FlatDissim, indices: &[usize], c: usize) {
        if self.dmat[c].is_empty() && self.chunk_stride <= self.translate_budget {
            self.survived[c] = self.survived[c].saturating_add(1);
            if self.survived[c] >= TRANSLATE_AFTER {
                self.translate_budget -= self.chunk_stride;
                self.translate_chunk(flat, indices, c);
            }
        }
    }

    /// Number of candidates (excluding padding lanes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the block holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Candidates not yet pruned.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Whether candidate `idx` is still unpruned.
    #[inline]
    pub fn is_alive(&self, idx: usize) -> bool {
        self.lane_alive[idx] != 0.0
    }

    /// Runs one pruner pass: every record of `ys` probes all still-alive
    /// candidates, clearing the lanes it prunes. With `skip_self` a scan
    /// record never probes the candidate with its own id (phase-1/phase-2
    /// self-exclusion); shard verification passes `false` because foreign
    /// windows cannot contain the candidate.
    ///
    /// Iteration is chunk-major: each chunk consumes `ys` in order and stops
    /// at its own death, so fully-pruned chunks cost nothing for the rest of
    /// the pass. The counters cannot tell: lanes in different chunks are
    /// independent, and every lane still meets the scan records in the same
    /// ascending order and dies at the same first pruner as under the
    /// record-major order.
    pub fn scan(
        &mut self,
        subset: &AttrSubset,
        ys: &ColumnarBatch,
        skip_self: bool,
        stats: &mut RunStats,
    ) {
        self.scan_range(subset, ys, 0, ys.len(), skip_self, stats);
    }

    /// [`scan`](Self::scan) over the half-open record range `[from, to)` of
    /// `ys`. Callers segment long scans so they can re-block survivors into
    /// dense chunks between segments ([`Self::build`] from the alive set) —
    /// a pure layout change that keeps every lane's probe sequence, and so
    /// every counter, identical.
    pub fn scan_range(
        &mut self,
        subset: &AttrSubset,
        ys: &ColumnarBatch,
        from: usize,
        to: usize,
        skip_self: bool,
        stats: &mut RunStats,
    ) {
        if self.alive_count == 0 || from >= to {
            return;
        }
        let indices = subset.indices();
        let cols: Vec<&[ValueId]> = indices.iter().map(|&i| ys.col(i)).collect();
        // One source decision per call: each arm runs the chunk loop around
        // its own probe, so the flat loop carries no table-source branch.
        match self.src {
            DistSource::Flat(flat) => self.scan_chunks(
                ys,
                from,
                to,
                skip_self,
                stats,
                |b, c, yi, active, stats| {
                    if b.dmat[c].is_empty() {
                        b.probe_gather(flat, indices, &cols, yi, c, active, stats)
                    } else {
                        b.probe_translated(&cols, yi, c, active, stats)
                    }
                },
                |b, c| b.note_survival(flat, indices, c),
            ),
            DistSource::Table(dt) => self.scan_chunks(
                ys,
                from,
                to,
                skip_self,
                stats,
                |b, c, yi, active, stats| b.probe_table(dt, indices, &cols, yi, c, active, stats),
                |_, _| {},
            ),
        }
    }

    /// The chunk-major loop of [`scan_range`](Self::scan_range): `probe`
    /// returns the lanes scan record `yi` prunes in chunk `c` among the
    /// `active` ones, and `survived` runs after every probe the chunk
    /// outlives.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn scan_chunks(
        &mut self,
        ys: &ColumnarBatch,
        from: usize,
        to: usize,
        skip_self: bool,
        stats: &mut RunStats,
        mut probe: impl FnMut(&Self, usize, usize, &[f64; LANES], &mut RunStats) -> [f64; LANES],
        mut survived: impl FnMut(&mut Self, usize),
    ) {
        // Hoisted once per pass: for self-skip, the scan positions of every
        // id, sorted so each chunk can locate its (at most `LANES`, barring
        // duplicate ids) self positions by binary search instead of
        // comparing 8 ids per probe.
        let mut id_pos: Vec<(RecordId, u32)> = Vec::new();
        if skip_self {
            id_pos.extend((from..to).map(|yi| (ys.id(yi), yi as u32)));
            id_pos.sort_unstable();
        }
        let mut selfs: Vec<(u32, usize)> = Vec::new();
        for c in 0..self.chunks {
            let mut state: [f64; LANES] =
                self.lane_alive[c * LANES..(c + 1) * LANES].try_into().unwrap();
            let mut chunk_alive = lane_sum(&state);
            if chunk_alive == 0.0 {
                continue;
            }
            // The scan positions where a lane of this chunk must sit out,
            // as ascending (position, lane) pairs.
            selfs.clear();
            if skip_self {
                for (lane, &id) in self.ids[c * LANES..(c + 1) * LANES].iter().enumerate() {
                    let from = id_pos.partition_point(|&(pid, _)| pid < id);
                    for &(pid, yi) in &id_pos[from..] {
                        if pid != id {
                            break;
                        }
                        selfs.push((yi, lane));
                    }
                }
                selfs.sort_unstable();
            }
            let mut next_self = 0;
            for yi in from..to {
                let mut active = state;
                let mut active_sum = chunk_alive;
                while next_self < selfs.len() && selfs[next_self].0 as usize == yi {
                    let lane = selfs[next_self].1;
                    next_self += 1;
                    if active[lane] != 0.0 {
                        active[lane] = 0.0;
                        active_sum -= 1.0;
                    }
                }
                if active_sum == 0.0 {
                    continue;
                }
                stats.obj_comparisons += active_sum as u64;
                let pruned = probe(self, c, yi, &active, stats);
                let pruned_sum = lane_sum(&pruned);
                if pruned_sum != 0.0 {
                    for lane in 0..LANES {
                        state[lane] *= 1.0 - pruned[lane];
                    }
                    chunk_alive -= pruned_sum;
                    self.alive_count -= pruned_sum as usize;
                    if chunk_alive == 0.0 {
                        break;
                    }
                }
                survived(self, c);
            }
            self.lane_alive[c * LANES..(c + 1) * LANES].copy_from_slice(&state);
        }
    }

    /// Probes scan record `yi` against chunk `c` using the pretranslated
    /// table: per attribute one contiguous 8-wide load plus a vectorized
    /// [`level_update`]. Returns the pruned-lane mask (`feasible ∧ strict`,
    /// 0.0/1.0 per lane); padding and inactive lanes are never set.
    #[inline]
    fn probe_translated(
        &self,
        cols: &[&[ValueId]],
        yi: usize,
        c: usize,
        active: &[f64; LANES],
        stats: &mut RunStats,
    ) -> [f64; LANES] {
        let mut feas = *active;
        let mut strict = [0.0f64; LANES];
        let mut checks8 = [0.0f64; LANES];
        let table = &self.dmat[c];
        for (k, col) in cols.iter().enumerate() {
            // Entry count for this level, accumulated lane-wise (one
            // horizontal sum per probe instead of one per level). Once all
            // lanes are infeasible the remaining levels would contribute
            // zero to every counter, so the early exit below is purely a
            // work saving — checked in the integer domain (0.0 is all-zero
            // bits) to stay off the FP latency chain.
            for lane in 0..LANES {
                checks8[lane] += feas[lane];
            }
            let yv = col[yi] as usize;
            let at = self.attr_off[k] + yv * LANES;
            let d8: &[f64; LANES] = table[at..at + LANES].try_into().unwrap();
            let qat = (c * self.slen + k) * LANES;
            let q8: &[f64; LANES] = self.dqx[qat..qat + LANES].try_into().unwrap();
            level_update(d8, q8, &mut feas, &mut strict);
            let mut any = 0u64;
            for f in &feas {
                any |= f.to_bits();
            }
            if any == 0 {
                break;
            }
        }
        stats.dist_checks += lane_sum(&checks8) as u64;
        let mut pruned = [0.0f64; LANES];
        for lane in 0..LANES {
            pruned[lane] = feas[lane] * strict[lane];
        }
        pruned
    }

    /// Gather probe — the initial path for every chunk (and the only one
    /// for candidate sets too large to pretranslate): the scan record's
    /// moving row is hoisted per attribute and indexed by the stored
    /// candidate values; the compare/select level is shared with the
    /// translated probe.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn probe_gather(
        &self,
        flat: &FlatDissim,
        indices: &[usize],
        cols: &[&[ValueId]],
        yi: usize,
        c: usize,
        active: &[f64; LANES],
        stats: &mut RunStats,
    ) -> [f64; LANES] {
        let mut feas = *active;
        let mut strict = [0.0f64; LANES];
        let mut checks8 = [0.0f64; LANES];
        for (k, &i) in indices.iter().enumerate() {
            for lane in 0..LANES {
                checks8[lane] += feas[lane];
            }
            let yrow = flat.moving_row(i, cols[k][yi]);
            let at = (c * self.slen + k) * LANES;
            let x8: &[ValueId; LANES] = self.xvals[at..at + LANES].try_into().unwrap();
            let q8: &[f64; LANES] = self.dqx[at..at + LANES].try_into().unwrap();
            let mut d8 = [0.0f64; LANES];
            for lane in 0..LANES {
                d8[lane] = yrow[x8[lane] as usize];
            }
            level_update(&d8, q8, &mut feas, &mut strict);
            let mut any = 0u64;
            for f in &feas {
                any |= f.to_bits();
            }
            if any == 0 {
                break;
            }
        }
        stats.dist_checks += lane_sum(&checks8) as u64;
        let mut pruned = [0.0f64; LANES];
        for lane in 0..LANES {
            pruned[lane] = feas[lane] * strict[lane];
        }
        pruned
    }

    /// Table-source probe: the gather probe with [`DissimTable::d`]
    /// evaluated for the lanes still feasible and for no other (an
    /// infeasible lane keeps `d = 0`, which [`level_update`] cannot revive),
    /// so each evaluation is one counted check.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn probe_table(
        &self,
        dt: &DissimTable,
        indices: &[usize],
        cols: &[&[ValueId]],
        yi: usize,
        c: usize,
        active: &[f64; LANES],
        stats: &mut RunStats,
    ) -> [f64; LANES] {
        let mut feas = *active;
        let mut strict = [0.0f64; LANES];
        let mut checks8 = [0.0f64; LANES];
        for (k, &i) in indices.iter().enumerate() {
            for lane in 0..LANES {
                checks8[lane] += feas[lane];
            }
            let (measure, yv) = (dt.attr(i), cols[k][yi]);
            let at = (c * self.slen + k) * LANES;
            let x8: &[ValueId; LANES] = self.xvals[at..at + LANES].try_into().unwrap();
            let q8: &[f64; LANES] = self.dqx[at..at + LANES].try_into().unwrap();
            let mut d8 = [0.0f64; LANES];
            for lane in 0..LANES {
                if feas[lane] != 0.0 {
                    d8[lane] = measure.d(yv, x8[lane]);
                }
            }
            level_update(&d8, q8, &mut feas, &mut strict);
            let mut any = 0u64;
            for f in &feas {
                any |= f.to_bits();
            }
            if any == 0 {
                break;
            }
        }
        stats.dist_checks += lane_sum(&checks8) as u64;
        let mut pruned = [0.0f64; LANES];
        for lane in 0..LANES {
            pruned[lane] = feas[lane] * strict[lane];
        }
        pruned
    }
}

/// Scalar pruning check against hoisted *center* rows: `rows[k]` is
/// [`FlatDissim::center_row`] for subset attribute `k` at the candidate's
/// value, `dqx[k]` the cached query distance — the flat-table twin of
/// [`rsky_core::dominate::prunes_with_center_dists`]. Used where batching
/// cannot apply: SRS's radiating probe order and the witness scan of
/// [`crate::delta::first_pruners`] are per-candidate.
#[inline]
pub(crate) fn prunes_center_hoisted(
    rows: &[&[f64]],
    dqx: &[f64],
    indices: &[usize],
    y: &[ValueId],
    checks: &mut u64,
) -> bool {
    let mut strict = false;
    for (k, &i) in indices.iter().enumerate() {
        *checks += 1;
        let dyx = rows[k][y[i] as usize];
        if dyx > dqx[k] {
            return false;
        }
        if dyx < dqx[k] {
            strict = true;
        }
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_core::dominate::prunes_with_center_dists;
    use rsky_core::query::Query;
    use rsky_core::record::RowBuf;
    use rsky_data::paper_example;

    fn sample_rows(schema: &Schema, n: usize, salt: u32) -> RowBuf {
        let m = schema.num_attrs();
        let mut rows = RowBuf::new(m);
        let mut vals = vec![0 as ValueId; m];
        for i in 0..n {
            for (a, v) in vals.iter_mut().enumerate() {
                *v = ((i as u32).wrapping_mul(2654435761) >> (a as u32 % 7))
                    .wrapping_add(salt.wrapping_mul(a as u32 + 1))
                    % schema.cardinality(a);
            }
            rows.push(i as RecordId, &vals);
        }
        rows
    }

    /// Scalar reference: every candidate scans `ys` in order (skipping its
    /// own id when asked) until its first pruner, with the standard
    /// hoisted-center-row counting.
    fn scalar_reference(
        dt: &DissimTable,
        cache: &QueryDistCache,
        query: &Query,
        cands: &RowBuf,
        ys: &RowBuf,
        skip_self: bool,
    ) -> (Vec<bool>, RunStats) {
        let mut stats = RunStats::default();
        let mut dqx = Vec::new();
        let mut alive = vec![true; cands.len()];
        for (xi, alive_flag) in alive.iter_mut().enumerate() {
            cache.center_dists_into(&query.subset, cands.values(xi), &mut dqx);
            for yi in 0..ys.len() {
                if skip_self && ys.id(yi) == cands.id(xi) {
                    continue;
                }
                stats.obj_comparisons += 1;
                if prunes_with_center_dists(
                    dt,
                    &query.subset,
                    ys.values(yi),
                    cands.values(xi),
                    &dqx,
                    &mut stats.dist_checks,
                ) {
                    *alive_flag = false;
                    break;
                }
            }
        }
        (alive, stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn assert_kernel_matches(
        schema: &Schema,
        dt: &DissimTable,
        query: &Query,
        cands: &RowBuf,
        ys: &RowBuf,
        skip_self: bool,
        cap: usize,
        label: &str,
    ) {
        let flat = FlatDissim::build_for(schema, dt).unwrap();
        let cache = QueryDistCache::new(dt, schema, query);
        let (want_alive, want) = scalar_reference(dt, &cache, query, cands, ys, skip_self);
        for src in [DistSource::Flat(&flat), DistSource::Table(dt)] {
            let on_table = matches!(src, DistSource::Table(_));
            let label = format!("{label} table={on_table}");
            let mut blocks =
                CandidateBlocks::build_with_cap(src, &cache, &query.subset, cands.len(), cap, |i| {
                    (cands.id(i), cands.values(i))
                });
            // Force-translate under a positive cap so the contiguous probe
            // is exercised even on scans too short to trip the lazy
            // threshold.
            if cap > 0 && !on_table {
                let indices = query.subset.indices();
                for c in 0..blocks.chunks {
                    blocks.translate_chunk(&flat, indices, c);
                }
            }
            let col = ColumnarBatch::from_rows(ys);
            let mut got = RunStats::default();
            blocks.scan(&query.subset, &col, skip_self, &mut got);
            let got_alive: Vec<bool> = (0..cands.len()).map(|i| blocks.is_alive(i)).collect();
            assert_eq!(got_alive, want_alive, "{label}: survivor flags");
            assert_eq!(blocks.alive_count(), want_alive.iter().filter(|&&a| a).count(), "{label}");
            assert_eq!(got.dist_checks, want.dist_checks, "{label}: dist_checks");
            assert_eq!(got.obj_comparisons, want.obj_comparisons, "{label}: obj_comparisons");
            if on_table {
                assert!(blocks.dmat.iter().all(Vec::is_empty), "{label}: table never translates");
            }
        }
    }

    #[test]
    fn kernel_matches_scalar_on_paper_example() {
        let (d, q) = paper_example();
        assert_kernel_matches(
            &d.schema,
            &d.dissim,
            &q,
            &d.rows,
            &d.rows,
            true,
            MAX_DMAT_CELLS,
            "paper",
        );
        assert_kernel_matches(&d.schema, &d.dissim, &q, &d.rows, &d.rows, true, 0, "paper gather");
    }

    #[test]
    fn kernel_matches_scalar_on_random_batches() {
        let (d, _) = paper_example();
        // Ragged tails, exact multiples, single candidates, empty scans.
        for (nc, ny, salt) in
            [(1, 9, 1), (7, 7, 2), (8, 16, 3), (9, 5, 4), (23, 41, 5), (16, 0, 6), (40, 40, 7)]
        {
            let cands = sample_rows(&d.schema, nc, salt);
            let ys = sample_rows(&d.schema, ny, salt.wrapping_add(100));
            for subset in [vec![0, 1, 2], vec![1], vec![2, 0]] {
                let q = Query::on_subset(&d.schema, vec![0, 1, 1], &subset).unwrap();
                for skip_self in [false, true] {
                    for cap in [MAX_DMAT_CELLS, 0] {
                        assert_kernel_matches(
                            &d.schema,
                            &d.dissim,
                            &q,
                            &cands,
                            &ys,
                            skip_self,
                            cap,
                            &format!("nc={nc} ny={ny} subset={subset:?} skip={skip_self} cap={cap}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_self_skip_uses_ids_not_positions() {
        // Candidates and scan objects share ids but arrive in different
        // orders — the self-skip must match by id.
        let (d, q) = paper_example();
        let mut shuffled = RowBuf::new(d.schema.num_attrs());
        for i in (0..d.rows.len()).rev() {
            shuffled.push(d.rows.id(i), d.rows.values(i));
        }
        assert_kernel_matches(
            &d.schema,
            &d.dissim,
            &q,
            &d.rows,
            &shuffled,
            true,
            MAX_DMAT_CELLS,
            "shuffled ids",
        );
    }

    #[test]
    fn new_picks_the_source_from_the_domain() {
        let (d, _) = paper_example();
        let k = PrunerKernel::new(&d.schema, &d.dissim);
        assert!(matches!(k.source(&d.dissim), DistSource::Flat(_)));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let ds = rsky_data::normal_dataset(3, 5, 20, &mut rng).unwrap();
        let (flat, wide) = rsky_data::twin::linear_twins(&ds).unwrap();
        let k = PrunerKernel::new(&flat.schema, &flat.dissim);
        assert!(matches!(k.source(&flat.dissim), DistSource::Flat(_)));
        let k = PrunerKernel::new(&wide.schema, &wide.dissim);
        assert!(k.flat().is_none());
        assert!(matches!(k.source(&wide.dissim), DistSource::Table(_)));
        assert!(matches!(PrunerKernel::scalar().source(&d.dissim), DistSource::Table(_)));
    }

    #[test]
    fn hoisted_row_helpers_match_cached_pruning() {
        let (d, q) = paper_example();
        let flat = FlatDissim::build_for(&d.schema, &d.dissim).unwrap();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &q);
        let indices = q.subset.indices();
        let mut dqx = Vec::new();
        for xi in 0..d.rows.len() {
            let x = d.rows.values(xi);
            cache.center_dists_into(&q.subset, x, &mut dqx);
            let crows: Vec<&[f64]> =
                indices.iter().map(|&i| flat.center_row(i, x[i])).collect();
            for yi in 0..d.rows.len() {
                let y = d.rows.values(yi);
                let (mut c0, mut c1) = (0u64, 0u64);
                let want = crate::engine::prunes_cached(
                    &d.dissim, &q.subset, y, x, &cache, &mut c0,
                );
                let via_center =
                    prunes_center_hoisted(&crows, &dqx, indices, y, &mut c1);
                assert_eq!(via_center, want, "center x={xi} y={yi}");
                assert_eq!(c1, c0, "center checks x={xi} y={yi}");
            }
        }
    }
}
