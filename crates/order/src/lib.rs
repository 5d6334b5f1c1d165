//! # rsky-order
//!
//! Data-ordering substrate for the reverse-skyline engines:
//!
//! * [`attr_order`] — attribute orderings; the AL-Tree heuristic puts
//!   attributes with *fewer* distinct values first, so group-level reasoning
//!   operates on large groups near the root (Section 5.1 of the paper);
//! * [`multisort`] — the multi-attribute sort of Section 4.2: order objects
//!   lexicographically by value id under a chosen attribute ordering, so
//!   objects sharing values are clustered ("the actual ordering among
//!   different values of an attribute is immaterial while sorting");
//! * [`extsort`] — external merge sort over [`rsky_storage::RecordFile`]s
//!   within a memory budget (run generation + k-way merge, multi-pass when
//!   the fan-in exceeds the budget), ordering rows by one [`SortOrder`] for
//!   both the multi-attribute and the tiled layout. This is the
//!   pre-processing step whose cost Section 5.5 measures;
//! * [`tiling`] — multidimensional tiling with Z-order (Morton) tile
//!   ordering, the alternative clustering of Section 5.6 that is fair to all
//!   dimensions when queries select arbitrary attribute subsets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attr_order;
pub mod extsort;
pub mod multisort;
pub mod tiling;

pub use attr_order::ascending_cardinality_order;
pub use extsort::{external_sort, SortOrder, SortOutcome};
pub use multisort::{lex_cmp, sort_rows_lex};
pub use tiling::{z_order_key, TileConfig};
