//! # rsky-storage
//!
//! Paged storage substrate for the reverse-skyline engines, with the cost
//! model of the paper:
//!
//! * data lives in fixed-size **pages** (32 KiB by default, the size used in
//!   every experiment of the paper);
//! * a single **disk head** serves all files: an access is *sequential* when
//!   it hits the same or the immediately following page of the file the head
//!   is already on, and *random* otherwise — so interleaving a database scan
//!   with writes to the phase-one result area costs random IOs, exactly the
//!   effect the paper charges BRS/SRS for;
//! * sequential and random accesses are counted separately
//!   ([`rsky_core::stats::IoCounts`]), because the paper plots them on
//!   separate axes ("Random IO is costlier than sequential IO; we plot these
//!   separately").
//!
//! Two backends implement the same [`Disk`] API:
//!
//! * [`Backend::Mem`] — pages in memory; used for computational-cost and
//!   IO-count experiments (Figures 3–6, 9, 11–18);
//! * [`Backend::Dir`] — real files under a directory; used for response-time
//!   experiments (Figures 7, 8, 10, 13, 16, 18), where reads and writes
//!   actually hit the filesystem.
//!
//! On top of pages, [`recfile::RecordFile`] stores fixed-width `u32` records
//! (`[id, v_0, …, v_{m-1}]`, shared layout with `rsky_core::record`), and
//! [`budget::MemoryBudget`] translates the paper's "memory = x % of the
//! dataset" into batch capacities for the two phases.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod columnar;
pub mod disk;
pub mod mutation;
pub mod recfile;
pub mod shard;
pub mod shared;

pub use budget::MemoryBudget;
pub use cache::PageCache;
pub use columnar::ColumnarBatch;
pub use disk::{Backend, Disk, FileId, ScratchDir, DEFAULT_PAGE_SIZE};
pub use mutation::{MutationEvent, MutationKind};
pub use recfile::{RecordFile, RecordWriter};
pub use shard::{partition_rows, ShardPolicy, ShardSpec};
pub use shared::{RecordScanner, SharedRecords};
