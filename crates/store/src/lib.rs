//! # pathcons-store
//!
//! The resident constraint store behind `pathcons serve`: load contexts
//! (graph + Σ) **once**, answer implication jobs from many concurrent
//! clients **forever** — instead of re-parsing JSONL context data on
//! every batch invocation.
//!
//! Three layers:
//!
//! - [`columnar`]: immutable graphs as three sorted `u32` columns with
//!   CSR forward/backward adjacency indexes — compact to hold resident,
//!   trivial to (de)serialize, `O(1)`-indexed in both edge directions;
//! - [`snapshot`]: the versioned binary snapshot format (`PCSTORE\0`
//!   magic, format version, FNV-1a content checksum) written once by
//!   `pathcons snapshot build` and loaded near-instantly at serve
//!   startup, with typed rejection of corrupt/truncated/mismatched
//!   files;
//! - [`store`] + [`serve`]: the [`ConstraintStore`] (one shared label
//!   table, prebuilt solver contexts, parsed base Σ) and the JSONL
//!   socket server that routes jobs through the existing
//!   [`pathcons_engine::BatchEngine`] — same answer cache, deadlines,
//!   verify modes and admission control as `pathcons batch`, so a
//!   served verdict is identical to the batch verdict for the same job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod metrics;
pub mod serve;
pub mod snapshot;
pub mod store;

pub use columnar::{ColumnarGraph, MAX_ISOLATED_NODES};
pub use metrics::MetricsPlane;
pub use serve::{Client, Endpoint, Server, ServerHandle, MAX_LINE_BYTES};
pub use snapshot::{
    ContextRecord, GraphColumns, SnapshotDoc, SnapshotError, FORMAT_VERSION, MAGIC,
};
pub use store::{ConstraintStore, ContextStats, ResidentContext};
