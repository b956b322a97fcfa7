//! # asdb-obs
//!
//! Pipeline-wide telemetry primitives for the ASdb system: atomic
//! [`Counter`]s, fixed-bucket log-spaced latency [`Histogram`]s with
//! p50/p90/p99 summaries, and a named-metric [`Registry`] whose
//! [`RegistrySnapshot`] renders a latency table and JSON, plus the
//! workspace's [`json`] writer.
//!
//! The paper's own evaluation is an observability exercise — Table 8
//! breaks classification down by pipeline mechanism, §5.1 reasons about
//! cache reuse, Tables 3/5 compare per-source coverage. This crate makes
//! those signals first-class, always-available artifacts instead of
//! eval-only ones, so every later performance PR can measure itself.
//!
//! Design constraints:
//!
//! * **Zero external dependencies**: std atomics and locks only.
//! * **Hot-path cost is one relaxed atomic op** per event: handles are
//!   `Arc`s held by instrumented code; the registry lock is only touched
//!   at construction and snapshot time.
//! * **Everything snapshots to JSON** so CLI/bench/CI can diff runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod json;
pub mod registry;

pub use counter::Counter;
pub use histogram::{format_nanos, Histogram, HistogramSnapshot};
pub use registry::{Registry, RegistrySnapshot};
