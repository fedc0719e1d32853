//! # fairsched-obs
//!
//! Observability for the fairsched stack: decision traces, runtime
//! counters, and a small logging facade. Everything here is designed to be
//! **zero-cost when off**:
//!
//! * Tracing rides an `Option<&TraceBuf>` threaded through the simulator
//!   and engines — untraced runs test one `Option` per emission site and
//!   otherwise compile to the historical code path. The
//!   zero-*interference* half of the contract (a traced run produces a
//!   byte-identical `Schedule`) is pinned by proptests at the workspace
//!   root.
//! * Profiling counters hide behind one relaxed atomic load
//!   ([`counters::enabled`]); until a [`counters::ProfileScope`] is alive,
//!   instrumented call sites skip both the increment and the clock read.
//!
//! The crate deliberately depends only on `fairsched-workload` (for
//! [`JobId`](fairsched_workload::job::JobId) and
//! [`Time`](fairsched_workload::time::Time)): the simulator depends on
//! *it*, never the other way around.
//!
//! Record serialization is newline-delimited JSON.
//! [`TraceRecord::to_jsonl`] writes each line directly: records are
//! write-only and every field is numeric or a fixed tag, so no escaping is
//! needed. (This crate sits below `fairsched-core`, whose `json` module is
//! the workspace's one JSON codec.)

pub mod counters;
pub mod log;
pub mod registry;
pub mod trace;

pub use counters::{CounterSnapshot, Histogram, ProfileReport, ProfileScope};
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use trace::{StartCause, TraceBuf, TraceRecord};
