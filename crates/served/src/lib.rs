//! `fairsched-served`: the online scheduling service built on the
//! deterministic stepped sim core.
//!
//! The batch simulator answers "what would this policy have done with
//! this recorded month of jobs?". This crate answers the online form of
//! the same question: jobs arrive *now*, over HTTP, and the daemon
//! (`fairschedd`) schedules them with the same deterministic core —
//! [`SteppedSim`](fairsched_sim::SteppedSim) — that the batch path uses,
//! advancing simulated time with a virtual clock (wall-time-scaled or
//! manually granted).
//!
//! Because the core's event queue is insertion-order independent and the
//! service rejects submissions dated before time already granted
//! ([`ServeError::NonMonotonicSubmit`]), an online session replaying a
//! recorded trace produces a schedule *byte-identical* to the batch
//! simulation of the same trace — the property
//! `tests/replay_equivalence.rs` pins across every warm-start-forkable
//! engine.
//!
//! Layering, bottom up:
//!
//! * [`json`] — re-export of `fairsched_core::json`, the workspace's one
//!   JSON codec (wire protocol and journals alike).
//! * [`api`] — typed requests, responses, and [`ServeError`].
//! * [`clock`] — [`VirtualClock`]: manual grants or scaled wall time.
//! * [`journal`] — [`SessionJournal`]: the checksummed durability log
//!   every accepted submission and clock grant appends to, and the replay
//!   path `fairschedd --recover` rebuilds sessions from.
//! * [`session`] — [`Session`]: the stepped core behind a mutex, with
//!   submission validation, batched submits, trace fan-out, live explain,
//!   live profile.
//! * [`registry`] — [`SessionRegistry`]: many named sessions behind one
//!   daemon, each with its own policy, machine, and journal.
//! * [`http`] — minimal blocking HTTP/1.1 with keep-alive (no async
//!   runtime available).
//! * [`metrics`] — [`ServiceMetrics`]: the daemon's `/metrics` surface.
//! * [`daemon`] — [`Daemon`]: thread-per-connection serving, the route
//!   table, and the entry point `fairschedd` and `fairsched serve` share.
//! * [`client`] — [`Client`]: the blocking typed client (one reused
//!   connection per clone).

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod clock;
pub mod daemon;
pub mod http;
pub mod journal;
pub use fairsched_core::json;
pub mod metrics;
pub mod registry;
pub mod session;

pub use api::{
    AdvanceResponse, SealResponse, ServeError, SessionSpec, StatusResponse, SubmitRequest,
    SubmitResponse,
};
pub use client::Client;
pub use clock::{ClockMode, VirtualClock};
pub use daemon::Daemon;
pub use journal::SessionJournal;
pub use metrics::ServiceMetrics;
pub use registry::SessionRegistry;
pub use session::{Session, SessionConfig, TraceSubscription};
