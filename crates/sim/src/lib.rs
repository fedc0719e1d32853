//! # fairsched-sim
//!
//! A deterministic event-driven parallel job scheduling simulator — the
//! substrate the fairness case study runs on, rebuilt from §3.1 of Leung,
//! Sabin & Sadayappan (SAND2008-1310 / ICPP 2010).
//!
//! The simulator replays a workload trace (see `fairsched-workload`) under a
//! configurable policy and emits a [`simulator::Schedule`] that the
//! metrics crate scores. The moving parts:
//!
//! * [`config`] — machine size, queue order, fairshare decay, kill policy,
//!   starvation queue, runtime limits, and engine selection;
//! * [`event`] — the deterministic event queue (completions before expiries
//!   before fault events before arrivals, ties by job id);
//! * [`faults`] — seeded, reproducible node outages and job crashes, plus
//!   the resilience policies that decide what crashed work costs;
//! * [`fairshare`] — the decaying per-user processor-second accumulator that
//!   drives Sandia's queue priority;
//! * [`engine`] — the scheduling [`engine::Engine`], built from the
//!   policy's [`EngineKind`] out of a queue-order strategy and a
//!   reservation ledger whose admission rule one shared backfill walk
//!   applies (the original CPlant no-guarantee backfiller with its
//!   starvation queue, textbook EASY, and conservative backfilling with or
//!   without dynamic reservations are all arms of one constructor);
//! * `lifecycle` (internal) — submission lifecycle: pending arrivals,
//!   runtime-limit chunk chains (§5.1), and crash recovery;
//! * `accounting` (internal) — the utilization, loss-of-capacity, and
//!   queue-pressure integrals a run reports;
//! * [`profile`] — the future-capacity step function conservative
//!   backfilling plans against;
//! * [`listsched`] — the list scheduler the hybrid fair-start-time metric is
//!   defined by (§4.1);
//! * [`prefix`] — warm-started prefix simulation for scheduler-dependent
//!   fair start times (one clone-and-run per scored job instead of one
//!   full replay);
//! * [`starvation`] — starvation-queue eligibility and the heavy-user bar;
//! * [`state`] — queue/running views and the [`state::Observer`] hook
//!   run-time metrics attach to;
//! * [`step`] — the pure, clock-decoupled core: feed a typed
//!   [`step::SimEvent`] (a submission or a grant of simulated time), get
//!   typed [`step::Effect`]s back (admissions, starts, completions, trace
//!   records) — the substrate both the batch driver and the online
//!   `fairschedd` service run on;
//! * [`simulator`] — the batch driver: [`simulator::simulate`] with a
//!   [`simulator::SimOptions`] builder for tracing, cancellation, and
//!   fault overrides.
//!
//! Determinism is a contract: equal (trace, config) inputs produce equal
//! schedules, event ties are totally ordered, and nothing in this crate
//! consults a clock. The only randomness is the seeded fault model, which
//! is itself a pure function of the configured fault seed.

mod accounting;
pub mod config;
pub mod engine;
pub mod event;
pub mod fairshare;
pub mod faults;
mod lifecycle;
pub mod listsched;
pub mod prefix;
pub mod profile;
pub mod simulator;
pub mod starvation;
pub mod state;
pub mod step;

pub use engine::FAR_FUTURE;

pub use config::{
    AllocationModel, EngineKind, FairshareConfig, HeavyUserRule, KillPolicy, QueueOrder,
    RuntimeLimit, SimConfig, StarvationConfig,
};
pub use fairshare::FairshareTracker;
pub use faults::{FaultConfig, FaultModel, Outage, RepairTime, ResiliencePolicy};
pub use listsched::NodeTimeline;
pub use prefix::{warm_start_forkable, warm_start_supported, PrefixSimulator};
pub use simulator::{
    simulate, CancelToken, JobRecord, OriginalOutcome, PlacementStats, QueueStats, Schedule,
    SimError, SimOptions,
};
pub use state::{ArrivalView, NullObserver, Observer, QueuedJob, RunningJob};
pub use step::{Effect, SimEvent, StepStatus, SteppedSim};
