//! # fairsched
//!
//! Umbrella crate: re-exports the whole `fairsched` workspace behind one
//! dependency, and hosts the workspace-level examples and integration tests.
//!
//! See [`core`] (policies + experiment runner), [`workload`] (trace model and
//! synthesis), [`sim`] (the event-driven simulator), [`metrics`] (user,
//! system, and fairness metrics), [`obs`] (decision traces, runtime
//! counters, logging facade), [`cpa`] (the compute process allocator),
//! [`served`] (the `fairschedd` online scheduling service and its typed
//! client), and [`experiments`] (per-figure regeneration harness).
//!
//! Most applications only need the [`prelude`]. One `try_run_policy` call
//! simulates once; every other report is a function of its outcome:
//!
//! ```
//! use fairsched::prelude::*;
//!
//! let trace = CplantModel::new(1).with_scale(0.02).generate();
//! let run = try_run_policy(&trace, &PolicySpec::baseline(), 1024, &RunOptions::default())
//!     .unwrap();
//! let o = &run.outcome;
//! assert!(o.metrics().utilization > 0.0);
//! assert!(!per_user(&o.schedule, &o.fairness).is_empty());
//! assert_eq!(equality_report(&o.schedule).discrimination.len(), trace.len());
//! assert_eq!(o.resilience().clean_count(), o.fairness.entries.len());
//! ```

pub use fairsched_core as core;
pub use fairsched_cpa as cpa;
pub use fairsched_experiments as experiments;
pub use fairsched_metrics as metrics;
pub use fairsched_obs as obs;
pub use fairsched_served as served;
pub use fairsched_sim as sim;
pub use fairsched_workload as workload;

/// The types most users need, in one import.
///
/// Centred on the single-pass API: [`simulate`](fairsched_sim::simulate) +
/// [`SimOptions`](fairsched_sim::SimOptions) for raw simulations,
/// [`try_run_policy`](fairsched_core::runner::try_run_policy) +
/// [`RunOptions`](fairsched_core::runner::RunOptions) for one policy,
/// [`try_run_policies`](fairsched_core::sweep::try_run_policies) for fenced
/// parallel sweeps, and the post-run reports as plain functions of the
/// outcome. The clock-decoupled core is here too —
/// [`SteppedSim`](fairsched_sim::SteppedSim) with its
/// [`SimEvent`](fairsched_sim::SimEvent)/[`Effect`](fairsched_sim::Effect)
/// contract — plus the `fairsched-served` client types for talking to a
/// running `fairschedd`.
pub mod prelude {
    pub use fairsched_core::policy::PolicySpec;
    pub use fairsched_core::runner::{
        run_policy, try_run_policy, try_run_policy_traced, OutcomeMetrics, PolicyOutcome,
        PolicyRun, RunOptions,
    };
    pub use fairsched_core::sweep::{try_run_policies, SweepError};
    pub use fairsched_metrics::explain::{explain_wait, worst_miss, WaitBreakdown};
    pub use fairsched_metrics::fairness::fst::FstReport;
    pub use fairsched_metrics::fairness::sabin::{sabin_fsts, sabin_fsts_parallel, sabin_report};
    pub use fairsched_metrics::{
        equality_report, per_user, EqualityReport, HybridFstObserver, ResilienceReport,
        UserFairness,
    };
    pub use fairsched_obs::{
        CounterSnapshot, DecisionTracer, ProfileReport, ProfileScope, StartCause, TraceRecord,
        TraceSink,
    };
    pub use fairsched_served::{
        AdvanceResponse, Client, ClockMode, Daemon, SealResponse, ServeError, Session,
        SessionConfig, StatusResponse, SubmitRequest, SubmitResponse, VirtualClock,
    };
    pub use fairsched_sim::{
        simulate, warm_start_forkable, warm_start_supported, Effect, EngineKind, FaultConfig,
        KillPolicy, NullObserver, Observer, PrefixSimulator, QueueOrder, ResiliencePolicy,
        Schedule, SimConfig, SimError, SimEvent, SimOptions, StepStatus, SteppedSim,
    };
    pub use fairsched_workload::job::{Job, JobId, UserId};
    pub use fairsched_workload::time::{Time, DAY, HOUR, MINUTE, WEEK};
    pub use fairsched_workload::CplantModel;
}
