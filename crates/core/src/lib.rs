//! # fairsched-core
//!
//! The paper's contribution as a library: the fairness-directed scheduling
//! policies of §5 and the experiment machinery that evaluates them with the
//! hybrid fairshare fairness metric of §4.1.
//!
//! * [`policy`] — the nine named policies of §5.5 (plus an EASY comparison
//!   point) as declarative [`policy::PolicySpec`]s;
//! * [`runner`] — run one (trace, policy) pair and collect every metric the
//!   paper reports ([`runner::PolicyOutcome`]);
//! * [`sweep`] — fan a policy set out across threads (each policy's
//!   simulation is independent; `std::thread::scope` keeps it data-race
//!   free by construction), with per-policy panic fencing so one broken
//!   configuration cannot sink a whole comparison — and, for full
//!   design-space grids, a crash-safe sweep harness
//!   ([`sweep::run::run_sweep`]) with a durable checksummed journal,
//!   watchdog cancellation, bounded retry, and `--resume`;
//! * [`journal`] — the shared checksummed-JSONL framing (sealed lines,
//!   torn-write-tolerant replay) behind both the sweep journal and the
//!   online service's submission journal;
//! * [`report`] — fixed-width text rendering of the figure/table rows the
//!   experiment binaries print;
//! * [`gantt`] — ASCII schedule visualization (per-job Gantt bars and a
//!   machine-occupancy strip), the paper's Figures 1–2 for any schedule.
//!
//! ## Quickstart
//!
//! ```
//! use fairsched_core::policy::PolicySpec;
//! use fairsched_core::runner::run_policy;
//! use fairsched_workload::CplantModel;
//!
//! // A thin slice of the CPlant-like workload on a small machine.
//! let trace = CplantModel::new(42).with_scale(0.02).generate();
//! let baseline = PolicySpec::by_id("cplant24.nomax.all").unwrap();
//! let outcome = run_policy(&trace, &baseline, 1024);
//! println!(
//!     "{}: {:.1}% unfair, mean miss {:.0}s",
//!     outcome.policy,
//!     100.0 * outcome.fairness.percent_unfair(),
//!     outcome.fairness.average_miss_time(),
//! );
//! ```

pub mod gantt;
pub mod journal;
pub mod policy;
pub mod report;
pub mod runner;
pub mod sweep;

pub use policy::PolicySpec;
pub use runner::{
    run_policy, try_run_policy, try_run_policy_traced, OutcomeMetrics, PolicyOutcome, PolicyRun,
    RunOptions,
};
pub use sweep::grid::{cell_fault_seed, FaultPoint, SweepPlan};
pub use sweep::journal::{CellRow, CellStatus, JournalReplay, JournalWriter};
pub use sweep::run::{run_sweep, GridState, SweepConfig, SweepSummary};
pub use sweep::{try_run_policies, SweepError};
