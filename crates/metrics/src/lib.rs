//! # fairsched-metrics
//!
//! User, system, and fairness metrics for parallel job schedules — §3.2 and
//! §4 of the paper.
//!
//! * [`user`] — wait time, turnaround time (Equation 1), bounded slowdown,
//!   and per-width-category breakdowns (Figures 10, 12, 16, 18).
//! * [`system`] — utilization (Equation 2), makespan (Equation 3), and loss
//!   of capacity (Equation 4), recomputed from records as a cross-check of
//!   the simulator's exact integrals.
//! * [`fairness`] — the fairness-metric family §4 surveys plus the paper's
//!   contribution:
//!   [`fairness::hybrid`] (the hybrid fairshare fair-start-time metric,
//!   §4.1), [`fairness::consp`] (Srinivasan's CONS_P baseline),
//!   [`fairness::sabin`] (Sabin & Sadayappan's scheduler-dependent FST),
//!   [`fairness::equality`] (the resource-equality 1/N metric), and
//!   [`fairness::jain`] (Jain's index and turnaround standard deviation,
//!   the strawmen §4 argues against).
//! * [`explain`] — joins a `fairsched-obs` decision trace with a schedule
//!   (and an [`FstReport`]) to decompose one job's wait into capacity,
//!   reservation, and policy components that sum to the actual wait.
//!
//! Only the hybrid FST is an observer ([`HybridFstObserver`]: it needs the
//! queue at every arrival); the rest are functions of the outcome
//! ([`fairness::peruser::per_user`], [`fairness::equality::equality_report`],
//! [`ResilienceReport::split`]), computed after the run.

pub mod explain;
pub mod fairness;
pub mod system;
pub mod user;

pub use explain::{explain_wait, worst_miss, WaitBreakdown};
pub use fairness::equality::{equality_report, EqualityReport};
pub use fairness::fst::{FstEntry, FstReport};
pub use fairness::hybrid::HybridFstObserver;
pub use fairness::peruser::{per_user, UserFairness};
pub use fairness::resilience::ResilienceReport;
