//! Run one (trace, policy) pair and collect everything the paper reports.
//!
//! [`try_run_policy`] is the single entry point: a [`RunOptions`] selects
//! the fault model, profiling and cancellation, and **one** simulation
//! with the hybrid-FST observer attached yields a [`PolicyOutcome`]. The
//! per-user, equality and resilience reports are plain functions of that
//! outcome ([`per_user`](fairsched_metrics::fairness::peruser::per_user),
//! [`equality_report`](fairsched_metrics::fairness::equality::equality_report),
//! [`PolicyOutcome::resilience`]). The historical [`run_policy`]
//! convenience is a thin panicking wrapper over it.

use crate::policy::PolicySpec;
use fairsched_metrics::fairness::fst::FstReport;
use fairsched_metrics::fairness::hybrid::HybridFstObserver;
use fairsched_metrics::fairness::resilience::ResilienceReport;
use fairsched_metrics::user;
use fairsched_obs::counters::{CounterSnapshot, ProfileReport, ProfileScope};
use fairsched_obs::TraceRecord;
use fairsched_sim::{
    simulate, CancelToken, FaultConfig, OriginalOutcome, Schedule, SimError, SimOptions,
};
use fairsched_workload::categories::WIDTH_BUCKETS;
use fairsched_workload::job::Job;

/// The full result of evaluating one policy on one trace.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy's paper identifier.
    pub policy: String,
    /// The raw schedule (per-submission records and exact integrals).
    pub schedule: Schedule,
    /// The hybrid fairshare fairness report (§4.1), scored per submission.
    pub fairness: FstReport,
}

/// The scalar summary of one policy run — one bar in each of the paper's
/// aggregate figures, plus the two by-width series.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeMetrics {
    /// Fraction of submissions that missed their fair start (Figures 8/14).
    pub percent_unfair: f64,
    /// Average miss time in seconds per Equation 5 (Figures 9/15).
    pub average_miss_time: f64,
    /// Average turnaround of original jobs in seconds (Figures 11/17).
    pub average_turnaround: f64,
    /// Loss of capacity per Equation 4 (Figures 13/19).
    pub loss_of_capacity: f64,
    /// Utilization per Equation 2.
    pub utilization: f64,
    /// Average miss time per width bucket (Figures 10/16).
    pub miss_by_width: [f64; WIDTH_BUCKETS],
    /// Average turnaround per width bucket (Figures 12/18).
    pub turnaround_by_width: [f64; WIDTH_BUCKETS],
}

impl PolicyOutcome {
    /// Original-job outcomes (chunk chains collapsed).
    pub fn originals(&self) -> Vec<OriginalOutcome> {
        self.schedule.originals()
    }

    /// Splits the fairness report by crash exposure (all-clean when the
    /// run had no faults) and pairs it with the schedule's goodput.
    pub fn resilience(&self) -> ResilienceReport {
        ResilienceReport::split(&self.fairness, &self.schedule)
    }

    /// Computes the scalar summary.
    pub fn metrics(&self) -> OutcomeMetrics {
        let originals = self.originals();
        OutcomeMetrics {
            percent_unfair: self.fairness.percent_unfair(),
            average_miss_time: self.fairness.average_miss_time(),
            average_turnaround: user::average_turnaround(&originals),
            loss_of_capacity: self.schedule.loss_of_capacity(),
            utilization: self.schedule.utilization(),
            miss_by_width: self.fairness.miss_by_width(),
            turnaround_by_width: user::turnaround_by_width(&originals),
        }
    }
}

/// How [`try_run_policy`] runs its single simulation: under which fault
/// model, whether to profile it, and whether it can be cancelled.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault model for the run (default: all fault sources off).
    pub faults: FaultConfig,
    /// Collect a [`ProfileReport`] of where the run's time went. Counters
    /// are process-wide, so a profiled run in a parallel sweep also
    /// absorbs the other workers' activity — profile one run at a time
    /// when per-policy numbers matter.
    pub profile: bool,
    /// Cooperative cancellation: when the token fires (e.g. a sweep
    /// watchdog), the simulation stops at its next event batch with
    /// [`SimError::TimedOut`]. `None` (the default) runs unguarded.
    pub cancel: Option<CancelToken>,
}

impl RunOptions {
    /// Options with a fault model, unprofiled and uncancellable.
    pub fn with_faults(faults: FaultConfig) -> Self {
        RunOptions {
            faults,
            ..Default::default()
        }
    }
}

/// Everything one [`try_run_policy`] simulation produced.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Schedule plus hybrid fairness report.
    pub outcome: PolicyOutcome,
    /// Where the run's time went (`RunOptions::profile`).
    pub profile: Option<ProfileReport>,
}

/// Evaluates one policy on a trace with **one** simulation, the hybrid
/// fairness observer attached. Trace or configuration problems come back as a
/// typed [`SimError`] instead of a panic, so one failing policy never
/// aborts a multi-policy figure. Deterministic: equal inputs give equal
/// outcomes.
pub fn try_run_policy(
    trace: &[Job],
    policy: &PolicySpec,
    nodes: u32,
    opts: &RunOptions,
) -> Result<PolicyRun, SimError> {
    try_run_policy_traced(trace, policy, nodes, opts, None)
}

/// [`try_run_policy`] with optional decision tracing. When `records` is
/// `Some`, every scheduling decision of the single underlying simulation is
/// appended to it; the returned run is byte-identical to the untraced one
/// (emission never feeds back into the schedule — pinned by proptest).
pub fn try_run_policy_traced(
    trace: &[Job],
    policy: &PolicySpec,
    nodes: u32,
    opts: &RunOptions,
    records: Option<&mut Vec<TraceRecord>>,
) -> Result<PolicyRun, SimError> {
    let mut cfg = policy.sim_config(nodes);
    cfg.faults = opts.faults.clone();
    // The scope must outlive the fairness scoring below: the hybrid-FST
    // prefix simulations are where the warm-start counters move.
    let _scope = opts.profile.then(ProfileScope::enter);
    let baseline = opts.profile.then(CounterSnapshot::capture);
    let started = std::time::Instant::now();
    let mut hybrid = HybridFstObserver::new();
    let mut sim_opts = SimOptions::new();
    if let Some(records) = records {
        sim_opts = sim_opts.trace(records);
    }
    if let Some(cancel) = opts.cancel.clone() {
        sim_opts = sim_opts.cancel(cancel);
    }
    let schedule = simulate(trace, &cfg, &mut hybrid, sim_opts)?;
    let fairness = hybrid.into_report();
    let profile = baseline.map(|before| ProfileReport {
        counters: CounterSnapshot::capture().since(&before),
        wall_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    });
    Ok(PolicyRun {
        outcome: PolicyOutcome {
            policy: policy.id.to_string(),
            schedule,
            fairness,
        },
        profile,
    })
}

/// Evaluates one policy on a trace with the hybrid fairness observer
/// attached. Deterministic: equal inputs give equal outcomes. Panics on
/// invalid traces/configs; prefer [`try_run_policy`] where a failure must
/// not abort the caller.
pub fn run_policy(trace: &[Job], policy: &PolicySpec, nodes: u32) -> PolicyOutcome {
    try_run_policy(trace, policy, nodes, &RunOptions::default())
        .map(|run| run.outcome)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_workload::CplantModel;

    /// One 1024-node run under `faults`; panics on failure.
    fn run_faulted(trace: &[Job], policy: &PolicySpec, faults: &FaultConfig) -> PolicyOutcome {
        try_run_policy(
            trace,
            policy,
            1024,
            &RunOptions::with_faults(faults.clone()),
        )
        .unwrap()
        .outcome
    }

    fn small_trace() -> Vec<Job> {
        CplantModel::new(17).with_scale(0.02).generate()
    }

    #[test]
    fn outcome_scores_every_submission() {
        let trace = small_trace();
        let out = run_policy(&trace, &PolicySpec::baseline(), 1024);
        assert_eq!(out.policy, "cplant24.nomax.all");
        // No runtime limit: records = submissions = trace jobs.
        assert_eq!(out.schedule.records.len(), trace.len());
        assert_eq!(out.fairness.entries.len(), trace.len());
        assert_eq!(out.originals().len(), trace.len());
    }

    #[test]
    fn chunked_policy_scores_chunks_but_aggregates_originals() {
        let trace = small_trace();
        let p = PolicySpec::by_id("cplant24.72max.all").unwrap();
        let out = run_policy(&trace, &p, 1024);
        // Chunking multiplies submissions but the originals stay fixed.
        assert!(out.schedule.records.len() >= trace.len());
        assert_eq!(out.originals().len(), trace.len());
        assert_eq!(out.fairness.entries.len(), out.schedule.records.len());
    }

    #[test]
    fn metrics_are_finite_and_in_range() {
        let trace = small_trace();
        let out = run_policy(&trace, &PolicySpec::by_id("cons.nomax").unwrap(), 1024);
        let m = out.metrics();
        assert!((0.0..=1.0).contains(&m.percent_unfair));
        assert!((0.0..=1.0).contains(&m.loss_of_capacity));
        assert!((0.0..=1.0).contains(&m.utilization));
        assert!(m.average_miss_time >= 0.0 && m.average_miss_time.is_finite());
        assert!(m.average_turnaround > 0.0 && m.average_turnaround.is_finite());
        assert!(m.miss_by_width.iter().all(|v| v.is_finite()));
        assert!(m.turnaround_by_width.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn default_fault_config_changes_nothing() {
        let trace = small_trace();
        let p = PolicySpec::baseline();
        let clean = run_policy(&trace, &p, 1024);
        let faulted = run_faulted(&trace, &p, &FaultConfig::default());
        assert_eq!(clean.schedule, faulted.schedule);
        assert_eq!(clean.fairness, faulted.fairness);
        // And a fault-free run reports an all-clean resilience split.
        let split = clean.resilience();
        assert_eq!(split.interrupted_count(), 0);
        assert_eq!(split.clean_count(), clean.fairness.entries.len());
    }

    #[test]
    fn faulted_runs_split_fairness_by_interruption() {
        let trace = small_trace();
        let p = PolicySpec::baseline();
        let faults = FaultConfig {
            job_crash_rate: 0.4,
            seed: 11,
            ..FaultConfig::default()
        };
        let out = run_faulted(&trace, &p, &faults);
        let split = out.resilience();
        assert!(
            split.interrupted_count() > 0,
            "crash rate 0.4 must interrupt someone"
        );
        assert!(split.clean_count() > 0);
        assert_eq!(
            split.interrupted_count() + split.clean_count(),
            out.fairness.entries.len()
        );
        assert!(split.goodput > 0.0 && split.goodput <= out.schedule.utilization());
    }

    #[test]
    fn profiled_runs_report_where_time_went() {
        let trace = small_trace();
        let opts = RunOptions {
            profile: true,
            ..RunOptions::default()
        };
        let run = try_run_policy(&trace, &PolicySpec::baseline(), 1024, &opts).unwrap();
        let profile = run.profile.expect("requested in RunOptions");
        assert!(profile.wall_ns > 0);
        assert!(profile.counters.sched_passes > 0);
        assert!(profile.counters.backfill_attempts >= profile.counters.backfill_successes);
        // The hybrid FST scores against the list scheduler, not prefix
        // simulation, so warm-start counters stay parked here; they move
        // under the scheduler-dependent Sabin metric instead.
        assert_eq!(profile.counters.warm_start_misses, 0);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let trace = small_trace();
        let p = PolicySpec::by_id("easy.nomax").unwrap();
        let mut records: Vec<TraceRecord> = Vec::new();
        let traced =
            try_run_policy_traced(&trace, &p, 1024, &RunOptions::default(), Some(&mut records))
                .unwrap();
        let untraced = try_run_policy(&trace, &p, 1024, &RunOptions::default()).unwrap();
        assert_eq!(traced.outcome.schedule, untraced.outcome.schedule);
        assert_eq!(traced.outcome.fairness, untraced.outcome.fairness);
        // Every submission start shows up as a decision record.
        let starts = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::JobStarted { .. }))
            .count();
        assert_eq!(starts, traced.outcome.schedule.records.len());
    }

    #[test]
    fn try_run_policy_reports_errors_instead_of_panicking() {
        // An 8-node machine rejects the CPlant trace's wide jobs: a typed
        // error, not a panic.
        let trace = small_trace();
        let err =
            try_run_policy(&trace, &PolicySpec::baseline(), 8, &RunOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nodes on a"));
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small_trace();
        let p = PolicySpec::by_id("consdyn.nomax").unwrap();
        let a = run_policy(&trace, &p, 1024);
        let b = run_policy(&trace, &p, 1024);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.fairness, b.fairness);
    }
}
