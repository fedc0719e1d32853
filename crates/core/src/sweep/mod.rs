//! Parallel multi-policy sweeps.
//!
//! Every policy's simulation is an independent pure function of
//! (trace, policy, nodes), so the sweep fans out with `std::thread::scope`:
//! scoped borrows make the shared trace readable from every worker with no
//! copies and no unsafe, and the compiler guarantees data-race freedom.
//! Results come back in input order regardless of completion order.
//!
//! Robustness: one policy panicking (a simulator bug, an invariant trip
//! surfaced as a panic, a pathological configuration) must not take the
//! other eight columns of a comparison down with it. [`try_run_policies`]
//! fences each worker with `catch_unwind` and returns per-policy
//! `Result`s.
//!
//! The submodules scale this from "one trace, N policies" to the full
//! design-space grid: [`grid`] enumerates seeds × policies × fault
//! configurations with a stable cell indexing, [`journal`] streams each
//! finished cell into a checksummed append-only JSONL journal, and [`run`]
//! drives the grid under a per-cell robustness envelope (watchdog
//! cancellation, bounded retry, panic quarantine) with `--resume` replaying
//! the journal instead of re-simulating completed cells.

pub mod grid;
pub mod journal;
pub mod run;

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::policy::PolicySpec;
use crate::runner::{try_run_policy, PolicyOutcome, RunOptions};
use fairsched_sim::FaultConfig;
use fairsched_workload::job::Job;

/// Why one policy of a sweep produced no outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// The paper identifier of the policy that failed.
    pub policy: String,
    /// The panic message (or a placeholder for non-string payloads).
    pub reason: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy {} failed: {}", self.policy, self.reason)
    }
}

impl std::error::Error for SweepError {}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn fenced_run(
    trace: &[Job],
    policy: &PolicySpec,
    nodes: u32,
    opts: &RunOptions,
) -> Result<PolicyOutcome, SweepError> {
    // The closure only reads shared data and builds a fresh outcome, so a
    // panic cannot leave broken state visible to the other policies. Most
    // failures arrive as a typed `SimError` from the fallible runner; the
    // catch_unwind remains as a second fence against genuine bugs.
    match catch_unwind(AssertUnwindSafe(|| {
        try_run_policy(trace, policy, nodes, opts)
    })) {
        Ok(Ok(run)) => Ok(run.outcome),
        Ok(Err(e)) => Err(SweepError {
            policy: policy.id.to_string(),
            reason: e.to_string(),
        }),
        Err(payload) => Err(SweepError {
            policy: policy.id.to_string(),
            reason: panic_message(payload),
        }),
    }
}

/// Runs each policy on the trace under `faults`, in parallel, preserving
/// input order. A policy that fails (typed simulator error or panic)
/// yields an `Err` carrying the reason; the remaining policies are
/// unaffected.
pub fn try_run_policies(
    trace: &[Job],
    policies: &[PolicySpec],
    nodes: u32,
    faults: &FaultConfig,
) -> Vec<Result<PolicyOutcome, SweepError>> {
    let opts = &RunOptions::with_faults(faults.clone());
    // Worker panics are caught and surfaced as `SweepError`s, so the global
    // hook's backtrace would only be stderr noise; silence it for the
    // duration. (Concurrent panics elsewhere in the process would also be
    // silenced for this window — an accepted trade for clean sweep output.)
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = if policies.len() <= 1 {
        policies
            .iter()
            .map(|p| fenced_run(trace, p, nodes, opts))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = policies
                .iter()
                .map(|p| scope.spawn(move || fenced_run(trace, p, nodes, opts)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker itself never panics"))
                .collect()
        })
    };
    std::panic::set_hook(prev);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_policy;
    use fairsched_workload::CplantModel;

    #[test]
    fn parallel_sweep_matches_serial_runs() {
        let trace = CplantModel::new(29).with_scale(0.02).generate();
        let policies = vec![
            PolicySpec::baseline(),
            PolicySpec::by_id("cons.nomax").unwrap(),
            PolicySpec::by_id("consdyn.72max").unwrap(),
        ];
        let parallel: Vec<_> = try_run_policies(&trace, &policies, 1024, &FaultConfig::default())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for (policy, outcome) in policies.iter().zip(&parallel) {
            let serial = run_policy(&trace, policy, 1024);
            assert_eq!(outcome.policy, serial.policy);
            assert_eq!(outcome.schedule, serial.schedule);
            assert_eq!(outcome.fairness, serial.fairness);
        }
    }

    #[test]
    fn results_preserve_input_order() {
        let trace = CplantModel::new(29).with_scale(0.01).generate();
        let policies = PolicySpec::paper_policies();
        let outcomes = try_run_policies(&trace, &policies, 1024, &FaultConfig::default());
        let names: Vec<String> = outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().policy.clone())
            .collect();
        let expected: Vec<&str> = policies.iter().map(|p| p.id.as_ref()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn empty_policy_set_is_fine() {
        let trace = CplantModel::new(1).with_scale(0.01).generate();
        assert!(try_run_policies(&trace, &[], 1024, &FaultConfig::default()).is_empty());
    }

    #[test]
    fn a_panicking_policy_does_not_take_the_sweep_down() {
        // A job wider than the machine makes the simulator reject the run
        // with a typed error. With 8 nodes the CPlant trace contains such
        // jobs; the fenced sweep must report every policy as failed while
        // the same sweep on a full-size machine succeeds everywhere.
        let trace = CplantModel::new(3).with_scale(0.01).generate();
        let policies = vec![
            PolicySpec::baseline(),
            PolicySpec::by_id("cons.nomax").unwrap(),
        ];
        let results = try_run_policies(&trace, &policies, 8, &FaultConfig::default());
        assert_eq!(results.len(), 2);
        for (policy, result) in policies.iter().zip(&results) {
            let err = result.as_ref().unwrap_err();
            assert_eq!(err.policy, policy.id);
            assert!(
                err.reason.contains("nodes on a"),
                "error message survives: {err}"
            );
        }

        let ok = try_run_policies(&trace, &policies, 1024, &FaultConfig::default());
        assert!(ok.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn faulted_sweep_threads_the_fault_config_through() {
        let trace = CplantModel::new(29).with_scale(0.01).generate();
        let policies = vec![PolicySpec::baseline()];
        let faults = FaultConfig {
            job_crash_rate: 0.3,
            seed: 7,
            ..FaultConfig::default()
        };
        let results = try_run_policies(&trace, &policies, 1024, &faults);
        let outcome = results[0].as_ref().unwrap();
        // Crashes force resubmissions, so the faulted run has more records.
        let clean = run_policy(&trace, &policies[0], 1024);
        assert!(outcome.schedule.records.len() > clean.schedule.records.len());
        assert!(outcome.schedule.records.iter().any(|r| r.interrupted));
    }
}
