//! The resource-equality fairness metric (Sabin & Sadayappan's second
//! metric, §4; inspired by RAQFM-style queueing fairness).
//!
//! While a job is *live* (queued or running) it "deserves" `1/N(t)` of the
//! machine, where `N(t)` is the number of live jobs. Integrating over each
//! job's lifetime gives the node-seconds it deserved; comparing with what it
//! received gives a per-job *discrimination*:
//!
//! ```text
//! discrimination_j = received_j − deserved_j
//!                  = nodes_j · runtime_j − ∫_{live_j} SystemSize / N(t) dt
//! ```
//!
//! Positive values mean the job got more than its egalitarian share.
//! Discriminations sum to ≈ 0 when the machine is saturated; their spread
//! (or the total negative mass) measures inequality. The metric needs no
//! reference schedule, so unlike FST metrics it can compare any two
//! schedules directly.

use fairsched_sim::Schedule;
use fairsched_workload::job::JobId;

/// Per-job discrimination values plus aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EqualityReport {
    /// `(job, received − deserved)` in node-seconds, sorted by job id.
    pub discrimination: Vec<(JobId, f64)>,
}

impl EqualityReport {
    /// Total negative discrimination (node-seconds of under-service); the
    /// headline inequality number — 0 means perfectly egalitarian.
    pub fn total_underservice(&self) -> f64 {
        self.discrimination
            .iter()
            .map(|&(_, d)| (-d).max(0.0))
            .sum()
    }

    /// Population standard deviation of discrimination.
    pub fn discrimination_stddev(&self) -> f64 {
        let n = self.discrimination.len();
        if n == 0 {
            return 0.0;
        }
        let mean: f64 = self.discrimination.iter().map(|&(_, d)| d).sum::<f64>() / n as f64;
        let var: f64 = self
            .discrimination
            .iter()
            .map(|&(_, d)| (d - mean) * (d - mean))
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    /// Discrimination of one job, if scored.
    pub fn of(&self, id: JobId) -> Option<f64> {
        self.discrimination
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|i| self.discrimination[i].1)
    }
}

/// Computes the resource-equality report for a schedule.
///
/// Builds the live-job count `N(t)` from the records' submit/end instants
/// and integrates each job's deserved share exactly (the step function
/// changes only at submits and ends).
pub fn equality_report(schedule: &Schedule) -> EqualityReport {
    let records = &schedule.records;
    if records.is_empty() {
        return EqualityReport::default();
    }

    // Breakpoints: +1 at submit, −1 at end.
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(records.len() * 2);
    for r in records {
        deltas.push((r.submit, 1));
        deltas.push((r.end, -1));
    }
    deltas.sort_unstable();

    // Collapse into segments [t_i, t_{i+1}) with constant live count, and
    // record the cumulative "deserved-share integral per live job":
    // I(t) = ∫_0^t SystemSize / N(s) ds over regions where N > 0.
    let mut times = Vec::new();
    let mut integral = Vec::new(); // I at each time
    let mut live: i64 = 0;
    let mut acc = 0.0f64;
    let size = schedule.nodes as f64;
    let mut i = 0;
    let mut last_t = deltas[0].0;
    times.push(last_t);
    integral.push(0.0);
    while i < deltas.len() {
        let t = deltas[i].0;
        if t > last_t {
            if live > 0 {
                acc += size / live as f64 * (t - last_t) as f64;
            }
            times.push(t);
            integral.push(acc);
            last_t = t;
        }
        while i < deltas.len() && deltas[i].0 == t {
            live += deltas[i].1;
            i += 1;
        }
    }

    let lookup = |t: u64| -> f64 {
        match times.binary_search(&t) {
            Ok(idx) => integral[idx],
            Err(idx) => {
                // All record times are breakpoints, so this only happens for
                // t outside the observed range.
                if idx == 0 {
                    0.0
                } else {
                    integral[idx - 1]
                }
            }
        }
    };

    let mut discrimination: Vec<(JobId, f64)> = records
        .iter()
        .map(|r| {
            let deserved = lookup(r.end) - lookup(r.submit);
            let received = r.nodes as f64 * r.executed() as f64;
            (r.id, received - deserved)
        })
        .collect();
    discrimination.sort_by_key(|&(id, _)| id);
    EqualityReport { discrimination }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_sim::{simulate, EngineKind, KillPolicy, NullObserver, SimConfig, SimOptions};
    use fairsched_workload::job::Job;
    use fairsched_workload::time::Time;

    fn cfg(nodes: u32) -> SimConfig {
        SimConfig {
            nodes,
            engine: EngineKind::NoGuarantee,
            kill: KillPolicy::Never,
            ..Default::default()
        }
    }

    fn job(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time) -> Job {
        Job::new(id, user, 1, submit, nodes, runtime, runtime)
    }

    #[test]
    fn lone_job_deserves_the_whole_machine() {
        // One live job: deserves SystemSize × its lifetime = 10 × 100; it
        // received 4 × 100 → discrimination -600 (it could not use its whole
        // entitlement, which is fine — the metric is about *relative* shares).
        let s = simulate(
            &[job(1, 1, 0, 4, 100)],
            &cfg(10),
            &mut NullObserver,
            SimOptions::new(),
        )
        .unwrap();
        let r = equality_report(&s);
        assert!((r.of(JobId(1)).unwrap() - (400.0 - 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn equal_concurrent_jobs_have_equal_discrimination() {
        // Two identical jobs, same submit, both fit: identical treatment.
        let trace = [job(1, 1, 0, 5, 100), job(2, 2, 0, 5, 100)];
        let s = simulate(&trace, &cfg(10), &mut NullObserver, SimOptions::new()).unwrap();
        let r = equality_report(&s);
        let d1 = r.of(JobId(1)).unwrap();
        let d2 = r.of(JobId(2)).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
        // Each deserved 10/2 × 100 = 500 and received 500: zero.
        assert!(d1.abs() < 1e-9);
        assert_eq!(r.total_underservice(), 0.0);
    }

    #[test]
    fn queued_job_accrues_entitlement_it_does_not_receive() {
        // Job 2 waits 100 s behind job 1 on a full machine. While queued it
        // deserved a share it received none of → negative discrimination;
        // job 1, running alone-then-sharing, is positive.
        let trace = [job(1, 1, 0, 10, 100), job(2, 2, 0, 10, 100)];
        let s = simulate(&trace, &cfg(10), &mut NullObserver, SimOptions::new()).unwrap();
        let r = equality_report(&s);
        let d1 = r.of(JobId(1)).unwrap();
        let d2 = r.of(JobId(2)).unwrap();
        assert!(d1 > 0.0, "first job over-served: {d1}");
        assert!(d2 < 0.0, "queued job under-served: {d2}");
        // Shares are zero-sum here: both live over [0,200) total entitlement
        // = machine capacity over [0,200) = received total.
        assert!((d1 + d2).abs() < 1e-9);
        assert!((r.total_underservice() - d2.abs()) < 1e-9);
        assert!(r.discrimination_stddev() > 0.0);
    }

    #[test]
    fn empty_schedule_reports_nothing() {
        let s = simulate(&[], &cfg(10), &mut NullObserver, SimOptions::new()).unwrap();
        let r = equality_report(&s);
        assert!(r.discrimination.is_empty());
        assert_eq!(r.total_underservice(), 0.0);
        assert_eq!(r.discrimination_stddev(), 0.0);
    }

    #[test]
    fn deserved_shares_reconstruct_received_minus_discrimination() {
        let trace = [job(1, 1, 0, 10, 100), job(2, 2, 0, 10, 100)];
        let s = simulate(&trace, &cfg(10), &mut NullObserver, SimOptions::new()).unwrap();
        let r = equality_report(&s);
        // Each job received 10 nodes × 100 s; deserved = received − disc.
        let deserved = |id: u32| 1000.0 - r.of(JobId(id)).unwrap();
        // Job 1: live [0,100) sharing with job 2 → deserved 10/2×100 = 500.
        assert!((deserved(1) - 500.0).abs() < 1e-9);
        // Job 2: live [0,200): shares [0,100) (500) + alone [100,200) (1000).
        assert!((deserved(2) - 1500.0).abs() < 1e-9);
    }
}
