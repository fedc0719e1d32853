//! The hybrid "fairshare" fair-start-time metric — the paper's contribution
//! (§4.1).
//!
//! At each job arrival, take the scheduler's state as it stands (running
//! jobs until their actual ends, queued jobs) and build the schedule a
//! **no-backfill list scheduler** would produce if *no later job ever
//! arrived*, processing the queue in **fairshare priority order**. The
//! arriving job's start in that schedule is its fair start time:
//!
//! * it does not depend on the scheduler under test (unlike Sabin &
//!   Sadayappan's FST), so reports are comparable across policies;
//! * it does not bless one global CONS_P schedule, so high-utilization
//!   schedules cannot launder deliberate reordering;
//! * it encodes Sandia's own notion of social justice — "if all jobs were
//!   run in fairshare order, the scheduler is fair".
//!
//! [`HybridFstObserver`] implements the simulator's observer hook: it
//! computes the FST at every arrival (amortized `O((running + queued)·log)`
//! via the compressed [`NodeTimeline`]) and pairs it with the start the
//! scheduler eventually delivers.

use crate::fairness::fst::{FstEntry, FstReport};
use fairsched_sim::state::priority_order;
use fairsched_sim::{ArrivalView, NodeTimeline, Observer};
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;
use std::collections::HashMap;

/// Observer computing hybrid fairshare FSTs during a simulation run.
///
/// Attach to [`fairsched_sim::simulate`], then call
/// [`HybridFstObserver::into_report`]. The per-user, equality and
/// resilience reports are functions of the returned schedule and this
/// report, so this is the only observer a run needs.
///
/// ```
/// use fairsched_metrics::fairness::hybrid::HybridFstObserver;
/// use fairsched_sim::{simulate, SimConfig, SimOptions};
/// use fairsched_workload::CplantModel;
///
/// let trace = CplantModel::new(1).with_scale(0.01).generate();
/// let cfg = SimConfig::default();
/// let mut observer = HybridFstObserver::new();
/// let _schedule = simulate(&trace, &cfg, &mut observer, SimOptions::new()).unwrap();
/// let report = observer.into_report();
/// assert_eq!(report.entries.len(), trace.len());
/// assert!(report.percent_unfair() <= 1.0);
/// ```
#[derive(Debug, Default)]
pub struct HybridFstObserver {
    fsts: HashMap<JobId, (Time, u32)>, // fst, nodes
    starts: HashMap<JobId, Time>,
}

impl HybridFstObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the observer into a per-job report. Jobs that never started
    /// (impossible in a drained simulation) are dropped.
    pub fn into_report(self) -> FstReport {
        self.report()
    }

    /// A non-consuming snapshot of the report so far: entries for every
    /// job that has both an FST and a start. Mid-run this is the live
    /// verdict over started jobs; after a drained run it is identical to
    /// [`HybridFstObserver::into_report`].
    pub fn report(&self) -> FstReport {
        let entries = self
            .fsts
            .iter()
            .filter_map(|(&id, &(fst, nodes))| {
                self.starts.get(&id).map(|&start| FstEntry {
                    id,
                    nodes,
                    fst,
                    start,
                })
            })
            .collect();
        FstReport::new(entries)
    }

    /// The fair start time computed for `id` at its arrival, if any.
    pub fn fst_of(&self, id: JobId) -> Option<Time> {
        self.fsts.get(&id).map(|&(fst, _)| fst)
    }

    /// Injects a precomputed FST — test support for gauge arithmetic that
    /// wants a frozen mid-run state without driving a simulation.
    #[cfg(test)]
    pub(crate) fn insert_fst(&mut self, id: JobId, fst: Time, nodes: u32) {
        self.fsts.insert(id, (fst, nodes));
    }
}

impl Observer for HybridFstObserver {
    fn on_arrival(&mut self, view: &ArrivalView<'_>) {
        // State snapshot: running jobs occupy their nodes until their
        // *actual* scheduled ends (the perfect-estimate convention CONS_P
        // established and the hybrid metric keeps).
        let running: Vec<(Time, u32)> = view
            .running
            .iter()
            .map(|r| (r.scheduled_end, r.nodes))
            .collect();
        let mut timeline = NodeTimeline::with_running(view.total_nodes, view.now, &running);

        // List-schedule the queue (arriving job included) in the priority
        // order of the scheduler under test, with actual runtimes. Jobs
        // behind the arriving one cannot affect its placement, so stop there.
        let order = priority_order(view.queue, view.order, view.fairshare);
        for &i in &order {
            let q = &view.queue[i];
            let runtime = *view.runtimes.get(&q.id).expect("queued job has a runtime");
            let start = timeline.place(view.now, q.nodes, runtime);
            if q.id == view.job.id {
                self.fsts.insert(q.id, (start, q.nodes));
                return;
            }
        }
        unreachable!("arriving job is always in the queue");
    }

    fn on_start(&mut self, id: JobId, now: Time) {
        self.starts.insert(id, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_sim::{
        simulate, EngineKind, KillPolicy, QueueOrder, SimConfig, SimOptions, StarvationConfig,
    };
    use fairsched_workload::job::Job;
    use fairsched_workload::time::HOUR;

    fn cfg(nodes: u32, engine: EngineKind) -> SimConfig {
        SimConfig {
            nodes,
            engine,
            kill: KillPolicy::Never,
            starvation: Some(StarvationConfig::default()),
            ..Default::default()
        }
    }

    fn job(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time, estimate: Time) -> Job {
        Job::new(id, user, 1, submit, nodes, runtime, estimate)
    }

    fn report(trace: &[Job], cfg: &SimConfig) -> FstReport {
        let mut obs = HybridFstObserver::new();
        simulate(trace, cfg, &mut obs, SimOptions::new()).unwrap();
        obs.into_report()
    }

    #[test]
    fn uncontended_jobs_are_fair() {
        let trace = [job(1, 1, 0, 4, 100, 100), job(2, 2, 500, 4, 100, 100)];
        let r = report(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.percent_unfair(), 0.0);
        // FST of an immediately-startable job is its arrival instant.
        assert_eq!(r.entries[0].fst, 0);
        assert_eq!(r.entries[1].fst, 500);
    }

    #[test]
    fn fst_accounts_for_work_already_queued() {
        // Machine full until 100; two 10-node jobs queued ahead with equal
        // fairshare (FCFS tie-break). The third arrival's FST stacks behind
        // both: 100 (runner) + 100 + 100 = start at 300.
        let trace = [
            job(1, 1, 0, 10, 100, 100),
            job(2, 2, 1, 10, 100, 100),
            job(3, 3, 2, 10, 100, 100),
            job(4, 4, 3, 10, 100, 100),
        ];
        let r = report(&trace, &cfg(10, EngineKind::NoGuarantee));
        let e4 = r.entries.iter().find(|e| e.id == JobId(4)).unwrap();
        assert_eq!(e4.fst, 300);
        assert_eq!(e4.start, 300);
        assert!(!e4.unfair());
    }

    #[test]
    fn fairshare_order_shapes_the_fst() {
        // User 1 has burned the machine; user 2 is idle. Both queue jobs
        // while the machine is full. In fairshare order user 2's job goes
        // first, so user 1's queued job has a LATER fst than FCFS would say.
        let trace = [
            job(1, 1, 0, 10, 10 * HOUR, 10 * HOUR), // builds user 1 usage
            job(2, 1, 100, 10, HOUR, HOUR),
            job(3, 2, 200, 10, HOUR, HOUR),
        ];
        let r = report(&trace, &cfg(10, EngineKind::NoGuarantee));
        let e2 = r.entries.iter().find(|e| e.id == JobId(2)).unwrap();
        let e3 = r.entries.iter().find(|e| e.id == JobId(3)).unwrap();
        // Job 3's FST: starts right when the runner ends. Job 2's FST was
        // computed at its own arrival (queue = {2}), so it also expected to
        // start at the runner's end — but the scheduler ran job 3 first.
        assert_eq!(e3.fst, 10 * HOUR);
        assert_eq!(e2.fst, 10 * HOUR);
        assert_eq!(e3.start, 10 * HOUR);
        assert_eq!(e2.start, 11 * HOUR);
        // Job 2 missed its FST: a later-arriving, higher-priority job
        // displaced it. The hybrid metric counts that as unfairness
        // *relative to the state at its arrival*.
        assert!(e2.unfair());
        assert_eq!(e2.miss(), HOUR);
    }

    #[test]
    fn backfilling_past_the_fst_is_benign() {
        // A narrow job that backfills ahead of its list-scheduled slot
        // starts BEFORE its FST: not unfair, miss 0.
        let trace = [
            job(1, 1, 0, 6, 1000, 1000),
            job(2, 2, 1, 8, 1000, 1000), // waits (needs 8, only 4 free)
            job(3, 3, 2, 4, 10, 10),     // backfills immediately
        ];
        let r = report(&trace, &cfg(10, EngineKind::NoGuarantee));
        let e3 = r.entries.iter().find(|e| e.id == JobId(3)).unwrap();
        // List scheduler (no holes): job 3 is placed after jobs 1 and 2
        // claim their nodes; its FST is later than its actual start.
        assert_eq!(e3.start, 2);
        assert!(e3.fst >= e3.start);
        assert!(!e3.unfair());
    }

    #[test]
    fn report_covers_every_submission() {
        let trace = fairsched_workload::synthetic::random_trace(11, 120, 10, 2000);
        let r = report(
            &trace,
            &cfg(10, EngineKind::Conservative { dynamic: false }),
        );
        assert_eq!(r.entries.len(), trace.len());
    }

    #[test]
    fn conservative_with_fcfs_and_perfect_estimates_is_nearly_fair() {
        // §4's observation: CONS with perfect estimates is socially just.
        // With FCFS order and perfect estimates, misses should be zero.
        let mut trace = fairsched_workload::synthetic::random_trace(13, 150, 10, 2000);
        for j in &mut trace {
            j.estimate = j.runtime;
        }
        let mut c = cfg(10, EngineKind::Conservative { dynamic: false });
        c.order = QueueOrder::Fcfs;
        let r = report(&trace, &c);
        // The list-scheduler FST is *more* conservative than backfilling, so
        // every job should start at or before its FST.
        assert_eq!(r.percent_unfair(), 0.0, "misses: {:?}", r.total_miss());
    }
}
