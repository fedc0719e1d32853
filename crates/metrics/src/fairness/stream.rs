//! Streaming fairness: the batch verdict, maintained event-by-event.
//!
//! The paper computes fairness after the fact, over a finished schedule.
//! An online scheduler (`fairschedd`) cannot wait for the fact: an
//! operator needs to see *now* whether the live policy is starving
//! anyone. [`StreamingFairness`] is an [`Observer`] that keeps the
//! fairness verdict current at every simulator event, cheap enough to sit
//! permanently inside the serving loop:
//!
//! * the hybrid FST verdict rides along unchanged — the embedded
//!   [`HybridFstObserver`] sees the same hooks it would in a batch run,
//!   so at seal [`StreamingFairness::report`] is **identical** to the
//!   batch report (the convergence guarantee, pinned by a property test
//!   at the workspace root);
//! * per-user aggregates accumulate in order-independent integer
//!   arithmetic, so [`StreamingFairness::users`] reproduces the rows of
//!   [`per_user`](crate::fairness::peruser::per_user) exactly
//!   (bit-for-bit while sums stay below 2^53 — far beyond any real trace)
//!   without replaying records;
//! * live gauges — queue depth, busy nodes, utilization-so-far,
//!   starvation age, and how far past their fair start the currently
//!   queued jobs are — come from O(1)-maintained maps, snapshotted on
//!   demand by [`StreamingFairness::snapshot`].
//!
//! Nothing here feeds back into scheduling: the observer only reads the
//! hooks, so an instrumented run produces a byte-identical schedule.

use crate::fairness::fst::FstReport;
use crate::fairness::hybrid::HybridFstObserver;
use crate::fairness::peruser::UserFairness;
use fairsched_sim::{ArrivalView, JobRecord, Observer, Schedule};
use fairsched_workload::job::{JobId, UserId};
use fairsched_workload::time::Time;
use std::collections::HashMap;

/// Per-user running totals in overflow-safe integer arithmetic (converted
/// to the [`UserFairness`] f64 fields only when rows are requested).
#[derive(Debug, Clone, Copy, Default)]
struct UserAgg {
    jobs: u64,
    proc_nodeseconds: u64,
    wait_sum: u64,
    total_miss: u64,
    unfair_jobs: u64,
}

#[derive(Debug, Clone, Copy)]
struct QueuedInfo {
    arrival: Time,
    nodes: u32,
}

/// A point-in-time reading of every live fairness gauge.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FairnessSnapshot {
    /// The simulated-time frontier the gauges are current at.
    pub now: Time,
    /// Submissions observed (arrivals).
    pub arrivals: u64,
    /// Jobs that have started.
    pub started: u64,
    /// Submissions that have finished (completions + kills).
    pub completed: u64,
    /// Finished submissions that were killed.
    pub killed: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Jobs currently running.
    pub running_jobs: u64,
    /// Nodes currently occupied by running jobs.
    pub busy_nodes: u64,
    /// Busy node-seconds so far divided by capacity since the first
    /// start — the live analogue of `Schedule::utilization`.
    pub utilization: f64,
    /// Started jobs scored against their fair start so far.
    pub scored: u64,
    /// Scored jobs that missed their fair start.
    pub unfair_jobs: u64,
    /// Fraction of scored jobs that missed their fair start.
    pub percent_unfair: f64,
    /// Total seconds of fair-start miss accumulated so far.
    pub total_miss: u64,
    /// Mean miss over scored jobs (Equation 5, live).
    pub average_miss: f64,
    /// Mean queue wait over finished submissions, seconds.
    pub mean_wait: f64,
    /// Mean bounded slowdown over finished submissions.
    pub mean_slowdown: f64,
    /// Queued jobs currently past their fair start time.
    pub live_fst_misses: u64,
    /// The worst current overshoot: max over queued jobs of
    /// `now − fst`, seconds. Unlike `total_miss` this can still shrink
    /// to nothing being *recorded* if the scheduler catches up — it
    /// measures pressure, not verdicts.
    pub worst_live_miss: Time,
    /// Age of the oldest queued job, seconds. The starvation gauge: a
    /// healthy scheduler keeps this bounded.
    pub starvation_age: Time,
}

/// An always-on fairness observer for online scheduling. Attach to every
/// `SteppedSim::step` call (it implements [`Observer`]) and read gauges
/// whenever asked.
#[derive(Debug, Default)]
pub struct StreamingFairness {
    hybrid: HybridFstObserver,
    total_nodes: u32,
    now: Time,
    first_start: Option<Time>,
    busy_nodes: u64,
    busy_integral: f64,
    queued: HashMap<JobId, QueuedInfo>,
    running: HashMap<JobId, u32>,
    users: HashMap<UserId, UserAgg>,
    arrivals: u64,
    started: u64,
    completed: u64,
    killed: u64,
    scored: u64,
    unfair: u64,
    total_miss: u64,
    wait_sum: u64,
    slowdown_sum: f64,
}

impl StreamingFairness {
    /// A fresh observer for a machine of `total_nodes` nodes (used by the
    /// utilization gauge; the event stream supplies everything else).
    pub fn new(total_nodes: u32) -> Self {
        StreamingFairness {
            total_nodes,
            ..Default::default()
        }
    }

    /// Advances the busy-nodes integral to `to`. Hooks arrive with
    /// non-decreasing times, so this is a pure forward integration.
    fn advance(&mut self, to: Time) {
        if to > self.now {
            self.busy_integral += self.busy_nodes as f64 * (to - self.now) as f64;
            self.now = to;
        }
    }

    /// The fair-start verdict over jobs started so far. After a drained
    /// run this equals the batch [`HybridFstObserver::into_report`] for
    /// the same trace — both observers saw the same hooks.
    pub fn report(&self) -> FstReport {
        self.hybrid.report()
    }

    /// Per-user rows, heaviest consumers first — the same rows
    /// [`per_user`](crate::fairness::peruser::per_user) computes from the
    /// finished schedule, produced from the running totals instead.
    pub fn users(&self) -> Vec<UserFairness> {
        let mut out: Vec<UserFairness> = self
            .users
            .iter()
            .map(|(&user, agg)| UserFairness {
                user,
                jobs: agg.jobs as usize,
                proc_seconds: agg.proc_nodeseconds as f64,
                total_miss: agg.total_miss as f64,
                unfair_jobs: agg.unfair_jobs as usize,
                mean_wait: if agg.jobs == 0 {
                    0.0
                } else {
                    agg.wait_sum as f64 / agg.jobs as f64
                },
            })
            .collect();
        out.sort_by(|a, b| {
            b.proc_seconds
                .total_cmp(&a.proc_seconds)
                .then(a.user.cmp(&b.user))
        });
        out
    }

    /// Reads every gauge at the current frontier.
    pub fn snapshot(&self) -> FairnessSnapshot {
        let elapsed = self
            .first_start
            .map(|t0| self.now.saturating_sub(t0))
            .unwrap_or(0);
        let capacity = elapsed as f64 * self.total_nodes as f64;
        let mut live_fst_misses = 0u64;
        let mut worst_live_miss: Time = 0;
        let mut starvation_age: Time = 0;
        for (&id, info) in &self.queued {
            starvation_age = starvation_age.max(self.now.saturating_sub(info.arrival));
            if let Some(fst) = self.hybrid.fst_of(id) {
                if self.now > fst {
                    live_fst_misses += 1;
                    worst_live_miss = worst_live_miss.max(self.now - fst);
                }
            }
        }
        FairnessSnapshot {
            now: self.now,
            arrivals: self.arrivals,
            started: self.started,
            completed: self.completed,
            killed: self.killed,
            queue_depth: self.queued.len() as u64,
            running_jobs: self.running.len() as u64,
            busy_nodes: self.busy_nodes,
            utilization: if capacity == 0.0 {
                0.0
            } else {
                self.busy_integral / capacity
            },
            scored: self.scored,
            unfair_jobs: self.unfair,
            percent_unfair: if self.scored == 0 {
                0.0
            } else {
                self.unfair as f64 / self.scored as f64
            },
            total_miss: self.total_miss,
            average_miss: if self.scored == 0 {
                0.0
            } else {
                self.total_miss as f64 / self.scored as f64
            },
            mean_wait: if self.completed == 0 {
                0.0
            } else {
                self.wait_sum as f64 / self.completed as f64
            },
            mean_slowdown: if self.completed == 0 {
                0.0
            } else {
                self.slowdown_sum / self.completed as f64
            },
            live_fst_misses,
            worst_live_miss,
            starvation_age,
        }
    }
}

impl Observer for StreamingFairness {
    fn on_arrival(&mut self, view: &ArrivalView<'_>) {
        self.advance(view.now);
        if self.total_nodes == 0 {
            self.total_nodes = view.total_nodes;
        }
        self.hybrid.on_arrival(view);
        self.queued.insert(
            view.job.id,
            QueuedInfo {
                arrival: view.now,
                nodes: view.job.nodes,
            },
        );
        self.arrivals += 1;
    }

    fn on_start(&mut self, id: JobId, now: Time) {
        self.advance(now);
        self.hybrid.on_start(id, now);
        let nodes = self
            .queued
            .remove(&id)
            .map(|info| info.nodes)
            .unwrap_or_default();
        self.busy_nodes += u64::from(nodes);
        self.running.insert(id, nodes);
        self.started += 1;
        self.first_start.get_or_insert(now);
    }

    fn on_complete(&mut self, id: JobId, now: Time, killed: bool) {
        self.advance(now);
        if let Some(nodes) = self.running.remove(&id) {
            self.busy_nodes -= u64::from(nodes);
        }
        if killed {
            self.killed += 1;
        }
    }

    fn on_record(&mut self, record: &JobRecord) {
        self.completed += 1;
        self.wait_sum += record.wait();
        let executed = record.executed().max(1) as f64;
        self.slowdown_sum += (record.wait() as f64 + executed) / executed;

        let agg = self.users.entry(record.user).or_default();
        agg.jobs += 1;
        agg.proc_nodeseconds += u64::from(record.nodes) * record.executed();
        agg.wait_sum += record.wait();
        if let Some(fst) = self.hybrid.fst_of(record.id) {
            let miss = record.start.saturating_sub(fst);
            agg.total_miss += miss;
            self.total_miss += miss;
            self.scored += 1;
            if miss > 0 {
                agg.unfair_jobs += 1;
                self.unfair += 1;
            }
        }
    }

    fn on_finish(&mut self, schedule: &Schedule) {
        // Close the integral at the end of the run; the batch schedule's
        // makespan ends at the last completion, which `advance` has
        // already reached through the completion hooks.
        self.advance(schedule.max_completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::peruser::per_user;
    use fairsched_sim::{simulate, KillPolicy, SimConfig, SimOptions, StarvationConfig};
    use fairsched_workload::job::Job;

    fn job(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time) -> Job {
        Job::new(id, user, 1, submit, nodes, runtime, runtime)
    }

    fn cfg(nodes: u32) -> SimConfig {
        SimConfig {
            nodes,
            kill: KillPolicy::Never,
            starvation: Some(StarvationConfig::default()),
            ..Default::default()
        }
    }

    #[test]
    fn converges_to_the_batch_verdict_on_a_full_run() {
        let trace = fairsched_workload::synthetic::random_trace(17, 200, 10, 2000);
        let cfg = cfg(10);

        let mut batch = HybridFstObserver::new();
        let schedule = simulate(&trace, &cfg, &mut batch, SimOptions::new()).unwrap();
        let batch_report = batch.into_report();

        let mut stream = StreamingFairness::new(cfg.nodes);
        let schedule2 = simulate(&trace, &cfg, &mut stream, SimOptions::new()).unwrap();
        assert_eq!(schedule, schedule2, "observer must not perturb the run");

        assert_eq!(stream.report(), batch_report);
        assert_eq!(stream.users(), per_user(&schedule, &batch_report));

        let snap = stream.snapshot();
        assert_eq!(snap.arrivals as usize, trace.len());
        assert_eq!(snap.completed as usize, schedule.records.len());
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.running_jobs, 0);
        assert_eq!(snap.busy_nodes, 0);
        assert!(
            (snap.utilization - schedule.utilization()).abs() < 1e-9,
            "stream {} vs batch {}",
            snap.utilization,
            schedule.utilization()
        );
        assert_eq!(
            snap.unfair_jobs as usize,
            batch_report.entries.iter().filter(|e| e.unfair()).count()
        );
        assert_eq!(snap.total_miss, batch_report.total_miss());
    }

    #[test]
    fn live_gauges_track_queue_pressure_mid_run() {
        // Machine full until t=100; two more jobs queue behind it.
        let trace = [
            job(1, 1, 0, 10, 100),
            job(2, 2, 5, 10, 50),
            job(3, 3, 10, 10, 50),
        ];
        let mut stream = StreamingFairness::new(10);
        let _ = simulate(&trace, &cfg(10), &mut stream, SimOptions::new()).unwrap();
        // After the full run everything drained.
        let end = stream.snapshot();
        assert_eq!(end.queue_depth, 0);
        assert_eq!(end.starvation_age, 0);
        assert_eq!(end.live_fst_misses, 0);
        assert_eq!(end.started, 3);
        // Jobs 2 and 3 each waited; the wait gauge saw it.
        assert!(end.mean_wait > 0.0);
        assert!(end.mean_slowdown > 1.0);
    }

    #[test]
    fn mid_run_snapshot_reports_starvation_and_live_misses() {
        // Drive hooks by hand to freeze a mid-run state: a job queues at
        // t=5 with fst 100, and the clock reaches t=400 without it
        // starting. The unit here is the gauge arithmetic, so feed the
        // observer directly instead of driving a simulation.
        let mut stream = StreamingFairness::new(10);
        stream.queued.insert(
            JobId(2),
            QueuedInfo {
                arrival: 5,
                nodes: 10,
            },
        );
        stream.hybrid.insert_fst(JobId(2), 100, 10);
        stream.advance(400);
        let snap = stream.snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.starvation_age, 395);
        assert_eq!(snap.live_fst_misses, 1);
        assert_eq!(snap.worst_live_miss, 300);
    }

    #[test]
    fn empty_stream_snapshots_to_zero() {
        let snap = StreamingFairness::new(64).snapshot();
        assert_eq!(snap, FairnessSnapshot::default());
    }
}
