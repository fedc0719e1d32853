//! Shared simulation state types: queued/running job views, priority
//! ordering, and the observer interface metrics hook into.

use crate::config::QueueOrder;
use crate::fairshare::FairshareTracker;
use crate::simulator::{JobRecord, Schedule};
use fairsched_workload::job::{JobId, UserId};
use fairsched_workload::time::Time;
use std::collections::HashMap;

/// A job waiting in the queue, as visible to scheduling engines.
///
/// Deliberately excludes the actual runtime: engines are non-clairvoyant and
/// may only reason from the estimate. (Observers get actual runtimes via
/// [`ArrivalView::runtimes`], which fairness metrics need.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Job (chunk) identity.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Width in nodes.
    pub nodes: u32,
    /// User wall-clock limit.
    pub estimate: Time,
    /// When this submission entered the queue.
    pub arrival: Time,
}

/// A job currently running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// Job (chunk) identity.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Width in nodes.
    pub nodes: u32,
    /// When it started.
    pub start: Time,
    /// Its wall-clock limit.
    pub estimate: Time,
    /// The completion instant currently scheduled in the event queue (the
    /// actual end unless a kill intervenes). Observers may read this;
    /// engines must use [`RunningJob::estimated_end`] instead.
    pub scheduled_end: Time,
}

impl RunningJob {
    /// The end a non-clairvoyant engine must assume: start + estimate, but
    /// never in the past — a job that outlived its estimate is modelled as
    /// ending "imminently" (one second from now), the standard treatment.
    pub fn estimated_end(&self, now: Time) -> Time {
        (self.start + self.estimate).max(now + 1)
    }
}

/// Returns queue indices in scheduling-priority order.
///
/// * [`QueueOrder::Fcfs`] — by (arrival, id).
/// * [`QueueOrder::Fairshare`] — ascending decayed usage of the submitting
///   user, ties by (arrival, id). Deterministic for equal usage.
pub fn priority_order(
    queue: &[QueuedJob],
    order: QueueOrder,
    fairshare: &FairshareTracker,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..queue.len()).collect();
    match order {
        QueueOrder::Fcfs => {
            idx.sort_by_key(|&i| (queue[i].arrival, queue[i].id));
        }
        QueueOrder::Fairshare => {
            idx.sort_by(|&a, &b| {
                let ua = fairshare.usage(queue[a].user);
                let ub = fairshare.usage(queue[b].user);
                ua.total_cmp(&ub).then_with(|| {
                    (queue[a].arrival, queue[a].id).cmp(&(queue[b].arrival, queue[b].id))
                })
            });
        }
    }
    idx
}

/// Everything an observer sees at a job arrival: the instant snapshot the
/// hybrid fair-start-time metric is computed from.
pub struct ArrivalView<'a> {
    /// Simulated time of the arrival.
    pub now: Time,
    /// The arriving job (already appended to `queue`).
    pub job: &'a QueuedJob,
    /// Machine size.
    pub total_nodes: u32,
    /// Currently free nodes.
    pub free_nodes: u32,
    /// Running jobs with their *actual* scheduled ends.
    pub running: &'a [RunningJob],
    /// The queue in arrival order, including the arriving job.
    pub queue: &'a [QueuedJob],
    /// Actual runtimes of queued jobs (perfect-estimate information for the
    /// CONS_P-style FST convention; engines never see this map).
    pub runtimes: &'a HashMap<JobId, Time>,
    /// The fairshare tracker (read-only), for computing priority order.
    pub fairshare: &'a FairshareTracker,
    /// The queue order the scheduler under test uses.
    pub order: QueueOrder,
}

/// Event hooks for metrics. All methods default to no-ops, so an observer
/// implements only what it needs.
///
/// A run drives exactly one observer. Only metrics that need the
/// simulator's state mid-run (the hybrid fair start time reads the queue at
/// every arrival) are observers; a report that folds the finished
/// [`Schedule`] is a plain function of it, computed after the run.
pub trait Observer {
    /// A job (chunk) entered the queue.
    fn on_arrival(&mut self, _view: &ArrivalView<'_>) {}
    /// A job started running.
    fn on_start(&mut self, _id: JobId, _now: Time) {}
    /// A job completed or was killed.
    fn on_complete(&mut self, _id: JobId, _now: Time, _killed: bool) {}
    /// A submission's [`JobRecord`] was finalized (fires at the same
    /// instant as [`Observer::on_complete`], with the full record).
    fn on_record(&mut self, _record: &JobRecord) {}
    /// The run ended; the finished [`Schedule`] is about to be returned.
    /// Observers that need whole-run aggregates (machine size, goodput,
    /// integrals) capture them here instead of carrying the schedule around.
    fn on_finish(&mut self, _schedule: &Schedule) {}
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FairshareConfig;

    fn queued(id: u32, user: u32, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(user),
            nodes: 1,
            estimate: 100,
            arrival,
        }
    }

    fn tracker() -> FairshareTracker {
        FairshareTracker::new(FairshareConfig::default())
    }

    #[test]
    fn fcfs_orders_by_arrival_then_id() {
        let q = vec![queued(3, 1, 20), queued(1, 2, 10), queued(2, 3, 10)];
        let fs = tracker();
        let order = priority_order(&q, QueueOrder::Fcfs, &fs);
        let ids: Vec<u32> = order.iter().map(|&i| q[i].id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn fairshare_prefers_light_users() {
        let q = vec![queued(1, 1, 0), queued(2, 2, 5)];
        let mut fs = tracker();
        fs.charge(UserId(1), 10_000.0);
        // User 2 has no usage: its job jumps ahead despite arriving later.
        let order = priority_order(&q, QueueOrder::Fairshare, &fs);
        let ids: Vec<u32> = order.iter().map(|&i| q[i].id.0).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn fairshare_ties_fall_back_to_fcfs() {
        let q = vec![queued(2, 1, 10), queued(1, 2, 10), queued(3, 3, 5)];
        let fs = tracker(); // all usage zero
        let order = priority_order(&q, QueueOrder::Fairshare, &fs);
        let ids: Vec<u32> = order.iter().map(|&i| q[i].id.0).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn estimated_end_never_in_the_past() {
        let r = RunningJob {
            id: JobId(1),
            user: UserId(1),
            nodes: 4,
            start: 0,
            estimate: 100,
            scheduled_end: 500,
        };
        assert_eq!(r.estimated_end(50), 100);
        // Past the estimate: imminent, not historical.
        assert_eq!(r.estimated_end(100), 101);
        assert_eq!(r.estimated_end(400), 401);
    }
}
