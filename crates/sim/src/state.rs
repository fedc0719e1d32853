//! Shared simulation state types: queued/running job views, priority
//! ordering (the one keyed sort every queue order uses), and the observer
//! interface metrics hook into.

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
///   user, ties by (arrival, id). Deterministic for equal usage. Each job's
///   usage is looked up once per call, through `order_by_key`.
pub fn priority_order(
    queue: &[QueuedJob],
    order: QueueOrder,
    fairshare: &FairshareTracker,
) -> Vec<usize> {
    match order {
        QueueOrder::Fcfs => {
            let mut idx: Vec<usize> = (0..queue.len()).collect();
            idx.sort_by_key(|&i| (queue[i].arrival, queue[i].id));
            idx
        }
        QueueOrder::Fairshare => order_by_key(queue, |j| fairshare.usage(j.user)),
    }
}

/// Queue indices in ascending `key` order (by [`f64::total_cmp`]), ties by
/// (arrival, id). The one sort behind every keyed queue order: the
/// fairshare priority and the size-based strategies.
///
/// `key` runs exactly once per job, so a key that costs hash lookups is
/// paid `n` times per pass instead of on both sides of every comparison.
/// Job ids are unique in the queue, so `(key, arrival, id)` is a strict
/// total order and the unstable sort returns the order a stable comparator
/// sort would.
pub(crate) fn order_by_key(queue: &[QueuedJob], key: impl Fn(&QueuedJob) -> f64) -> Vec<usize> {
    let mut keyed: Vec<(f64, Time, JobId, usize)> = queue
        .iter()
        .enumerate()
        .map(|(i, j)| (key(j), j.arrival, j.id, i))
        .collect();
    keyed.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    keyed.into_iter().map(|(.., i)| i).collect()
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
    use proptest::prelude::*;

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

    /// The per-comparison comparator sort `order_by_key` replaced: the key
    /// is recomputed on both sides of every comparison.
    fn comparator_order(queue: &[QueuedJob], key: impl Fn(&QueuedJob) -> f64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..queue.len()).collect();
        idx.sort_by(|&a, &b| {
            let (ja, jb) = (&queue[a], &queue[b]);
            key(ja)
                .total_cmp(&key(jb))
                .then_with(|| (ja.arrival, ja.id).cmp(&(jb.arrival, jb.id)))
        });
        idx
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn keyed_sort_matches_the_comparator_sort(
            jobs in prop::collection::vec(
                (
                    prop::sample::select(vec![-0.0f64, 0.0, 1.0, 2.5, -3.0, 1e16]),
                    0u64..4,
                ),
                0..40,
            ),
        ) {
            // Few keys and few arrivals, so ties on both are common; the
            // key table includes -0.0 and 0.0, which `total_cmp` separates.
            // Job i belongs to user i, whose key is `jobs[i].0`; ids run
            // against queue position so the id tie-break is exercised.
            let queue: Vec<QueuedJob> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(_, arrival))| queued(jobs.len() as u32 - i as u32, i as u32, arrival))
                .collect();
            let key = |j: &QueuedJob| jobs[j.user.0 as usize].0;
            prop_assert_eq!(order_by_key(&queue, key), comparator_order(&queue, key));
        }
    }

    #[test]
    fn keyed_sort_computes_each_key_once() {
        let q = vec![queued(1, 1, 0), queued(2, 2, 5), queued(3, 1, 7)];
        let calls = std::cell::Cell::new(0);
        let order = order_by_key(&q, |j| {
            calls.set(calls.get() + 1);
            j.user.0 as f64
        });
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(calls.get(), q.len());
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
