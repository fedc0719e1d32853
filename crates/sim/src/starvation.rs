//! The starvation queue (§2.1) and the heavy-user entrance bar (§5.2).
//!
//! Under no-guarantee backfilling, wide jobs starve: narrower, lower-priority
//! jobs always slip in first. CPlant's answer was a secondary FCFS queue:
//! after waiting `entry_delay`, a job becomes starvation-eligible, and the
//! *head* of that queue receives an aggressive-backfilling reservation that
//! guarantees progress.
//!
//! §5.2's fairness fix bars "heavy" users — those whose decayed fairshare
//! usage is far above the active-user mean — from the starvation queue, so
//! the guarantee cannot be monopolized by the very users the fairshare
//! priority is trying to throttle.

use crate::config::{HeavyUserRule, StarvationConfig};
use crate::fairshare::FairshareTracker;
use crate::state::{QueuedJob, RunningJob};
use fairsched_workload::job::UserId;
use fairsched_workload::time::Time;
use std::collections::HashSet;

/// Users currently classified heavy: decayed usage strictly above
/// `mean_multiple ×` the mean over *active* users (those with queued or
/// running work). With no active users, nobody is heavy.
pub fn heavy_users(
    queue: &[QueuedJob],
    running: &[RunningJob],
    fairshare: &FairshareTracker,
    rule: HeavyUserRule,
) -> HashSet<UserId> {
    // Ascending `UserId` order: the mean is a float sum, and summing in
    // `HashSet` order would make a user at the cutoff heavy in one process
    // and not in another.
    let mut active: Vec<UserId> = queue
        .iter()
        .map(|q| q.user)
        .chain(running.iter().map(|r| r.user))
        .collect();
    active.sort_unstable();
    active.dedup();
    let mean = fairshare.mean_usage(active.iter());
    if mean <= 0.0 {
        return HashSet::new();
    }
    let cutoff = rule.mean_multiple * mean;
    active
        .into_iter()
        .filter(|u| fairshare.usage(*u) > cutoff)
        .collect()
}

/// Indices of starvation-eligible queued jobs in FCFS order: waited at least
/// `entry_delay`, and (when a heavy rule is active) not owned by a heavy
/// user. The first index is the starvation-queue head that receives the
/// aggressive reservation.
pub fn starving_jobs(
    queue: &[QueuedJob],
    now: Time,
    config: &StarvationConfig,
    fairshare: &FairshareTracker,
    running: &[RunningJob],
) -> Vec<usize> {
    let barred: HashSet<UserId> = match config.heavy_rule {
        Some(rule) => heavy_users(queue, running, fairshare, rule),
        None => HashSet::new(),
    };
    let mut idx: Vec<usize> = queue
        .iter()
        .enumerate()
        .filter(|(_, q)| now.saturating_sub(q.arrival) >= config.entry_delay)
        .filter(|(_, q)| !barred.contains(&q.user))
        .map(|(i, _)| i)
        .collect();
    idx.sort_by_key(|&i| (queue[i].arrival, queue[i].id));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FairshareConfig;
    use fairsched_workload::job::JobId;
    use fairsched_workload::time::HOUR;

    fn queued(id: u32, user: u32, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(user),
            nodes: 8,
            estimate: 100,
            arrival,
        }
    }

    fn tracker() -> FairshareTracker {
        FairshareTracker::new(FairshareConfig::default())
    }

    fn config(delay: Time, rule: Option<HeavyUserRule>) -> StarvationConfig {
        StarvationConfig {
            entry_delay: delay,
            heavy_rule: rule,
        }
    }

    #[test]
    fn jobs_become_eligible_after_the_entry_delay() {
        let q = vec![queued(1, 1, 0), queued(2, 1, 10 * HOUR)];
        let fs = tracker();
        let cfg = config(24 * HOUR, None);
        // At t = 24h only the first job has waited long enough.
        let s = starving_jobs(&q, 24 * HOUR, &cfg, &fs, &[]);
        assert_eq!(s, vec![0]);
        // At t = 34h both are eligible, FCFS order.
        let s = starving_jobs(&q, 34 * HOUR, &cfg, &fs, &[]);
        assert_eq!(s, vec![0, 1]);
        // Before the delay nobody is.
        let s = starving_jobs(&q, HOUR, &cfg, &fs, &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn starving_order_is_fcfs_not_fairshare() {
        // User 2 has huge usage (lowest fairshare priority) but arrived
        // first: the starvation queue ranks by arrival.
        let q = vec![queued(1, 2, 0), queued(2, 1, 5)];
        let mut fs = tracker();
        fs.charge(UserId(2), 1e9);
        let cfg = config(0, None);
        let s = starving_jobs(&q, 100, &cfg, &fs, &[]);
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn heavy_users_are_those_far_above_the_active_mean() {
        let q = vec![queued(1, 1, 0), queued(2, 2, 0), queued(3, 3, 0)];
        let mut fs = tracker();
        fs.charge(UserId(1), 100.0);
        fs.charge(UserId(2), 100.0);
        fs.charge(UserId(3), 10_000.0);
        // mean = 3400, cutoff at 2× = 6800: only user 3 is heavy.
        let heavy = heavy_users(&q, &[], &fs, HeavyUserRule { mean_multiple: 2.0 });
        assert_eq!(heavy, HashSet::from([UserId(3)]));
    }

    #[test]
    fn no_usage_means_no_heavy_users() {
        let q = vec![queued(1, 1, 0)];
        let fs = tracker();
        let heavy = heavy_users(&q, &[], &fs, HeavyUserRule::default());
        assert!(heavy.is_empty());
    }

    #[test]
    fn heavy_users_do_not_depend_on_hash_order() {
        // Summed as 1e16 + 1 + 1 the two 1s round away, the mean is 1e16/3,
        // and user 1 sits just above a (3 - 4ε)× cutoff. Summed as
        // 1 + 1 + 1e16 they survive, the mean rises, and user 1 falls just
        // below it. The sum runs in ascending `UserId` order, so user 1 is
        // heavy on every call, whatever each fresh `RandomState` hashes to.
        let q = vec![queued(1, 1, 0), queued(2, 2, 0), queued(3, 3, 0)];
        let mut fs = tracker();
        fs.charge(UserId(1), 1e16);
        fs.charge(UserId(2), 1.0);
        fs.charge(UserId(3), 1.0);
        let rule = HeavyUserRule {
            mean_multiple: 3.0 - 4.0 * f64::EPSILON,
        };
        for _ in 0..64 {
            assert_eq!(heavy_users(&q, &[], &fs, rule), HashSet::from([UserId(1)]));
        }
    }

    #[test]
    fn heavy_rule_bars_entry_to_the_starvation_queue() {
        let q = vec![queued(1, 3, 0), queued(2, 1, 5)];
        let mut fs = tracker();
        fs.charge(UserId(3), 10_000.0);
        fs.charge(UserId(1), 10.0);
        let cfg = config(0, Some(HeavyUserRule { mean_multiple: 1.5 }));
        // User 3 (usage 10000 vs mean 5005) is heavy: its job, although
        // first-arrived, is barred; user 1's job heads the starvation queue.
        let s = starving_jobs(&q, 100, &cfg, &fs, &[]);
        assert_eq!(s, vec![1]);
    }

    #[test]
    fn running_jobs_count_toward_the_active_mean() {
        // A single queued light user plus a heavy user who is only running:
        // the runner's usage raises the mean and marks it heavy.
        let q = vec![queued(1, 1, 0)];
        let running = [RunningJob {
            id: JobId(9),
            user: UserId(2),
            nodes: 4,
            start: 0,
            estimate: 100,
            scheduled_end: 100,
        }];
        let mut fs = tracker();
        fs.charge(UserId(2), 10_000.0);
        let heavy = heavy_users(&q, &running, &fs, HeavyUserRule { mean_multiple: 1.5 });
        assert_eq!(heavy, HashSet::from([UserId(2)]));
    }
}
