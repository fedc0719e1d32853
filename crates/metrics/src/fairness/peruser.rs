//! Per-user fairness accounting.
//!
//! The fairshare priority and §5.2's heavy-user bar exist because fairness
//! on CPlant is ultimately *between users*, not jobs. This module folds a
//! schedule plus an FST report into per-user aggregates, so a policy can be
//! audited for the question the figures only answer indirectly: did heavy
//! users gain their advantage at the expense of light ones?

use crate::fairness::fst::FstReport;
use fairsched_sim::Schedule;
use fairsched_workload::job::UserId;
use std::collections::HashMap;

/// One user's aggregate treatment under a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserFairness {
    /// The user.
    pub user: UserId,
    /// Submissions scored.
    pub jobs: usize,
    /// Processor-seconds the user's jobs executed.
    pub proc_seconds: f64,
    /// Total seconds the user's jobs missed their fair starts.
    pub total_miss: f64,
    /// Count of the user's jobs that missed their fair starts.
    pub unfair_jobs: usize,
    /// Mean queue wait of the user's jobs, seconds.
    pub mean_wait: f64,
}

impl UserFairness {
    /// Mean miss over all the user's jobs, seconds.
    pub fn mean_miss(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_miss / self.jobs as f64
        }
    }

    /// Fraction of the user's jobs treated unfairly.
    pub fn percent_unfair(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.unfair_jobs as f64 / self.jobs as f64
        }
    }
}

/// Folds a schedule and its FST report into per-user aggregates, sorted by
/// descending processor-seconds (heaviest consumers first).
pub fn per_user(schedule: &Schedule, fairness: &FstReport) -> Vec<UserFairness> {
    let miss_by_id: HashMap<_, _> = fairness.entries.iter().map(|e| (e.id, e.miss())).collect();
    let mut acc: HashMap<UserId, UserFairness> = HashMap::new();
    for r in &schedule.records {
        let entry = acc.entry(r.user).or_insert(UserFairness {
            user: r.user,
            jobs: 0,
            proc_seconds: 0.0,
            total_miss: 0.0,
            unfair_jobs: 0,
            mean_wait: 0.0,
        });
        entry.jobs += 1;
        entry.proc_seconds += r.nodes as f64 * r.executed() as f64;
        entry.mean_wait += r.wait() as f64; // sum now, divide below
        if let Some(&miss) = miss_by_id.get(&r.id) {
            entry.total_miss += miss as f64;
            if miss > 0 {
                entry.unfair_jobs += 1;
            }
        }
    }
    let mut out: Vec<UserFairness> = acc
        .into_values()
        .map(|mut u| {
            if u.jobs > 0 {
                u.mean_wait /= u.jobs as f64;
            }
            u
        })
        .collect();
    out.sort_by(|a, b| {
        b.proc_seconds
            .total_cmp(&a.proc_seconds)
            .then(a.user.cmp(&b.user))
    });
    out
}

/// Splits users at a usage quantile and compares treatment: returns
/// `(heavy_mean_miss, light_mean_miss)` where "heavy" is the top
/// `heavy_fraction` of users by processor-seconds. The §5.2 question in one
/// number pair.
pub fn heavy_vs_light_miss(users: &[UserFairness], heavy_fraction: f64) -> (f64, f64) {
    assert!((0.0..=1.0).contains(&heavy_fraction));
    if users.is_empty() {
        return (0.0, 0.0);
    }
    // `users` is sorted heaviest-first.
    let heavy_n = ((users.len() as f64 * heavy_fraction).ceil() as usize).clamp(1, users.len());
    let mean = |slice: &[UserFairness]| -> f64 {
        let jobs: usize = slice.iter().map(|u| u.jobs).sum();
        if jobs == 0 {
            return 0.0;
        }
        slice.iter().map(|u| u.total_miss).sum::<f64>() / jobs as f64
    };
    (mean(&users[..heavy_n]), mean(&users[heavy_n..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::fst::FstEntry;
    use crate::fairness::hybrid::HybridFstObserver;
    use fairsched_sim::{simulate, SimConfig, SimOptions};
    use fairsched_sim::{JobRecord, Schedule};
    use fairsched_workload::job::GroupId;
    use fairsched_workload::job::JobId;
    use fairsched_workload::CplantModel;

    fn record(id: u32, user: u32, nodes: u32, submit: u64, start: u64, end: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            origin: JobId(id),
            chunk_index: 0,
            user: UserId(user),
            group: GroupId(1),
            nodes,
            submit,
            origin_submit: submit,
            start,
            end,
            estimate: end - start,
            killed: false,
            interrupted: false,
        }
    }

    fn schedule(records: Vec<JobRecord>) -> Schedule {
        Schedule {
            nodes: 10,
            records,
            waste_nodeseconds: 0.0,
            busy_nodeseconds: 0.0,
            down_nodeseconds: 0.0,
            lost_nodeseconds: 0.0,
            weekly_busy: vec![],
            min_start: 0,
            max_completion: 0,
            placement: None,
            queue_stats: Default::default(),
        }
    }

    #[test]
    fn aggregates_group_by_user() {
        let s = schedule(vec![
            record(1, 1, 2, 0, 0, 100),  // user 1: 200 proc-s
            record(2, 1, 2, 0, 50, 150), // user 1: 200 proc-s, wait 50
            record(3, 2, 8, 0, 10, 110), // user 2: 800 proc-s, wait 10
        ]);
        let fairness = FstReport::new(vec![
            FstEntry {
                id: JobId(1),
                nodes: 2,
                fst: 0,
                start: 0,
            }, // fair
            FstEntry {
                id: JobId(2),
                nodes: 2,
                fst: 20,
                start: 50,
            }, // miss 30
            FstEntry {
                id: JobId(3),
                nodes: 8,
                fst: 10,
                start: 10,
            }, // fair
        ]);
        let users = per_user(&s, &fairness);
        // Sorted by proc-seconds: user 2 first.
        assert_eq!(users[0].user, UserId(2));
        assert_eq!(users[0].jobs, 1);
        assert_eq!(users[0].unfair_jobs, 0);
        assert_eq!(users[1].user, UserId(1));
        assert_eq!(users[1].jobs, 2);
        assert_eq!(users[1].unfair_jobs, 1);
        assert!((users[1].total_miss - 30.0).abs() < 1e-12);
        assert!((users[1].mean_miss() - 15.0).abs() < 1e-12);
        assert!((users[1].mean_wait - 25.0).abs() < 1e-12);
        assert!((users[1].percent_unfair() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn heavy_vs_light_splits_at_the_quantile() {
        let s = schedule(vec![
            record(1, 1, 10, 0, 0, 1000), // heavy user: 10000 proc-s
            record(2, 2, 1, 0, 0, 100),   // light
            record(3, 3, 1, 0, 0, 100),   // light
            record(4, 4, 1, 0, 0, 100),   // light
        ]);
        let fairness = FstReport::new(vec![
            FstEntry {
                id: JobId(1),
                nodes: 10,
                fst: 0,
                start: 0,
            },
            FstEntry {
                id: JobId(2),
                nodes: 1,
                fst: 0,
                start: 40,
            },
            FstEntry {
                id: JobId(3),
                nodes: 1,
                fst: 0,
                start: 80,
            },
            FstEntry {
                id: JobId(4),
                nodes: 1,
                fst: 0,
                start: 0,
            },
        ]);
        let users = per_user(&s, &fairness);
        let (heavy, light) = heavy_vs_light_miss(&users, 0.25);
        assert_eq!(heavy, 0.0);
        assert!((light - 40.0).abs() < 1e-12); // (40+80+0)/3
    }

    #[test]
    fn empty_inputs_are_fine() {
        let s = schedule(vec![]);
        let users = per_user(&s, &FstReport::default());
        assert!(users.is_empty());
        assert_eq!(heavy_vs_light_miss(&users, 0.1), (0.0, 0.0));
    }

    #[test]
    fn end_to_end_on_a_simulated_schedule() {
        let trace = CplantModel::new(5).with_scale(0.03).generate();
        let cfg = SimConfig::default();
        let mut obs = HybridFstObserver::new();
        let s = simulate(&trace, &cfg, &mut obs, SimOptions::new()).unwrap();
        let fairness = obs.into_report();
        let users = per_user(&s, &fairness);
        // Every trace user with jobs appears exactly once.
        let distinct: std::collections::HashSet<_> = trace.iter().map(|j| j.user).collect();
        assert_eq!(users.len(), distinct.len());
        // Job counts add back up.
        let total: usize = users.iter().map(|u| u.jobs).sum();
        assert_eq!(total, trace.len());
        // Sorted heaviest first.
        for pair in users.windows(2) {
            assert!(pair[0].proc_seconds >= pair[1].proc_seconds);
        }
    }
}
