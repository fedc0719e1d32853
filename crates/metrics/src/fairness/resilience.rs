//! Fairness under failure: splitting an FST report by crash exposure.
//!
//! The fault layer (sim's `faults` module) interrupts jobs with node
//! failures and crashes. A natural robustness question the paper never had
//! to ask: *are interrupted jobs treated as fairly as clean ones?* Under
//! `RequeueFromScratch` an interrupted job loses work but its fairshare
//! usage stays charged, so fairshare-priority policies push it down the
//! queue exactly when it needs to rerun — a double penalty this report
//! makes visible.
//!
//! [`ResilienceReport::split`] partitions any [`FstReport`] into the
//! entries whose *original* job was interrupted at least once and those
//! that ran clean, using the schedule's per-submission records as ground
//! truth. Both halves expose the usual aggregates (percent unfair, average
//! miss), and the summary carries the schedule-level goodput so one row
//! describes a (policy, fault level) cell of a sensitivity sweep.

use std::collections::HashSet;

use fairsched_sim::Schedule;
use fairsched_workload::job::JobId;

use super::fst::FstReport;

/// An [`FstReport`] partitioned by whether the scored job's origin was
/// ever interrupted by a fault.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Entries whose original job had at least one interrupted submission.
    pub interrupted: FstReport,
    /// Entries whose original job ran to completion without interruption.
    pub clean: FstReport,
    /// Useful work over total capacity for the whole schedule — work that
    /// was executed and then lost to `RequeueFromScratch` does not count.
    pub goodput: f64,
}

impl ResilienceReport {
    /// Splits `report` using `schedule`'s records as ground truth.
    ///
    /// Classification is per *origin*: a report scoring chunked
    /// submissions individually puts every chunk of an interrupted job in
    /// the interrupted half, because all of them competed for service
    /// while the job carried its failure history. Entries whose id does
    /// not appear in the schedule (none, for reports built from the same
    /// run) are treated as clean.
    pub fn split(report: &FstReport, schedule: &Schedule) -> Self {
        let records = &schedule.records;
        let interrupted_origins: HashSet<JobId> = records
            .iter()
            .filter(|r| r.interrupted)
            .map(|r| r.origin)
            .collect();
        let origin_of = |id: JobId| records.iter().find(|r| r.id == id).map_or(id, |r| r.origin);
        let interrupted = report.filtered(|e| interrupted_origins.contains(&origin_of(e.id)));
        let clean = report.filtered(|e| !interrupted_origins.contains(&origin_of(e.id)));
        ResilienceReport {
            interrupted,
            clean,
            goodput: schedule.goodput(),
        }
    }

    /// Number of scored entries in the interrupted half.
    pub fn interrupted_count(&self) -> usize {
        self.interrupted.entries.len()
    }

    /// Number of scored entries in the clean half.
    pub fn clean_count(&self) -> usize {
        self.clean.entries.len()
    }

    /// Extra average miss time an interrupted job suffers over a clean one
    /// (seconds; negative when interrupted jobs are actually served
    /// better, e.g. under requeue-boosting policies).
    pub fn interruption_penalty(&self) -> f64 {
        self.interrupted.average_miss_time() - self.clean.average_miss_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_sim::JobRecord;
    use fairsched_workload::job::{GroupId, UserId};

    use crate::fairness::fst::FstEntry;

    fn record(id: u32, origin: u32, interrupted: bool) -> JobRecord {
        JobRecord {
            id: JobId(id),
            origin: JobId(origin),
            chunk_index: 0,
            user: UserId(1),
            group: GroupId(1),
            nodes: 1,
            submit: 0,
            origin_submit: 0,
            start: 0,
            end: 100,
            estimate: 100,
            killed: false,
            interrupted,
        }
    }

    fn schedule(records: Vec<JobRecord>) -> Schedule {
        Schedule {
            nodes: 10,
            records,
            waste_nodeseconds: 0.0,
            busy_nodeseconds: 500.0,
            down_nodeseconds: 0.0,
            lost_nodeseconds: 200.0,
            weekly_busy: vec![],
            min_start: 0,
            max_completion: 100,
            placement: None,
            queue_stats: Default::default(),
        }
    }

    fn entry(id: u32, fst: u64, start: u64) -> FstEntry {
        FstEntry {
            id: JobId(id),
            nodes: 1,
            fst,
            start,
        }
    }

    #[test]
    fn split_follows_origin_not_submission() {
        // Job 1 has two chunks (ids 1 and 10); chunk 10 crashed. Job 2 is
        // clean. Both chunks of job 1 land in the interrupted half.
        let s = schedule(vec![
            record(1, 1, false),
            record(10, 1, true),
            record(2, 2, false),
        ]);
        let r = FstReport::new(vec![
            entry(1, 100, 150),
            entry(10, 100, 400),
            entry(2, 100, 100),
        ]);
        let split = ResilienceReport::split(&r, &s);
        assert_eq!(split.interrupted_count(), 2);
        assert_eq!(split.clean_count(), 1);
        assert!((split.interrupted.average_miss_time() - 175.0).abs() < 1e-12);
        assert_eq!(split.clean.average_miss_time(), 0.0);
        assert!(split.interruption_penalty() > 0.0);
        // goodput = (busy - lost) / (makespan * nodes) = 300 / 1000
        assert!((split.goodput - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fault_free_schedule_puts_everything_in_clean() {
        let s = schedule(vec![record(1, 1, false), record(2, 2, false)]);
        let r = FstReport::new(vec![entry(1, 0, 10), entry(2, 0, 0)]);
        let split = ResilienceReport::split(&r, &s);
        assert_eq!(split.interrupted_count(), 0);
        assert_eq!(split.clean_count(), 2);
        assert_eq!(split.interrupted.percent_unfair(), 0.0);
        assert!((split.clean.percent_unfair() - 0.5).abs() < 1e-12);
    }
}
