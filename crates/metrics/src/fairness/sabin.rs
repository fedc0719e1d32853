//! Sabin & Sadayappan's scheduler-dependent fair start time (§4).
//!
//! For each job `j`, re-run the *scheduler under test* on the trace with
//! every job arriving after `j` deleted; `j`'s start in that counterfactual
//! run is its FST. This measures exactly "was `j` affected by a later
//! arrival?", allowing benign backfilling, but each schedule defines its own
//! FSTs, so numbers are not comparable across policies — the drawback the
//! hybrid metric trades against.
//!
//! Cost: one full simulation per scored job (`O(n)` simulations of `O(n)`
//! events) when computed naively. [`sabin_fsts_parallel`] collapses that two
//! ways at once: for configurations
//! [`fairsched_sim::warm_start_supported`] certifies, ONE master
//! [`PrefixSimulator`] advances serially and is forked at each chunk
//! boundary, with forks shipped to a scoped worker pool (no worker replays
//! the prefix from scratch); ineligible configurations stripe from-scratch
//! prefix queries over the same pool. Both paths produce FSTs identical to
//! the serial [`sabin_fsts`].

use crate::fairness::fst::{FstEntry, FstReport};
use fairsched_sim::prefix::PrefixSimulator;
use fairsched_sim::{
    simulate, warm_start_supported, NullObserver, Schedule, SimConfig, SimOptions,
};
use fairsched_workload::job::{Job, JobId};
use fairsched_workload::time::Time;
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Mutex, PoisonError};

/// Computes the scheduler-dependent FST for every job: its start when the
/// trace is truncated right after its own arrival.
pub fn sabin_fsts(trace: &[Job], cfg: &SimConfig) -> HashMap<JobId, Time> {
    trace
        .iter()
        .map(|target| {
            // Jobs arriving strictly after `target` are deleted; simultaneous
            // arrivals with smaller id are "earlier" per the trace order.
            let prefix: Vec<Job> = trace
                .iter()
                .filter(|j| (j.submit, j.id) <= (target.submit, target.id))
                .cloned()
                .collect();
            let schedule = simulate(&prefix, cfg, &mut NullObserver, SimOptions::new())
                .unwrap_or_else(|e| panic!("prefix simulation failed: {e}"));
            let start = schedule
                .records
                .iter()
                .find(|r| r.id == target.id)
                .map(|r| r.start)
                .expect("target job is in its own prefix");
            (target.id, start)
        })
        .collect()
}

/// [`sabin_fsts`] fanned across `threads` workers (defaulting to the
/// machine's available parallelism), each owning a contiguous stripe of
/// prefix targets.
///
/// When the configuration is [`warm_start_supported`], each worker keeps a
/// warm [`PrefixSimulator`]: admitting one arrival advances a shared master
/// state instead of replaying the whole prefix, so the stripe costs one
/// incremental pass plus one early-exiting clone per target; stateful
/// ledgers (static conservative) ride along by forking the master engine.
/// Ineligible configurations (dynamic conservative, faults, runtime limits)
/// fall back to from-scratch prefix simulations — still striped, still
/// exact. Results are identical to [`sabin_fsts`] in every case (and
/// independent of the thread count).
pub fn sabin_fsts_parallel(
    trace: &[Job],
    cfg: &SimConfig,
    threads: Option<usize>,
) -> HashMap<JobId, Time> {
    let targets: HashSet<JobId> = trace.iter().map(|j| j.id).collect();
    sabin_fsts_parallel_for(trace, cfg, &targets, threads)
}

/// [`sabin_fsts_parallel`] restricted to every `stride`-th job in trace
/// order (a deterministic 1-in-stride systematic sample); each sampled
/// job's FST equals its [`sabin_fsts`] entry.
pub fn sabin_fsts_parallel_sampled(
    trace: &[Job],
    cfg: &SimConfig,
    stride: usize,
    threads: Option<usize>,
) -> HashMap<JobId, Time> {
    assert!(stride >= 1);
    let targets: HashSet<JobId> = trace.iter().step_by(stride).map(|j| j.id).collect();
    sabin_fsts_parallel_for(trace, cfg, &targets, threads)
}

fn sabin_fsts_parallel_for(
    trace: &[Job],
    cfg: &SimConfig,
    targets: &HashSet<JobId>,
    threads: Option<usize>,
) -> HashMap<JobId, Time> {
    let mut ordered: Vec<&Job> = trace.iter().collect();
    ordered.sort_by_key(|j| (j.submit, j.id));
    let n = ordered.len();
    if n == 0 || targets.is_empty() {
        return HashMap::new();
    }
    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n);

    // Warm-start-eligible multi-worker runs take the fork pipeline: the
    // naive striping below would have every worker rebuild its own prefix
    // from scratch — O(workers · events) of pure replay, which is why
    // BENCH_5 showed the "parallel" path losing to one thread.
    if workers > 1 && warm_start_supported(cfg) {
        return warm_forked_fsts(cfg, &ordered, targets, workers)
            .into_iter()
            .collect();
    }

    // Contiguous stripes of the (submit, id)-sorted prefix order: worker w
    // owns ordered[lo..hi]. Stripes are independent pure functions of the
    // shared immutable trace, so scoped borrows suffice — same fencing
    // pattern as the policy sweep, with worker panics re-raised after every
    // stripe has been joined (no stripe is silently dropped).
    let stripe_results: Vec<std::thread::Result<Vec<(JobId, Time)>>> =
        std::thread::scope(|scope| {
            let ordered = &ordered;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * n / workers;
                    let hi = (w + 1) * n / workers;
                    scope.spawn(move || stripe_fsts(cfg, ordered, targets, lo, hi))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
    stripe_results
        .into_iter()
        .flat_map(|r| match r {
            Ok(pairs) => pairs,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// The warm-start fan-out: ONE master [`PrefixSimulator`] advances serially
/// on this thread; right after each target is admitted the master is forked
/// and the fork shipped to a worker, which runs only the scratch query
/// ([`PrefixSimulator::resolve_start`]) — the dominant cost, since every
/// target pays one partial re-simulation but the advance happens once.
/// Total simulator work equals the serial warm path exactly (the old
/// striping paid a from-scratch prefix replay per stripe on top); the
/// queries fan out across workers. FSTs are identical to the serial path: a
/// fork taken right after admission is byte-for-byte the scratch state
/// [`PrefixSimulator::start_of`] clones.
fn warm_forked_fsts(
    cfg: &SimConfig,
    ordered: &[&Job],
    targets: &HashSet<JobId>,
    workers: usize,
) -> Vec<(JobId, Time)> {
    // Bounded queue: forks are whole simulator states, so backpressure
    // keeps at most ~3 per worker alive (queued + in flight) when the
    // master outpaces the query workers.
    let (tx, rx) = mpsc::sync_channel::<(PrefixSimulator<'_>, JobId, Time)>(2 * workers);
    let rx = Mutex::new(rx);
    let results: Vec<std::thread::Result<Vec<(JobId, Time)>>> = std::thread::scope(|scope| {
        let rx = &rx;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Hold the lock only for the recv: queries are
                        // claimed first-come rather than pre-assigned, so
                        // one slow query does not idle the other workers.
                        let msg = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok((fork, id, submit)) = msg else {
                            return out;
                        };
                        let start = fork
                            .resolve_start(id, submit)
                            .unwrap_or_else(|e| panic!("prefix simulation failed: {e}"));
                        out.push((id, start));
                    }
                })
            })
            .collect();
        let mut master = PrefixSimulator::new(cfg).expect("eligibility checked by caller");
        for job in ordered {
            master.admit(job).expect("jobs admitted in sorted order");
            if targets.contains(&job.id) {
                fairsched_obs::counters::record_warm_start(true);
                // A send only fails if every worker is gone (panicked); the
                // join below re-raises whatever killed them.
                let _ = tx.send((master.fork(), job.id, job.submit));
            }
        }
        drop(tx);
        handles.into_iter().map(|h| h.join()).collect()
    });
    results
        .into_iter()
        .flat_map(|r| match r {
            Ok(pairs) => pairs,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// FSTs of the targets within `ordered[lo..hi]`, where `ordered` is the
/// whole trace sorted by `(submit, id)`.
fn stripe_fsts(
    cfg: &SimConfig,
    ordered: &[&Job],
    targets: &HashSet<JobId>,
    lo: usize,
    hi: usize,
) -> Vec<(JobId, Time)> {
    if !ordered[lo..hi].iter().any(|j| targets.contains(&j.id)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    if warm_start_supported(cfg) {
        let mut prefix = PrefixSimulator::new(cfg).expect("eligibility just checked");
        for job in &ordered[..lo] {
            prefix.admit(job).expect("jobs admitted in sorted order");
        }
        for job in &ordered[lo..hi] {
            if targets.contains(&job.id) {
                let start = prefix
                    .start_of(job)
                    .unwrap_or_else(|e| panic!("prefix simulation failed: {e}"));
                out.push((job.id, start));
            } else {
                prefix.admit(job).expect("jobs admitted in sorted order");
            }
        }
    } else {
        // Stateful or faulted configuration: every prefix run must replay
        // its own history so engine-internal state matches the serial
        // definition exactly.
        for (i, job) in ordered.iter().enumerate().take(hi).skip(lo) {
            if !targets.contains(&job.id) {
                continue;
            }
            fairsched_obs::counters::record_warm_start(false);
            let prefix: Vec<Job> = ordered[..=i].iter().map(|j| (*j).clone()).collect();
            let schedule = simulate(&prefix, cfg, &mut NullObserver, SimOptions::new())
                .unwrap_or_else(|e| panic!("prefix simulation failed: {e}"));
            let start = schedule
                .records
                .iter()
                .find(|r| r.id == job.id)
                .map(|r| r.start)
                .expect("target job is in its own prefix");
            out.push((job.id, start));
        }
    }
    out
}

/// Scores a schedule against scheduler-dependent FSTs (jobs missing from
/// `fsts` — e.g. outside the sample — are skipped).
pub fn sabin_report(schedule: &Schedule, fsts: &HashMap<JobId, Time>) -> FstReport {
    let entries = schedule
        .records
        .iter()
        .filter_map(|r| {
            fsts.get(&r.id).map(|&fst| FstEntry {
                id: r.id,
                nodes: r.nodes,
                fst,
                start: r.start,
            })
        })
        .collect();
    FstReport::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_sim::{EngineKind, KillPolicy};
    use fairsched_workload::synthetic::random_trace;

    fn cfg() -> SimConfig {
        SimConfig {
            nodes: 16,
            engine: EngineKind::NoGuarantee,
            kill: KillPolicy::Never,
            ..Default::default()
        }
    }

    fn job(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time, estimate: Time) -> Job {
        Job::new(id, user, 1, submit, nodes, runtime, estimate)
    }

    #[test]
    fn last_job_fst_equals_its_actual_start() {
        // The final arrival's counterfactual run IS the real run.
        let trace = random_trace(7, 60, 16, 3000);
        let fsts = sabin_fsts(&trace, &cfg());
        let schedule = simulate(&trace, &cfg(), &mut NullObserver, SimOptions::new()).unwrap();
        let last = trace.iter().max_by_key(|j| (j.submit, j.id)).unwrap();
        let actual = schedule
            .records
            .iter()
            .find(|r| r.id == last.id)
            .unwrap()
            .start;
        assert_eq!(fsts[&last.id], actual);
    }

    #[test]
    fn detects_displacement_by_a_later_arrival() {
        // Machine busy till 1000. Job 2 (heavy user) queued; job 3 (idle
        // user) arrives later and jumps ahead in fairshare order, pushing
        // job 2 back. Sabin FST of job 2 (computed without job 3) is 1000;
        // actual start is 2000 → miss.
        let trace = [
            job(1, 1, 0, 16, 1000, 1000),
            job(2, 1, 10, 16, 1000, 1000),
            job(3, 2, 20, 16, 1000, 1000),
        ];
        let fsts = sabin_fsts(&trace, &cfg());
        let schedule = simulate(&trace, &cfg(), &mut NullObserver, SimOptions::new()).unwrap();
        let report = sabin_report(&schedule, &fsts);
        let e2 = report.entries.iter().find(|e| e.id == JobId(2)).unwrap();
        assert_eq!(e2.fst, 1000);
        assert_eq!(e2.start, 2000);
        assert_eq!(e2.miss(), 1000);
        // Job 3 itself is fair (it started exactly when its prefix run says).
        let e3 = report.entries.iter().find(|e| e.id == JobId(3)).unwrap();
        assert!(!e3.unfair());
    }

    #[test]
    fn benign_backfilling_is_not_punished() {
        // A narrow later job that backfills without delaying anyone: every
        // job starts exactly at its prefix-run start.
        let trace = [
            job(1, 1, 0, 12, 1000, 1000),
            job(2, 2, 5, 16, 500, 500),
            job(3, 3, 10, 4, 100, 100), // fits beside job 1
        ];
        let fsts = sabin_fsts(&trace, &cfg());
        let schedule = simulate(&trace, &cfg(), &mut NullObserver, SimOptions::new()).unwrap();
        let report = sabin_report(&schedule, &fsts);
        assert_eq!(report.percent_unfair(), 0.0);
        let e3 = report.entries.iter().find(|e| e.id == JobId(3)).unwrap();
        assert_eq!(e3.start, 10);
    }

    /// The `stride`-sampled subset of the full serial FSTs.
    fn sampled(trace: &[Job], fsts: &HashMap<JobId, Time>, stride: usize) -> HashMap<JobId, Time> {
        trace
            .iter()
            .step_by(stride)
            .map(|j| (j.id, fsts[&j.id]))
            .collect()
    }

    #[test]
    fn sampling_scores_a_subset() {
        let trace = random_trace(15, 40, 16, 3000);
        let fsts = sampled(&trace, &sabin_fsts(&trace, &cfg()), 4);
        assert_eq!(fsts.len(), trace.len().div_ceil(4));
        let schedule = simulate(&trace, &cfg(), &mut NullObserver, SimOptions::new()).unwrap();
        let report = sabin_report(&schedule, &fsts);
        assert_eq!(report.entries.len(), fsts.len());
    }

    #[test]
    fn parallel_warm_start_matches_serial_exactly() {
        // Warm-start-eligible config: same FSTs and the same FstReport from
        // the parallel engine as from serial from-scratch, for several
        // thread counts (including stripes smaller than the trace).
        let trace = random_trace(3, 90, 16, 4000);
        let c = cfg();
        assert!(warm_start_supported(&c));
        let serial = sabin_fsts(&trace, &c);
        let schedule = simulate(&trace, &c, &mut NullObserver, SimOptions::new()).unwrap();
        let serial_report = sabin_report(&schedule, &serial);
        for threads in [Some(1), Some(3), Some(7), None] {
            let parallel = sabin_fsts_parallel(&trace, &c, threads);
            assert_eq!(parallel, serial, "threads={threads:?}");
            assert_eq!(sabin_report(&schedule, &parallel), serial_report);
        }
    }

    #[test]
    fn parallel_fallback_matches_serial_for_dynamic_conservative() {
        // Dynamic conservative is not warm-start eligible; the parallel
        // path must fall back to from-scratch prefixes and still agree.
        let trace = random_trace(19, 50, 16, 3000);
        let c = SimConfig {
            nodes: 16,
            engine: EngineKind::Conservative { dynamic: true },
            kill: KillPolicy::Never,
            ..Default::default()
        };
        assert!(!warm_start_supported(&c));
        let serial = sabin_fsts(&trace, &c);
        let parallel = sabin_fsts_parallel(&trace, &c, Some(4));
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_warm_start_matches_serial_for_static_conservative() {
        // Static conservative is warm-start eligible since the ledger forks:
        // the parallel engine takes the warm path and must still reproduce
        // the serial from-scratch FSTs exactly.
        let trace = random_trace(31, 50, 16, 3000);
        let c = SimConfig {
            nodes: 16,
            engine: EngineKind::Conservative { dynamic: false },
            kill: KillPolicy::Never,
            ..Default::default()
        };
        assert!(warm_start_supported(&c));
        let serial = sabin_fsts(&trace, &c);
        for threads in [Some(1), Some(4)] {
            let parallel = sabin_fsts_parallel(&trace, &c, threads);
            assert_eq!(parallel, serial, "threads={threads:?}");
        }
    }

    #[test]
    fn parallel_sampled_matches_serial_sampled() {
        // The warm-start paths that fork a stateful ledger (static
        // conservative) or a stateful order (FSP) take the same sample.
        let trace = random_trace(27, 70, 16, 4000);
        for engine in [
            EngineKind::NoGuarantee,
            EngineKind::Conservative { dynamic: false },
            EngineKind::Fsp,
        ] {
            let c = SimConfig { engine, ..cfg() };
            assert!(warm_start_supported(&c), "{engine:?}");
            let serial = sampled(&trace, &sabin_fsts(&trace, &c), 5);
            for threads in [Some(1), Some(3), Some(4), None] {
                let parallel = sabin_fsts_parallel_sampled(&trace, &c, 5, threads);
                assert_eq!(parallel, serial, "{engine:?} threads={threads:?}");
            }
        }
    }

    #[test]
    fn parallel_empty_trace_is_empty() {
        assert!(sabin_fsts_parallel(&[], &cfg(), None).is_empty());
    }
}
