//! Warm-start prefix simulation for scheduler-dependent fair start times.
//!
//! The Sabin FST (§4) asks, for each job `j`: when would `j` have started
//! had no later job ever arrived? Answering it from scratch costs one full
//! simulation per job — O(N²) simulator work. This module exploits how
//! consecutive prefixes relate: the prefix for job `k+1` is the prefix for
//! job `k` plus one arrival, and *everything that happens strictly before
//! `k+1`'s submit time is identical in both runs*. A [`PrefixSimulator`]
//! therefore keeps one incrementally-advanced master state, and each query
//! clones it, injects the target, and runs the clone only until the target
//! starts (the FST needs nothing past that instant).
//!
//! Correctness rests on three properties, each gated explicitly:
//!
//! * **Event determinism.** The event queue orders by `(time, kind, job)`,
//!   never by insertion order, so admitting arrivals late (as the master
//!   does) pops the exact event sequence a from-scratch run would.
//! * **Engine determinism.** The engine kept across prefix boundaries is
//!   advanced in lockstep with the master state, and each query continues
//!   from an exact clone ([`Engine`]'s `Clone`) of it. Because every
//!   engine mutation flows through `Sim::step_bounded` (admission alone
//!   touches no engine callback), the forked engine's state — including the
//!   static conservative ledger's reservations — is precisely what a
//!   from-scratch run of the same prefix would have built. The *dynamic*
//!   conservative engine (§5.4) remains ineligible: it discards and
//!   rebuilds every reservation at every event, so forking its ledger
//!   buys nothing over the from-scratch fallback it already equals —
//!   [`warm_start_supported`] returns `false` and callers fall back to
//!   from-scratch prefix simulation.
//! * **Closed id space.** Runtime-limit chains and fault resubmissions mint
//!   fresh job ids from `max(trace id) + 1`, which depends on the whole
//!   prefix; both features are gated out so ids never diverge.

use crate::config::{EngineKind, SimConfig};
use crate::engine::Engine;
use crate::simulator::{validate_config, CancelToken, Sim, SimError};
use crate::state::NullObserver;
use fairsched_workload::job::{Job, JobId};
use fairsched_workload::time::Time;

/// Explicit fork-exactness classification of every engine kind. The match
/// is exhaustive *without* a wildcard arm on purpose: adding an
/// [`EngineKind`] variant without deciding its warm-start class is a
/// compile error here, not a silent from-scratch fallback (or worse, a
/// wrong warm start). `tests/single_pass.rs` proves warm ≡ cold over
/// [`EngineKind::representatives`] for every kind classified `true`.
///
/// The size-based orders (FSP/LAS/HFSP) qualify: their state is a pure
/// function of the hook-call sequence driven by `Sim::step_bounded`
/// (admission touches no engine callback), so a clone of the [`Engine`]
/// replays the same float operations a from-scratch prefix run would.
pub fn warm_start_forkable(kind: EngineKind) -> bool {
    match kind {
        EngineKind::NoGuarantee
        | EngineKind::Easy
        | EngineKind::FcfsNoBackfill
        | EngineKind::ReservationDepth(_)
        | EngineKind::Conservative { dynamic: false }
        | EngineKind::Fsp
        | EngineKind::Las
        | EngineKind::Hfsp => true,
        // Dynamic conservative discards and rebuilds every reservation at
        // every event, so forking its ledger buys nothing over the
        // from-scratch fallback it already equals.
        EngineKind::Conservative { dynamic: true } => false,
    }
}

/// Whether `cfg` permits warm-started prefix simulation. Requires an engine
/// whose forked state reproduces a from-scratch run (see
/// [`warm_start_forkable`]), no fault injection, and no runtime-limit
/// chaining; anything else must use from-scratch prefix runs to reproduce
/// the exact serial results.
pub fn warm_start_supported(cfg: &SimConfig) -> bool {
    warm_start_forkable(cfg.engine) && !cfg.faults.enabled() && cfg.runtime_limit.is_none()
}

/// Incremental prefix simulator: admit jobs in nondecreasing
/// `(submit, id)` order, and query each scored job's prefix start time
/// without replaying history.
///
/// ```
/// use fairsched_sim::prefix::PrefixSimulator;
/// use fairsched_sim::SimConfig;
/// use fairsched_workload::job::Job;
///
/// let cfg = SimConfig { nodes: 10, ..Default::default() };
/// let a = Job::new(1, 1, 1, 0, 10, 100, 100);
/// let b = Job::new(2, 2, 1, 5, 10, 50, 50);
/// let mut prefix = PrefixSimulator::new(&cfg).unwrap();
/// assert_eq!(prefix.start_of(&a).unwrap(), 0);
/// // In b's prefix run, b queues behind a.
/// assert_eq!(prefix.start_of(&b).unwrap(), 100);
/// ```
pub struct PrefixSimulator<'a> {
    cfg: &'a SimConfig,
    master: Sim,
    engine: Engine,
    last_key: Option<(Time, u32)>,
}

impl<'a> PrefixSimulator<'a> {
    /// A simulator with an empty prefix. Fails when `cfg` is not
    /// [`warm_start_supported`] or is self-contradictory.
    pub fn new(cfg: &'a SimConfig) -> Result<Self, SimError> {
        if !warm_start_supported(cfg) {
            return Err(SimError::InvalidConfig {
                reason: "config not eligible for warm-started prefix simulation \
                         (stateful engine, fault injection, or runtime limit)"
                    .into(),
            });
        }
        validate_config(cfg)?;
        Ok(PrefixSimulator {
            cfg,
            master: Sim::new(cfg),
            engine: Engine::new(cfg.engine),
            last_key: None,
        })
    }

    /// Validates `job` and folds it into the master state, first replaying
    /// every event that fires strictly before its submit time. Events *at*
    /// the submit instant stay pending: they belong to the same batch as
    /// the arrival and must be processed together, exactly as a
    /// from-scratch run would.
    fn advance_and_admit(&mut self, job: &Job) -> Result<(), SimError> {
        self.master.validate(job)?;
        let key = (job.submit, job.id.0);
        if self.last_key.is_some_and(|last| last > key) {
            return Err(SimError::InvalidTrace {
                job: job.id,
                reason: "prefix jobs must be admitted in (submit, id) order".into(),
            });
        }
        self.last_key = Some(key);
        while self
            .master
            .next_event_time()
            .is_some_and(|t| t < job.submit)
        {
            self.master
                .step_bounded(None, &mut self.engine, &mut NullObserver)?;
        }
        self.master.admit(job);
        Ok(())
    }

    /// Admits `job` into the shared prefix without scoring it (used to seed
    /// a stripe's starting state when prefix queries are striped across
    /// workers or sampled).
    pub fn admit(&mut self, job: &Job) -> Result<(), SimError> {
        self.advance_and_admit(job)
    }

    /// An exact replica of this simulator — master state, forked engine,
    /// ordering cursor. Chunked parallel FST computation forks the
    /// serially-advanced master at each chunk boundary and ships the fork
    /// to a worker, so no worker ever replays the prefix from scratch.
    pub fn fork(&self) -> PrefixSimulator<'a> {
        PrefixSimulator {
            cfg: self.cfg,
            master: self.master.clone(),
            engine: self.engine.clone(),
            last_key: self.last_key,
        }
    }

    /// Attaches a cancellation token to the master state. Forks taken after
    /// this call inherit the token, so one watchdog firing stops the master
    /// and every outstanding scratch query.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.master.set_cancel(cancel);
    }

    /// Admits `job` and returns its start time in a simulation of exactly
    /// the jobs admitted so far — the Sabin prefix run. The scratch fork
    /// stops as soon as the target starts; the master is left untouched
    /// past `job.submit`.
    pub fn start_of(&mut self, job: &Job) -> Result<Time, SimError> {
        fairsched_obs::counters::record_warm_start(true);
        self.advance_and_admit(job)?;
        // Fork, don't rebuild: a stateful ledger (static conservative)
        // continues from the master's exact bookkeeping, which equals what
        // a from-scratch run of this prefix would hold at this instant.
        self.fork().resolve_start(job.id, job.submit)
    }

    /// The scratch phase of [`PrefixSimulator::start_of`], decoupled: steps
    /// this simulator until the already-admitted `id` starts, consuming it.
    /// Parallel FST computation admits each target into a serially-advanced
    /// master, then ships a [`fork`](Self::fork) here on a worker thread —
    /// the advance happens once while the per-target queries (the dominant
    /// cost) fan out.
    pub fn resolve_start(mut self, id: JobId, submit: Time) -> Result<Time, SimError> {
        loop {
            if let Some(start) = self.master.start_time_of(id) {
                return Ok(start);
            }
            if !self
                .master
                .step_bounded(None, &mut self.engine, &mut NullObserver)?
            {
                // Every admitted job starts in a drained simulation; not
                // starting means the state machine is broken.
                return Err(SimError::InvariantViolation {
                    at: submit,
                    detail: format!("{id} never started in its prefix simulation"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KillPolicy;
    use crate::simulator::{simulate, SimOptions};
    use fairsched_workload::job::JobId;
    use fairsched_workload::synthetic::random_trace;

    fn sorted(mut trace: Vec<Job>) -> Vec<Job> {
        trace.sort_by_key(|j| (j.submit, j.id));
        trace
    }

    /// From-scratch prefix start of `target` within `trace`.
    fn scratch_start(trace: &[Job], cfg: &SimConfig, target: &Job) -> Time {
        let prefix: Vec<Job> = trace
            .iter()
            .filter(|j| (j.submit, j.id) <= (target.submit, target.id))
            .cloned()
            .collect();
        let schedule = simulate(&prefix, cfg, &mut NullObserver, SimOptions::new()).unwrap();
        schedule
            .records
            .iter()
            .find(|r| r.id == target.id)
            .map(|r| r.start)
            .expect("target is in its own prefix")
    }

    fn check_matches_scratch(cfg: &SimConfig, trace: &[Job]) {
        let trace = sorted(trace.to_vec());
        let mut prefix = PrefixSimulator::new(cfg).unwrap();
        for job in &trace {
            assert_eq!(
                prefix.start_of(job).unwrap(),
                scratch_start(&trace, cfg, job),
                "warm-start disagrees with from-scratch for {}",
                job.id
            );
        }
    }

    #[test]
    fn matches_from_scratch_for_every_supported_engine() {
        let trace = random_trace(42, 80, 16, 4000);
        let mut covered = 0;
        for engine in EngineKind::representatives() {
            if !warm_start_forkable(engine) {
                continue;
            }
            covered += 1;
            let cfg = SimConfig {
                nodes: 16,
                engine,
                kill: KillPolicy::Never,
                ..Default::default()
            };
            check_matches_scratch(&cfg, &trace);
        }
        // The capability covers the five pre-refactor kinds plus the three
        // size-based orders; a silent shrink would make this test vacuous.
        assert_eq!(covered, 8, "warm-start coverage changed");
    }

    #[test]
    fn matches_from_scratch_with_kills_and_concurrency_caps() {
        let trace = random_trace(7, 60, 16, 3000);
        let cfg = SimConfig {
            nodes: 16,
            engine: EngineKind::NoGuarantee,
            kill: KillPolicy::WhenNeeded,
            user_concurrency: Some(2),
            ..Default::default()
        };
        check_matches_scratch(&cfg, &trace);
    }

    #[test]
    fn conservative_warm_start_survives_kills_and_concurrency_caps() {
        // The stateful ledger under the adversarial knobs: WCL kills mutate
        // the running set mid-reservation, and the concurrency cap defers
        // arrivals — both must leave fork-continuation exact.
        let trace = random_trace(23, 60, 16, 3000);
        let cfg = SimConfig {
            nodes: 16,
            engine: EngineKind::Conservative { dynamic: false },
            kill: KillPolicy::WhenNeeded,
            user_concurrency: Some(2),
            ..Default::default()
        };
        check_matches_scratch(&cfg, &trace);
    }

    #[test]
    fn admit_without_scoring_seeds_later_queries() {
        let trace = sorted(random_trace(11, 50, 16, 3000));
        let cfg = SimConfig {
            nodes: 16,
            ..Default::default()
        };
        // Score only the second half, admitting the first half silently.
        let mut prefix = PrefixSimulator::new(&cfg).unwrap();
        for job in &trace[..25] {
            prefix.admit(job).unwrap();
        }
        for job in &trace[25..] {
            assert_eq!(
                prefix.start_of(job).unwrap(),
                scratch_start(&trace, &cfg, job)
            );
        }
    }

    #[test]
    fn rejects_dynamic_conservative_and_faulted_configs() {
        let dynamic = SimConfig {
            engine: EngineKind::Conservative { dynamic: true },
            ..Default::default()
        };
        assert!(!warm_start_supported(&dynamic));
        assert!(PrefixSimulator::new(&dynamic).is_err());

        // The static variant forks its ledger and is eligible.
        let conservative = SimConfig {
            engine: EngineKind::Conservative { dynamic: false },
            ..Default::default()
        };
        assert!(warm_start_supported(&conservative));
        assert!(PrefixSimulator::new(&conservative).is_ok());

        let faulted = SimConfig {
            faults: crate::faults::FaultConfig {
                job_crash_rate: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(!warm_start_supported(&faulted));
    }

    #[test]
    fn rejects_out_of_order_admission() {
        let cfg = SimConfig {
            nodes: 16,
            ..Default::default()
        };
        let mut prefix = PrefixSimulator::new(&cfg).unwrap();
        let late = Job::new(1, 1, 1, 100, 1, 10, 10);
        let early = Job::new(2, 1, 1, 50, 1, 10, 10);
        prefix.admit(&late).unwrap();
        let err = prefix.start_of(&early).unwrap_err();
        assert!(matches!(err, SimError::InvalidTrace { job, .. } if job == JobId(2)));
    }
}
