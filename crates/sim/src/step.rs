//! The pure stepped core: `step(event) -> effects`.
//!
//! [`SteppedSim`] is the clock-decoupled heart of the simulator. It never
//! owns time: a driver feeds it typed [`SimEvent`]s — submissions and
//! explicit grants of simulated time — and receives typed [`Effect`]s back
//! (admissions, starts, completions, and, when trace effects are enabled,
//! every [`TraceRecord`] the run would have streamed, which is where
//! reservation makes/shifts surface). Determinism is unchanged: equal
//! event sequences produce equal effect sequences, and the batch
//! [`simulate`](crate::simulator::simulate) driver — submit everything,
//! then grant time one event batch at a time — is byte-identical to the
//! historical monolithic loop (pinned by the FNV goldens in
//! `tests/engine_equivalence.rs`).
//!
//! Because the event queue orders events by `(time, kind, job id)`
//! regardless of insertion order, a *late* submission — one fed in after
//! earlier grants, as an online service does — yields the same schedule as
//! a batch run, provided its timestamp has not already been passed. The
//! core enforces that boundary: a submission dated before the current
//! frontier is rejected with [`SimError::SubmittedInPast`] instead of
//! silently reordering history.

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::simulator::{validate_config, CancelToken, JobRecord, Schedule, Sim, SimError};
use crate::state::{ArrivalView, Observer};
use fairsched_obs::{TraceBuf, TraceRecord};
use fairsched_workload::job::{Job, JobId};
use fairsched_workload::time::Time;

/// One typed input to the stepped core.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A job enters the system at its own `submit` timestamp. Valid any
    /// time the timestamp is at or after the simulated-time frontier —
    /// batch drivers submit everything up front, online drivers submit as
    /// requests arrive.
    Submit(Job),
    /// Grant simulated time: process every pending event with
    /// `time <= horizon`. The frontier (`now`) advances only to the last
    /// *processed* event, never idles forward to the horizon itself, so
    /// granting generous horizons cannot perturb accounting.
    AdvanceTo(Time),
}

/// One typed output of a step.
#[derive(Debug, Clone)]
pub enum Effect {
    /// A submission was accepted and its arrival scheduled.
    Admitted {
        /// The submission's id.
        job: JobId,
        /// When it will arrive (its submit timestamp).
        arrival: Time,
    },
    /// A submission began executing.
    Started {
        /// The submission's id.
        job: JobId,
        /// Simulated start time.
        at: Time,
    },
    /// A submission finished (completion, kill, or fault) and its record
    /// is final.
    Completed {
        /// The finished record, exactly as it will appear in the
        /// [`Schedule`].
        record: JobRecord,
    },
    /// A decision-trace record (starts with causes, reservation
    /// makes/shifts, starvation promotions, fault requeues, queue
    /// samples). Only emitted when the core was built with trace effects
    /// enabled.
    Trace {
        /// The record, in emission order.
        record: TraceRecord,
    },
}

/// A point-in-time view of the core, for live status queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStatus {
    /// The simulated-time frontier (last processed event's time).
    pub now: Time,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Free nodes.
    pub free: u32,
    /// Nodes down due to faults.
    pub down: u32,
    /// When the next pending event is due, if any.
    pub next_event: Option<Time>,
}

/// Collects start/completion effects from the simulator's own observer
/// hooks, so the core needs no new emission sites, and forwards every hook
/// to the caller's observer.
struct EffectObserver<'a> {
    effects: Vec<Effect>,
    inner: &'a mut dyn Observer,
}

impl Observer for EffectObserver<'_> {
    fn on_arrival(&mut self, view: &ArrivalView<'_>) {
        self.inner.on_arrival(view);
    }

    fn on_start(&mut self, id: JobId, now: Time) {
        self.effects.push(Effect::Started { job: id, at: now });
        self.inner.on_start(id, now);
    }

    fn on_complete(&mut self, id: JobId, now: Time, killed: bool) {
        self.inner.on_complete(id, now, killed);
    }

    fn on_record(&mut self, record: &JobRecord) {
        self.effects.push(Effect::Completed { record: *record });
        self.inner.on_record(record);
    }

    fn on_finish(&mut self, schedule: &Schedule) {
        self.inner.on_finish(schedule);
    }
}

/// The clock-decoupled simulation core. See the module docs for the
/// contract; see [`simulate`](crate::simulator::simulate) for the batch
/// driver and `fairsched-served` for the online one.
pub struct SteppedSim {
    sim: Sim,
    engine: Engine,
    trace: Option<TraceBuf>,
}

impl SteppedSim {
    /// A fresh core under `cfg`, without trace effects. Fails fast on a
    /// self-contradictory configuration.
    pub fn new(cfg: &SimConfig) -> Result<Self, SimError> {
        Self::with_trace_effects(cfg, false)
    }

    /// A fresh core under `cfg`; when `traced`, every [`TraceRecord`] the
    /// run emits is returned as an [`Effect::Trace`] from the step that
    /// produced it.
    pub fn with_trace_effects(cfg: &SimConfig, traced: bool) -> Result<Self, SimError> {
        validate_config(cfg)?;
        let engine = Engine::new(cfg.engine);
        let mut sim = Sim::new(cfg);
        let trace = traced.then(TraceBuf::new);
        sim.set_trace(trace.clone());
        Ok(SteppedSim { sim, engine, trace })
    }

    /// Attaches a cooperative [`CancelToken`], checked once per granted
    /// event batch.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.sim.set_cancel(cancel);
    }

    /// Raises the id floor fresh chunk/resubmission ids are minted from.
    /// Online replays of a recorded trace use this to reproduce the batch
    /// path's id numbering (batch seeds the floor from the whole trace's
    /// maximum id before stepping).
    pub fn reserve_ids(&mut self, floor: u32) {
        self.sim.reserve_ids(floor);
    }

    /// The simulated-time frontier: the time of the last processed event.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// When the next pending event is due — the smallest horizon an
    /// [`SimEvent::AdvanceTo`] needs to make progress. `None` when the
    /// run is fully played out.
    pub fn next_wakeup(&self) -> Option<Time> {
        self.sim.next_event_time()
    }

    /// Live status: frontier, queue pressure, node availability.
    pub fn status(&self) -> StepStatus {
        let (queued, running, free, down) = self.sim.pressure();
        StepStatus {
            now: self.sim.now(),
            queued,
            running,
            free,
            down,
            next_event: self.sim.next_event_time(),
        }
    }

    /// The start time of a submission that has already started, if any.
    pub fn start_of(&self, id: JobId) -> Option<Time> {
        self.sim.start_time_of(id)
    }

    /// Whether every accepted submission has been played out.
    pub fn is_drained(&self) -> bool {
        self.sim.is_drained()
    }

    /// Feeds one event and returns the effects it caused, in order.
    /// `observer` sees exactly the hooks the batch API fires (arrivals
    /// with queue views, starts, completions, records).
    pub fn step(
        &mut self,
        event: SimEvent,
        observer: &mut dyn Observer,
    ) -> Result<Vec<Effect>, SimError> {
        match event {
            SimEvent::Submit(job) => self.submit(job),
            SimEvent::AdvanceTo(horizon) => self.advance(horizon, observer),
        }
    }

    fn submit(&mut self, job: Job) -> Result<Vec<Effect>, SimError> {
        self.sim.validate(&job)?;
        if job.submit < self.sim.now() {
            return Err(SimError::SubmittedInPast {
                job: job.id,
                submit: job.submit,
                now: self.sim.now(),
            });
        }
        let (id, arrival) = (job.id, job.submit);
        self.sim.admit(&job);
        // Keep fresh-id minting (chunk chains, crash resubmissions) above
        // every accepted submission id, exactly as the batch path seeds it
        // from the whole trace before stepping.
        self.sim.reserve_ids(id.0.saturating_add(1));
        Ok(vec![Effect::Admitted { job: id, arrival }])
    }

    fn advance(
        &mut self,
        horizon: Time,
        observer: &mut dyn Observer,
    ) -> Result<Vec<Effect>, SimError> {
        let mut effects = Vec::new();
        loop {
            let mut fx = EffectObserver {
                effects: Vec::new(),
                inner: &mut *observer,
            };
            let progressed = self
                .sim
                .step_bounded(Some(horizon), &mut self.engine, &mut fx)?;
            effects.append(&mut fx.effects);
            if let Some(trace) = &self.trace {
                effects.extend(
                    trace
                        .drain()
                        .into_iter()
                        .map(|record| Effect::Trace { record }),
                );
            }
            if !progressed {
                break;
            }
        }
        Ok(effects)
    }

    /// Seals the run and returns the final [`Schedule`]. The caller is
    /// responsible for having granted enough time first (the batch driver
    /// loops on [`SteppedSim::next_wakeup`]); conservation is checked —
    /// a violation is a simulator bug surfaced as a typed error, not a
    /// corrupt schedule.
    pub fn finish(self) -> Result<Schedule, SimError> {
        debug_assert!(
            self.sim.is_drained(),
            "finish() before the run was fully played out"
        );
        self.sim.check_conservation_pub()?;
        Ok(self.sim.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate, SimOptions};
    use crate::state::NullObserver;

    fn cfg(nodes: u32) -> SimConfig {
        SimConfig {
            nodes,
            ..Default::default()
        }
    }

    fn job(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time) -> Job {
        Job::new(id, user, 1, submit, nodes, runtime, runtime)
    }

    fn drive_to_schedule(mut core: SteppedSim) -> Schedule {
        while let Some(at) = core.next_wakeup() {
            core.step(SimEvent::AdvanceTo(at), &mut NullObserver)
                .unwrap();
        }
        core.finish().unwrap()
    }

    #[test]
    fn submit_then_advance_yields_typed_effects() {
        let cfg = cfg(10);
        let mut core = SteppedSim::new(&cfg).unwrap();
        let fx = core
            .step(SimEvent::Submit(job(1, 1, 0, 10, 100)), &mut NullObserver)
            .unwrap();
        assert!(matches!(
            fx.as_slice(),
            [Effect::Admitted {
                job: JobId(1),
                arrival: 0
            }]
        ));
        // t=0: arrival + start.
        let fx = core
            .step(SimEvent::AdvanceTo(0), &mut NullObserver)
            .unwrap();
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Started {
                job: JobId(1),
                at: 0
            }
        )));
        // t=100: completion.
        assert_eq!(core.next_wakeup(), Some(100));
        let fx = core
            .step(SimEvent::AdvanceTo(100), &mut NullObserver)
            .unwrap();
        let Some(Effect::Completed { record }) =
            fx.iter().find(|e| matches!(e, Effect::Completed { .. }))
        else {
            panic!("no completion effect");
        };
        assert_eq!((record.id, record.start, record.end), (JobId(1), 0, 100));
        let schedule = core.finish().unwrap();
        assert_eq!(schedule.records.len(), 1);
    }

    #[test]
    fn advance_does_not_idle_past_the_last_event() {
        let cfg = cfg(4);
        let mut core = SteppedSim::new(&cfg).unwrap();
        core.step(SimEvent::Submit(job(1, 1, 5, 4, 10)), &mut NullObserver)
            .unwrap();
        // A generous horizon processes everything but leaves the frontier
        // at the last processed event, not the horizon.
        core.step(SimEvent::AdvanceTo(1_000_000), &mut NullObserver)
            .unwrap();
        assert_eq!(core.now(), 15);
        assert!(core.is_drained());
    }

    #[test]
    fn late_submission_matches_batch_when_timestamp_is_still_ahead() {
        let cfg = cfg(10);
        let trace = [job(1, 1, 0, 10, 100), job(2, 2, 50, 10, 30)];
        let batch = simulate(&trace, &cfg, &mut NullObserver, SimOptions::new()).unwrap();

        let mut core = SteppedSim::new(&cfg).unwrap();
        core.step(SimEvent::Submit(trace[0].clone()), &mut NullObserver)
            .unwrap();
        // Play out t=0, then submit job 2 online (frontier is 0 < 50).
        core.step(SimEvent::AdvanceTo(0), &mut NullObserver)
            .unwrap();
        core.step(SimEvent::Submit(trace[1].clone()), &mut NullObserver)
            .unwrap();
        let online = drive_to_schedule(core);
        assert_eq!(online, batch);
    }

    #[test]
    fn submissions_dated_before_the_frontier_are_rejected() {
        let cfg = cfg(10);
        let mut core = SteppedSim::new(&cfg).unwrap();
        core.step(SimEvent::Submit(job(1, 1, 0, 2, 100)), &mut NullObserver)
            .unwrap();
        core.step(SimEvent::AdvanceTo(100), &mut NullObserver)
            .unwrap();
        assert_eq!(core.now(), 100);
        let err = core
            .step(SimEvent::Submit(job(2, 2, 99, 2, 10)), &mut NullObserver)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::SubmittedInPast {
                job: JobId(2),
                submit: 99,
                now: 100
            }
        ));
        // A submission dated exactly at the frontier is still fine.
        core.step(SimEvent::Submit(job(3, 3, 100, 2, 10)), &mut NullObserver)
            .unwrap();
        assert!(drive_to_schedule(core).records.len() == 2);
    }

    #[test]
    fn trace_effects_surface_every_record_in_order() {
        let cfg = cfg(10);
        let trace = [job(1, 1, 0, 10, 100), job(2, 2, 5, 10, 50)];
        // Batch-traced run, for the expected record sequence.
        let mut tracer = fairsched_obs::DecisionTracer::unbounded();
        simulate(
            &trace,
            &cfg,
            &mut NullObserver,
            SimOptions::new().trace(&mut tracer),
        )
        .unwrap();
        let expected: Vec<String> = tracer.records().map(|r| r.to_jsonl()).collect();
        assert!(!expected.is_empty());

        let mut core = SteppedSim::with_trace_effects(&cfg, true).unwrap();
        for j in &trace {
            core.step(SimEvent::Submit(j.clone()), &mut NullObserver)
                .unwrap();
        }
        let mut streamed = Vec::new();
        while let Some(at) = core.next_wakeup() {
            for fx in core
                .step(SimEvent::AdvanceTo(at), &mut NullObserver)
                .unwrap()
            {
                if let Effect::Trace { record } = fx {
                    streamed.push(record.to_jsonl());
                }
            }
        }
        core.finish().unwrap();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn invalid_submissions_are_rejected_with_typed_errors() {
        let cfg = cfg(4);
        let mut core = SteppedSim::new(&cfg).unwrap();
        assert!(matches!(
            core.step(SimEvent::Submit(job(1, 1, 0, 8, 10)), &mut NullObserver),
            Err(SimError::TooWide { .. })
        ));
        let bad = Job::new(2, 1, 1, 0, 0, 10, 10);
        assert!(matches!(
            core.step(SimEvent::Submit(bad), &mut NullObserver),
            Err(SimError::InvalidTrace { .. })
        ));
        // Rejections leave the core usable.
        core.step(SimEvent::Submit(job(3, 1, 0, 4, 10)), &mut NullObserver)
            .unwrap();
        assert_eq!(drive_to_schedule(core).records.len(), 1);
    }

    #[test]
    fn invalid_config_fails_construction() {
        let bad = SimConfig {
            user_concurrency: Some(0),
            ..cfg(4)
        };
        assert!(matches!(
            SteppedSim::new(&bad),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}
