//! One online scheduling session: the deterministic stepped core behind a
//! lock, plus the service bookkeeping the daemon exposes.
//!
//! A [`Session`] owns a [`SteppedSim`] and enforces the online contract on
//! top of it:
//!
//! * **Monotonic submissions.** A submission dated before the clock
//!   horizon already granted to the core is rejected with
//!   [`ServeError::NonMonotonicSubmit`] — events at or before the granted
//!   horizon may already have been processed, so accepting it would
//!   silently rewrite history. Submissions dated at or past the horizon
//!   are byte-equivalent to a batch run (the event queue is
//!   insertion-order independent).
//! * **Typed policy validation.** The session is built from a policy id
//!   via [`PolicySpec::parse`]; an unknown id is
//!   [`ServeError::UnknownPolicy`] wrapping the workspace's own
//!   [`PolicyIdError`](fairsched_core::policy::PolicyIdError).
//! * **Unique ids.** Reusing an accepted id is
//!   [`ServeError::DuplicateId`] (the simulator would treat it as a
//!   distinct pending submission and corrupt the chain bookkeeping).
//!
//! Everything stateful sits behind one mutex: handlers lock, mutate, and
//! release; trace subscribers receive JSONL lines through channels so
//! slow readers never block the scheduling path (a disconnected or
//! saturated subscriber is dropped, not waited on).

use crate::api::{
    schedule_fingerprint, AdvanceResponse, SealResponse, ServeError, StatusResponse, SubmitRequest,
    SubmitResponse,
};
use crate::clock::{ClockMode, VirtualClock};
use crate::journal::SessionJournal;
use crate::metrics::ServiceMetrics;
use fairsched_core::policy::PolicySpec;
use fairsched_metrics::explain::{explain_wait, WaitBreakdown};
use fairsched_metrics::fairness::peruser::UserFairness;
use fairsched_metrics::fairness::stream::{FairnessSnapshot, StreamingFairness};
use fairsched_obs::counters::{CounterSnapshot, ProfileReport, ProfileScope};
use fairsched_obs::TraceRecord;
use fairsched_sim::{
    Effect, JobRecord, Observer, Schedule, SimConfig, SimError, SimEvent, SteppedSim,
};
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a [`Session`] is configured.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Policy id (parsed via [`PolicySpec::parse`]).
    pub policy: String,
    /// Machine size in nodes.
    pub nodes: u32,
    /// How simulated time advances.
    pub clock: ClockMode,
    /// Whether to emit trace effects (required for trace streaming and
    /// live explain).
    pub traced: bool,
    /// Raises the floor fresh chunk/resubmission ids are minted from, so
    /// an online replay of a recorded trace reproduces the batch path's
    /// id numbering. 0 leaves the floor at the ids seen so far.
    pub id_floor: u32,
    /// Trace-subscriber channel depth in lines. A reader further behind
    /// than this is dropped rather than allowed to stall the scheduling
    /// path; the drop is counted (see [`TraceSubscription::dropped`]).
    pub trace_buffer: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            policy: "easy.nomax".into(),
            nodes: 1024,
            clock: ClockMode::Manual,
            traced: true,
            id_floor: 0,
            trace_buffer: SUBSCRIBER_BUFFER,
        }
    }
}

/// Default subscriber channel depth (lines).
const SUBSCRIBER_BUFFER: usize = 64 * 1024;

/// One attached trace reader: its channel, plus the count of lines the
/// session had to drop on it. The counter outlives eviction from the
/// subscriber list, so the stream handler can report the loss on close.
struct Subscriber {
    tx: SyncSender<Option<String>>,
    dropped: Arc<AtomicU64>,
}

/// The receiving half of a trace subscription.
pub struct TraceSubscription {
    rx: Receiver<Option<String>>,
    dropped: Arc<AtomicU64>,
}

impl TraceSubscription {
    /// The next line; `Ok(None)` marks the end (seal). `Err` means the
    /// session dropped this subscriber for falling behind.
    pub fn recv(&self) -> Result<Option<String>, RecvError> {
        self.rx.recv()
    }

    /// Lines the session dropped on this subscriber because its buffer
    /// was full. Nonzero only for readers that fell behind.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }
}

struct Inner {
    core: Option<SteppedSim>,
    clock: VirtualClock,
    completed: Vec<JobRecord>,
    started: HashMap<JobId, Time>,
    submissions: HashMap<JobId, SubmitRequest>,
    trace: Vec<TraceRecord>,
    subscribers: Vec<Subscriber>,
    schedule: Option<Schedule>,
    steps: u64,
    stream: StreamingFairness,
    /// The durability journal, when attached. Appends happen under this
    /// mutex, in apply order, so the file is always an ordered prefix of
    /// the session's accepted history.
    journal: Option<SessionJournal>,
    /// The highest clock horizon already journaled (grants are only
    /// journaled when they move this forward).
    journaled_granted: Time,
}

/// A submission waiting in the batching queue, with the channel its
/// submitter blocks on.
type PendingSubmit = (
    SubmitRequest,
    SyncSender<Result<SubmitResponse, ServeError>>,
);

/// One online scheduling session. Thread-safe: the daemon shares it
/// across connection handlers.
pub struct Session {
    cfg: SessionConfig,
    sim_cfg: SimConfig,
    inner: Mutex<Inner>,
    /// Submissions queued for the next batch. Whoever wins the `inner`
    /// lock drains and processes everyone's queued submissions (flat
    /// combining), so the mutex and the journal fsync are paid once per
    /// batch rather than once per request.
    pending: Mutex<VecDeque<PendingSubmit>>,
    metrics: Arc<ServiceMetrics>,
    // Live profiling: counters record for the whole session lifetime.
    baseline: CounterSnapshot,
    started_at: Instant,
    _profile: ProfileScope,
}

impl Session {
    /// Builds a session with its own metrics registry, parsing and
    /// validating the policy id up front.
    pub fn new(cfg: SessionConfig) -> Result<Session, ServeError> {
        Session::with_metrics(cfg, Arc::new(ServiceMetrics::new()))
    }

    /// Builds a session sharing a daemon-wide metrics registry (the
    /// registry hosts many sessions; request accounting and journal
    /// counters aggregate across them).
    pub fn with_metrics(
        cfg: SessionConfig,
        metrics: Arc<ServiceMetrics>,
    ) -> Result<Session, ServeError> {
        let spec = PolicySpec::parse(&cfg.policy).map_err(ServeError::UnknownPolicy)?;
        let sim_cfg = spec.sim_config(cfg.nodes);
        let mut core = SteppedSim::with_trace_effects(&sim_cfg, cfg.traced)?;
        if cfg.id_floor > 0 {
            core.reserve_ids(cfg.id_floor);
        }
        let profile = ProfileScope::enter();
        Ok(Session {
            inner: Mutex::new(Inner {
                core: Some(core),
                clock: VirtualClock::new(cfg.clock),
                completed: Vec::new(),
                started: HashMap::new(),
                submissions: HashMap::new(),
                trace: Vec::new(),
                subscribers: Vec::new(),
                schedule: None,
                steps: 0,
                stream: StreamingFairness::new(sim_cfg.nodes),
                journal: None,
                journaled_granted: 0,
            }),
            cfg,
            sim_cfg,
            pending: Mutex::new(VecDeque::new()),
            metrics,
            baseline: CounterSnapshot::capture(),
            started_at: Instant::now(),
            _profile: profile,
        })
    }

    /// Attaches the durability journal: every accepted submission, grant,
    /// and the seal append to it from now on. Used at session creation
    /// (fresh journal) and after recovery (reopened for append).
    pub fn attach_journal(&self, journal: SessionJournal) {
        let mut inner = self.lock();
        inner.journaled_granted = inner.clock.target();
        inner.journal = Some(journal);
    }

    /// Swaps the clock mode in place, continuing from the horizon granted
    /// so far. Recovery replays a journal under a manual clock (realtime
    /// clocks track the wall and would tear the replayed grant sequence),
    /// then adopts the session's configured mode with this.
    pub fn adopt_clock(&self, mode: ClockMode) {
        let mut inner = self.lock();
        let granted = inner.clock.target();
        inner.clock = VirtualClock::resume_at(mode, granted);
    }

    /// The session's metric handles (request accounting and the
    /// `/metrics` renderer live here).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The live fairness verdict: every gauge, plus per-user rows
    /// (heaviest consumers first). At seal this equals the batch
    /// `HybridFstObserver` report and the `per_user` rows folded from it
    /// for the same trace — the stream observer saw exactly the hooks a
    /// batch run fires.
    pub fn fairness(&self) -> (FairnessSnapshot, Vec<UserFairness>) {
        let inner = self.lock();
        (inner.stream.snapshot(), inner.stream.users())
    }

    /// The live fair-start report over jobs started so far (convergence
    /// pinning reads this after seal).
    pub fn fst_report(&self) -> fairsched_metrics::fairness::fst::FstReport {
        self.lock().stream.report()
    }

    /// Accepts one submission, enforcing monotonic timestamps and unique
    /// ids at the boundary; journals and fsyncs before returning. The
    /// request joins the pending queue and whichever submitter holds the
    /// session mutex processes the whole queue — one lock acquisition and
    /// one journal fsync for the entire batch. Under contention the
    /// submitters queued behind the lock find their replies already sent
    /// and return at once; without contention the batch is just this
    /// request.
    pub fn submit_batched(&self, req: &SubmitRequest) -> Result<SubmitResponse, ServeError> {
        let (tx, rx) = sync_channel(1);
        self.pending_lock().push_back((req.clone(), tx));
        let mut inner = self.lock();
        // A combiner answers its whole batch before releasing the lock, so
        // either our reply is already here or our request is still queued
        // and we drain it ourselves.
        if let Ok(result) = rx.try_recv() {
            return result;
        }
        self.drain_pending(&mut inner);
        drop(inner);
        rx.recv()
            .unwrap_or_else(|_| Err(ServeError::Io("submission batch dropped".into())))
    }

    /// Processes every queued submission while holding the session lock
    /// (the flat-combining step), then commits the journal once and
    /// answers every submitter. Loops until the queue stays empty, so
    /// requests pushed mid-batch are served by this holder rather than
    /// each waiting its turn for the lock.
    fn drain_pending(&self, inner: &mut Inner) {
        loop {
            let batch: Vec<PendingSubmit> = self.pending_lock().drain(..).collect();
            if batch.is_empty() {
                return;
            }
            let mut replies = Vec::with_capacity(batch.len());
            for (req, tx) in batch {
                replies.push((tx, Self::apply_submit(inner, &req, &self.metrics)));
            }
            // One fsync for the whole batch — and only after it, the
            // acks: acknowledged implies journaled.
            self.commit_journal(inner);
            for (tx, result) in replies {
                let _ = tx.send(result);
            }
        }
    }

    /// Validates and applies one submission to the core, appending it to
    /// the journal buffer (not yet committed) when accepted.
    fn apply_submit(
        inner: &mut Inner,
        req: &SubmitRequest,
        metrics: &ServiceMetrics,
    ) -> Result<SubmitResponse, ServeError> {
        if inner.core.is_none() {
            return Err(ServeError::Sealed);
        }
        let id = JobId(req.id);
        let granted = inner.clock.target();
        if req.submit < granted {
            return Err(ServeError::NonMonotonicSubmit {
                job: id,
                submit: req.submit,
                granted,
            });
        }
        if inner.submissions.contains_key(&id) {
            return Err(ServeError::DuplicateId { job: id });
        }
        let job = req.to_job();
        let Inner { core, stream, .. } = &mut *inner;
        let core = core.as_mut().expect("checked above");
        let effects = match core.step(SimEvent::Submit(job), stream) {
            Ok(effects) => effects,
            // The core's own past-frontier guard, in case a manual
            // advance outran the clock (it cannot via this session, but
            // the mapping keeps the error typed rather than `Sim`).
            Err(SimError::SubmittedInPast { job, submit, now }) => {
                return Err(ServeError::NonMonotonicSubmit {
                    job,
                    submit,
                    granted: now,
                });
            }
            Err(e) => return Err(e.into()),
        };
        inner.steps += 1;
        inner.submissions.insert(id, req.clone());
        if let Some(journal) = inner.journal.as_mut() {
            match journal.append_submit(req) {
                Ok(bytes) => metrics.journal_bytes.add(bytes),
                // The core already accepted; a failed append means the
                // journal is now missing an accepted row. Surface the
                // fault loudly — recovery from this journal would lose
                // the submission.
                Err(e) => fairsched_obs::log::warn(format!(
                    "journal append failed for job {}: {e}; recovery would lose it",
                    req.id
                )),
            }
        }
        let arrival = effects
            .iter()
            .find_map(|e| match e {
                Effect::Admitted { arrival, .. } => Some(*arrival),
                _ => None,
            })
            .unwrap_or(req.submit);
        Ok(SubmitResponse {
            id: req.id,
            arrival,
        })
    }

    /// Journals a grant row if the horizon moved past what is already on
    /// disk. Called after the clock jumps, under the session lock.
    fn journal_grant(inner: &mut Inner, metrics: &ServiceMetrics) {
        let target = inner.clock.target();
        if target <= inner.journaled_granted {
            return;
        }
        inner.journaled_granted = target;
        if let Some(journal) = inner.journal.as_mut() {
            match journal.append_grant(target) {
                Ok(bytes) => metrics.journal_bytes.add(bytes),
                Err(e) => {
                    fairsched_obs::log::warn(format!("journal grant append failed: {e}"));
                }
            }
        }
    }

    /// Commits buffered journal rows: one flush + one fsync for whatever
    /// accumulated since the last commit.
    fn commit_journal(&self, inner: &mut Inner) {
        if let Some(journal) = inner.journal.as_mut() {
            match journal.commit() {
                Ok(true) => self.metrics.journal_batches.inc(),
                Ok(false) => {}
                Err(e) => fairsched_obs::log::warn(format!("journal commit failed: {e}")),
            }
        }
    }

    fn pending_lock(&self) -> std::sync::MutexGuard<'_, VecDeque<PendingSubmit>> {
        self.pending.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Grants simulated time up to `to` (manual clocks; realtime clocks
    /// jump forward too — the tick loop calls [`Session::tick`] instead).
    pub fn advance_to(&self, to: Time) -> Result<AdvanceResponse, ServeError> {
        let mut inner = self.lock();
        inner.clock.jump_to(to);
        let target = inner.clock.target();
        let result = Self::drive(&mut inner, target, &self.metrics);
        // The grant is journaled only after the core accepted it; a grant
        // that never reached the core must not steer recovery.
        if result.is_ok() {
            Self::journal_grant(&mut inner, &self.metrics);
            self.commit_journal(&mut inner);
        }
        result
    }

    /// Advances to the clock's current target (realtime mode's heartbeat;
    /// a no-op for manual clocks).
    pub fn tick(&self) -> Result<AdvanceResponse, ServeError> {
        let mut inner = self.lock();
        let target = inner.clock.target();
        let result = Self::drive(&mut inner, target, &self.metrics);
        if result.is_ok() {
            Self::journal_grant(&mut inner, &self.metrics);
            self.commit_journal(&mut inner);
        }
        result
    }

    fn drive(
        inner: &mut Inner,
        target: Time,
        metrics: &ServiceMetrics,
    ) -> Result<AdvanceResponse, ServeError> {
        let Inner { core, stream, .. } = &mut *inner;
        let Some(core) = core.as_mut() else {
            return Err(ServeError::Sealed);
        };
        let mut started = 0;
        let mut completed = 0;
        let mut lines: Vec<String> = Vec::new();
        if core.next_wakeup().is_some_and(|t| t <= target) {
            let effects = core.step(SimEvent::AdvanceTo(target), stream)?;
            inner.steps += 1;
            for effect in effects {
                match effect {
                    Effect::Started { job, at } => {
                        started += 1;
                        inner.started.insert(job, at);
                    }
                    Effect::Completed { record } => {
                        completed += 1;
                        inner.completed.push(record);
                    }
                    Effect::Trace { record } => {
                        lines.push(record.to_jsonl());
                        inner.trace.push(record);
                    }
                    Effect::Admitted { .. } => {}
                }
            }
        }
        let now = inner.core.as_ref().expect("checked above").now();
        if !lines.is_empty() {
            Self::broadcast(&mut inner.subscribers, &lines, metrics);
        }
        Ok(AdvanceResponse {
            now,
            started,
            completed,
        })
    }

    fn broadcast(subscribers: &mut Vec<Subscriber>, lines: &[String], metrics: &ServiceMetrics) {
        subscribers.retain(|sub| {
            for (i, line) in lines.iter().enumerate() {
                match sub.tx.try_send(Some(line.clone())) {
                    Ok(()) => {}
                    // A full reader is dropped, never waited on: the
                    // scheduling path must not block. The loss is counted
                    // on the subscriber (its stream handler reports it at
                    // close) and in the registry.
                    Err(TrySendError::Full(_)) => {
                        let lost = (lines.len() - i) as u64;
                        sub.dropped.fetch_add(lost, Relaxed);
                        metrics.trace_lines_dropped.add(lost);
                        metrics.trace_subscribers_dropped.inc();
                        return false;
                    }
                    // A disconnected reader already went away by itself;
                    // nothing was lost on it.
                    Err(TrySendError::Disconnected(_)) => return false,
                }
            }
            true
        });
    }

    /// Subscribes to the trace stream: every `TraceRecord` emitted after
    /// this call arrives as one JSONL line; `None` marks the end (seal).
    /// The subscription also carries this reader's drop counter.
    pub fn subscribe(&self) -> TraceSubscription {
        let (tx, rx) = sync_channel(self.cfg.trace_buffer.max(1));
        let dropped = Arc::new(AtomicU64::new(0));
        self.lock().subscribers.push(Subscriber {
            tx,
            dropped: Arc::clone(&dropped),
        });
        TraceSubscription { rx, dropped }
    }

    /// The live status view.
    pub fn status(&self) -> StatusResponse {
        let inner = self.lock();
        let (now, queued, running, free, down, next_event) = match inner.core.as_ref() {
            Some(core) => {
                let s = core.status();
                (s.now, s.queued, s.running, s.free, s.down, s.next_event)
            }
            None => {
                let s = inner.schedule.as_ref();
                (
                    s.map_or(0, Schedule::makespan),
                    0,
                    0,
                    self.sim_cfg.nodes,
                    0,
                    None,
                )
            }
        };
        StatusResponse {
            policy: self.cfg.policy.clone(),
            nodes: self.sim_cfg.nodes,
            now,
            granted: inner.clock.target(),
            queued,
            running,
            free,
            down,
            accepted: inner.submissions.len() as u64,
            completed: inner.completed.len() as u64,
            next_event,
            sealed: inner.core.is_none(),
        }
    }

    /// A finished submission's record, if it has completed.
    pub fn record_of(&self, id: JobId) -> Option<JobRecord> {
        self.lock().completed.iter().find(|r| r.id == id).copied()
    }

    /// Explains a submission's wait *live*, against the decision trace
    /// accumulated so far. Works for completed submissions and for ones
    /// that have started but not finished (their record is synthesized
    /// with `end = now`). Queued submissions have no start to explain
    /// yet; `Ok(None)`.
    pub fn explain(&self, id: JobId) -> Result<Option<WaitBreakdown>, ServeError> {
        let inner = self.lock();
        if !self.cfg.traced {
            return Err(ServeError::BadRequest {
                detail: "session runs without trace effects; start fairschedd \
                         with tracing to explain live"
                    .into(),
            });
        }
        let record = inner
            .completed
            .iter()
            .find(|r| r.id == id)
            .copied()
            .or_else(|| {
                // Started but not finished: synthesize the record shape
                // explain needs (only submit/start are read).
                let start = *inner.started.get(&id)?;
                let req = inner.submissions.get(&id)?;
                let now = inner.core.as_ref().map_or(start, SteppedSim::now);
                Some(JobRecord {
                    id,
                    origin: id,
                    chunk_index: 0,
                    user: fairsched_workload::job::UserId(req.user),
                    group: fairsched_workload::job::GroupId(req.group),
                    nodes: req.nodes,
                    submit: req.submit,
                    origin_submit: req.submit,
                    start,
                    end: now.max(start),
                    estimate: req.estimate,
                    killed: false,
                    interrupted: false,
                })
            });
        let Some(record) = record else {
            return Ok(None);
        };
        // explain_wait reads only `records` from the schedule; the
        // integrals are irrelevant to a single job's wait decomposition.
        let view = Schedule {
            nodes: self.sim_cfg.nodes,
            records: vec![record],
            waste_nodeseconds: 0.0,
            busy_nodeseconds: 0.0,
            down_nodeseconds: 0.0,
            lost_nodeseconds: 0.0,
            weekly_busy: Vec::new(),
            min_start: record.start,
            max_completion: record.end,
            placement: None,
            queue_stats: Default::default(),
        };
        Ok(explain_wait(&inner.trace, &view, id))
    }

    /// Where the session's scheduling time has gone so far.
    pub fn profile(&self) -> ProfileReport {
        ProfileReport {
            counters: CounterSnapshot::capture().since(&self.baseline),
            wall_ns: self.started_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        }
    }

    /// Event batches granted plus submissions accepted — the denominator
    /// for steps/second service metrics.
    pub fn steps(&self) -> u64 {
        self.lock().steps
    }

    /// Seals the session: plays out every remaining event, closes the
    /// trace stream, and returns the final schedule summary. Further
    /// submissions and grants fail with [`ServeError::Sealed`].
    pub fn seal(&self) -> Result<SealResponse, ServeError> {
        let mut inner = self.lock();
        let Some(mut core) = inner.core.take() else {
            return Err(ServeError::Sealed);
        };
        let mut lines = Vec::new();
        while let Some(at) = core.next_wakeup() {
            for effect in core.step(SimEvent::AdvanceTo(at), &mut inner.stream)? {
                match effect {
                    Effect::Started { job, at } => {
                        inner.started.insert(job, at);
                    }
                    Effect::Completed { record } => inner.completed.push(record),
                    Effect::Trace { record } => {
                        lines.push(record.to_jsonl());
                        inner.trace.push(record);
                    }
                    Effect::Admitted { .. } => {}
                }
            }
            inner.steps += 1;
        }
        inner.clock.jump_to(core.now());
        let schedule = core.finish()?;
        // Fire the whole-run hook the batch API would: the stream
        // observer's verdict is now final and equal to the batch one.
        inner.stream.on_finish(&schedule);
        if !lines.is_empty() {
            Self::broadcast(&mut inner.subscribers, &lines, &self.metrics);
        }
        for sub in inner.subscribers.drain(..) {
            let _ = sub.tx.try_send(None);
        }
        if let Some(journal) = inner.journal.as_mut() {
            match journal.append_seal() {
                Ok(bytes) => self.metrics.journal_bytes.add(bytes),
                Err(e) => fairsched_obs::log::warn(format!("journal seal append failed: {e}")),
            }
        }
        self.commit_journal(&mut inner);
        let summary = SealResponse {
            records: schedule.records.len() as u64,
            makespan: schedule.makespan(),
            utilization: schedule.utilization(),
            schedule_fnv: schedule_fingerprint(&schedule),
        };
        inner.schedule = Some(schedule);
        Ok(summary)
    }

    /// The finished schedule, once sealed.
    pub fn schedule(&self) -> Option<Schedule> {
        self.lock().schedule.clone()
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_sim::{simulate, NullObserver as NO, SimOptions};
    use fairsched_workload::job::Job;

    fn req(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time) -> SubmitRequest {
        SubmitRequest {
            id,
            user,
            group: 1,
            submit,
            nodes,
            runtime,
            estimate: runtime,
        }
    }

    fn manual_session(policy: &str) -> Session {
        Session::new(SessionConfig {
            policy: policy.into(),
            nodes: 32,
            clock: ClockMode::Manual,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn unknown_policy_ids_are_rejected_with_the_typed_error() {
        let err = match Session::new(SessionConfig {
            policy: "definitely-not-a-policy".into(),
            ..Default::default()
        }) {
            Ok(_) => panic!("unknown policy id accepted"),
            Err(e) => e,
        };
        match err {
            ServeError::UnknownPolicy(e) => assert_eq!(e.id, "definitely-not-a-policy"),
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
    }

    #[test]
    fn non_monotonic_submissions_are_rejected_with_the_typed_error() {
        let session = manual_session("easy.nomax");
        session.submit_batched(&req(1, 1, 0, 32, 100)).unwrap();
        session.advance_to(1000).unwrap();
        let err = session.submit_batched(&req(2, 2, 999, 4, 50)).unwrap_err();
        match err {
            ServeError::NonMonotonicSubmit {
                job,
                submit,
                granted,
            } => {
                assert_eq!(job, JobId(2));
                assert_eq!(submit, 999);
                assert_eq!(granted, 1000);
            }
            other => panic!("expected NonMonotonicSubmit, got {other:?}"),
        }
        // At the horizon is fine.
        session.submit_batched(&req(3, 3, 1000, 4, 50)).unwrap();
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let session = manual_session("easy.nomax");
        session.submit_batched(&req(1, 1, 0, 4, 100)).unwrap();
        let err = session.submit_batched(&req(1, 2, 5, 8, 60)).unwrap_err();
        assert!(matches!(err, ServeError::DuplicateId { job } if job == JobId(1)));
    }

    #[test]
    fn online_session_matches_batch_simulation() {
        let jobs = [
            Job::new(1, 1, 1, 0, 32, 500, 500),
            Job::new(2, 2, 1, 10, 16, 200, 300),
            Job::new(3, 3, 1, 400, 32, 100, 100),
        ];
        let spec = PolicySpec::parse("cplant24.nomax.all").unwrap();
        let cfg = spec.sim_config(32);
        let batch = simulate(&jobs, &cfg, &mut NO, SimOptions::new()).unwrap();

        let session = manual_session("cplant24.nomax.all");
        for job in &jobs {
            session
                .submit_batched(&SubmitRequest::from_job(job))
                .unwrap();
        }
        let summary = session.seal().unwrap();
        assert_eq!(summary.records, batch.records.len() as u64);
        assert_eq!(session.schedule().unwrap(), batch);
    }

    #[test]
    fn batched_submissions_match_the_batch_simulation() {
        use crate::journal::{journal_path, replay, JournalEvent};
        use std::collections::HashSet;

        // 64 submitters race through the flat-combining path; the sealed
        // schedule must equal the batch simulation of the same jobs (the
        // core's event queue is insertion-order independent, and every
        // submission is dated inside the never-granted epoch 0).
        let jobs: Vec<Job> = (0..64u32)
            .map(|i| {
                Job::new(
                    i + 1,
                    i % 7 + 1,
                    1,
                    u64::from(i),
                    (i % 16) + 1,
                    100 + u64::from(i) * 3,
                    200 + u64::from(i) * 3,
                )
            })
            .collect();
        let spec = PolicySpec::parse("easy.nomax").unwrap();
        let cfg = spec.sim_config(32);
        let batch = simulate(&jobs, &cfg, &mut NO, SimOptions::new()).unwrap();

        let dir = std::env::temp_dir()
            .join("fairsched-served-session-tests")
            .join("batched");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let session = Arc::new(manual_session("easy.nomax"));
        session.attach_journal(SessionJournal::create(&dir, "default", session.config()).unwrap());
        let handles: Vec<_> = jobs
            .iter()
            .map(|job| {
                let session = Arc::clone(&session);
                let req = SubmitRequest::from_job(job);
                std::thread::spawn(move || session.submit_batched(&req).unwrap().id)
            })
            .collect();
        let acked: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Acked implies journaled, however the submitters raced: every
        // acknowledged id is already on disk, batched into at most one
        // fsync per submission.
        let recovered = replay(&journal_path(&dir, "default"))
            .unwrap()
            .expect("journal has a header");
        let journaled: HashSet<u32> = recovered
            .events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Submit(r) => Some(r.id),
                _ => None,
            })
            .collect();
        assert!(acked.iter().all(|id| journaled.contains(id)));
        assert_eq!(journaled.len(), jobs.len());
        let batches = session.metrics().journal_batches.value();
        assert!((1..=64).contains(&batches), "{batches} journal batches");
        let summary = session.seal().unwrap();
        assert_eq!(summary.records, batch.records.len() as u64);
        assert_eq!(summary.schedule_fnv, schedule_fingerprint(&batch));
        assert_eq!(session.schedule().unwrap(), batch);
    }

    #[test]
    fn subscribers_stream_trace_lines_and_see_the_close() {
        let session = manual_session("easy.nomax");
        let rx = session.subscribe();
        session.submit_batched(&req(1, 1, 0, 32, 100)).unwrap();
        session.submit_batched(&req(2, 2, 5, 32, 50)).unwrap();
        session.seal().unwrap();
        let mut lines = Vec::new();
        while let Ok(Some(line)) = rx.recv() {
            lines.push(line);
        }
        assert!(!lines.is_empty());
        assert!(lines.iter().any(|l| l.contains("job_started")));
    }

    #[test]
    fn slow_subscribers_are_dropped_with_a_counted_loss() {
        let session = Session::new(SessionConfig {
            policy: "easy.nomax".into(),
            nodes: 32,
            clock: ClockMode::Manual,
            trace_buffer: 2, // deliberately tiny: the reader must fall behind
            ..Default::default()
        })
        .unwrap();
        let sub = session.subscribe();
        // Never read while 16 jobs' worth of trace lines broadcast at seal.
        for i in 0..16u32 {
            session
                .submit_batched(&req(i + 1, i + 1, u64::from(i) * 5, 4, 50))
                .unwrap();
        }
        session.seal().unwrap();
        let mut delivered = 0;
        let saw_terminator = loop {
            match sub.recv() {
                Ok(Some(_)) => delivered += 1,
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        assert!(
            !saw_terminator,
            "a dropped subscriber must not see a clean close"
        );
        assert!(delivered <= 2, "buffer held {delivered} lines");
        assert!(sub.dropped() > 0);
        assert_eq!(
            session.metrics().trace_lines_dropped.value(),
            sub.dropped(),
            "registry counter must agree with the per-subscriber count"
        );
        assert_eq!(session.metrics().trace_subscribers_dropped.value(), 1);
    }

    #[test]
    fn healthy_subscribers_report_zero_drops() {
        let session = manual_session("easy.nomax");
        let sub = session.subscribe();
        session.submit_batched(&req(1, 1, 0, 32, 100)).unwrap();
        session.seal().unwrap();
        while let Ok(Some(_)) = sub.recv() {}
        assert_eq!(sub.dropped(), 0);
        assert_eq!(session.metrics().trace_lines_dropped.value(), 0);
    }

    #[test]
    fn sealed_fairness_matches_the_batch_observers() {
        use fairsched_metrics::fairness::hybrid::HybridFstObserver;
        use fairsched_metrics::fairness::peruser::per_user;

        let jobs = [
            Job::new(1, 1, 1, 0, 32, 500, 500),
            Job::new(2, 2, 1, 10, 16, 200, 300),
            Job::new(3, 1, 1, 20, 16, 300, 300),
            Job::new(4, 3, 1, 400, 32, 100, 100),
        ];
        let spec = PolicySpec::parse("easy.nomax").unwrap();
        let cfg = spec.sim_config(32);
        let mut batch = HybridFstObserver::new();
        let schedule = simulate(&jobs, &cfg, &mut batch, SimOptions::new()).unwrap();
        let batch_report = batch.into_report();

        let session = manual_session("easy.nomax");
        for job in &jobs {
            session
                .submit_batched(&SubmitRequest::from_job(job))
                .unwrap();
        }
        session.seal().unwrap();

        assert_eq!(session.fst_report(), batch_report);
        let (snap, users) = session.fairness();
        assert_eq!(users, per_user(&schedule, &batch_report));
        assert!(
            (snap.utilization - schedule.utilization()).abs() < 1e-9,
            "live {} vs batch {}",
            snap.utilization,
            schedule.utilization()
        );
        assert_eq!(snap.completed as usize, schedule.records.len());
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn sealed_sessions_reject_further_work() {
        let session = manual_session("easy.nomax");
        session.submit_batched(&req(1, 1, 0, 4, 10)).unwrap();
        session.seal().unwrap();
        assert!(matches!(
            session.submit_batched(&req(2, 1, 20, 4, 10)),
            Err(ServeError::Sealed)
        ));
        assert!(matches!(session.advance_to(99), Err(ServeError::Sealed)));
        assert!(matches!(session.seal(), Err(ServeError::Sealed)));
        assert!(session.status().sealed);
    }

    #[test]
    fn live_explain_decomposes_a_completed_wait() {
        let session = manual_session("easy.nomax");
        // Job 2 must wait for job 1 to release the whole machine.
        session.submit_batched(&req(1, 1, 0, 32, 300)).unwrap();
        session.submit_batched(&req(2, 2, 10, 32, 100)).unwrap();
        session.advance_to(300).unwrap();
        let breakdown = session
            .explain(JobId(2))
            .unwrap()
            .expect("started job explains");
        assert_eq!(breakdown.submit, 10);
        assert_eq!(breakdown.start, 300);
        session.seal().unwrap();
    }

    #[test]
    fn status_reports_queue_pressure_live() {
        let session = manual_session("easy.nomax");
        session.submit_batched(&req(1, 1, 0, 32, 1000)).unwrap();
        session.submit_batched(&req(2, 2, 0, 32, 1000)).unwrap();
        session.advance_to(0).unwrap();
        let s = session.status();
        assert_eq!(s.running, 1);
        assert_eq!(s.queued, 1);
        assert_eq!(s.accepted, 2);
        assert!(!s.sealed);
        session.seal().unwrap();
    }
}
