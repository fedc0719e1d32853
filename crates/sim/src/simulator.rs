//! The event-driven simulator: the paper's "locally developed event based
//! simulator" (§3.1), rebuilt.
//!
//! [`simulate`] replays a trace under a [`SimConfig`] and produces a
//! [`Schedule`]: one record per submission (chunk, when runtime limits are
//! on), plus the exact loss-of-capacity and utilization integrals.
//! Trace/config validation and invariant violations come back as a typed
//! [`SimError`] instead of a panic.
//!
//! The event loop here is dispatch plus invariants; its collaborators own
//! the policy and bookkeeping: the [`engine`](crate::engine) strategies
//! decide who starts, the internal `lifecycle` module owns how submissions
//! come to exist (pending arrivals, chunk chains, crash recovery), and the
//! internal `accounting` module integrates what it all added up to.
//!
//! Semantics, in event order at each instant: completions free capacity,
//! wall-clock-limit expiries are considered, fault events (node repairs,
//! node failures, job crashes) hit the machine, arrivals queue, then the
//! scheduling engine runs (interleaved with the when-needed kill rule)
//! until a fixpoint. Two invariants are checked after every event batch,
//! always (not just in debug builds): no node is double-booked
//! (`running + free + down == machine`), and at the end of the run the
//! node-hour integrals conserve (`used + idle + down == capacity × time`).

use crate::accounting::{Accounting, GapState};
use crate::config::{AllocationModel, KillPolicy, SimConfig};
use crate::engine::{Engine, EngineCtx};
use crate::event::{EventKind, EventQueue};
use crate::fairshare::FairshareTracker;
use crate::faults::{FaultModel, Outage, ResiliencePolicy};
use crate::lifecycle::{Lifecycle, PendingSubmission};
use crate::starvation::starving_jobs;
use crate::state::{ArrivalView, Observer, QueuedJob, RunningJob};
use fairsched_cpa::alloc::AllocId;
use fairsched_cpa::{frag, Allocator, CountingAllocator, LinearAllocator};
use fairsched_obs::{counters, TraceBuf, TraceRecord};
use fairsched_workload::job::{GroupId, Job, JobId, UserId};
use fairsched_workload::time::{Time, WEEK};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative cancellation handle shared between a simulation and an
/// external controller (e.g. a sweep watchdog). Cloning produces another
/// handle to the *same* flag; once [`CancelToken::cancel`] fires, every
/// simulation checking that token stops at its next event batch with
/// [`SimError::TimedOut`].
///
/// Cancellation is level-triggered and one-way: there is no reset, so a
/// token is for a single cell/run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Safe to call from any thread, any number of
    /// times.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One submission's fate. With runtime limits active, a long job appears as
/// several records chained by [`JobRecord::origin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// This submission's id (fresh ids for chunks ≥ 2).
    pub id: JobId,
    /// The original trace job this record belongs to (== `id` for
    /// standalone jobs and first chunks).
    pub origin: JobId,
    /// 0 for a first standalone submission; otherwise a 1-based,
    /// per-origin monotone chunk number — runtime-limit chunks and
    /// crash resubmissions share the counter, so `(origin, chunk_index)`
    /// uniquely identifies a submission attempt.
    pub chunk_index: u32,
    /// Submitting user.
    pub user: UserId,
    /// Submitting group.
    pub group: GroupId,
    /// Width in nodes.
    pub nodes: u32,
    /// When this submission entered the queue.
    pub submit: Time,
    /// When the *original* job entered the system (chains: first chunk's
    /// submit).
    pub origin_submit: Time,
    /// Start time.
    pub start: Time,
    /// End time (completion or kill).
    pub end: Time,
    /// Wall-clock limit of this submission.
    pub estimate: Time,
    /// Whether the scheduler killed it at/after its wall-clock limit.
    pub killed: bool,
    /// Whether a fault (node failure or job crash) ended this submission
    /// prematurely. Only set when fault injection is enabled.
    pub interrupted: bool,
}

impl JobRecord {
    /// Seconds actually executed.
    pub fn executed(&self) -> Time {
        self.end - self.start
    }

    /// Queue wait of this submission.
    pub fn wait(&self) -> Time {
        self.start - self.submit
    }

    /// Turnaround of this submission (not the chain).
    pub fn turnaround(&self) -> Time {
        self.end - self.submit
    }
}

/// A whole original job, chains collapsed (the unit user metrics are
/// reported over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginalOutcome {
    /// Original trace job id.
    pub origin: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Width in nodes.
    pub nodes: u32,
    /// Original submit time.
    pub submit: Time,
    /// First chunk's start.
    pub first_start: Time,
    /// Last chunk's end.
    pub completion: Time,
    /// Total seconds executed across chunks.
    pub executed: Time,
    /// Number of submissions (1 for standalone).
    pub chunks: u32,
    /// Whether any chunk was killed.
    pub killed: bool,
    /// Whether any chunk was ended by a fault.
    pub interrupted: bool,
}

impl OriginalOutcome {
    /// Turnaround of the original job: submit → last completion.
    pub fn turnaround(&self) -> Time {
        self.completion - self.submit
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Machine size.
    pub nodes: u32,
    /// Per-submission records, sorted by id.
    pub records: Vec<JobRecord>,
    /// ∫ min(queued demand, idle nodes) dt — the loss-of-capacity numerator
    /// (Equation 4), in node-seconds.
    pub waste_nodeseconds: f64,
    /// ∫ busy nodes dt, in node-seconds.
    pub busy_nodeseconds: f64,
    /// ∫ down nodes dt, in node-seconds — capacity lost to node outages.
    pub down_nodeseconds: f64,
    /// Node-seconds of executed work discarded by crashes (nonzero only
    /// under [`ResiliencePolicy::RequeueFromScratch`]; resumed chunks keep
    /// their pre-failure work).
    pub lost_nodeseconds: f64,
    /// Busy node-seconds binned by simulated week (for Figure 3's actual
    /// utilization).
    pub weekly_busy: Vec<f64>,
    /// Earliest job start (Equation 3's `MinStartTime`).
    pub min_start: Time,
    /// Latest completion (`MaxCompletionTime`).
    pub max_completion: Time,
    /// Placement-quality statistics, present when the simulation ran with a
    /// linear (CPA) allocation model.
    pub placement: Option<PlacementStats>,
    /// Queue-pressure statistics over the whole run.
    pub queue_stats: QueueStats,
}

/// Time-weighted queue-pressure statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueueStats {
    /// Largest number of jobs simultaneously queued.
    pub max_queued_jobs: usize,
    /// Largest queued node demand observed.
    pub max_queued_demand: u64,
    /// Time-weighted mean number of queued jobs.
    pub mean_queued_jobs: f64,
    /// Time-weighted mean queued node demand.
    pub mean_queued_demand: f64,
}

/// Aggregate placement quality under a linear (CPA) allocation model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementStats {
    /// Number of allocations placed.
    pub allocations: usize,
    /// Mean compactness (1 = contiguous) across allocations.
    pub mean_compactness: f64,
    /// Mean physical span across allocations, in nodes.
    pub mean_span: f64,
    /// Allocations that had to scatter (span exceeds the contiguous
    /// minimum).
    pub scattered: usize,
    /// Mean external fragmentation of the free space, sampled just before
    /// each allocation.
    pub mean_external_frag: f64,
}

impl Schedule {
    /// Makespan per Equation 3.
    pub fn makespan(&self) -> Time {
        self.max_completion.saturating_sub(self.min_start)
    }

    /// Utilization per Equation 2.
    pub fn utilization(&self) -> f64 {
        let denom = self.makespan() as f64 * self.nodes as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.busy_nodeseconds / denom
    }

    /// Goodput: the fraction of capacity over the makespan that did work
    /// which *counted* — busy node-seconds minus the ones a crash later
    /// threw away. Equals [`Schedule::utilization`] on a fault-free run.
    pub fn goodput(&self) -> f64 {
        let denom = self.makespan() as f64 * self.nodes as f64;
        if denom == 0.0 {
            return 0.0;
        }
        (self.busy_nodeseconds - self.lost_nodeseconds) / denom
    }

    /// Loss of capacity per Equation 4.
    pub fn loss_of_capacity(&self) -> f64 {
        let denom = self.makespan() as f64 * self.nodes as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.waste_nodeseconds / denom
    }

    /// Weekly actual utilization (Figure 3's second series).
    pub fn weekly_utilization(&self) -> Vec<f64> {
        let cap = self.nodes as f64 * WEEK as f64;
        self.weekly_busy.iter().map(|b| b / cap).collect()
    }

    /// Collapses chains into per-original outcomes, sorted by origin id.
    pub fn originals(&self) -> Vec<OriginalOutcome> {
        let mut map: HashMap<JobId, OriginalOutcome> = HashMap::new();
        for r in &self.records {
            map.entry(r.origin)
                .and_modify(|o| {
                    o.first_start = o.first_start.min(r.start);
                    o.completion = o.completion.max(r.end);
                    o.executed += r.executed();
                    o.chunks += 1;
                    o.killed |= r.killed;
                    o.interrupted |= r.interrupted;
                })
                .or_insert(OriginalOutcome {
                    origin: r.origin,
                    user: r.user,
                    nodes: r.nodes,
                    submit: r.origin_submit,
                    first_start: r.start,
                    completion: r.end,
                    executed: r.executed(),
                    chunks: 1,
                    killed: r.killed,
                    interrupted: r.interrupted,
                });
        }
        let mut out: Vec<OriginalOutcome> = map.into_values().collect();
        out.sort_by_key(|o| o.origin);
        out
    }
}

/// Why a simulation could not run (or could not be trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A trace job requests more nodes than the machine has.
    TooWide {
        /// The offending job.
        job: JobId,
        /// Its requested width.
        nodes: u32,
        /// The machine size.
        machine: u32,
    },
    /// A trace job fails its own invariants (zero nodes/runtime/estimate).
    InvalidTrace {
        /// The offending job.
        job: JobId,
        /// What was wrong.
        reason: String,
    },
    /// The configuration is self-contradictory.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// A runtime invariant broke mid-simulation — a simulator bug, caught
    /// by the always-on observer rather than silently producing a corrupt
    /// schedule.
    InvariantViolation {
        /// Simulated time of the detection.
        at: Time,
        /// What broke.
        detail: String,
    },
    /// The fault configuration makes a job unable to ever finish — it was
    /// resubmitted more times than any legitimate chunk chain could need
    /// (e.g. a wide job whose nodes cannot all stay up for a whole chunk
    /// at the configured MTBF), so the simulation would never terminate.
    Diverged {
        /// The origin job that kept being resubmitted.
        job: JobId,
        /// Submissions accumulated before the guard tripped.
        attempts: u32,
    },
    /// An online submission is dated before the simulated-time frontier
    /// the core has already advanced past. Accepting it would silently
    /// rewrite history (the event queue orders by time, so a
    /// yet-unreached timestamp is fine — a passed one is not).
    SubmittedInPast {
        /// The offending submission.
        job: JobId,
        /// Its timestamp.
        submit: Time,
        /// The frontier it fell behind.
        now: Time,
    },
    /// The run's [`CancelToken`] fired (watchdog timeout or external
    /// cancellation) and the event loop stopped cooperatively.
    TimedOut {
        /// Simulated time at which the cancellation was observed.
        at: Time,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the legacy panic wording: callers match on "nodes on a".
            SimError::TooWide {
                job,
                nodes,
                machine,
            } => {
                write!(
                    f,
                    "{job} requests {nodes} nodes on a {machine}-node machine"
                )
            }
            SimError::InvalidTrace { job, reason } => {
                write!(f, "invalid trace job {job}: {reason}")
            }
            SimError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            SimError::InvariantViolation { at, detail } => {
                write!(f, "invariant violation at t={at}: {detail}")
            }
            SimError::Diverged { job, attempts } => {
                write!(
                    f,
                    "{job} was resubmitted {attempts} times without finishing; \
                     the fault configuration (MTBF / crash rate) makes it \
                     unable to complete"
                )
            }
            SimError::SubmittedInPast { job, submit, now } => {
                write!(
                    f,
                    "{job} submitted at t={submit} but simulated time has \
                     already advanced to t={now}"
                )
            }
            SimError::TimedOut { at } => {
                write!(f, "simulation cancelled at t={at} (watchdog timeout)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The job checks every entry point runs before admitting a submission, in
/// error precedence order: it fits a `machine`-node machine, passes its own
/// invariants, and is not a `duplicate` of an id the run already holds.
pub(crate) fn validate_job(job: &Job, machine: u32, duplicate: bool) -> Result<(), SimError> {
    if job.nodes > machine {
        return Err(SimError::TooWide {
            job: job.id,
            nodes: job.nodes,
            machine,
        });
    }
    job.validate().map_err(|e| SimError::InvalidTrace {
        job: job.id,
        reason: e.to_string(),
    })?;
    if duplicate {
        return Err(SimError::InvalidTrace {
            job: job.id,
            reason: "duplicate job id".into(),
        });
    }
    Ok(())
}

/// The configuration checks every entry point runs before building a core.
pub(crate) fn validate_config(cfg: &SimConfig) -> Result<(), SimError> {
    if cfg.user_concurrency.is_some_and(|cap| cap < 1) {
        return Err(SimError::InvalidConfig {
            reason: "user_concurrency must be at least 1".into(),
        });
    }
    cfg.faults
        .validate()
        .map_err(|reason| SimError::InvalidConfig { reason })
}

/// Why a running job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// Ran to its natural completion.
    Finished,
    /// Killed by the scheduler at/after its wall-clock limit.
    Killed,
    /// Ended by a fault (node failure or software crash).
    Crashed,
}

/// A record under construction.
#[derive(Debug, Clone, Copy)]
struct OpenRecord {
    pending: PendingSubmission,
    submit: Time,
    start: Option<Time>,
}

/// The node-assignment backend: either pure counting or a real CPA line.
/// Both honour the same contract (allocate on start, release on end); only
/// the linear variant tracks concrete nodes and placement quality.
#[derive(Clone)]
struct NodeBackend {
    kind: BackendKind,
    ids: HashMap<JobId, AllocId>,
    // PlacementStats accumulators (linear only).
    allocations: usize,
    compactness_sum: f64,
    span_sum: f64,
    scattered: usize,
    frag_sum: f64,
}

#[derive(Clone)]
enum BackendKind {
    Counting(CountingAllocator),
    Linear(LinearAllocator),
}

impl NodeBackend {
    fn new(cfg: &SimConfig) -> Self {
        let kind = match cfg.allocation {
            AllocationModel::Counting => BackendKind::Counting(CountingAllocator::new(cfg.nodes)),
            AllocationModel::Linear(strategy) => {
                BackendKind::Linear(LinearAllocator::new(cfg.nodes, strategy))
            }
        };
        NodeBackend {
            kind,
            ids: HashMap::new(),
            allocations: 0,
            compactness_sum: 0.0,
            span_sum: 0.0,
            scattered: 0,
            frag_sum: 0.0,
        }
    }

    fn place(&mut self, job: JobId, nodes: u32) {
        let allocation = match &mut self.kind {
            BackendKind::Counting(a) => a
                .allocate(nodes)
                .expect("scheduler start gate guarantees fit"),
            BackendKind::Linear(a) => {
                // Sample fragmentation of the free space this job faced.
                self.frag_sum += frag::external_fragmentation(&a.free_runs());
                let allocation = a
                    .allocate(nodes)
                    .expect("scheduler start gate guarantees fit");
                self.allocations += 1;
                self.compactness_sum += frag::compactness(&allocation.nodes);
                let span = frag::span(&allocation.nodes);
                self.span_sum += span as f64;
                if span > nodes.saturating_sub(1) {
                    self.scattered += 1;
                }
                allocation
            }
        };
        self.ids.insert(job, allocation.id);
    }

    fn release(&mut self, job: JobId) {
        let id = self
            .ids
            .remove(&job)
            .expect("running job holds an allocation");
        match &mut self.kind {
            BackendKind::Counting(a) => a.release(id).expect("allocation is live"),
            BackendKind::Linear(a) => a.release(id).expect("allocation is live"),
        }
    }

    fn stats(&self) -> Option<PlacementStats> {
        match self.kind {
            BackendKind::Counting(_) => None,
            BackendKind::Linear(_) => {
                let n = self.allocations.max(1) as f64;
                Some(PlacementStats {
                    allocations: self.allocations,
                    mean_compactness: self.compactness_sum / n,
                    mean_span: self.span_sum / n,
                    scattered: self.scattered,
                    mean_external_frag: self.frag_sum / n,
                })
            }
        }
    }
}

#[derive(Clone)]
pub(crate) struct Sim {
    cfg: SimConfig,
    events: EventQueue,
    now: Time,
    free: u32,
    backend: NodeBackend,
    queue: Vec<QueuedJob>,
    runtimes: HashMap<JobId, Time>,
    running: Vec<RunningJob>,
    overdue: Vec<JobId>,
    fairshare: FairshareTracker,
    // Submission lifecycle: pending arrivals, chunk chains, crash recovery.
    lifecycle: Lifecycle,
    open: HashMap<JobId, OpenRecord>,
    records: Vec<JobRecord>,
    // Closed-loop user feedback (user_concurrency): live job counts and
    // per-user FIFOs of deferred submissions.
    in_system: HashMap<UserId, u32>,
    parked: HashMap<UserId, std::collections::VecDeque<JobId>>,
    // Fault injection: the seeded model, the count of nodes down, live
    // outages (what the engines plan around), per-seq bookkeeping for
    // scheduled failures and concrete down nodes (linear backend only).
    faults: Option<FaultModel>,
    down: u32,
    outages: Vec<Outage>,
    repairs: HashMap<u32, Time>,
    outage_nodes: HashMap<u32, u32>,
    // Utilization / LOC / queue-pressure integrals.
    acct: Accounting,
    // Decision tracing (None on untraced runs — the default). Records land
    // in an owned, shareable buffer the driver drains per step (the batch
    // driver appends them to the caller's Vec; the stepped core returns
    // them as effects). Emission never feeds back into scheduling;
    // `promoted` only dedupes StarvationPromoted records and is touched
    // only while tracing.
    trace: Option<TraceBuf>,
    promoted: HashSet<JobId>,
    // Cooperative cancellation (None on unguarded runs — the default).
    // Checked once per event batch, so a fired token stops the run within
    // one `step` regardless of trace length.
    cancel: Option<CancelToken>,
}

/// Everything optional about one simulation run, in one builder.
///
/// Every batch run goes through
/// [`simulate`]`(trace, cfg, observer, SimOptions)`: tracing, cooperative
/// cancellation, and a fault-model override are knobs on this builder
/// instead of positional `Option` parameters.
///
/// ```
/// use fairsched_sim::{simulate, NullObserver, SimConfig, SimOptions};
/// use fairsched_workload::job::Job;
///
/// let trace = [Job::new(1, 1, 1, 0, 4, 100, 100)];
/// let cfg = SimConfig { nodes: 10, ..Default::default() };
/// let schedule = simulate(&trace, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
/// assert_eq!(schedule.records[0].start, 0);
/// ```
#[derive(Default)]
pub struct SimOptions<'a> {
    pub(crate) trace: Option<&'a mut Vec<TraceRecord>>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) faults: Option<crate::faults::FaultConfig>,
}

impl<'a> SimOptions<'a> {
    /// No tracing, no cancellation, the config's own fault model — the
    /// plain run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams every scheduling decision (starts with their cause,
    /// reservation moves, starvation promotions, fault requeues) and a
    /// per-event-batch queue sample onto `records` as [`TraceRecord`]s.
    /// Tracing is strictly write-only: the returned `Schedule` is
    /// byte-identical to the untraced run (pinned by the workspace
    /// `obs_interference` proptests).
    pub fn trace(mut self, records: &'a mut Vec<TraceRecord>) -> Self {
        self.trace = Some(records);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: when a watchdog (or any
    /// other controller) fires it, the event loop stops at its next batch
    /// with [`SimError::TimedOut`] — no partial `Schedule` escapes.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Overrides the config's fault model for this run without cloning the
    /// whole `SimConfig` at every call site.
    pub fn faults(mut self, faults: crate::faults::FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// The single batch entry point: replays `trace` under `cfg` with
/// everything optional selected by [`SimOptions`]. Trace/config problems
/// and mid-run invariant violations come back as a typed [`SimError`]
/// instead of a panic.
///
/// This is a thin driver over the stepped core: it submits each trace job
/// into a [`SteppedSim`](crate::step::SteppedSim) when the clock reaches
/// its submit time, grants the virtual clock one event batch at a time via
/// [`SimEvent::AdvanceTo`](crate::step::SimEvent), and forwards
/// [`Effect::Trace`](crate::step::Effect) records to the caller's buffer.
/// Byte-exactness with the pre-step-core driver is pinned by the 34 FNV
/// goldens in `tests/engine_equivalence.rs`.
///
/// ```
/// use fairsched_sim::{simulate, NullObserver, SimConfig, SimOptions};
/// use fairsched_workload::job::Job;
///
/// // Two jobs on a 10-node machine: the second must queue behind the first.
/// let trace = [
///     Job::new(1, 1, 1, 0, 10, 100, 100),
///     Job::new(2, 2, 1, 5, 10, 50, 50),
/// ];
/// let cfg = SimConfig { nodes: 10, ..Default::default() };
/// let schedule = simulate(&trace, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
/// assert_eq!(schedule.records[1].start, 100);
/// assert_eq!(schedule.makespan(), 150);
/// ```
pub fn simulate(
    trace: &[Job],
    cfg: &SimConfig,
    observer: &mut dyn Observer,
    opts: SimOptions<'_>,
) -> Result<Schedule, SimError> {
    use crate::step::{Effect, SimEvent, SteppedSim};
    // Validate the whole trace up front (the historical error precedence:
    // job problems surface before config problems).
    let mut ids = HashSet::with_capacity(trace.len());
    for job in trace {
        validate_job(job, cfg.nodes, !ids.insert(job.id))?;
    }
    let faulted_cfg;
    let cfg = match opts.faults {
        Some(faults) => {
            faulted_cfg = SimConfig {
                faults,
                ..cfg.clone()
            };
            &faulted_cfg
        }
        None => cfg,
    };
    let mut records = opts.trace;
    let mut core = SteppedSim::with_trace_effects(cfg, records.is_some())?;
    if let Some(cancel) = opts.cancel {
        core.set_cancel(cancel);
    }
    // Admit each job only when the clock reaches its submit time — the
    // submit → advance sequence an online session runs — so the core never
    // holds the whole trace as pending submissions at once.
    core.expect_trace(trace);
    let mut due: Vec<&Job> = trace.iter().collect();
    due.sort_by_key(|job| job.submit);
    let mut due = due.into_iter().peekable();
    loop {
        let at = match (core.next_wakeup(), due.peek().map(|job| job.submit)) {
            (Some(wake), Some(submit)) => wake.min(submit),
            (Some(at), None) | (None, Some(at)) => at,
            (None, None) => break,
        };
        while let Some(job) = due.next_if(|job| job.submit <= at) {
            core.step(SimEvent::Submit(job.clone()), observer)?;
        }
        for effect in core.step(SimEvent::AdvanceTo(at), observer)? {
            if let (Effect::Trace { record }, Some(records)) = (effect, records.as_deref_mut()) {
                records.push(record);
            }
        }
    }
    let schedule = core.finish()?;
    observer.on_finish(&schedule);
    Ok(schedule)
}

impl Sim {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let mut sim = Sim {
            cfg: cfg.clone(),
            events: EventQueue::new(),
            now: 0,
            free: cfg.nodes,
            backend: NodeBackend::new(cfg),
            queue: Vec::new(),
            runtimes: HashMap::new(),
            running: Vec::new(),
            overdue: Vec::new(),
            fairshare: FairshareTracker::new(cfg.fairshare),
            lifecycle: Lifecycle::new(),
            open: HashMap::new(),
            records: Vec::new(),
            in_system: HashMap::new(),
            parked: HashMap::new(),
            faults: cfg
                .faults
                .enabled()
                .then(|| FaultModel::new(&cfg.faults, cfg.nodes)),
            down: 0,
            outages: Vec::new(),
            repairs: HashMap::new(),
            outage_nodes: HashMap::new(),
            acct: Accounting::new(),
            trace: None,
            promoted: HashSet::new(),
            cancel: None,
        };
        sim.schedule_next_failure();
        sim
    }

    /// Draws the next node failure from the fault model (if node outages
    /// are on) and schedules it. The failure timeline is a pure function of
    /// the fault seed, so this never perturbs — and is never perturbed by —
    /// scheduling decisions.
    fn schedule_next_failure(&mut self) {
        let after = self.now;
        if let Some(f) = self.faults.as_mut().and_then(|fm| fm.next_failure(after)) {
            self.repairs.insert(f.seq, f.repair);
            self.events.push(f.time, EventKind::NodeDown, JobId(f.seq));
        }
    }

    /// Runs [`validate_job`] against this machine and the ids this run
    /// already holds. Callers check before [`Sim::admit`].
    pub(crate) fn validate(&self, job: &Job) -> Result<(), SimError> {
        validate_job(job, self.cfg.nodes, self.knows(job.id))
    }

    /// Whether `id` already names a submission of this run.
    pub(crate) fn knows(&self, id: JobId) -> bool {
        self.lifecycle.knows(id)
    }

    /// Registers an original trace job: either a standalone submission or
    /// the head of a runtime-limited chain.
    pub(crate) fn admit(&mut self, job: &Job) {
        self.lifecycle.admit(&self.cfg, job, &mut self.events);
    }

    /// Attaches a cancellation token; clones made afterwards share it.
    pub(crate) fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Whether every admitted submission has been played out: no pending
    /// arrivals, nothing queued, nothing running.
    pub(crate) fn is_drained(&self) -> bool {
        !self.lifecycle.has_pending() && self.queue.is_empty() && self.running.is_empty()
    }

    /// Attaches (or detaches) the owned trace buffer records are emitted
    /// into. Set before the first step; the stepped core drains it into
    /// `Effect::Trace` values.
    pub(crate) fn set_trace(&mut self, trace: Option<TraceBuf>) {
        self.trace = trace;
    }

    /// Raises the id floor fresh chunk/resubmission ids are minted from.
    pub(crate) fn reserve_ids(&mut self, floor: u32) {
        self.lifecycle.reserve_ids(floor);
    }

    /// Current simulated time (the processed event frontier).
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Queue and running-set sizes, for live status queries.
    pub(crate) fn pressure(&self) -> (usize, usize, u32, u32) {
        (self.queue.len(), self.running.len(), self.free, self.down)
    }

    /// Processes the next event batch — every event at the earliest pending
    /// instant — followed by the scheduling fixpoint and the invariant
    /// check. Returns `Ok(false)` when no events remain, or when the next
    /// batch lies strictly after `horizon`: it is left pending, so a
    /// virtual-clock driver can grant simulated time in bounded slices
    /// without ever processing an event the clock has not reached.
    pub(crate) fn step_bounded(
        &mut self,
        horizon: Option<Time>,
        engine: &mut Engine,
        observer: &mut dyn Observer,
    ) -> Result<bool, SimError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::TimedOut { at: self.now });
        }
        if self
            .events
            .peek()
            .is_none_or(|e| horizon.is_some_and(|h| e.time > h))
        {
            return Ok(false);
        }
        let first = self.events.pop().expect("peeked");
        self.advance_to(first.time);
        self.process(first, engine, observer);
        while self.events.peek().is_some_and(|e| e.time == self.now) {
            let ev = self.events.pop().expect("peeked");
            self.process(ev, engine, observer);
        }
        self.trace_promotions();
        self.schedule_pass(engine, observer);
        self.trace_queue_sample();
        self.check_invariants()?;
        Ok(true)
    }

    /// Emits a `StarvationPromoted` record the first time each job crosses
    /// the starvation threshold. Traced runs only; promotion is a pure
    /// function of (queue, now), so recomputing it here cannot disturb the
    /// engine's own starvation query during the pass.
    fn trace_promotions(&mut self) {
        let (Some(t), Some(cfg)) = (self.trace.clone(), self.cfg.starvation.as_ref()) else {
            return;
        };
        for idx in starving_jobs(&self.queue, self.now, cfg, &self.fairshare, &self.running) {
            let q = &self.queue[idx];
            if self.promoted.insert(q.id) {
                t.emit(TraceRecord::StarvationPromoted {
                    at: self.now,
                    job: q.id,
                    waited: self.now - q.arrival,
                });
            }
        }
    }

    /// Emits one `QueueSample` per event batch, after the scheduling
    /// fixpoint settles (traced runs only). The sampled state holds until
    /// the next event, which is what trace replays rely on.
    fn trace_queue_sample(&mut self) {
        let Some(t) = self.trace.clone() else {
            return;
        };
        let queued_nodes: u64 = self.queue.iter().map(|q| q.nodes as u64).sum();
        let busy = self.cfg.nodes - self.free - self.down;
        t.emit(TraceRecord::QueueSample {
            at: self.now,
            depth: self.queue.len(),
            queued_nodes,
            free_nodes: self.free,
            running: self.running.len(),
            util: busy as f64 / self.cfg.nodes.max(1) as f64,
        });
    }

    /// Time of the earliest pending event, if any.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        self.events.peek().map(|e| e.time)
    }

    /// The recorded start of submission `id`, once it has started. Stays
    /// available through the open record while running and through the
    /// finalized record afterwards.
    pub(crate) fn start_time_of(&self, id: JobId) -> Option<Time> {
        if let Some(open) = self.open.get(&id) {
            return open.start;
        }
        self.records
            .iter()
            .rev()
            .find(|r| r.id == id)
            .map(|r| r.start)
    }

    /// Finished submissions' records so far, in completion order.
    pub(crate) fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// The record submission `id` would get if it ended now, while it
    /// runs: every field is final except `end` (now) and the kill and
    /// interrupt flags (false). `None` unless `id` is running.
    pub(crate) fn open_record(&self, id: JobId) -> Option<JobRecord> {
        let open = self.open.get(&id)?;
        let start = open.start?;
        Some(JobRecord {
            id,
            origin: open.pending.origin,
            chunk_index: open.pending.chunk_index,
            user: open.pending.user,
            group: open.pending.group,
            nodes: open.pending.nodes,
            submit: open.submit,
            origin_submit: open.pending.origin_submit,
            start,
            end: self.now,
            estimate: open.pending.estimate,
            killed: false,
            interrupted: false,
        })
    }

    /// Prepares for a trace the driver will admit lazily, each job once
    /// the clock reaches its submit time: presizes the record store and
    /// counts the jobs as expected (see [`Lifecycle::expect`]).
    pub(crate) fn expect(&mut self, jobs: usize) {
        self.records.reserve(jobs);
        self.lifecycle.expect(jobs);
    }

    /// Always-on invariant observer: no node is ever double-booked, and the
    /// allocation ledger matches the running set. O(running) per event
    /// batch — cheap enough to leave on outside debug builds, where a
    /// violated invariant must surface as a typed error, not a corrupt
    /// schedule.
    fn check_invariants(&self) -> Result<(), SimError> {
        if let Some(e) = self.lifecycle.diverged() {
            return Err(e.clone());
        }
        let running: u64 = self.running.iter().map(|r| r.nodes as u64).sum();
        let accounted = running + self.free as u64 + self.down as u64;
        if accounted != self.cfg.nodes as u64 {
            return Err(SimError::InvariantViolation {
                at: self.now,
                detail: format!(
                    "node double-booking: running {} + free {} + down {} != machine {}",
                    running, self.free, self.down, self.cfg.nodes
                ),
            });
        }
        if self.backend.ids.len() != self.running.len() {
            return Err(SimError::InvariantViolation {
                at: self.now,
                detail: format!(
                    "allocation ledger holds {} entries for {} running jobs",
                    self.backend.ids.len(),
                    self.running.len()
                ),
            });
        }
        if self.down as usize != self.outages.len() {
            return Err(SimError::InvariantViolation {
                at: self.now,
                detail: format!(
                    "down count {} disagrees with {} live outages",
                    self.down,
                    self.outages.len()
                ),
            });
        }
        Ok(())
    }

    /// End-of-run node-hour conservation: every node-second from t=0 to the
    /// last event was spent busy, idle, or down — nothing created, nothing
    /// leaked. Tolerance covers float accumulation only.
    fn check_conservation(&self) -> Result<(), SimError> {
        let (integrated, capacity) = self.acct.conservation_residual(self.cfg.nodes, self.now);
        if (integrated - capacity).abs() > 1e-6 * capacity.max(1.0) {
            return Err(SimError::InvariantViolation {
                at: self.now,
                detail: format!(
                    "node-hour conservation: used+idle+down = {integrated} \
                     but capacity×time = {capacity}"
                ),
            });
        }
        Ok(())
    }

    /// Advances accounting (fairshare accrual, LOC/busy integrals) to `to`.
    fn advance_to(&mut self, to: Time) {
        debug_assert!(to >= self.now);
        if to > self.now {
            let queued_demand: u64 = self.queue.iter().map(|q| q.nodes as u64).sum();
            self.acct.observe(
                self.now,
                to,
                GapState {
                    queued_jobs: self.queue.len(),
                    queued_demand,
                    free: self.free,
                    down: self.down,
                    total: self.cfg.nodes,
                },
            );
            let pairs: Vec<(UserId, u32)> =
                self.running.iter().map(|r| (r.user, r.nodes)).collect();
            self.fairshare.advance(to, &pairs);
        } else {
            self.fairshare.advance(to, &[]);
        }
        self.now = to;
    }

    fn process(
        &mut self,
        ev: crate::event::Event,
        engine: &mut Engine,
        observer: &mut dyn Observer,
    ) {
        match ev.kind {
            EventKind::Arrival => self.handle_arrival(ev.job, engine, observer),
            EventKind::Completion => {
                // Stale if the job is no longer running at this exact end.
                let valid = self
                    .running
                    .iter()
                    .any(|r| r.id == ev.job && r.scheduled_end == ev.time);
                if valid {
                    self.complete(ev.job, Cause::Finished, engine, observer);
                }
            }
            EventKind::WclExpiry => {
                let running = self.running.iter().any(|r| r.id == ev.job);
                if running {
                    match self.cfg.kill {
                        KillPolicy::AtWcl => self.complete(ev.job, Cause::Killed, engine, observer),
                        KillPolicy::WhenNeeded => {
                            if self.queue.is_empty() {
                                self.overdue.push(ev.job);
                            } else {
                                self.complete(ev.job, Cause::Killed, engine, observer);
                            }
                        }
                        KillPolicy::Never => {}
                    }
                }
            }
            // Fault events carry the outage sequence number in `job`.
            EventKind::NodeDown => self.handle_node_down(ev.job.0, engine, observer),
            EventKind::NodeUp => self.handle_node_up(ev.job.0),
            EventKind::JobCrash => {
                // Stale if the job already ended (completion, kill, or an
                // earlier node failure).
                if self.running.iter().any(|r| r.id == ev.job) {
                    self.complete(ev.job, Cause::Crashed, engine, observer);
                }
            }
        }
    }

    /// A node fails: pick a victim uniformly among functional nodes. An
    /// idle victim just goes down; a victim under a running job crashes
    /// that job (its other nodes come back free, the failed one does not).
    fn handle_node_down(&mut self, seq: u32, engine: &mut Engine, observer: &mut dyn Observer) {
        let repair = self
            .repairs
            .remove(&seq)
            .expect("scheduled failure has a repair time");
        // Once every submission has been played out there is nothing left
        // for failures to disturb: stop regenerating them so the event
        // queue can drain and the run can end. (Until then the timeline is
        // a pure function of the seed: the next failure is drawn before
        // this one touches anything.)
        let work_remains =
            self.lifecycle.has_pending() || !self.queue.is_empty() || !self.running.is_empty();
        if !work_remains {
            return;
        }
        self.schedule_next_failure();
        let functional = self.cfg.nodes - self.down;
        if functional == 0 {
            // Whole machine already down; the failure has nothing to hit.
            return;
        }
        let fm = self
            .faults
            .as_mut()
            .expect("node events exist only with a fault model");
        let r = fm.pick_victim(functional);
        if r < self.free {
            // Idle victim: the r-th free node in ascending order.
            if let BackendKind::Linear(a) = &mut self.backend.kind {
                let node = a.nth_free(r).expect("r < free_count");
                a.mark_down(node).expect("free node can go down");
                self.outage_nodes.insert(seq, node);
            }
            self.free -= 1;
        } else {
            // Busy victim: map the remainder onto running jobs in id order
            // by cumulative width.
            let mut jobs: Vec<(JobId, u32)> =
                self.running.iter().map(|j| (j.id, j.nodes)).collect();
            jobs.sort_unstable_by_key(|&(id, _)| id);
            let mut rest = r - self.free;
            let victim = jobs
                .iter()
                .find(|&&(_, w)| {
                    if rest < w {
                        true
                    } else {
                        rest -= w;
                        false
                    }
                })
                .map(|&(id, _)| id)
                .expect("victim index within cumulative running widths");
            // Remember a concrete node of the victim before its allocation
            // is released: that is the one that physically failed.
            let failed_node = match &self.backend.kind {
                BackendKind::Linear(a) => {
                    let alloc = self.backend.ids[&victim];
                    a.nodes_of(alloc).and_then(|ns| ns.first().copied())
                }
                BackendKind::Counting(_) => None,
            };
            self.complete(victim, Cause::Crashed, engine, observer);
            if let BackendKind::Linear(a) = &mut self.backend.kind {
                let node = failed_node.expect("linear backend tracks victim nodes");
                a.mark_down(node)
                    .expect("victim node was freed by the crash");
                self.outage_nodes.insert(seq, node);
            }
            self.free -= 1;
        }
        self.down += 1;
        self.outages.push(Outage {
            seq,
            until: self.now + repair,
        });
        if let Some(t) = self.trace.clone() {
            // `node` is the outage sequence number: stable across backends
            // (the counting backend has no physical node identities).
            t.emit(TraceRecord::NodeFailed {
                at: self.now,
                node: seq as u64,
                until: self.now + repair,
            });
        }
        self.events
            .push(self.now + repair, EventKind::NodeUp, JobId(seq));
    }

    /// A repaired node rejoins the free pool.
    fn handle_node_up(&mut self, seq: u32) {
        let pos = self
            .outages
            .iter()
            .position(|o| o.seq == seq)
            .expect("repair for unknown outage");
        self.outages.remove(pos);
        self.down -= 1;
        self.free += 1;
        if let BackendKind::Linear(a) = &mut self.backend.kind {
            let node = self
                .outage_nodes
                .remove(&seq)
                .expect("linear outage tracks a node");
            a.mark_up(node).expect("down node comes back up");
        }
    }

    fn handle_arrival(&mut self, id: JobId, engine: &mut Engine, observer: &mut dyn Observer) {
        // Closed-loop feedback: a user at their concurrency cap defers this
        // submission until one of their jobs finishes.
        if let Some(cap) = self.cfg.user_concurrency {
            let user = self.lifecycle.pending_user(id);
            let live = self.in_system.get(&user).copied().unwrap_or(0);
            if live >= cap {
                self.parked.entry(user).or_default().push_back(id);
                return;
            }
            *self.in_system.entry(user).or_insert(0) += 1;
        }
        let pending = self.lifecycle.take_pending(id);
        let queued = QueuedJob {
            id,
            user: pending.user,
            nodes: pending.nodes,
            estimate: pending.estimate,
            arrival: self.now,
        };
        self.queue.push(queued);
        self.runtimes.insert(id, pending.runtime);
        self.open.insert(
            id,
            OpenRecord {
                pending,
                submit: self.now,
                start: None,
            },
        );

        let view = ArrivalView {
            now: self.now,
            job: self.queue.last().expect("just pushed"),
            total_nodes: self.cfg.nodes,
            free_nodes: self.free,
            running: &self.running,
            queue: &self.queue,
            runtimes: &self.runtimes,
            fairshare: &self.fairshare,
            order: self.cfg.order,
        };
        observer.on_arrival(&view);
        let ctx = engine_ctx(self);
        engine.on_arrival(&queued, &ctx);
    }

    fn complete(
        &mut self,
        id: JobId,
        cause: Cause,
        engine: &mut Engine,
        observer: &mut dyn Observer,
    ) {
        let pos = self
            .running
            .iter()
            .position(|r| r.id == id)
            .expect("completion for job not running");
        let job = self.running.swap_remove(pos);
        self.free += job.nodes;
        self.backend.release(id);
        self.overdue.retain(|&o| o != id);
        self.acct.note_completion(self.now);

        let open = self.open.remove(&id).expect("record open for running job");
        let record = JobRecord {
            id,
            origin: open.pending.origin,
            chunk_index: open.pending.chunk_index,
            user: open.pending.user,
            group: open.pending.group,
            nodes: open.pending.nodes,
            submit: open.submit,
            origin_submit: open.pending.origin_submit,
            start: open.start.expect("completed job has started"),
            end: self.now,
            estimate: open.pending.estimate,
            killed: cause == Cause::Killed,
            interrupted: cause == Cause::Crashed,
        };
        self.records.push(record);

        let executed = self.now - open.start.expect("started");
        match cause {
            // Chains: bank the executed work and submit the next chunk.
            Cause::Finished | Cause::Killed => self.lifecycle.bank_chunk(
                &self.cfg,
                id,
                open.pending.estimate,
                executed,
                self.now,
                &mut self.events,
            ),
            Cause::Crashed => self.recover_crashed(id, &open, executed),
        }

        // Closed-loop feedback: the finished job frees one of its user's
        // slots; release the user's oldest deferred submission, if any.
        if self.cfg.user_concurrency.is_some() {
            let live = self.in_system.entry(job.user).or_insert(1);
            *live = live.saturating_sub(1);
            if let Some(queue) = self.parked.get_mut(&job.user) {
                if let Some(next) = queue.pop_front() {
                    self.events.push(self.now, EventKind::Arrival, next);
                }
            }
        }

        // Observers see any premature end (kill or crash) as not having run
        // to completion.
        observer.on_complete(id, self.now, cause != Cause::Finished);
        observer.on_record(&record);
        engine.on_complete(id);
    }

    /// Applies the configured resilience policy to a crashed submission:
    /// the lifecycle decides how (and whether) the work re-enters; this
    /// wrapper accounts the discarded node-seconds and traces the requeue.
    fn recover_crashed(&mut self, id: JobId, open: &OpenRecord, executed: Time) {
        if self.cfg.faults.resilience == ResiliencePolicy::RequeueFromScratch {
            // Executed work is lost. Fairshare usage already charged for
            // the lost run stays charged — users pay for their bad luck,
            // as CPlant did.
            self.acct.note_lost(executed, open.pending.nodes);
        }
        let retry = self.lifecycle.recover_crashed(
            &self.cfg,
            id,
            &open.pending,
            executed,
            self.now,
            &mut self.events,
        );
        if let (Some(t), Some(retry)) = (self.trace.clone(), retry) {
            t.emit(TraceRecord::FaultRequeued {
                at: self.now,
                origin: open.pending.origin,
                job: id,
                retry,
                // ChunkResume banks the executed work as a checkpoint, so
                // nothing is lost; requeue-from-scratch loses it all.
                lost: match self.cfg.faults.resilience {
                    ResiliencePolicy::RequeueFromScratch => executed,
                    ResiliencePolicy::ChunkResume => 0,
                },
            });
        }
    }

    fn start_job(&mut self, id: JobId, engine: &mut Engine, observer: &mut dyn Observer) {
        let pos = self
            .queue
            .iter()
            .position(|q| q.id == id)
            .expect("engine started a job that is not queued");
        let queued = self.queue.swap_remove(pos);
        assert!(
            queued.nodes <= self.free,
            "engine started a job that does not fit"
        );
        self.free -= queued.nodes;
        self.backend.place(id, queued.nodes);
        let runtime = self.runtimes.remove(&id).expect("queued job has a runtime");
        let end = self.now + runtime;
        self.running.push(RunningJob {
            id,
            user: queued.user,
            nodes: queued.nodes,
            start: self.now,
            estimate: queued.estimate,
            scheduled_end: end,
        });
        self.events.push(end, EventKind::Completion, id);
        if self.cfg.kill != KillPolicy::Never && queued.estimate < runtime {
            self.events
                .push(self.now + queued.estimate, EventKind::WclExpiry, id);
        }
        // Fault injection: roll this submission's crash fate. The draw is a
        // pure function of (fault seed, origin, chunk index), so requeued
        // attempts re-roll reproducibly.
        if let Some(fm) = &self.faults {
            let p = &self.open[&id].pending;
            if let Some(dt) = fm.crash_point(p.origin, p.chunk_index as usize, runtime) {
                self.events.push(self.now + dt, EventKind::JobCrash, id);
            }
        }
        self.open.get_mut(&id).expect("record open").start = Some(self.now);
        self.acct.note_start(self.now);
        observer.on_start(id, self.now);
        engine.on_start(id);
    }

    /// Runs the engine (and the when-needed kill rule) to a fixpoint.
    fn schedule_pass(&mut self, engine: &mut Engine, observer: &mut dyn Observer) {
        let timer = counters::pass_timer();
        loop {
            let starts = {
                let ctx = engine_ctx(self);
                engine.select_starts(&ctx)
            };
            if !starts.is_empty() {
                for id in starts {
                    self.start_job(id, engine, observer);
                }
                continue;
            }
            // No starts possible. If queued demand exists and over-limit
            // jobs are still running, CPlant's kill rule reclaims them.
            if self.cfg.kill == KillPolicy::WhenNeeded
                && !self.queue.is_empty()
                && !self.overdue.is_empty()
            {
                let victims = std::mem::take(&mut self.overdue);
                for id in victims {
                    if self.running.iter().any(|r| r.id == id) {
                        self.complete(id, Cause::Killed, engine, observer);
                    }
                }
                continue;
            }
            break;
        }
        timer.finish();
    }

    pub(crate) fn check_conservation_pub(&self) -> Result<(), SimError> {
        self.check_conservation()
    }

    pub(crate) fn finish(mut self) -> Schedule {
        self.records.sort_by_key(|r| r.id);
        Schedule {
            nodes: self.cfg.nodes,
            records: self.records,
            waste_nodeseconds: self.acct.waste,
            busy_nodeseconds: self.acct.busy,
            down_nodeseconds: self.acct.down,
            lost_nodeseconds: self.acct.lost,
            min_start: self.acct.min_start_or_zero(),
            max_completion: self.acct.max_completion,
            placement: self.backend.stats(),
            queue_stats: self.acct.queue_stats(),
            weekly_busy: self.acct.weekly_busy,
        }
    }
}

fn engine_ctx(sim: &Sim) -> EngineCtx<'_> {
    EngineCtx {
        now: sim.now,
        free_nodes: sim.free,
        total_nodes: sim.cfg.nodes,
        running: &sim.running,
        queue: &sim.queue,
        fairshare: &sim.fairshare,
        order: sim.cfg.order,
        starvation: sim.cfg.starvation.as_ref(),
        outages: &sim.outages,
        trace: sim.trace.as_ref(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineKind, QueueOrder, RuntimeLimit, StarvationConfig};
    use crate::state::NullObserver;
    use fairsched_workload::time::{DAY, HOUR};

    fn cfg(nodes: u32, engine: EngineKind) -> SimConfig {
        SimConfig {
            nodes,
            engine,
            ..Default::default()
        }
    }

    fn job(id: u32, user: u32, submit: Time, nodes: u32, runtime: Time, estimate: Time) -> Job {
        Job::new(id, user, 1, submit, nodes, runtime, estimate)
    }

    fn run(trace: &[Job], cfg: &SimConfig) -> Schedule {
        simulate(trace, cfg, &mut NullObserver, SimOptions::new()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn a_fired_cancel_token_stops_the_run_with_timed_out() {
        let trace = [job(1, 1, 0, 1, 100, 100), job(2, 2, 5, 1, 100, 100)];
        let c = cfg(10, EngineKind::NoGuarantee);
        let token = CancelToken::new();
        token.cancel();
        let err = simulate(
            &trace,
            &c,
            &mut NullObserver,
            SimOptions::new().cancel(token),
        )
        .expect_err("pre-cancelled run must not produce a schedule");
        assert!(matches!(err, SimError::TimedOut { .. }), "got {err}");
    }

    #[test]
    fn an_unfired_cancel_token_changes_nothing() {
        let trace = [job(1, 1, 0, 1, 100, 100), job(2, 2, 5, 4, 50, 50)];
        let c = cfg(10, EngineKind::NoGuarantee);
        let plain = run(&trace, &c);
        let guarded = simulate(
            &trace,
            &c,
            &mut NullObserver,
            SimOptions::new().cancel(CancelToken::new()),
        )
        .unwrap();
        assert_eq!(plain.records, guarded.records);
    }

    /// Counts every observer hook and remembers what it saw.
    #[derive(Default)]
    struct CountingObserver {
        arrivals: usize,
        starts: usize,
        completes: usize,
        records: Vec<JobRecord>,
        finished_nodes: Option<u32>,
    }

    impl crate::state::Observer for CountingObserver {
        fn on_arrival(&mut self, _view: &ArrivalView<'_>) {
            self.arrivals += 1;
        }
        fn on_start(&mut self, _id: JobId, _now: Time) {
            self.starts += 1;
        }
        fn on_complete(&mut self, _id: JobId, _now: Time, _killed: bool) {
            self.completes += 1;
        }
        fn on_record(&mut self, record: &JobRecord) {
            self.records.push(*record);
        }
        fn on_finish(&mut self, schedule: &Schedule) {
            self.finished_nodes = Some(schedule.nodes);
        }
    }

    #[test]
    fn record_and_finish_hooks_fire_with_final_values() {
        let trace = [job(1, 1, 0, 4, 100, 100), job(2, 2, 5, 8, 50, 50)];
        let c = cfg(10, EngineKind::NoGuarantee);
        let mut obs = CountingObserver::default();
        let s = simulate(&trace, &c, &mut obs, SimOptions::new()).unwrap();
        assert_eq!(obs.arrivals, 2);
        assert_eq!(obs.starts, 2);
        assert_eq!(obs.completes, 2);
        assert_eq!(obs.finished_nodes, Some(10));
        // on_record delivers the same records the schedule reports (the
        // schedule sorts by id; the hook fires in completion order).
        let mut seen = obs.records.clone();
        seen.sort_by_key(|r| r.id);
        assert_eq!(seen, s.records);
    }

    fn record(s: &Schedule, id: u32) -> JobRecord {
        s.records
            .iter()
            .copied()
            .find(|r| r.id == JobId(id))
            .expect("record exists")
    }

    #[test]
    fn single_job_runs_immediately() {
        let trace = [job(1, 1, 10, 4, 100, 200)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        let r = record(&s, 1);
        assert_eq!(r.start, 10);
        assert_eq!(r.end, 110);
        assert!(!r.killed);
        assert_eq!(s.makespan(), 100);
        assert!((s.utilization() - 0.4).abs() < 1e-9);
        assert_eq!(s.loss_of_capacity(), 0.0);
    }

    #[test]
    fn jobs_queue_when_the_machine_is_full() {
        let trace = [job(1, 1, 0, 10, 100, 100), job(2, 2, 5, 10, 50, 50)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert_eq!(record(&s, 1).start, 0);
        assert_eq!(record(&s, 2).start, 100);
        assert_eq!(record(&s, 2).end, 150);
        // Job 2 queued 95 s wanting 10 nodes with 0 free: no loss of
        // capacity is chargeable (min(10 demand, 0 free) = 0).
        assert_eq!(s.loss_of_capacity(), 0.0);
    }

    #[test]
    fn no_guarantee_backfills_a_fitting_job() {
        // Figure 2's scenario: jobB fits beside jobA and starts immediately.
        let trace = [
            job(1, 1, 0, 6, 100, 100), // jobA
            job(2, 2, 1, 8, 100, 100), // too wide for the 4 free nodes
            job(3, 3, 2, 4, 30, 30),   // jobB: fits the hole
        ];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert_eq!(record(&s, 3).start, 2);
        assert_eq!(record(&s, 2).start, 100);
    }

    #[test]
    fn loss_of_capacity_counts_unusable_idle_time() {
        // 10-node machine. One 6-node job runs [0,100). A 6-node job arrives
        // at 0 too: cannot start (4 free), waits to 100. LOC over [0,100):
        // min(6 queued, 4 free) = 4 nodes wasted × 100 s = 400 node-s.
        // Makespan = 200 (start 0 → end 200).
        let trace = [job(1, 1, 0, 6, 100, 100), job(2, 2, 0, 6, 100, 100)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert_eq!(record(&s, 2).start, 100);
        assert!((s.waste_nodeseconds - 400.0).abs() < 1e-9);
        assert!((s.loss_of_capacity() - 400.0 / 2000.0).abs() < 1e-12);
    }

    #[test]
    fn fairshare_order_prefers_the_idle_user() {
        // User 1 burns the machine for a day; then both users submit
        // simultaneously onto a full machine. User 2's job must start first.
        let trace = [
            job(1, 1, 0, 10, DAY, DAY),
            job(2, 1, 10, 10, 100, 100),
            job(3, 2, 10, 10, 100, 100),
        ];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert!(record(&s, 3).start < record(&s, 2).start);
    }

    #[test]
    fn fcfs_order_ignores_usage() {
        let trace = [
            job(1, 1, 0, 10, DAY, DAY),
            job(2, 1, 10, 10, 100, 100),
            job(3, 2, 11, 10, 100, 100),
        ];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.order = QueueOrder::Fcfs;
        let s = run(&trace, &c);
        assert!(record(&s, 2).start < record(&s, 3).start);
    }

    #[test]
    fn when_needed_kill_fires_only_under_demand() {
        // Job 1 underestimates (runtime 1000, estimate 100) on an idle
        // machine: no demand at its WCL, so it runs on. Job 2 arrives at
        // t=500 needing the whole machine: job 1 is killed then.
        let trace = [job(1, 1, 0, 10, 1000, 100), job(2, 2, 500, 10, 50, 50)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        let r1 = record(&s, 1);
        assert!(r1.killed);
        assert_eq!(r1.end, 500);
        assert_eq!(record(&s, 2).start, 500);
    }

    #[test]
    fn when_needed_kill_fires_at_wcl_if_demand_already_waits() {
        let trace = [job(1, 1, 0, 10, 1000, 100), job(2, 2, 50, 10, 50, 50)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        let r1 = record(&s, 1);
        assert!(r1.killed);
        assert_eq!(r1.end, 100);
        assert_eq!(record(&s, 2).start, 100);
    }

    #[test]
    fn at_wcl_kill_is_unconditional() {
        let trace = [job(1, 1, 0, 10, 1000, 100)];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.kill = KillPolicy::AtWcl;
        let s = run(&trace, &c);
        let r1 = record(&s, 1);
        assert!(r1.killed);
        assert_eq!(r1.end, 100);
    }

    #[test]
    fn never_kill_lets_jobs_overrun() {
        let trace = [job(1, 1, 0, 10, 1000, 100), job(2, 2, 50, 10, 50, 50)];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.kill = KillPolicy::Never;
        let s = run(&trace, &c);
        let r1 = record(&s, 1);
        assert!(!r1.killed);
        assert_eq!(r1.end, 1000);
        assert_eq!(record(&s, 2).start, 1000);
    }

    #[test]
    fn starvation_queue_guarantees_wide_job_progress() {
        // A stream of narrow jobs would starve the wide job forever under
        // pure no-guarantee backfilling; the starvation queue must eventually
        // guard it. Narrow 2-node jobs from a rotating set of users keep the
        // machine nearly full; an 10-node job arrives early.
        let mut trace = vec![job(1, 1, 0, 10, 10 * HOUR, 10 * HOUR)];
        let mut id = 2;
        // 9 narrow lanes × long series: submitted well in advance.
        for t in 0..60u64 {
            for lane in 0..5 {
                trace.push(job(id, 2 + lane, 1 + t, 2, 2 * HOUR, 2 * HOUR));
                id += 1;
            }
        }
        trace.sort_by_key(|j| (j.submit, j.id));
        let wide_id = id;
        trace.push(job(wide_id, 99, 2 * HOUR, 10, HOUR, HOUR));

        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.starvation = Some(StarvationConfig {
            entry_delay: 24 * HOUR,
            heavy_rule: None,
        });
        let s = run(&trace, &c);
        let wide = record(&s, wide_id);
        // Without the guard the wide job would wait for every narrow job
        // (~24h+ of queued narrow work); with it, it starts within ~the
        // entry delay plus one drain of running work.
        assert!(
            wide.wait() <= 30 * HOUR,
            "wide job waited {} hours",
            wide.wait() / HOUR
        );
    }

    #[test]
    fn conservative_never_delays_by_later_arrivals_with_perfect_estimates() {
        // With perfect estimates, conservative backfilling is "fair" in the
        // social-justice sense (§4): job 2's start is unaffected by job 3.
        let base = [job(1, 1, 0, 10, 100, 100), job(2, 2, 5, 6, 100, 100)];
        let with_later = [
            job(1, 1, 0, 10, 100, 100),
            job(2, 2, 5, 6, 100, 100),
            job(3, 3, 6, 4, 1000, 1000),
        ];
        let c = cfg(10, EngineKind::Conservative { dynamic: false });
        let s1 = run(&base, &c);
        let s2 = run(&with_later, &c);
        assert_eq!(record(&s1, 2).start, record(&s2, 2).start);
    }

    #[test]
    fn conservative_compresses_on_early_completion() {
        // Job 1 estimates 1000 but runs 100: job 2's reservation (at 1000)
        // compresses to 100 when job 1 completes.
        let trace = [job(1, 1, 0, 10, 100, 1000), job(2, 2, 5, 10, 50, 50)];
        let s = run(
            &trace,
            &cfg(10, EngineKind::Conservative { dynamic: false }),
        );
        assert_eq!(record(&s, 2).start, 100);
    }

    #[test]
    fn runtime_limit_splits_long_jobs_into_chunks() {
        let limit = 72 * HOUR;
        // 180h job → chunks of 72h, 72h, 36h.
        let trace = [job(1, 1, 0, 4, 180 * HOUR, 200 * HOUR)];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.runtime_limit = Some(RuntimeLimit { limit });
        let s = run(&trace, &c);
        assert_eq!(s.records.len(), 3);
        let chunks: Vec<&JobRecord> = s.records.iter().filter(|r| r.origin == JobId(1)).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].chunk_index, 1);
        assert_eq!(chunks[0].executed(), 72 * HOUR);
        assert_eq!(chunks[1].executed(), 72 * HOUR);
        assert_eq!(chunks[2].executed(), 36 * HOUR);
        // Chunks chain back-to-back on an idle machine.
        assert_eq!(chunks[1].submit, chunks[0].end);

        let originals = s.originals();
        assert_eq!(originals.len(), 1);
        let o = originals[0];
        assert_eq!(o.chunks, 3);
        assert_eq!(o.executed, 180 * HOUR);
        assert_eq!(o.turnaround(), 180 * HOUR);
    }

    #[test]
    fn runtime_limit_lets_other_jobs_preempt_between_chunks() {
        // The point of §5.1: another job slips in when a chunk ends.
        let limit = 10 * HOUR;
        let trace = [
            job(1, 1, 0, 10, 30 * HOUR, 40 * HOUR), // chain of 3 chunks
            job(2, 2, HOUR, 10, HOUR, HOUR),        // arrives during chunk 1
        ];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.runtime_limit = Some(RuntimeLimit { limit });
        let s = run(&trace, &c);
        let j2 = record(&s, 2);
        // Job 2 starts when chunk 1 ends — NOT after the whole 30 h job.
        assert_eq!(j2.start, 10 * HOUR);
        let o = s.originals();
        let chain = o.iter().find(|o| o.origin == JobId(1)).unwrap();
        assert_eq!(chain.chunks, 3);
        assert_eq!(chain.executed, 30 * HOUR);
        // The chain finished after job 2's interruption.
        assert_eq!(chain.completion, 31 * HOUR);
    }

    #[test]
    fn short_jobs_are_untouched_by_the_limit() {
        let trace = [job(1, 1, 0, 4, HOUR, 2 * HOUR)];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.runtime_limit = Some(RuntimeLimit { limit: 72 * HOUR });
        let s = run(&trace, &c);
        assert_eq!(s.records.len(), 1);
        assert_eq!(record(&s, 1).chunk_index, 0);
    }

    #[test]
    fn weekly_busy_bins_cover_the_horizon() {
        let trace = [job(1, 1, 0, 10, WEEK + DAY, WEEK + DAY)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert_eq!(s.weekly_busy.len(), 2);
        assert!((s.weekly_busy[0] - 10.0 * WEEK as f64).abs() < 1e-6);
        assert!((s.weekly_busy[1] - 10.0 * DAY as f64).abs() < 1e-6);
        let u = s.weekly_utilization();
        assert!((u[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinism_same_trace_same_schedule() {
        let trace = fairsched_workload::synthetic::random_trace(5, 200, 10, 5000);
        let c = cfg(10, EngineKind::Conservative { dynamic: false });
        let s1 = run(&trace, &c);
        let s2 = run(&trace, &c);
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "nodes on a")]
    fn too_wide_jobs_are_rejected() {
        let trace = [job(1, 1, 0, 20, 100, 100)];
        run(&trace, &cfg(10, EngineKind::NoGuarantee));
    }

    #[test]
    fn a_reused_job_id_is_a_typed_error_at_every_entry_point() {
        use crate::prefix::PrefixSimulator;
        use crate::step::{SimEvent, SteppedSim};
        let c = cfg(10, EngineKind::NoGuarantee);
        let (first, again) = (job(1, 1, 0, 2, 100, 100), job(1, 2, 5, 4, 50, 50));
        fn duplicate<T>(r: Result<T, SimError>) {
            assert!(
                matches!(r, Err(SimError::InvalidTrace { job: JobId(1), .. })),
                "a second job 1 must be rejected"
            );
        }
        duplicate(simulate(
            &[first.clone(), again.clone()],
            &c,
            &mut NullObserver,
            SimOptions::new(),
        ));
        let mut core = SteppedSim::new(&c).unwrap();
        core.step(SimEvent::Submit(first.clone()), &mut NullObserver)
            .unwrap();
        duplicate(core.step(SimEvent::Submit(again.clone()), &mut NullObserver));
        let mut prefix = PrefixSimulator::new(&c).unwrap();
        assert_eq!(prefix.start_of(&first).unwrap(), 0);
        duplicate(prefix.start_of(&again));
    }

    mod faults {
        use super::*;
        use crate::faults::{FaultConfig, RepairTime, ResiliencePolicy};

        /// Short repairs keep the machine mostly functional so full-width
        /// jobs still find start windows; the default hour-scale repairs
        /// against second-scale MTBFs would starve them for ages.
        const QUICK_REPAIR: RepairTime = RepairTime { min: 60, max: 600 };

        fn crash_cfg(resilience: ResiliencePolicy, seed: u64) -> SimConfig {
            SimConfig {
                nodes: 10,
                faults: FaultConfig {
                    job_crash_rate: 0.9,
                    resilience,
                    seed,
                    ..FaultConfig::default()
                },
                ..Default::default()
            }
        }

        /// First fault seed in 0..200 whose run produces an interrupted
        /// record — deterministic, but robust to RNG stream details.
        fn seed_with_crash(trace: &[Job], make: impl Fn(u64) -> SimConfig) -> (u64, Schedule) {
            for seed in 0..200 {
                let s = run(trace, &make(seed));
                if s.records.iter().any(|r| r.interrupted) {
                    return (seed, s);
                }
            }
            panic!("no fault seed in 0..200 produced a crash");
        }

        #[test]
        fn requeue_from_scratch_repeats_and_loses_work() {
            let trace = [job(1, 1, 0, 4, 1000, 1000)];
            let (_, s) = seed_with_crash(&trace, |seed| {
                crash_cfg(ResiliencePolicy::RequeueFromScratch, seed)
            });
            let originals = s.originals();
            assert_eq!(originals.len(), 1);
            let o = originals[0];
            assert!(o.interrupted);
            assert!(o.chunks >= 2, "crash must force a resubmission");
            // Work lost: total executed exceeds the job's runtime, and the
            // loss integral matches the interrupted records exactly.
            assert!(o.executed > 1000);
            let lost: f64 = s
                .records
                .iter()
                .filter(|r| r.interrupted)
                .map(|r| r.executed() as f64 * r.nodes as f64)
                .sum();
            assert!(lost > 0.0);
            assert!((s.lost_nodeseconds - lost).abs() < 1e-9);
            assert!(s.goodput() < s.utilization());
            // The final attempt ran the full job.
            let last = s.records.iter().max_by_key(|r| r.end).unwrap();
            assert!(!last.interrupted);
            assert_eq!(last.executed(), 1000);
        }

        #[test]
        fn chunk_resume_banks_pre_failure_work() {
            let trace = [job(1, 1, 0, 4, 1000, 1000)];
            let (_, s) = seed_with_crash(&trace, |seed| {
                crash_cfg(ResiliencePolicy::ChunkResume, seed)
            });
            let originals = s.originals();
            assert_eq!(originals.len(), 1);
            let o = originals[0];
            assert!(o.interrupted);
            assert!(o.chunks >= 2);
            // Failures are implicit checkpoints: no second of work repeats.
            assert_eq!(o.executed, 1000);
            assert_eq!(s.lost_nodeseconds, 0.0);
            assert!((s.goodput() - s.utilization()).abs() < 1e-12);
        }

        #[test]
        fn crashed_chain_chunk_under_requeue_reruns_the_chunk() {
            // A runtime-limited chain whose chunk crashes: the chunk's work
            // is lost, the chain's remaining budget does not advance, and
            // the chain still finishes all its work.
            let trace = [job(1, 1, 0, 4, 30 * HOUR, 40 * HOUR)];
            let make = |seed| {
                let mut c = crash_cfg(ResiliencePolicy::RequeueFromScratch, seed);
                c.runtime_limit = Some(RuntimeLimit { limit: 10 * HOUR });
                c
            };
            let (_, s) = seed_with_crash(&trace, make);
            let o = s.originals();
            let chain = o.iter().find(|o| o.origin == JobId(1)).unwrap();
            assert!(chain.interrupted);
            assert!(chain.executed > 30 * HOUR, "crashed chunk work is repeated");
            let clean: Time = s
                .records
                .iter()
                .filter(|r| !r.interrupted)
                .map(|r| r.executed())
                .sum();
            assert_eq!(
                clean,
                30 * HOUR,
                "non-interrupted chunks cover exactly the job"
            );
        }

        #[test]
        fn node_failures_take_capacity_and_everything_still_completes() {
            // Per-node MTBF of 2000 s on 10 nodes → machine failures every
            // ~200 s; jobs keep colliding with them but must all finish.
            let trace = fairsched_workload::synthetic::random_trace(3, 60, 10, 3000);
            let mut c = cfg(10, EngineKind::Conservative { dynamic: false });
            c.faults = FaultConfig {
                node_mtbf: Some(2000),
                repair: QUICK_REPAIR,
                resilience: ResiliencePolicy::ChunkResume,
                seed: 5,
                ..FaultConfig::default()
            };
            let s = crate::simulator::simulate(&trace, &c, &mut NullObserver, SimOptions::new())
                .expect("invariants hold under node failures");
            assert!(s.down_nodeseconds > 0.0, "outages must cost capacity");
            assert_eq!(s.originals().len(), trace.len(), "every job completes");
            // Byte-identical on a second run.
            let s2 = crate::simulator::simulate(&trace, &c, &mut NullObserver, SimOptions::new())
                .unwrap();
            assert_eq!(s, s2);
        }

        #[test]
        fn node_failure_crashes_the_job_occupying_the_whole_machine() {
            // One job holds all 4 nodes, so the first failure during its run
            // must hit it. MTBF chosen so failures land well inside the run.
            let trace = [job(1, 1, 0, 4, 50_000, 50_000)];
            let make = |seed| SimConfig {
                nodes: 4,
                faults: FaultConfig {
                    node_mtbf: Some(4_000),
                    repair: QUICK_REPAIR,
                    resilience: ResiliencePolicy::ChunkResume,
                    seed,
                    ..FaultConfig::default()
                },
                ..Default::default()
            };
            let (_, s) = seed_with_crash(&trace, make);
            let o = &s.originals()[0];
            assert!(o.interrupted);
            assert_eq!(o.executed, 50_000, "resume keeps pre-failure work");
            // The resumed chunk needed the failed node back: it cannot have
            // restarted before the repair finished, so capacity was lost.
            assert!(s.down_nodeseconds > 0.0);
        }

        #[test]
        fn linear_allocation_survives_node_failures() {
            // Narrow jobs (≤5 of 10 nodes) so holes from down nodes never
            // block the whole queue for long.
            let trace = fairsched_workload::synthetic::random_trace(9, 80, 5, 3000);
            let mut c = cfg(10, EngineKind::NoGuarantee);
            c.allocation = AllocationModel::Linear(fairsched_cpa::PlacementStrategy::MinSpan);
            c.faults = FaultConfig {
                node_mtbf: Some(3000),
                repair: QUICK_REPAIR,
                job_crash_rate: 0.2,
                resilience: ResiliencePolicy::RequeueFromScratch,
                seed: 2,
            };
            let s = crate::simulator::simulate(&trace, &c, &mut NullObserver, SimOptions::new())
                .expect("invariants hold with a linear backend under faults");
            assert!(s.placement.is_some());
            assert_eq!(s.originals().len(), trace.len());
        }

        #[test]
        fn disabled_faults_are_byte_identical_to_the_default() {
            let trace = fairsched_workload::synthetic::random_trace(7, 150, 10, 5000);
            let base = cfg(10, EngineKind::NoGuarantee);
            let mut seeded = base.clone();
            // A nonzero seed with no fault source must change nothing.
            seeded.faults = FaultConfig {
                seed: 977,
                ..FaultConfig::default()
            };
            assert_eq!(run(&trace, &base), run(&trace, &seeded));
        }

        #[test]
        fn simulate_reports_typed_errors() {
            let wide = [job(1, 1, 0, 20, 100, 100)];
            let err = crate::simulator::simulate(
                &wide,
                &cfg(10, EngineKind::NoGuarantee),
                &mut NullObserver,
                SimOptions::new(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                SimError::TooWide {
                    job: JobId(1),
                    nodes: 20,
                    machine: 10
                }
            );
            assert!(
                err.to_string().contains("nodes on a"),
                "legacy panic wording preserved"
            );

            let mut bad = cfg(10, EngineKind::NoGuarantee);
            bad.faults.job_crash_rate = 2.0;
            let err = crate::simulator::simulate(
                &[job(1, 1, 0, 2, 100, 100)],
                &bad,
                &mut NullObserver,
                SimOptions::new(),
            )
            .unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig { .. }));
        }

        #[test]
        fn impossible_fault_config_diverges_with_a_typed_error() {
            // A full-width job on a machine whose MTBF is far below the
            // job's runtime: under RequeueFromScratch no attempt can ever
            // finish, so without a guard the simulation would loop (and
            // allocate records) forever. The resubmission cap turns that
            // into a typed error instead.
            let trace = [job(1, 1, 0, 4, 50_000, 50_000)];
            let mut c = cfg(4, EngineKind::NoGuarantee);
            c.faults = FaultConfig {
                node_mtbf: Some(50),
                repair: RepairTime { min: 1, max: 5 },
                ..FaultConfig::default()
            };
            let err = crate::simulator::simulate(&trace, &c, &mut NullObserver, SimOptions::new())
                .unwrap_err();
            assert!(matches!(err, SimError::Diverged { job: JobId(1), .. }));
            assert!(err.to_string().contains("unable to complete"));
        }
    }

    #[test]
    fn user_concurrency_defers_submissions() {
        // User 1 fires three 1-node jobs at once with a cap of 1: they must
        // serialize even though the machine could run them all in parallel.
        let trace = [
            job(1, 1, 0, 1, 100, 100),
            job(2, 1, 0, 1, 100, 100),
            job(3, 1, 0, 1, 100, 100),
            job(4, 2, 0, 1, 100, 100), // another user: unaffected
        ];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.user_concurrency = Some(1);
        let s = run(&trace, &c);
        assert_eq!(record(&s, 1).start, 0);
        assert_eq!(record(&s, 2).submit, 100); // deferred to job 1's end
        assert_eq!(record(&s, 2).start, 100);
        assert_eq!(record(&s, 3).submit, 200);
        assert_eq!(record(&s, 4).start, 0);
        // The original intent time is preserved separately.
        assert_eq!(record(&s, 3).origin_submit, 0);
    }

    #[test]
    fn user_concurrency_of_two_allows_two_live_jobs() {
        let trace = [
            job(1, 1, 0, 1, 100, 100),
            job(2, 1, 0, 1, 100, 100),
            job(3, 1, 0, 1, 100, 100),
        ];
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.user_concurrency = Some(2);
        let s = run(&trace, &c);
        assert_eq!(record(&s, 1).start, 0);
        assert_eq!(record(&s, 2).start, 0);
        assert_eq!(record(&s, 3).submit, 100);
    }

    #[test]
    fn unbounded_concurrency_matches_open_loop_exactly() {
        let trace = fairsched_workload::synthetic::random_trace(31, 150, 10, 5000);
        let open = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.user_concurrency = Some(u32::MAX);
        let closed = run(&trace, &c);
        assert_eq!(open, closed);
    }

    #[test]
    fn user_concurrency_composes_with_chunking() {
        use crate::config::RuntimeLimit;
        let trace = [
            job(1, 1, 0, 2, 30 * HOUR, 40 * HOUR), // 3 chunks at 10h limit
            job(2, 1, 0, 2, HOUR, HOUR),           // deferred behind the chain? No:
        ];
        // Cap 1: job 2 waits for the whole chain (each chunk counts as the
        // user's one live job; chunk k+1 re-enters immediately).
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.user_concurrency = Some(1);
        c.runtime_limit = Some(RuntimeLimit { limit: 10 * HOUR });
        let s = run(&trace, &c);
        let chain = s
            .originals()
            .into_iter()
            .find(|o| o.origin == JobId(1))
            .unwrap();
        assert_eq!(chain.chunks, 3);
        let j2 = record(&s, 2);
        // Job 2 slots in at one of the chunk boundaries or the chain end —
        // never before the first chunk completes.
        assert!(j2.submit >= 10 * HOUR, "job 2 submitted at {}", j2.submit);
    }

    #[test]
    fn counting_allocation_reports_no_placement_stats() {
        let trace = [job(1, 1, 0, 4, 100, 100)];
        let s = run(&trace, &cfg(10, EngineKind::NoGuarantee));
        assert_eq!(s.placement, None);
    }

    #[test]
    fn linear_allocation_tracks_placement_quality() {
        use crate::config::AllocationModel;
        use fairsched_cpa::PlacementStrategy;
        let trace = fairsched_workload::synthetic::random_trace(8, 150, 10, 5000);
        let mut c = cfg(10, EngineKind::NoGuarantee);
        c.allocation = AllocationModel::Linear(PlacementStrategy::MinSpan);
        let s = run(&trace, &c);
        let stats = s.placement.expect("linear model reports stats");
        assert_eq!(stats.allocations, trace.len());
        assert!((0.0..=1.0).contains(&stats.mean_compactness));
        assert!(stats.mean_compactness > 0.0);
        assert!((0.0..=1.0).contains(&stats.mean_external_frag));
        assert!(stats.mean_span >= 0.0);
        assert!(stats.scattered <= stats.allocations);
    }

    #[test]
    fn allocation_model_does_not_change_scheduling_decisions() {
        // The CPA never refuses a by-count fit, so the schedule itself is
        // identical under both models — only the stats differ.
        use crate::config::AllocationModel;
        use fairsched_cpa::PlacementStrategy;
        let trace = fairsched_workload::synthetic::random_trace(21, 200, 10, 5000);
        let base = cfg(10, EngineKind::Conservative { dynamic: false });
        let mut linear = base.clone();
        linear.allocation = AllocationModel::Linear(PlacementStrategy::FirstFit);
        let s1 = run(&trace, &base);
        let s2 = run(&trace, &linear);
        assert_eq!(s1.records, s2.records);
        assert_eq!(s1.waste_nodeseconds, s2.waste_nodeseconds);
    }

    #[test]
    fn min_span_places_more_compactly_than_first_fit_scatter() {
        use crate::config::AllocationModel;
        use fairsched_cpa::PlacementStrategy;
        let trace = fairsched_workload::synthetic::random_trace(13, 400, 32, 3000);
        let stats_for = |strategy| {
            let mut c = cfg(32, EngineKind::NoGuarantee);
            c.allocation = AllocationModel::Linear(strategy);
            run(&trace, &c).placement.expect("linear stats")
        };
        let minspan = stats_for(PlacementStrategy::MinSpan);
        let firstfit = stats_for(PlacementStrategy::FirstFit);
        assert!(
            minspan.mean_span <= firstfit.mean_span + 1e-9,
            "MinSpan span {} vs FirstFit {}",
            minspan.mean_span,
            firstfit.mean_span
        );
    }
}
