//! Reservation ledgers: the future promises a pass's admissions must
//! respect.
//!
//! Every engine runs the same backfill walk; a ledger answers its one
//! question per walked job — may it start *now*? The admission rule, and
//! the bookkeeping behind it, is what separates the policy families:
//!
//! * [`NoReservations`] — admitted iff it fits right now and nothing ahead
//!   of it in the pass had to wait: strict FCFS (Figure 1);
//! * [`HeadOfQueue`] — one aggressive (EASY-style) reservation computed per
//!   pass for the blocked promoted job; backfills must finish under its
//!   shadow or fit in its spare nodes;
//! * [`ConservativeLedger`] — a per-job reservation made on arrival and
//!   only ever improved (§5.3), or rebuilt wholesale at every event
//!   (§5.4); admitted once its reservation is due. The static ledger keeps
//!   an *incremental* planned-capacity timeline across scheduling passes —
//!   a [`Profile`] holding every live reservation — instead of re-seeding
//!   one from the queue at each event; `Clone` forks its exact state for
//!   warm-started prefix simulation;
//! * [`DepthLedger`] — profile reservations for the first `n` jobs in
//!   priority order, rebuilt per pass; admitted iff it fits the profile
//!   right now.

use super::{EngineCtx, FAR_FUTURE};
use crate::profile::Profile;
use crate::state::QueuedJob;
use fairsched_obs::{counters, StartCause, TraceRecord};
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;
use std::collections::{BTreeSet, HashMap};

/// An aggressive reservation: the guarded job starts at `shadow` when
/// enough nodes free up; backfilled work must either finish by `shadow` or
/// fit in the `extra` nodes the guarded job leaves unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reservation {
    pub(crate) shadow: Time,
    pub(crate) extra: u32,
}

/// Computes the aggressive reservation for a `nodes`-wide job given current
/// free nodes and the estimated ends of running work.
pub(crate) fn aggressive_reservation(
    nodes: u32,
    free: u32,
    now: Time,
    ends: &mut [(Time, u32)], // (estimated end, nodes); sorted in place
) -> Reservation {
    debug_assert!(nodes > free, "job that fits needs no reservation");
    ends.sort_unstable();
    let mut avail = free;
    for &(end, n) in ends.iter() {
        avail += n;
        if avail >= nodes {
            return Reservation {
                shadow: end.max(now),
                extra: avail - nodes,
            };
        }
    }
    // Wider than the machine is rejected upstream; this is unreachable for
    // valid traces, but degrade gracefully.
    Reservation {
        shadow: FAR_FUTURE,
        extra: 0,
    }
}

/// `p` plus running work (estimate-based) and the capacity lost to node
/// outages: failed nodes step the available capacity down until their
/// repair time, so plans never assume them.
fn with_running(mut p: Profile, ctx: &EngineCtx<'_>) -> Profile {
    for r in ctx.running {
        p.add(ctx.now, r.estimated_end(ctx.now) - ctx.now, r.nodes);
    }
    for o in ctx.outages {
        p.block_until(ctx.now, o.until, 1);
    }
    p
}

/// Whether a candidate backfill respects an aggressive reservation.
fn respects(job: &QueuedJob, now: Time, res: Option<&mut Reservation>) -> bool {
    match res {
        None => true,
        Some(res) => {
            if now + job.estimate <= res.shadow {
                true
            } else if job.nodes <= res.extra {
                res.extra -= job.nodes;
                true
            } else {
                false
            }
        }
    }
}

/// Reservation bookkeeping of one [`Engine`](super::Engine). Lifecycle
/// callbacks mirror the engine's; per-pass hooks are driven by the
/// engine's backfill walk.
pub trait ReservationLedger: Send {
    /// A job entered the queue (already present in `ctx.queue`).
    fn on_arrival(&mut self, _job: &QueuedJob, _ctx: &EngineCtx<'_>) {}
    /// A previously queued job started (already removed from the queue).
    fn on_start(&mut self, _id: JobId) {}
    /// A running job completed or was killed.
    fn on_complete(&mut self, _id: JobId) {}

    /// Called once per scheduling pass before any admission query.
    /// `blocked_promoted` is the queue index of a promoted job that could
    /// not start immediately — it holds the pass's aggressive guard.
    fn begin_pass(&mut self, _ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {}

    /// May the walk's `rank`-th job (queue index `i`) start right now, with
    /// `free` nodes idle? A refused job waits, and counts as bypassed by
    /// later starts. May mutate per-pass state (spare-node budgets, profile
    /// holds) — the walk queries jobs in walk order exactly once.
    fn admit(&mut self, ctx: &EngineCtx<'_>, rank: usize, i: usize, free: u32) -> bool;

    /// The job at queue index `i` was just started by the walk.
    fn note_start(&mut self, _ctx: &EngineCtx<'_>, _i: usize) {}

    /// The traced cause of a start with nothing waiting ahead of it.
    fn in_order_cause(&self) -> StartCause {
        StartCause::Fcfs
    }

    /// Reserved start for `id`, when this ledger plans one.
    fn reservation_of(&self, _id: JobId) -> Option<Time> {
        None
    }

    /// A boxed replica, per-job state included.
    fn clone_box(&self) -> Box<dyn ReservationLedger>;
}

/// No promises and no backfilling: jobs start strictly from the head of
/// the walk (the paper's Figure 1). The first job that does not fit stops
/// the pass; everything behind it waits even if it fits right now.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoReservations {
    /// A job earlier in this pass's walk had to wait.
    stopped: bool,
}

impl ReservationLedger for NoReservations {
    fn begin_pass(&mut self, _ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {
        self.stopped = false;
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, _rank: usize, i: usize, free: u32) -> bool {
        self.stopped |= ctx.queue[i].nodes > free;
        !self.stopped
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(*self)
    }
}

/// One aggressive reservation guarding the pass's blocked promoted job.
/// Recomputed from scratch each pass; carries no state across events.
#[derive(Debug, Clone, Default)]
pub struct HeadOfQueue {
    /// The live guard, consumed (its `extra` budget decremented) as the
    /// pass admits backfills.
    guard: Option<Reservation>,
}

impl ReservationLedger for HeadOfQueue {
    fn begin_pass(&mut self, ctx: &EngineCtx<'_>, blocked_promoted: Option<usize>) {
        self.guard = blocked_promoted.map(|g| {
            let head = &ctx.queue[g];
            // Estimated ends of running work; down nodes count as 1-node
            // occupants until their repair completes.
            let mut ends: Vec<(Time, u32)> = ctx
                .running
                .iter()
                .map(|r| (r.estimated_end(ctx.now), r.nodes))
                .collect();
            ends.extend(ctx.outages.iter().map(|o| (o.until.max(ctx.now + 1), 1)));
            aggressive_reservation(head.nodes, ctx.free_nodes, ctx.now, &mut ends)
        });
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, _rank: usize, i: usize, free: u32) -> bool {
        let job = &ctx.queue[i];
        job.nodes <= free && respects(job, ctx.now, self.guard.as_mut())
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(self.clone())
    }
}

/// One planned rectangle of the conservative timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    start: Time,
    estimate: Time,
    nodes: u32,
}

/// Conservative backfilling's reservation ledger, optionally dynamic.
///
/// The static (§5.3) ledger maintains `planned` — the sum of every live
/// reservation rectangle — incrementally across scheduling passes: a pass
/// clones it, overlays running work, outages, and the "floaters" (past-due
/// reservations clamped to `now`), and improves each job in place. Because
/// [`Profile`] is a canonical delta encoding (order-independent, zero
/// deltas dropped), the overlay is byte-identical to the profile the
/// pre-refactor engine re-seeded from the whole queue at every event.
///
/// The static ledger also skips passes that provably cannot move a
/// reservation. Once an `improve` moves nothing earlier, every job sits at
/// its earliest start in that pass's profile, and later profiles only gain
/// usage (arrivals, later `now`, overdue jobs re-clamped) *except* where a
/// completion frees capacity. While no capacity is freed past `now`, the
/// ledger stays *settled* and `improve` only clamps floaters.
#[derive(Debug, Clone)]
pub struct ConservativeLedger {
    dynamic: bool,
    /// Reserved slot per queued job (raw start, never clamped).
    slots: HashMap<JobId, Slot>,
    /// Slots keyed by raw start, for floater range queries.
    by_start: BTreeSet<(Time, JobId)>,
    /// Incremental timeline: Σ slot rectangles. Maintained only for the
    /// static ledger (the dynamic rebuild never reads it).
    planned: Profile,
    /// The last full `improve` moved no reservation earlier, and nothing
    /// but `freed_until` has invalidated that fixpoint since.
    settled: bool,
    /// Latest `now` a planning profile was built at (`improve` or arrival).
    planned_at: Time,
    /// `now + estimate` of each running job the ledger saw start.
    running_ends: HashMap<JobId, Time>,
    /// Capacity freed since the last full `improve` lies before this instant.
    freed_until: Time,
}

impl ConservativeLedger {
    /// `dynamic = false` for §5.3 (keep-unless-better), `true` for §5.4
    /// (rebuild every event).
    pub fn new(dynamic: bool) -> Self {
        ConservativeLedger {
            dynamic,
            slots: HashMap::new(),
            by_start: BTreeSet::new(),
            planned: Profile::new(0),
            settled: false,
            planned_at: 0,
            running_ends: HashMap::new(),
            freed_until: 0,
        }
    }

    /// Records or moves a job's slot, keeping `by_start` and `planned` in
    /// lockstep.
    fn set_slot(&mut self, id: JobId, start: Time, estimate: Time, nodes: u32) {
        if let Some(old) = self.slots.insert(
            id,
            Slot {
                start,
                estimate,
                nodes,
            },
        ) {
            self.by_start.remove(&(old.start, id));
            if !self.dynamic {
                self.planned.remove(old.start, old.estimate, old.nodes);
            }
        }
        self.by_start.insert((start, id));
        if !self.dynamic {
            self.planned.add(start, estimate, nodes);
        }
    }

    /// Drops a job's slot (it started, or the queue drained).
    fn drop_slot(&mut self, id: JobId) {
        if let Some(old) = self.slots.remove(&id) {
            self.by_start.remove(&(old.start, id));
            if !self.dynamic {
                self.planned.remove(old.start, old.estimate, old.nodes);
            }
        }
    }

    fn clear_slots(&mut self) {
        self.settled = false;
        self.slots.clear();
        self.by_start.clear();
        if !self.dynamic {
            self.planned = Profile::new(self.planned.capacity());
        }
    }

    /// The pass profile, derived from the incremental timeline: `planned`
    /// with past-due reservations floated up to `now`, plus running work
    /// and outages — the profile re-seeded from the whole queue, since
    /// every queued job holds a slot from its `on_arrival`.
    fn effective_profile(&self, ctx: &EngineCtx<'_>) -> Profile {
        let mut p = self.planned.clone();
        for (t, id) in self.floaters(ctx.now) {
            let s = self.slots[&id];
            p.remove(t, s.estimate, s.nodes);
            p.add(ctx.now, s.estimate, s.nodes);
        }
        with_running(p, ctx)
    }

    /// §5.4: discard everything, rebuild reservations in priority order.
    fn rebuild(&mut self, ctx: &EngineCtx<'_>) {
        // Tracing compares against the pre-rebuild reservations to report
        // shifts; the extra map only exists on traced runs.
        let old: Option<HashMap<JobId, Time>> = ctx
            .trace
            .map(|_| self.slots.iter().map(|(id, s)| (*id, s.start)).collect());
        self.clear_slots();
        let mut profile = with_running(Profile::new(ctx.total_nodes), ctx);
        for &i in &ctx.priority() {
            let job = &ctx.queue[i];
            let start = profile
                .earliest_start(ctx.now, job.nodes, job.estimate)
                .unwrap_or(FAR_FUTURE);
            profile.add(start, job.estimate, job.nodes);
            if let (Some(t), Some(old)) = (ctx.trace, old.as_ref()) {
                match old[&job.id] {
                    // The on_arrival placeholder gets its first real slot.
                    prev if prev >= FAR_FUTURE => t.emit(TraceRecord::ReservationMade {
                        at: ctx.now,
                        job: job.id,
                        start,
                    }),
                    prev if prev != start => t.emit(TraceRecord::ReservationShifted {
                        at: ctx.now,
                        job: job.id,
                        from: prev,
                        to: start,
                    }),
                    _ => {}
                }
            }
            self.set_slot(job.id, start, job.estimate, job.nodes);
        }
    }

    /// Past-due reservations `(raw start, job)`: slots starting before `now`.
    fn floaters(&self, now: Time) -> Vec<(Time, JobId)> {
        self.by_start.range(..(now, JobId(0))).copied().collect()
    }

    /// Moves past-due reservations up to `now`, as a full `improve` would.
    fn clamp_floaters(&mut self, now: Time) {
        for (_, id) in self.floaters(now) {
            let s = self.slots[&id];
            self.set_slot(id, now, s.estimate, s.nodes);
        }
    }

    /// §5.3: each job, in priority order, tries to improve its reservation
    /// within the current profile; it never relinquishes a reservation for a
    /// worse one. A settled ledger with no capacity freed past `now` (and
    /// no outages to plan around) skips the walk: it could not move anyone.
    fn improve(&mut self, ctx: &EngineCtx<'_>) {
        // Every queued job holds a slot from its `on_arrival`.
        debug_assert_eq!(self.slots.len(), ctx.queue.len());
        if self.settled && self.freed_until <= ctx.now && ctx.outages.is_empty() {
            // Debug builds prove the skip: a full walk on a replica must
            // leave every slot exactly where the clamp puts it.
            #[cfg(debug_assertions)]
            let replanned = {
                let mut full = self.clone();
                full.settled = false;
                full.improve(&EngineCtx {
                    trace: None,
                    ..*ctx
                });
                full
            };
            self.clamp_floaters(ctx.now);
            #[cfg(debug_assertions)]
            assert!(
                self.slots == replanned.slots && self.planned == replanned.planned,
                "settled conservative ledger skipped a pass that moves a reservation at {}",
                ctx.now
            );
            counters::record_plan_skipped();
            return;
        }
        let mut profile = self.effective_profile(ctx);
        // Clamping a floater to `now` is not a move: it frees nothing.
        let mut moved = false;
        for &i in &ctx.priority() {
            let job = &ctx.queue[i];
            let old = self.slots[&job.id].start.max(ctx.now);
            profile.remove(old, job.estimate, job.nodes);
            let chosen = match profile.earliest_start(ctx.now, job.nodes, job.estimate) {
                Some(fresh) => fresh.min(old),
                None => old,
            };
            moved |= chosen < old;
            profile.add(chosen, job.estimate, job.nodes);
            if let Some(t) = ctx.trace {
                if old >= FAR_FUTURE && chosen < FAR_FUTURE {
                    t.emit(TraceRecord::ReservationMade {
                        at: ctx.now,
                        job: job.id,
                        start: chosen,
                    });
                } else if old < FAR_FUTURE && chosen != old {
                    // §5.3 improvement only ever moves a reservation
                    // backward; forward slippage comes from §5.4 rebuilds.
                    t.emit(TraceRecord::ReservationShifted {
                        at: ctx.now,
                        job: job.id,
                        from: old,
                        to: chosen,
                    });
                }
            }
            if self.slots[&job.id].start != chosen {
                self.set_slot(job.id, chosen, job.estimate, job.nodes);
            }
        }
        self.settled = !moved;
        self.planned_at = ctx.now;
        self.freed_until = 0;
    }
}

impl ReservationLedger for ConservativeLedger {
    fn on_arrival(&mut self, job: &QueuedJob, ctx: &EngineCtx<'_>) {
        if self.dynamic {
            // Reservations are rebuilt wholesale in the next pass.
            self.set_slot(job.id, FAR_FUTURE, job.estimate, job.nodes);
            return;
        }
        if self.planned.capacity() != ctx.total_nodes {
            // The timeline learns the machine size at the run's first arrival.
            debug_assert!(self.slots.is_empty(), "slots planned before capacity");
            self.planned = Profile::new(ctx.total_nodes);
        }
        // Earliest hole in the profile of running work plus every existing
        // reservation (the arriving job is already in ctx.queue, but holds
        // no slot yet).
        let start = self
            .effective_profile(ctx)
            .earliest_start(ctx.now, job.nodes, job.estimate)
            .unwrap_or(FAR_FUTURE);
        self.planned_at = self.planned_at.max(ctx.now);
        if let Some(t) = ctx.trace {
            if start < FAR_FUTURE {
                t.emit(TraceRecord::ReservationMade {
                    at: ctx.now,
                    job: job.id,
                    start,
                });
            }
        }
        self.set_slot(job.id, start, job.estimate, job.nodes);
    }

    fn on_start(&mut self, id: JobId) {
        self.drop_slot(id);
    }

    fn on_complete(&mut self, id: JobId) {
        // Freed capacity ends where the planning profiles had the job end:
        // its estimate, or one second past the last planning instant for an
        // overdue job (`RunningJob::estimated_end`'s clamp).
        match self.running_ends.remove(&id) {
            Some(end) => {
                self.freed_until = self.freed_until.max(end.max(self.planned_at + 1));
            }
            // A job started behind the ledger's back: its plan is unknown.
            None => self.settled = false,
        }
    }

    fn begin_pass(&mut self, ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {
        if ctx.queue.is_empty() {
            self.clear_slots();
            return;
        }
        if self.dynamic {
            self.rebuild(ctx);
        } else {
            self.improve(ctx);
        }
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, _rank: usize, i: usize, free: u32) -> bool {
        let job = &ctx.queue[i];
        self.slots[&job.id].start <= ctx.now && job.nodes <= free
    }

    fn note_start(&mut self, ctx: &EngineCtx<'_>, i: usize) {
        let job = &ctx.queue[i];
        self.running_ends.insert(job.id, ctx.now + job.estimate);
    }

    /// A conservative start is its reservation coming due; with
    /// higher-priority work still waiting it is also the backfill the paper
    /// blames for unfairness.
    fn in_order_cause(&self) -> StartCause {
        StartCause::Reservation
    }

    fn reservation_of(&self, id: JobId) -> Option<Time> {
        self.slots.get(&id).map(|s| s.start)
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(self.clone())
    }
}

/// Profile reservations for the first `depth` jobs in priority order,
/// rebuilt from scratch at every pass (like dynamic conservative, but only
/// to depth `n`); deeper jobs backfill greedily as long as they fit the
/// profile *right now* — which is exactly the condition for not delaying
/// any reserved job.
#[derive(Debug, Clone)]
pub struct DepthLedger {
    depth: u32,
    /// Per-pass scratch profile (running work, outages, and the holds of
    /// reserved-but-blocked jobs seen so far this walk).
    profile: Profile,
}

impl DepthLedger {
    /// A ledger reserving the first `depth` priority-ordered jobs.
    pub fn new(depth: u32) -> Self {
        DepthLedger {
            depth,
            profile: Profile::new(0),
        }
    }
}

impl ReservationLedger for DepthLedger {
    fn begin_pass(&mut self, ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {
        self.profile = with_running(Profile::new(ctx.total_nodes), ctx);
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, rank: usize, i: usize, free: u32) -> bool {
        let job = &ctx.queue[i];
        let start = self
            .profile
            .earliest_start(ctx.now, job.nodes, job.estimate)
            .unwrap_or(FAR_FUTURE);
        if start == ctx.now && job.nodes <= free {
            return true;
        }
        if (rank as u32) < self.depth {
            // Hold the slot: deeper jobs must schedule around it.
            self.profile.add(start, job.estimate, job.nodes);
        }
        // Unreserved jobs that don't fit now simply wait; they claim
        // nothing in the profile.
        false
    }

    fn note_start(&mut self, ctx: &EngineCtx<'_>, i: usize) {
        let job = &ctx.queue[i];
        self.profile.add(ctx.now, job.estimate, job.nodes);
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineKind, FairshareConfig, QueueOrder, SimConfig};
    use crate::engine::{Engine, QueueOrderStrategy};
    use crate::fairshare::FairshareTracker;
    use crate::simulator::Sim;
    use crate::state::{NullObserver, RunningJob};
    use fairsched_workload::job::UserId;
    use fairsched_workload::synthetic::CplantModel;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn reservation_math_for_aggressive_guard() {
        let mut ends = vec![(500, 3), (200, 3)];
        let r = aggressive_reservation(8, 4, 0, &mut ends);
        // free 4 + 3 at 200 = 7 < 8; + 3 at 500 = 10 ≥ 8 → shadow 500, extra 2.
        assert_eq!(
            r,
            Reservation {
                shadow: 500,
                extra: 2
            }
        );
    }

    fn queued(id: u32, nodes: u32, estimate: Time, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(1),
            nodes,
            estimate,
            arrival,
        }
    }

    fn ctx<'a>(
        now: Time,
        total: u32,
        queue: &'a [QueuedJob],
        fairshare: &'a FairshareTracker,
    ) -> EngineCtx<'a> {
        EngineCtx {
            now,
            free_nodes: total,
            total_nodes: total,
            running: &[],
            queue,
            fairshare,
            order: QueueOrder::Fairshare,
            starvation: None,
            outages: &[],
            trace: None,
        }
    }

    /// The incremental timeline equals a from-scratch re-seed after a burst
    /// of arrivals, improvements, and starts.
    #[test]
    fn incremental_timeline_matches_reseeded_profile() {
        let fs = FairshareTracker::new(FairshareConfig::default());
        let mut ledger = ConservativeLedger::new(false);
        let mut queue: Vec<QueuedJob> = Vec::new();
        for (id, nodes, estimate, at) in [
            (1, 8, 500, 0),
            (2, 4, 300, 5),
            (3, 10, 200, 9),
            (4, 2, 50, 12),
        ] {
            queue.push(queued(id, nodes, estimate, at));
            let c = ctx(at, 10, &queue, &fs);
            ledger.on_arrival(queue.last().unwrap(), &c);
        }
        let c = ctx(20, 10, &queue, &fs);
        ledger.begin_pass(&c, None);
        // Every queued job holds a slot, and the maintained timeline equals
        // a profile re-seeded from those slots.
        let mut reseeded = Profile::new(10);
        for q in &queue {
            let start = ledger.reservation_of(q.id).unwrap();
            reseeded.add(start, q.estimate, q.nodes);
        }
        assert_eq!(ledger.planned, reseeded);
    }

    #[test]
    fn clone_round_trips_reservation_state() {
        let fs = FairshareTracker::new(FairshareConfig::default());
        let mut ledger = ConservativeLedger::new(false);
        let queue = vec![queued(1, 8, 500, 0)];
        let c = ctx(0, 10, &queue, &fs);
        ledger.on_arrival(&queue[0], &c);
        let snap = ledger.clone();
        ledger.on_start(JobId(1));
        assert_eq!(ledger.reservation_of(JobId(1)), None);
        ledger = snap;
        assert_eq!(ledger.reservation_of(JobId(1)), Some(0));
    }

    /// Job 1 runs the whole 10-node machine with a 100 s estimate and
    /// overruns it; job 2 arrives at 150 and is reserved at 151, one second
    /// past the overdue job's clamped end.
    fn ledger_behind_an_overdue_job(
        fs: &FairshareTracker,
    ) -> (ConservativeLedger, [RunningJob; 1], [QueuedJob; 1]) {
        let mut ledger = ConservativeLedger::new(false);
        let first = [queued(1, 10, 100, 0)];
        let c0 = ctx(0, 10, &first, fs);
        ledger.on_arrival(&first[0], &c0);
        ledger.begin_pass(&c0, None);
        ledger.note_start(&c0, 0);
        ledger.on_start(JobId(1));
        let running = [RunningJob {
            id: JobId(1),
            user: UserId(1),
            nodes: 10,
            start: 0,
            estimate: 100,
            scheduled_end: 400,
        }];
        let second = [queued(2, 10, 50, 150)];
        let c = EngineCtx {
            running: &running,
            free_nodes: 0,
            ..ctx(150, 10, &second, fs)
        };
        ledger.on_arrival(&second[0], &c);
        assert_eq!(ledger.reservation_of(JobId(2)), Some(151));
        (ledger, running, second)
    }

    #[test]
    fn an_overdue_completion_at_the_planning_instant_unsettles_the_ledger() {
        let fs = FairshareTracker::new(FairshareConfig::default());
        let (mut ledger, running, queue) = ledger_behind_an_overdue_job(&fs);
        // While the overdue job runs, nothing can move: the pass skips.
        let busy = EngineCtx {
            running: &running,
            free_nodes: 0,
            ..ctx(150, 10, &queue, &fs)
        };
        ledger.begin_pass(&busy, None);
        assert!(ledger.settled);
        assert_eq!(ledger.reservation_of(JobId(2)), Some(151));
        // The overdue job is killed at the same instant. Its capacity was
        // planned until 151 (`now + 1`), not its long-past estimate of 100,
        // so the next pass must re-plan and pull job 2 forward to now.
        ledger.on_complete(JobId(1));
        assert_eq!(ledger.freed_until, 151);
        ledger.begin_pass(&ctx(150, 10, &queue, &fs), None);
        assert_eq!(ledger.reservation_of(JobId(2)), Some(150));
        assert!(
            !ledger.settled,
            "a pass that moved a reservation is not settled"
        );
    }

    #[test]
    fn clone_round_trips_the_settled_state_and_watermark() {
        let fs = FairshareTracker::new(FairshareConfig::default());
        let (mut ledger, running, queue) = ledger_behind_an_overdue_job(&fs);
        let busy = EngineCtx {
            running: &running,
            free_nodes: 0,
            ..ctx(150, 10, &queue, &fs)
        };
        ledger.begin_pass(&busy, None);
        ledger.on_complete(JobId(1));
        let snap = ledger.clone();
        // Drain the live ledger: the completion is consumed by a full pass
        // and the queue empties.
        ledger.begin_pass(&ctx(150, 10, &queue, &fs), None);
        ledger.begin_pass(&ctx(150, 10, &[], &fs), None);
        assert!(!ledger.settled);
        ledger = snap;
        assert!(ledger.settled);
        assert_eq!(ledger.planned_at, 150);
        assert_eq!(ledger.freed_until, 151);
        assert!(ledger.running_ends.is_empty());
        // The restored ledger replays the same decision.
        ledger.begin_pass(&ctx(150, 10, &queue, &fs), None);
        assert_eq!(ledger.reservation_of(JobId(2)), Some(150));
    }

    /// The priority order, counting the passes that reach the ledger with a
    /// non-empty queue: each one runs or skips the conservative `improve`.
    #[derive(Clone)]
    struct CountPasses(Arc<AtomicU64>);

    impl QueueOrderStrategy for CountPasses {
        fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize> {
            ctx.priority()
        }

        fn begin_pass(&mut self, ctx: &EngineCtx<'_>) {
            if !ctx.queue.is_empty() {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        fn clone_box(&self) -> Box<dyn QueueOrderStrategy> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn exact_estimates_settle_nearly_every_conservative_pass() {
        let mut trace = CplantModel::new(3)
            .with_scale(0.05)
            .with_nodes(512)
            .generate();
        for job in &mut trace {
            job.estimate = job.runtime;
        }
        let cfg = SimConfig {
            nodes: 512,
            engine: EngineKind::Conservative { dynamic: false },
            ..SimConfig::default()
        };
        let passes = Arc::new(AtomicU64::new(0));
        let mut engine = Engine {
            order: Box::new(CountPasses(Arc::clone(&passes))),
            ledger: Box::new(ConservativeLedger::new(false)),
        };
        let mut sim = Sim::new(&cfg);
        for job in &trace {
            sim.admit(job);
        }
        let _scope = counters::ProfileScope::enter();
        let before = counters::CounterSnapshot::capture();
        while sim
            .step_bounded(None, &mut engine, &mut NullObserver)
            .unwrap()
        {}
        let skipped = counters::CounterSnapshot::capture()
            .since(&before)
            .plan_skipped;
        let improves = passes.load(Ordering::Relaxed);
        // Concurrent profiled tests can only add to the process-wide count.
        assert!(improves > 1000, "{improves} passes");
        assert!(
            skipped * 10 >= improves * 9,
            "skipped {skipped} of {improves} improve passes"
        );
    }
}
