//! Queue-order strategies: the walk order over the queue, plus which job
//! (if any) is *promoted* to hold the pass's aggressive guard.
//!
//! Promotion is what distinguishes CPlant's no-guarantee policy from EASY:
//! both walk the priority order greedily, but CPlant guards the head of the
//! *starvation* queue (§2.1) while EASY guards the head of the *priority*
//! queue. Policies with per-job reservations promote nothing — their
//! guarantees live in the [`ReservationLedger`](super::ReservationLedger).
//!
//! Since the size-based family landed, order strategies may be *stateful*:
//! [`VirtualFairOrder`] maintains FSP's processor-sharing virtual fair
//! schedule and [`LeastAttainedOrder`] tracks per-user attained service.
//! Stateful strategies obey a strict determinism contract: their state must
//! be a pure function of the hook-call sequence ([`on_arrival`], [`on_start`],
//! [`on_complete`], [`begin_pass`] — all driven from `Sim::step`), so a
//! [`clone_box`] fork continues byte-identically to a from-scratch replay of
//! the same events (this is what makes them warm-start eligible). In
//! particular no float reduction may ever run in `HashMap` iteration order:
//! every accrual below iterates the deterministic `ctx.queue`/`ctx.running`
//! slices, never the maps.
//!
//! Every keyed walk order sorts through `state::order_by_key`, which
//! computes each queued job's key once per pass: a key costs hash lookups
//! (the virtual schedule, the fairshare usage, the attained service), so it
//! is never recomputed inside a comparator.
//!
//! [`on_arrival`]: QueueOrderStrategy::on_arrival
//! [`on_start`]: QueueOrderStrategy::on_start
//! [`on_complete`]: QueueOrderStrategy::on_complete
//! [`begin_pass`]: QueueOrderStrategy::begin_pass
//! [`clone_box`]: QueueOrderStrategy::clone_box

use super::EngineCtx;
use crate::starvation::starving_jobs;
use crate::state::{order_by_key, QueuedJob};
use fairsched_obs::{StartCause, TraceRecord};
use fairsched_workload::job::{JobId, UserId};
use fairsched_workload::time::Time;
use std::collections::HashMap;

/// The queue-walk order and guard promotion of a scheduling pass.
pub trait QueueOrderStrategy: Send {
    /// Queue indices in the order the backfill walk visits them.
    fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize>;

    /// The queue index promoted to hold this pass's aggressive guard, with
    /// the [`StartCause`] reported if the promoted job starts immediately.
    fn promoted(&self, _ctx: &EngineCtx<'_>, _order: &[usize]) -> Option<(usize, StartCause)> {
        None
    }

    /// A job entered the queue (already present in `ctx.queue`).
    fn on_arrival(&mut self, _job: &QueuedJob, _ctx: &EngineCtx<'_>) {}

    /// A previously queued job started (already removed from the queue).
    fn on_start(&mut self, _id: JobId) {}

    /// A running job completed or was killed.
    fn on_complete(&mut self, _id: JobId) {}

    /// Called once at the top of every `select_starts` pass, before the
    /// backfill walk asks for the walk order. Stateful strategies advance
    /// their clocks here (virtual drains, attained-service accrual); the
    /// scheduling fixpoint re-enters at the same instant, so a repeated
    /// call with `dt = 0` must be a semantic no-op.
    fn begin_pass(&mut self, _ctx: &EngineCtx<'_>) {}

    /// A boxed replica carrying the full internal state (stateless
    /// strategies are plain copies). Warm-start forks rely on the replica
    /// continuing byte-identically.
    fn clone_box(&self) -> Box<dyn QueueOrderStrategy>;
}

/// Walk the priority order; promote nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityOrder;

impl QueueOrderStrategy for PriorityOrder {
    fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize> {
        ctx.priority()
    }

    fn clone_box(&self) -> Box<dyn QueueOrderStrategy> {
        Box::new(*self)
    }
}

/// EASY promotion: the priority head holds the guard. A fitting head is
/// plain FCFS dispatch, so its start cause is [`StartCause::Fcfs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HeadPromotion;

impl QueueOrderStrategy for HeadPromotion {
    fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize> {
        ctx.priority()
    }

    fn promoted(&self, _ctx: &EngineCtx<'_>, order: &[usize]) -> Option<(usize, StartCause)> {
        order.first().map(|&i| (i, StartCause::Fcfs))
    }

    fn clone_box(&self) -> Box<dyn QueueOrderStrategy> {
        Box::new(*self)
    }
}

/// CPlant promotion (§2.1): the head of the starvation queue — FCFS among
/// jobs that have waited past the entry delay, minus heavy users when §5.2's
/// bar is active — holds the guard.
#[derive(Debug, Clone, Copy, Default)]
pub struct StarvationPromotion;

impl QueueOrderStrategy for StarvationPromotion {
    fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize> {
        ctx.priority()
    }

    fn promoted(&self, ctx: &EngineCtx<'_>, _order: &[usize]) -> Option<(usize, StartCause)> {
        ctx.starvation
            .and_then(|cfg| {
                starving_jobs(ctx.queue, ctx.now, cfg, ctx.fairshare, ctx.running)
                    .first()
                    .copied()
            })
            .map(|i| (i, StartCause::StarvationGuard))
    }

    fn clone_box(&self) -> Box<dyn QueueOrderStrategy> {
        Box::new(*self)
    }
}

/// HFSP-style aging rate: the fraction of the whole machine granted to each
/// queued job as *virtual aging credit* per second of queue age. Under
/// systematic over-estimation a job's virtual size is inflated forever; the
/// credit `age × total_nodes × HFSP_AGING_RATE` eventually dominates any
/// inflated size, so old jobs drift to the front of the virtual schedule
/// instead of starving behind a stream of small arrivals.
pub const HFSP_AGING_RATE: f64 = 0.25;

/// Emits a [`TraceRecord::VirtualInversion`] when the strategy's head
/// differs from the arrival-order head, once per distinct (head, displaced)
/// pair. Each job's key is computed once. `last` is updated whether or not
/// a sink is attached, so traced and untraced runs carry byte-identical
/// strategy state (the zero-interference proptests cover the composed
/// engines).
fn note_head_inversion(
    last: &mut Option<(JobId, JobId)>,
    ctx: &EngineCtx<'_>,
    key: &dyn Fn(&QueuedJob) -> f64,
) {
    let head = ctx
        .queue
        .iter()
        .map(|j| (key(j), j))
        .min_by(|(ka, a), (kb, b)| {
            ka.total_cmp(kb)
                .then_with(|| (a.arrival, a.id).cmp(&(b.arrival, b.id)))
        });
    let first = ctx.queue.iter().min_by_key(|j| (j.arrival, j.id));
    let (Some((head_key, head)), Some(first)) = (head, first) else {
        *last = None;
        return;
    };
    if head.id == first.id {
        *last = None;
        return;
    }
    let pair = (head.id, first.id);
    if *last != Some(pair) {
        if let Some(trace) = ctx.trace {
            trace.emit(TraceRecord::VirtualInversion {
                at: ctx.now,
                job: head.id,
                displaced: first.id,
                job_key: head_key,
                displaced_key: key(first),
            });
        }
        *last = Some(pair);
    }
}

/// A queued job's slot in the virtual fair schedule.
#[derive(Debug, Clone, Copy)]
struct VirtJob {
    /// Virtual remaining size in node-seconds, drained every pass.
    remaining: f64,
    /// Instant the job was last drained to.
    since: Time,
}

/// FSP's virtual fair schedule (Dell'Amico, Carra & Michiardi): every
/// queued job's *virtual remaining size* (initially `nodes × estimate`
/// node-seconds) drains as if a processor-sharing machine were running the
/// whole queue, each job receiving a share of the machine proportional to
/// its fair-share weight `1 / (1 + decayed usage)`. The walk order is the
/// virtual *completion* order: ascending `remaining / weight` (rates are
/// proportional to weights, so dividing by the weight recovers each job's
/// virtual completion time up to a common factor), ties by (arrival, id).
///
/// With `aging > 0` this becomes the HFSP variant: a job's sort key is
/// discounted by `age × total_nodes × aging`, so systematic size
/// over-estimation cannot starve old jobs (see [`HFSP_AGING_RATE`]).
///
/// The drain is event-granular: passes run at every scheduling event, the
/// queue is constant between passes, and each job carries its own `since`
/// cursor, so a job arriving mid-batch is never drained for time it did not
/// spend queued.
#[derive(Debug, Clone, Default)]
pub struct VirtualFairOrder {
    aging: f64,
    virt: HashMap<JobId, VirtJob>,
    last_inversion: Option<(JobId, JobId)>,
}

impl VirtualFairOrder {
    /// Pure FSP: virtual completion order, no aging.
    pub fn fsp() -> Self {
        VirtualFairOrder::default()
    }

    /// HFSP: FSP with the [`HFSP_AGING_RATE`] aging credit blended in.
    pub fn hfsp() -> Self {
        VirtualFairOrder {
            aging: HFSP_AGING_RATE,
            ..Default::default()
        }
    }

    /// A job's initial virtual size: its non-clairvoyant footprint.
    fn initial(job: &QueuedJob) -> f64 {
        job.nodes as f64 * job.estimate as f64
    }

    /// Fair-share weight of a user: light users drain faster.
    fn weight(ctx: &EngineCtx<'_>, user: UserId) -> f64 {
        1.0 / (1.0 + ctx.fairshare.usage(user))
    }

    /// The virtual-completion sort key of a queued job (lower = sooner).
    fn key(&self, job: &QueuedJob, ctx: &EngineCtx<'_>) -> f64 {
        let remaining = self.virt[&job.id].remaining;
        let credit =
            self.aging * ctx.now.saturating_sub(job.arrival) as f64 * ctx.total_nodes as f64;
        remaining / Self::weight(ctx, job.user) - credit
    }

    /// Current virtual remaining size of a queued job (testing/inspection).
    pub fn virtual_remaining(&self, id: JobId) -> Option<f64> {
        self.virt.get(&id).map(|v| v.remaining)
    }
}

impl QueueOrderStrategy for VirtualFairOrder {
    fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize> {
        order_by_key(ctx.queue, |j| self.key(j, ctx))
    }

    fn promoted(&self, _ctx: &EngineCtx<'_>, order: &[usize]) -> Option<(usize, StartCause)> {
        // The virtual-completion head holds the aggressive guard, exactly
        // as EASY guards the priority head.
        order.first().map(|&i| (i, StartCause::Fcfs))
    }

    fn on_arrival(&mut self, job: &QueuedJob, _ctx: &EngineCtx<'_>) {
        self.virt.insert(
            job.id,
            VirtJob {
                remaining: Self::initial(job),
                since: job.arrival,
            },
        );
    }

    fn on_start(&mut self, id: JobId) {
        self.virt.remove(&id);
    }

    fn begin_pass(&mut self, ctx: &EngineCtx<'_>) {
        // Every queued job, fault requeues included, entered through
        // `on_arrival`, so the first drain covers exactly its time queued.
        let total_weight: f64 = ctx.queue.iter().map(|j| Self::weight(ctx, j.user)).sum();
        if total_weight > 0.0 {
            for job in ctx.queue {
                let rate = ctx.total_nodes as f64 * Self::weight(ctx, job.user) / total_weight;
                let v = self.virt.get_mut(&job.id).expect("queued job arrived");
                let dt = ctx.now.saturating_sub(v.since) as f64;
                if dt > 0.0 {
                    v.remaining = (v.remaining - rate * dt).max(0.0);
                }
                v.since = ctx.now;
            }
        }
        // The key closure borrows `self`, so the inversion cursor is
        // updated through a temporary and written back.
        let mut last = self.last_inversion;
        let key = |j: &QueuedJob| self.key(j, ctx);
        note_head_inversion(&mut last, ctx, &key);
        self.last_inversion = last;
    }

    fn clone_box(&self) -> Box<dyn QueueOrderStrategy> {
        Box::new(self.clone())
    }
}

/// LAS (least-attained-service) across users: the queue is walked in
/// ascending order of the submitting user's *undecayed* attained service
/// (node-seconds actually executed so far this run), ties by (arrival, id).
/// Job-level LAS degenerates under non-preemptive dispatch — every queued
/// job has zero attained service — so the foreground/background queue is
/// kept per *user*, turning LAS into a fair-queueing rule: users who have
/// consumed the least machine time go first, without the daily decay that
/// lets heavy users launder history under the fairshare order.
///
/// Accrual is exact: running jobs accrue per pass over `[max(start, last
/// pass), now]` from the deterministic `ctx.running` slice, and submissions
/// that completed in the current event batch accrue their tail through the
/// `finished` spill (their completion instant *is* the pass instant, since
/// every completion triggers a pass).
#[derive(Debug, Clone, Default)]
pub struct LeastAttainedOrder {
    attained: HashMap<UserId, f64>,
    queued: HashMap<JobId, (UserId, u32)>,
    running: HashMap<JobId, (UserId, u32)>,
    finished: Vec<(UserId, u32)>,
    last_pass: Time,
    last_inversion: Option<(JobId, JobId)>,
}

impl LeastAttainedOrder {
    /// Attained service of a user in node-seconds (testing/inspection).
    pub fn attained(&self, user: UserId) -> f64 {
        self.attained.get(&user).copied().unwrap_or(0.0)
    }

    fn key(&self, job: &QueuedJob) -> f64 {
        self.attained(job.user)
    }
}

impl QueueOrderStrategy for LeastAttainedOrder {
    fn walk_order(&self, ctx: &EngineCtx<'_>) -> Vec<usize> {
        order_by_key(ctx.queue, |j| self.key(j))
    }

    fn promoted(&self, _ctx: &EngineCtx<'_>, order: &[usize]) -> Option<(usize, StartCause)> {
        order.first().map(|&i| (i, StartCause::Fcfs))
    }

    fn on_arrival(&mut self, job: &QueuedJob, _ctx: &EngineCtx<'_>) {
        self.queued.insert(job.id, (job.user, job.nodes));
    }

    fn on_start(&mut self, id: JobId) {
        if let Some(meta) = self.queued.remove(&id) {
            self.running.insert(id, meta);
        }
    }

    fn on_complete(&mut self, id: JobId) {
        if let Some(meta) = self.running.remove(&id) {
            self.finished.push(meta);
        }
    }

    fn begin_pass(&mut self, ctx: &EngineCtx<'_>) {
        let prev = self.last_pass;
        self.last_pass = ctx.now;
        // Tail service of submissions that completed in this batch: they
        // were running over the whole [prev, now] (starts only happen at
        // passes, so their start is never later than `prev`).
        let dt = ctx.now.saturating_sub(prev) as f64;
        for (user, nodes) in self.finished.drain(..) {
            if dt > 0.0 {
                *self.attained.entry(user).or_insert(0.0) += nodes as f64 * dt;
            }
        }
        for r in ctx.running {
            let from = r.start.max(prev);
            if ctx.now > from {
                *self.attained.entry(r.user).or_insert(0.0) +=
                    r.nodes as f64 * (ctx.now - from) as f64;
            }
        }
        let mut last = self.last_inversion;
        let key = |j: &QueuedJob| self.key(j);
        note_head_inversion(&mut last, ctx, &key);
        self.last_inversion = last;
    }

    fn clone_box(&self) -> Box<dyn QueueOrderStrategy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairshareConfig, QueueOrder};
    use crate::fairshare::FairshareTracker;
    use crate::state::RunningJob;

    fn queued(id: u32, user: u32, nodes: u32, estimate: Time, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(user),
            nodes,
            estimate,
            arrival,
        }
    }

    fn ctx<'a>(
        now: Time,
        total: u32,
        running: &'a [RunningJob],
        queue: &'a [QueuedJob],
        fairshare: &'a FairshareTracker,
    ) -> EngineCtx<'a> {
        let used: u32 = running.iter().map(|r| r.nodes).sum();
        EngineCtx {
            now,
            free_nodes: total - used,
            total_nodes: total,
            running,
            queue,
            fairshare,
            order: QueueOrder::Fairshare,
            starvation: None,
            outages: &[],
            trace: None,
        }
    }

    fn fs() -> FairshareTracker {
        FairshareTracker::new(FairshareConfig::default())
    }

    /// `order` after every job queued in `c` arrived, as the simulator
    /// delivers them.
    fn arrived(mut order: VirtualFairOrder, c: &EngineCtx<'_>) -> VirtualFairOrder {
        for job in c.queue {
            order.on_arrival(job, c);
        }
        order
    }

    fn ids(queue: &[QueuedJob], order: &[usize]) -> Vec<u32> {
        order.iter().map(|&i| queue[i].id.0).collect()
    }

    #[test]
    fn fsp_orders_by_virtual_size_initially() {
        let fs = fs();
        // Equal arrival spacing; virtual sizes 800, 200, 400 node-seconds.
        let queue = vec![
            queued(1, 1, 8, 100, 0),
            queued(2, 2, 2, 100, 1),
            queued(3, 3, 4, 100, 2),
        ];
        let c = ctx(2, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c);
        fsp.begin_pass(&c);
        assert_eq!(ids(&queue, &fsp.walk_order(&c)), vec![2, 3, 1]);
    }

    #[test]
    fn fsp_drains_virtual_sizes_between_passes() {
        let fs = fs();
        let queue = vec![queued(1, 1, 2, 100, 0), queued(2, 2, 2, 100, 0)];
        let c0 = ctx(0, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c0);
        fsp.begin_pass(&c0);
        assert_eq!(fsp.virtual_remaining(JobId(1)), Some(200.0));
        // 10 virtual node-seconds/second split evenly: 50 each after 10 s.
        let c1 = ctx(10, 10, &[], &queue, &fs);
        fsp.begin_pass(&c1);
        assert_eq!(fsp.virtual_remaining(JobId(1)), Some(150.0));
        assert_eq!(fsp.virtual_remaining(JobId(2)), Some(150.0));
        // A repeated pass at the same instant is a no-op.
        fsp.begin_pass(&c1);
        assert_eq!(fsp.virtual_remaining(JobId(1)), Some(150.0));
    }

    #[test]
    fn fsp_drain_weights_favor_light_users() {
        let mut fs = fs();
        fs.charge(UserId(1), 1.0); // heavy: weight 1/2 vs user 2's 1
        let queue = vec![queued(1, 1, 2, 100, 0), queued(2, 2, 2, 100, 0)];
        let c0 = ctx(0, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c0);
        fsp.begin_pass(&c0);
        let c1 = ctx(9, 10, &[], &queue, &fs);
        fsp.begin_pass(&c1);
        // total weight 1.5, machine 10: user1 drains 10/3, user2 20/3 per s.
        assert_eq!(fsp.virtual_remaining(JobId(1)), Some(200.0 - 30.0));
        assert_eq!(fsp.virtual_remaining(JobId(2)), Some(200.0 - 60.0));
        // And the heavy user's job sorts later even at equal remaining,
        // because the key divides by the weight.
        assert_eq!(ids(&queue, &fsp.walk_order(&c1)), vec![2, 1]);
    }

    #[test]
    fn fsp_virtual_size_never_goes_negative() {
        let fs = fs();
        let queue = vec![queued(1, 1, 1, 10, 0)];
        let c0 = ctx(0, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c0);
        fsp.begin_pass(&c0);
        let c1 = ctx(1_000_000, 10, &[], &queue, &fs);
        fsp.begin_pass(&c1);
        assert_eq!(fsp.virtual_remaining(JobId(1)), Some(0.0));
    }

    #[test]
    fn started_jobs_leave_the_virtual_schedule() {
        let fs = fs();
        let queue = vec![queued(1, 1, 2, 100, 0)];
        let c = ctx(0, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c);
        fsp.begin_pass(&c);
        assert!(fsp.virtual_remaining(JobId(1)).is_some());
        fsp.on_start(JobId(1));
        assert!(fsp.virtual_remaining(JobId(1)).is_none());
    }

    #[test]
    fn hfsp_aging_overtakes_inflated_sizes() {
        let fs = fs();
        // Job 1: an over-estimated 8e6 node-second footprint, queued since
        // 0. Job 2: a 10 node-second job arriving now. Two equal-weight
        // jobs on 10 nodes drain 5 node-seconds/second each, so by `now`
        // job 1 has drained 6e6 and still holds an inflated 2e6.
        let now = 1_200_000;
        let queue = vec![queued(1, 1, 8, 1_000_000, 0), queued(2, 2, 1, 10, now)];
        let c = ctx(now, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c);
        fsp.begin_pass(&c);
        let mut hfsp = arrived(VirtualFairOrder::hfsp(), &c);
        hfsp.begin_pass(&c);
        // Aging changes the key, not the drain.
        for order in [&fsp, &hfsp] {
            assert_eq!(order.virtual_remaining(JobId(1)), Some(2e6));
            assert_eq!(order.virtual_remaining(JobId(2)), Some(10.0));
        }
        // Pure FSP keeps the inflated job behind the fresh one (2e6 > 10).
        assert_eq!(ids(&queue, &fsp.walk_order(&c)), vec![2, 1]);
        // HFSP's credit 0.25 × 10 × 1.2e6 = 3e6 outweighs the 2e6 left, so
        // job 1's key drops to -1e6 and it overtakes.
        assert_eq!(hfsp.key(&queue[0], &c), -1e6);
        assert_eq!(ids(&queue, &hfsp.walk_order(&c)), vec![1, 2]);
    }

    #[test]
    fn las_prefers_users_with_least_attained_service() {
        let fs = fs();
        let mut las = LeastAttainedOrder::default();
        // User 1 ran 4 nodes for 100 s; user 2 never ran.
        let runners = vec![RunningJob {
            id: JobId(90),
            user: UserId(1),
            nodes: 4,
            start: 0,
            estimate: 1000,
            scheduled_end: 1000,
        }];
        let queue = vec![queued(1, 1, 2, 50, 0), queued(2, 2, 2, 50, 10)];
        let c0 = ctx(0, 10, &runners, &queue, &fs);
        las.begin_pass(&c0);
        let c1 = ctx(100, 10, &runners, &queue, &fs);
        las.begin_pass(&c1);
        assert_eq!(las.attained(UserId(1)), 400.0);
        assert_eq!(las.attained(UserId(2)), 0.0);
        assert_eq!(ids(&queue, &las.walk_order(&c1)), vec![2, 1]);
    }

    #[test]
    fn las_accrues_completion_tails_exactly() {
        let fs = fs();
        let mut las = LeastAttainedOrder::default();
        let job = queued(1, 7, 4, 100, 0);
        let q0 = [job];
        let c0 = ctx(0, 10, &[], &q0, &fs);
        las.on_arrival(&job, &c0);
        las.begin_pass(&c0);
        las.on_start(JobId(1));
        // Runs [0, 30]; a pass at 10 accrues the first stretch …
        let runners = vec![RunningJob {
            id: JobId(1),
            user: UserId(7),
            nodes: 4,
            start: 0,
            estimate: 100,
            scheduled_end: 30,
        }];
        let c1 = ctx(10, 10, &runners, &[], &fs);
        las.begin_pass(&c1);
        assert_eq!(las.attained(UserId(7)), 40.0);
        // … completion at 30 spills the tail into the completion pass.
        las.on_complete(JobId(1));
        let c2 = ctx(30, 10, &[], &[], &fs);
        las.begin_pass(&c2);
        assert_eq!(las.attained(UserId(7)), 120.0);
    }

    #[test]
    fn las_ties_fall_back_to_arrival_order() {
        let fs = fs();
        let las = LeastAttainedOrder::default();
        let queue = vec![queued(2, 1, 1, 10, 5), queued(1, 2, 1, 10, 3)];
        let c = ctx(10, 10, &[], &queue, &fs);
        assert_eq!(ids(&queue, &las.walk_order(&c)), vec![1, 2]);
    }

    #[test]
    fn size_based_strategies_promote_their_head() {
        let fs = fs();
        let queue = vec![queued(1, 1, 8, 100, 0), queued(2, 2, 2, 100, 1)];
        let c = ctx(1, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c);
        fsp.begin_pass(&c);
        let order = fsp.walk_order(&c);
        // Job 2 (virtual size 200 < 800) heads the walk and is promoted.
        assert_eq!(ids(&queue, &order)[0], 2);
        let (i, cause) = fsp.promoted(&c, &order).unwrap();
        assert_eq!(queue[i].id, JobId(2));
        assert_eq!(cause, StartCause::Fcfs);
    }

    #[test]
    fn clone_box_carries_virtual_state() {
        let fs = fs();
        let queue = vec![queued(1, 1, 2, 100, 0)];
        let c0 = ctx(0, 10, &[], &queue, &fs);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c0);
        fsp.begin_pass(&c0);
        let c1 = ctx(10, 10, &[], &queue, &fs);
        fsp.begin_pass(&c1);
        let forked = fsp.clone_box();
        // Mutating the original leaves the fork untouched.
        fsp.on_start(JobId(1));
        let order = forked.walk_order(&c1);
        assert_eq!(ids(&queue, &order), vec![1]);
    }

    #[test]
    fn inversions_are_traced_once_per_pair() {
        let fs = fs();
        let buf = fairsched_obs::TraceBuf::new();
        let queue = vec![
            queued(1, 1, 8, 1000, 0), // arrival head, big virtual size
            queued(2, 2, 1, 10, 5),   // virtual head
        ];
        let mut c = ctx(5, 10, &[], &queue, &fs);
        c.trace = Some(&buf);
        let mut fsp = arrived(VirtualFairOrder::fsp(), &c);
        fsp.begin_pass(&c);
        fsp.begin_pass(&c); // same pair: no duplicate record
        let sink = buf.drain();
        assert_eq!(sink.len(), 1);
        match &sink[0] {
            TraceRecord::VirtualInversion { job, displaced, .. } => {
                assert_eq!(*job, JobId(2));
                assert_eq!(*displaced, JobId(1));
            }
            other => panic!("unexpected record {other:?}"),
        }
    }
}
