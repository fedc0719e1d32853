//! Scheduling engines: who starts, and when.
//!
//! An [`Engine`] decides which queued jobs start at each scheduling event
//! (arrival or completion, §3.1). [`Engine::new`] builds it from the
//! policy's [`EngineKind`] out of two strategies:
//!
//! * a [`QueueOrderStrategy`] (`order`) — the walk order over the queue,
//!   plus which job (if any) is *promoted* to hold the pass's aggressive
//!   guard: none, the priority head (EASY), or the starvation-queue head
//!   (CPlant §2.1);
//! * a [`ReservationLedger`] (`ledger`) — what future promises constrain
//!   backfilling, as one admission rule per walked job: none at all
//!   (strict FCFS, Figure 1), a single head-of-queue aggressive
//!   reservation, the conservative per-job profile (§5.3, with the §5.4
//!   dynamic rebuild), or a depth-limited profile.
//!
//! Every engine runs the same backfill walk (`backfill`): start the
//! promoted job if it fits, then walk the order and start each job the
//! ledger admits. The strategy split preserves byte-identical schedules
//! and decision traces with the pre-refactor monolithic engines (pinned by
//! the root `engine_equivalence` golden suite).

use crate::config::{EngineKind, QueueOrder, StarvationConfig};
use crate::fairshare::FairshareTracker;
use crate::faults::Outage;
use crate::state::{priority_order, QueuedJob, RunningJob};
use fairsched_obs::TraceBuf;
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;

mod backfill;
pub mod ledger;
pub mod order;

pub use ledger::{ConservativeLedger, DepthLedger, HeadOfQueue, NoReservations, ReservationLedger};
pub use order::{
    HeadPromotion, LeastAttainedOrder, PriorityOrder, QueueOrderStrategy, StarvationPromotion,
    VirtualFairOrder, HFSP_AGING_RATE,
};

/// Far-future reservation sentinel for jobs that can never be placed (wider
/// than the machine). Such jobs are rejected upstream by trace validation;
/// engines driven by hand degrade to "reserved at the far future" instead
/// of panicking, matching the pre-`Option` profile behavior. Public so
/// trace consumers can tell "reserved at `t`" from "no feasible slot yet"
/// in `ReservationMade`/`ReservationShifted` records.
pub const FAR_FUTURE: Time = Time::MAX / 4;

/// Read-only view the simulator hands an engine at each scheduling event.
pub struct EngineCtx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// Nodes currently idle.
    pub free_nodes: u32,
    /// Machine size.
    pub total_nodes: u32,
    /// Running jobs.
    pub running: &'a [RunningJob],
    /// Queued jobs in arrival order.
    pub queue: &'a [QueuedJob],
    /// Fairshare usage (drives priority order and heavy-user rules).
    pub fairshare: &'a FairshareTracker,
    /// Queue priority order in force.
    pub order: QueueOrder,
    /// Starvation-queue configuration, if the policy has one.
    pub starvation: Option<&'a StarvationConfig>,
    /// Nodes currently down for repair. Already excluded from
    /// `free_nodes`; engines that plan into the future must additionally
    /// treat each as a 1-node occupant until its repair time, or their
    /// reservations would assume capacity that does not exist yet.
    pub outages: &'a [Outage],
    /// Decision-trace sink for this pass, when the run is traced. Engines
    /// emit `JobStarted`/`ReservationMade`/`ReservationShifted` records
    /// through it; emission must never influence decisions (a traced run's
    /// schedule is byte-identical to an untraced one — proptest-pinned).
    pub trace: Option<&'a TraceBuf>,
}

impl EngineCtx<'_> {
    /// Queue indices in priority order.
    pub fn priority(&self) -> Vec<usize> {
        priority_order(self.queue, self.order, self.fairshare)
    }
}

/// The scheduling engine of one run: a queue-order strategy plus the
/// reservation ledger whose admissions the backfill walk turns into starts.
///
/// `Clone` is an exact replica, internal state included: warm-start prefix
/// simulation clones the master engine per query so stateful ledgers
/// (conservative reservations) continue from the master's exact
/// bookkeeping instead of being rebuilt from scratch. `Send` so a whole
/// simulation, engine included, can move to a sweep worker thread.
pub struct Engine {
    order: Box<dyn QueueOrderStrategy>,
    ledger: Box<dyn ReservationLedger>,
}

impl Engine {
    /// The engine realizing `kind`: the strategy table of the policies.
    pub fn new(kind: EngineKind) -> Self {
        let order: Box<dyn QueueOrderStrategy> = match kind {
            EngineKind::NoGuarantee => Box::new(StarvationPromotion),
            EngineKind::Easy => Box::new(HeadPromotion),
            EngineKind::Conservative { .. }
            | EngineKind::ReservationDepth(_)
            | EngineKind::FcfsNoBackfill => Box::new(PriorityOrder),
            EngineKind::Fsp => Box::new(VirtualFairOrder::fsp()),
            EngineKind::Hfsp => Box::new(VirtualFairOrder::hfsp()),
            EngineKind::Las => Box::new(LeastAttainedOrder::default()),
        };
        let ledger: Box<dyn ReservationLedger> = match kind {
            EngineKind::Conservative { dynamic } => Box::new(ConservativeLedger::new(dynamic)),
            EngineKind::ReservationDepth(depth) => Box::new(DepthLedger::new(depth)),
            EngineKind::FcfsNoBackfill => Box::new(NoReservations::default()),
            // The size-based family shares EASY's guard machinery: the
            // order names its own head (virtual completion / least
            // attained service) and the head-of-queue guard protects it.
            EngineKind::NoGuarantee
            | EngineKind::Easy
            | EngineKind::Fsp
            | EngineKind::Hfsp
            | EngineKind::Las => Box::new(HeadOfQueue::default()),
        };
        Engine { order, ledger }
    }

    /// A job entered the queue (already present in `ctx.queue`).
    pub fn on_arrival(&mut self, job: &QueuedJob, ctx: &EngineCtx<'_>) {
        self.ledger.on_arrival(job, ctx);
        self.order.on_arrival(job, ctx);
    }

    /// A previously queued job started (already removed from the queue).
    pub fn on_start(&mut self, id: JobId) {
        self.ledger.on_start(id);
        self.order.on_start(id);
    }

    /// A running job completed or was killed.
    pub fn on_complete(&mut self, id: JobId) {
        self.ledger.on_complete(id);
        self.order.on_complete(id);
    }

    /// Chooses jobs to start *now*. Every returned job currently fits (the
    /// simulator asserts this) and is returned at most once.
    pub fn select_starts(&mut self, ctx: &EngineCtx<'_>) -> Vec<JobId> {
        // Stateful orders advance their virtual clocks before the walk;
        // stateless ones no-op, keeping pre-refactor schedules byte-exact.
        self.order.begin_pass(ctx);
        backfill::greedy(ctx, self.order.as_ref(), self.ledger.as_mut())
    }

    /// Reserved start of a queued job, when the ledger plans one
    /// (testing/inspection).
    pub fn reservation_of(&self, id: JobId) -> Option<Time> {
        self.ledger.reservation_of(id)
    }
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            order: self.order.clone_box(),
            ledger: self.ledger.clone_box(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FairshareConfig;
    use fairsched_workload::job::UserId;
    use fairsched_workload::time::HOUR;

    fn queued(id: u32, user: u32, nodes: u32, estimate: Time, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(user),
            nodes,
            estimate,
            arrival,
        }
    }

    fn running(id: u32, nodes: u32, start: Time, estimate: Time) -> RunningJob {
        RunningJob {
            id: JobId(id),
            user: UserId(99),
            nodes,
            start,
            estimate,
            scheduled_end: start + estimate,
        }
    }

    fn ctx<'a>(
        now: Time,
        total: u32,
        running: &'a [RunningJob],
        queue: &'a [QueuedJob],
        fairshare: &'a FairshareTracker,
        starvation: Option<&'a StarvationConfig>,
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
            starvation,
            outages: &[],
            trace: None,
        }
    }

    fn fs() -> FairshareTracker {
        FairshareTracker::new(FairshareConfig::default())
    }

    fn no_guarantee() -> Engine {
        Engine::new(EngineKind::NoGuarantee)
    }

    fn easy() -> Engine {
        Engine::new(EngineKind::Easy)
    }

    fn conservative(dynamic: bool) -> Engine {
        Engine::new(EngineKind::Conservative { dynamic })
    }

    fn depth(n: u32) -> Engine {
        Engine::new(EngineKind::ReservationDepth(n))
    }

    fn no_backfill() -> Engine {
        Engine::new(EngineKind::FcfsNoBackfill)
    }

    #[test]
    fn fsp_walks_in_virtual_completion_order() {
        let fs = fs();
        // 10 free nodes; the virtually-smallest job is walked (and guarded)
        // first even though it arrived last.
        let queue = vec![
            queued(1, 1, 6, 10_000, 0), // virtual size 60000
            queued(2, 2, 6, 100, 5),    // virtual size 600 → virtual head
        ];
        let mut engine = Engine::new(EngineKind::Fsp);
        let c = ctx(5, 10, &[], &queue, &fs, None);
        for job in &queue {
            engine.on_arrival(job, &c);
        }
        // Both fit alone but not together: the virtual head starts and
        // job 1 no longer fits later in the same walk.
        assert_eq!(engine.select_starts(&c), vec![JobId(2)]);
    }

    #[test]
    fn fsp_guard_blocks_backfills_that_delay_the_virtual_head() {
        let fs = fs();
        let runners = vec![running(90, 6, 0, 1000)];
        let queue = vec![
            queued(1, 1, 8, 100, 0),          // virtual head (drained longest)
            queued(2, 2, 4, 2000 * HOUR, 10), // would delay the head's slot
            queued(3, 3, 2, 500, 10),         // ends under the shadow
        ];
        let mut engine = Engine::new(EngineKind::Fsp);
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        for job in &queue {
            engine.on_arrival(job, &c);
        }
        // Head (8 wide, virtual size 800 after negligible drain) cannot fit;
        // its guard shadows the runner's end. Job 2 (long, 4 > extra 2)
        // violates the guard; job 3 fits in the extra nodes.
        assert_eq!(engine.select_starts(&c), vec![JobId(3)]);
    }

    #[test]
    fn las_engine_prefers_the_unserved_user() {
        let fs = fs();
        let mut engine = Engine::new(EngineKind::Las);
        // User 1 accrues service via a running job; user 2 has none.
        let runners = vec![RunningJob {
            id: JobId(90),
            user: UserId(1),
            nodes: 6,
            start: 0,
            estimate: 1000,
            scheduled_end: 1000,
        }];
        let c0 = ctx(0, 10, &runners, &[], &fs, None);
        engine.select_starts(&c0); // prime the accrual clock
        let queue = vec![queued(1, 1, 4, 100, 0), queued(2, 2, 4, 100, 50)];
        let c1 = ctx(100, 10, &runners, &queue, &fs, None);
        // 4 free nodes: only one of the two queued jobs fits; LAS picks
        // user 2's despite its later arrival.
        assert_eq!(engine.select_starts(&c1), vec![JobId(2)]);
    }

    #[test]
    fn fork_replicates_ledger_state() {
        let fs = fs();
        let runners = vec![running(90, 10, 0, 1000)];
        let queue = vec![queued(1, 1, 4, 100, 10)];
        let mut engine = conservative(false);
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        engine.on_arrival(&queue[0], &c);
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
        // The fork carries the reservation; mutating it leaves the original
        // untouched.
        let mut forked = engine.clone();
        forked.on_start(JobId(1));
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
    }

    #[test]
    fn no_guarantee_starts_everything_that_fits_in_priority_order() {
        let fs = fs();
        let queue = vec![
            queued(1, 1, 6, 100, 0),
            queued(2, 2, 3, 100, 1),
            queued(3, 3, 4, 100, 2),
        ];
        let mut engine = no_guarantee();
        let c = ctx(10, 10, &[], &queue, &fs, None);
        // 10 free: job1 (6) + job2 (3) fit; job3 (4) does not after them.
        assert_eq!(engine.select_starts(&c), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn no_guarantee_lets_narrow_jobs_leapfrog_wide_ones() {
        // The unfairness the paper describes: a wide high-priority job waits
        // while narrow lower-priority jobs start.
        let fs = fs();
        let running = vec![running(90, 6, 0, 1000)];
        let queue = vec![
            queued(1, 1, 8, 100, 0), // wide, needs 8, only 4 free
            queued(2, 2, 2, 100, 1), // narrow
        ];
        let mut engine = no_guarantee();
        let c = ctx(10, 10, &running, &queue, &fs, None);
        assert_eq!(engine.select_starts(&c), vec![JobId(2)]);
    }

    #[test]
    fn starvation_head_reservation_blocks_delaying_backfills() {
        let fs = fs();
        // 6 of 10 nodes busy until t = 1000 (estimate).
        let runners = vec![running(90, 6, 0, 1000)];
        // Wide job has starved (arrived at 0, now 24h later).
        let now = 24 * HOUR;
        let cfg = StarvationConfig {
            entry_delay: 24 * HOUR,
            heavy_rule: None,
        };
        let long_estimate = 2000 * HOUR; // would delay the shadow
        let queue = vec![
            queued(1, 1, 8, 100, 0),             // starving, wide
            queued(2, 2, 4, long_estimate, now), // fits free nodes but delays head
            queued(3, 3, 2, long_estimate, now), // fits in extra (10-8=2)
        ];
        let mut engine = no_guarantee();
        let c = ctx(now, 10, &runners, &queue, &fs, Some(&cfg));
        // Shadow = runner's estimated end; extra = (4 free + 6 freed) - 8 = 2.
        // Job2 (4 nodes, long) violates; job3 (2 nodes) fits in extra.
        assert_eq!(engine.select_starts(&c), vec![JobId(3)]);
    }

    #[test]
    fn without_starvation_queue_the_same_backfill_is_allowed() {
        let fs = fs();
        let runners = vec![running(90, 6, 0, 1000)];
        let now = 24 * HOUR;
        let queue = vec![queued(1, 1, 8, 100, 0), queued(2, 2, 4, 2000 * HOUR, now)];
        let mut engine = no_guarantee();
        let c = ctx(now, 10, &runners, &queue, &fs, None);
        assert_eq!(engine.select_starts(&c), vec![JobId(2)]);
    }

    #[test]
    fn short_backfills_under_the_shadow_are_allowed() {
        let fs = fs();
        let now = 24 * HOUR;
        let cfg = StarvationConfig {
            entry_delay: 24 * HOUR,
            heavy_rule: None,
        };
        // A fresh runner, so its estimated end (now + 1000) is the shadow.
        let runners = vec![running(90, 6, now, 1000)];
        let queue = vec![
            queued(1, 1, 8, 100, 0),   // starving head
            queued(2, 2, 4, 500, now), // ends before shadow (now+1000)
        ];
        let mut engine = no_guarantee();
        let c = ctx(now, 10, &runners, &queue, &fs, Some(&cfg));
        assert_eq!(engine.select_starts(&c), vec![JobId(2)]);
    }

    #[test]
    fn starving_head_starts_when_it_fits() {
        let fs = fs();
        let now = 24 * HOUR;
        let cfg = StarvationConfig {
            entry_delay: 24 * HOUR,
            heavy_rule: None,
        };
        let queue = vec![queued(1, 1, 8, 100, 0), queued(2, 2, 2, 100, now)];
        let mut engine = no_guarantee();
        let c = ctx(now, 10, &[], &queue, &fs, Some(&cfg));
        assert_eq!(engine.select_starts(&c), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn easy_guards_the_priority_head() {
        let mut fs = fs();
        // User 1 heavy → its wide job is LOW priority; user 2's job heads
        // the queue.
        fs.charge(UserId(1), 1e9);
        let runners = vec![running(90, 6, 0, 1000)];
        let queue = vec![
            queued(1, 1, 2, 50, 0),  // low priority, fits
            queued(2, 2, 8, 100, 5), // priority head, needs 8 (4 free)
        ];
        let mut engine = easy();
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        // Head (job2) can't start; job1 (2 nodes ≤ extra = 10-8=2) backfills.
        assert_eq!(engine.select_starts(&c), vec![JobId(1)]);
    }

    #[test]
    fn conservative_reserves_on_arrival_and_starts_when_due() {
        let fs = fs();
        let runners = vec![running(90, 10, 0, 1000)];
        let queue = vec![queued(1, 1, 4, 100, 10)];
        let mut engine = conservative(false);
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        engine.on_arrival(&queue[0], &c);
        // Machine full until 1000: reserved at 1000.
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
        assert!(engine.select_starts(&c).is_empty());
    }

    #[test]
    fn conservative_backfills_into_profile_holes() {
        let fs = fs();
        let runners = vec![running(90, 6, 0, 1000)];
        // Wide job reserved at 1000 leaves 4 nodes free until then.
        let queue1 = vec![queued(1, 1, 8, 500, 10)];
        let mut engine = conservative(false);
        let c1 = ctx(10, 10, &runners, &queue1, &fs, None);
        engine.on_arrival(&queue1[0], &c1);
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));

        // A 4-node job ending before 1000 slots in front.
        let queue2 = vec![queued(1, 1, 8, 500, 10), queued(2, 2, 4, 500, 20)];
        let c2 = ctx(20, 10, &runners, &queue2, &fs, None);
        engine.on_arrival(&queue2[1], &c2);
        assert_eq!(engine.reservation_of(JobId(2)), Some(20));
        // And a 4-node job too LONG to finish by 1000 cannot jump the wide
        // job: 4 free now, but at 1000 the wide job needs 8 of 10.
        let queue3 = vec![
            queued(1, 1, 8, 500, 10),
            queued(2, 2, 4, 500, 20),
            queued(3, 3, 4, 5000, 30),
        ];
        let c3 = ctx(30, 10, &runners, &queue3, &fs, None);
        engine.on_arrival(&queue3[2], &c3);
        // Job3 must wait until the wide job's reserved block ends (1500).
        assert_eq!(engine.reservation_of(JobId(3)), Some(1500));
    }

    #[test]
    fn conservative_select_starts_due_reservations() {
        let fs = fs();
        let queue = vec![queued(1, 1, 4, 100, 0)];
        let mut engine = conservative(false);
        let c = ctx(0, 10, &[], &queue, &fs, None);
        engine.on_arrival(&queue[0], &c);
        assert_eq!(engine.reservation_of(JobId(1)), Some(0));
        assert_eq!(engine.select_starts(&c), vec![JobId(1)]);
        engine.on_start(JobId(1));
        assert_eq!(engine.reservation_of(JobId(1)), None);
    }

    #[test]
    fn conservative_compression_improves_after_completion() {
        let fs = fs();
        // Runner holds 10 nodes with estimate to 1000.
        let runners = vec![running(90, 10, 0, 1000)];
        let queue = vec![queued(1, 1, 4, 100, 10)];
        let mut engine = conservative(false);
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        engine.on_arrival(&queue[0], &c);
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
        // The runner finishes early at t=200: improvement finds t=200.
        let c2 = ctx(200, 10, &[], &queue, &fs, None);
        let starts = engine.select_starts(&c2);
        assert_eq!(starts, vec![JobId(1)]);
        assert_eq!(engine.reservation_of(JobId(1)), Some(200));
    }

    #[test]
    fn dynamic_rebuild_reorders_by_current_priority() {
        let mut fs = fs();
        // job1's user becomes heavy AFTER its arrival.
        let runners = vec![running(90, 10, 0, 1000)];
        let queue = vec![queued(1, 1, 10, 100, 10), queued(2, 2, 10, 100, 20)];
        let mut engine = conservative(true);
        let c = ctx(20, 10, &runners, &queue, &fs, None);
        engine.on_arrival(&queue[0], &c);
        engine.on_arrival(&queue[1], &c);
        engine.select_starts(&c);
        // Equal usage: FCFS tie-break → job1 first (1000), job2 second (1100).
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
        assert_eq!(engine.reservation_of(JobId(2)), Some(1100));
        // Now user 1 becomes heavy: dynamic rebuild flips the order.
        fs.charge(UserId(1), 1e9);
        let c2 = ctx(30, 10, &runners, &queue, &fs, None);
        engine.select_starts(&c2);
        assert_eq!(engine.reservation_of(JobId(2)), Some(1000));
        assert_eq!(engine.reservation_of(JobId(1)), Some(1100));
    }

    #[test]
    fn non_dynamic_keeps_reservations_against_priority_flips() {
        let mut fs = fs();
        let runners = vec![running(90, 10, 0, 1000)];
        let queue = vec![queued(1, 1, 10, 100, 10), queued(2, 2, 10, 100, 20)];
        let mut engine = conservative(false);
        engine.on_arrival(&queue[0], &ctx(10, 10, &runners, &queue[..1], &fs, None));
        engine.on_arrival(&queue[1], &ctx(20, 10, &runners, &queue, &fs, None));
        // job1 reserved at 1000, job2 at 1100.
        fs.charge(UserId(1), 1e9);
        let c2 = ctx(30, 10, &runners, &queue, &fs, None);
        engine.select_starts(&c2);
        // §5.3: job1 keeps its (better) reservation despite its user's
        // priority collapse; job2 cannot improve past it.
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
        assert_eq!(engine.reservation_of(JobId(2)), Some(1100));
    }

    #[test]
    fn no_backfill_blocks_everything_behind_a_stuck_head() {
        // Figure 1's exact scenario: jobB fits beside the running work but
        // must wait because jobA heads the queue.
        let fs = fs();
        let runners = vec![running(90, 6, 0, 1000)];
        let queue = vec![
            queued(1, 1, 8, 100, 0), // jobA: needs 8, only 4 free
            queued(2, 2, 4, 30, 1),  // jobB: fits, but is not the head
        ];
        let mut engine = no_backfill();
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        assert_eq!(engine.select_starts(&c), Vec::<JobId>::new());
    }

    #[test]
    fn no_backfill_starts_consecutive_fitting_heads() {
        let fs = fs();
        let queue = vec![
            queued(1, 1, 4, 100, 0),
            queued(2, 2, 4, 100, 1),
            queued(3, 3, 8, 100, 2), // does not fit after 1 and 2
            queued(4, 4, 1, 100, 3), // fits but is behind the stuck job 3
        ];
        let mut engine = no_backfill();
        let c = ctx(0, 10, &[], &queue, &fs, None);
        assert_eq!(engine.select_starts(&c), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn depth_zero_is_pure_greedy_backfilling() {
        let fs = fs();
        let runners = vec![running(90, 6, 0, 1000)];
        let queue = vec![
            queued(1, 1, 8, 100, 0),          // priority head, doesn't fit
            queued(2, 2, 4, 2000 * HOUR, 10), // would delay the head's slot
        ];
        let mut engine = depth(0);
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        // No reservations: the long narrow job starts anyway.
        assert_eq!(engine.select_starts(&c), vec![JobId(2)]);
    }

    #[test]
    fn depth_one_protects_the_priority_head_like_easy() {
        let fs = fs();
        let runners = vec![running(90, 6, 10, 1000)];
        let queue = vec![
            queued(1, 1, 8, 100, 0),          // reserved at the runner's end
            queued(2, 2, 4, 2000 * HOUR, 10), // would overlap the reservation
            queued(3, 3, 4, 500, 10),         // fits before the reservation
        ];
        let mut engine = depth(1);
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        // Job 1 reserved at 1010 (8 of 10 nodes). Job 2 (4 nodes ending far
        // past 1010) collides with it; job 3 ends at 510 < 1010 and fits.
        assert_eq!(engine.select_starts(&c), vec![JobId(3)]);
    }

    #[test]
    fn deep_reservations_protect_multiple_jobs() {
        let fs = fs();
        let runners = vec![running(90, 10, 10, 990)]; // machine full till 1000
        let queue = vec![
            queued(1, 1, 10, 100, 0), // reserved [1000, 1100)
            queued(2, 2, 10, 100, 1), // reserved [1100, 1200) at depth 2
            queued(3, 3, 1, 2000, 2), // would delay job 2 but not job 1
        ];
        let c = ctx(10, 10, &runners, &queue, &fs, None);
        // Depth 2: job 3 (ends at 2010, overlapping both reservations on a
        // full profile) cannot start.
        let mut deep = depth(2);
        assert_eq!(deep.select_starts(&c), Vec::<JobId>::new());
        // Depth 1: only job 1 is protected; job 3 still cannot start — the
        // profile during [1000,1100) is full with job 1's 10 nodes.
        let mut shallow = depth(1);
        assert_eq!(shallow.select_starts(&c), Vec::<JobId>::new());
        // Depth 0: nothing is protected; job 3 starts immediately? No — the
        // machine is FULL now (free = 0), so nothing starts either way.
        let mut none = depth(0);
        assert_eq!(none.select_starts(&c), Vec::<JobId>::new());
    }

    #[test]
    fn depth_engine_starts_everything_on_an_empty_machine() {
        let fs = fs();
        let queue = vec![queued(1, 1, 4, 100, 0), queued(2, 2, 6, 100, 1)];
        let mut engine = depth(3);
        let c = ctx(0, 10, &[], &queue, &fs, None);
        assert_eq!(engine.select_starts(&c), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn conservative_reservations_respect_node_outages() {
        let fs = fs();
        // 10-node machine, empty, but 4 nodes are down until t = 1000: an
        // 8-node job cannot be promised anything before the repairs land.
        let outages: Vec<Outage> = (0..4).map(|seq| Outage { seq, until: 1000 }).collect();
        let queue = vec![queued(1, 1, 8, 100, 10)];
        let c = EngineCtx {
            now: 10,
            free_nodes: 6,
            total_nodes: 10,
            running: &[],
            queue: &queue,
            fairshare: &fs,
            order: QueueOrder::Fairshare,
            starvation: None,
            outages: &outages,
            trace: None,
        };
        let mut engine = conservative(false);
        engine.on_arrival(&queue[0], &c);
        assert_eq!(engine.reservation_of(JobId(1)), Some(1000));
        assert!(engine.select_starts(&c).is_empty());
    }

    #[test]
    fn greedy_guard_shadow_accounts_for_outages() {
        let fs = fs();
        // Starving 8-node head; 4 nodes down until t well past any backfill
        // window plus 2 running until 1000. free = 4.
        let now = 24 * HOUR;
        let cfg = StarvationConfig {
            entry_delay: 24 * HOUR,
            heavy_rule: None,
        };
        let runners = vec![running(90, 2, now, 1000)];
        let outages: Vec<Outage> = (0..4)
            .map(|seq| Outage {
                seq,
                until: now + 50_000,
            })
            .collect();
        let queue = vec![
            queued(1, 1, 8, 100, 0),      // starving head: 8 > 4 free
            queued(2, 2, 4, 40_000, now), // would end before the repairs
            queued(3, 3, 4, 60_000, now), // would delay the head
        ];
        let c = EngineCtx {
            now,
            free_nodes: 4,
            total_nodes: 10,
            running: &runners,
            queue: &queue,
            fairshare: &fs,
            order: QueueOrder::Fairshare,
            starvation: Some(&cfg),
            outages: &outages,
            trace: None,
        };
        let mut engine = no_guarantee();
        // Head needs 8: free 4 + 2 at now+1000 = 6, + repairs at now+50000
        // reach 10 → shadow = now+50000, extra = 2. Job 2 (ends now+40000
        // ≤ shadow) backfills; job 3 (ends past the shadow, 4 > extra)
        // must not.
        assert_eq!(engine.select_starts(&c), vec![JobId(2)]);
    }
}
