//! Backfill walks: how a pass turns ledger admissions into starts.
//!
//! A walk owns the scheduling pass: it asks the
//! [`QueueOrderStrategy`](super::QueueOrderStrategy) for the walk order and
//! any promoted guard, opens the pass on the
//! [`ReservationLedger`](super::ReservationLedger), walks the queue querying
//! admissions, and emits the decision trace (start causes, bypass lists)
//! and backfill counters. Each walk is written for one ledger, which
//! invokes it from [`ReservationLedger::select`](super::ReservationLedger::select).

use super::{Admission, EngineCtx, QueueOrderStrategy, ReservationLedger};
use fairsched_obs::{counters, StartCause, TraceBuf, TraceRecord};
use fairsched_workload::job::JobId;

fn emit_start(trace: Option<&TraceBuf>, ctx: &EngineCtx<'_>, i: usize, cause: StartCause) {
    if let Some(t) = trace {
        let job = &ctx.queue[i];
        t.emit(TraceRecord::JobStarted {
            at: ctx.now,
            job: job.id,
            nodes: job.nodes,
            cause,
        });
    }
}

/// Strict no-backfill scheduling (the paper's Figure 1): jobs start only
/// from the head of the walk. A job that is not at the head waits even if
/// the machine could run it right now.
pub(super) fn no_backfill(
    ctx: &EngineCtx<'_>,
    order: &dyn QueueOrderStrategy,
    ledger: &mut impl ReservationLedger,
) -> Vec<JobId> {
    let order = order.walk_order(ctx);
    ledger.begin_pass(ctx, None);
    let mut free = ctx.free_nodes;
    let mut starts = Vec::new();
    // Start strictly from the head: stop at the first job that does not
    // fit (everything behind it must wait regardless of fit).
    for (rank, &i) in order.iter().enumerate() {
        match ledger.admit(ctx, rank, i, free) {
            Admission::Start => {
                let job = &ctx.queue[i];
                starts.push(job.id);
                free -= job.nodes;
                ledger.note_start(ctx, i);
                emit_start(ctx.trace, ctx, i, StartCause::Fcfs);
            }
            Admission::Wait | Admission::Infeasible => break,
        }
    }
    starts
}

/// Greedy backfilling walk shared by the no-guarantee, EASY and size-based
/// policies: start the promoted job unconditionally if it fits, otherwise
/// hand it to the ledger as the pass's aggressive guard; then walk the
/// order, starting everything the ledger admits.
pub(super) fn greedy(
    ctx: &EngineCtx<'_>,
    order: &dyn QueueOrderStrategy,
    ledger: &mut impl ReservationLedger,
) -> Vec<JobId> {
    let walk = order.walk_order(ctx);
    let promoted = order.promoted(ctx, &walk);

    let mut free = ctx.free_nodes;
    let mut starts = Vec::new();
    let mut guard_started = None;
    let mut blocked = None;
    if let Some((g, cause)) = promoted {
        let head = &ctx.queue[g];
        if head.nodes <= free {
            // The promoted job fits: start it first, unconditionally.
            starts.push(head.id);
            free -= head.nodes;
            guard_started = Some(head.id);
            emit_start(ctx.trace, ctx, g, cause);
        } else {
            blocked = Some(g);
        }
    }
    ledger.begin_pass(ctx, blocked);

    // `waiting` (ids, trace-only) and `waiting_ahead` (count, always)
    // track the higher-priority jobs left behind so far: a start with
    // anything ahead of it is a backfill, and the trace names exactly
    // who it jumped.
    let mut waiting: Vec<JobId> = Vec::new();
    let mut waiting_ahead = 0u64;
    let mut examined = 0u64;
    let mut started = 0u64;
    for (rank, &i) in walk.iter().enumerate() {
        let job = &ctx.queue[i];
        if Some(job.id) == guard_started {
            continue;
        }
        if Some(i) == blocked {
            // The guard holds a reservation it could not cash yet:
            // anything that starts past this point in the order
            // bypasses it.
            if ctx.trace.is_some() {
                waiting.push(job.id);
            }
            waiting_ahead += 1;
            continue;
        }
        examined += 1;
        match ledger.admit(ctx, rank, i, free) {
            Admission::Start => {
                starts.push(job.id);
                free -= job.nodes;
                started += 1;
                ledger.note_start(ctx, i);
                if ctx.trace.is_some() {
                    let cause = if waiting_ahead == 0 {
                        StartCause::Fcfs
                    } else {
                        StartCause::Backfilled {
                            bypassed: waiting.clone(),
                        }
                    };
                    emit_start(ctx.trace, ctx, i, cause);
                }
            }
            Admission::Wait => {
                if ctx.trace.is_some() {
                    waiting.push(job.id);
                }
                waiting_ahead += 1;
            }
            Admission::Infeasible => {}
        }
    }
    counters::record_backfill(examined, started);
    starts
}

/// Conservative dispatch: start every job whose reservation has come due
/// (and fits the actual free nodes), in walk order.
pub(super) fn reservation_due(
    ctx: &EngineCtx<'_>,
    order: &dyn QueueOrderStrategy,
    ledger: &mut impl ReservationLedger,
) -> Vec<JobId> {
    let walk = order.walk_order(ctx);
    ledger.begin_pass(ctx, None);
    if ctx.queue.is_empty() {
        return Vec::new();
    }
    let mut free = ctx.free_nodes;
    let mut starts = Vec::new();
    let mut waiting: Vec<JobId> = Vec::new();
    let mut waiting_ahead = 0u64;
    for (rank, &i) in walk.iter().enumerate() {
        let job = &ctx.queue[i];
        match ledger.admit(ctx, rank, i, free) {
            Admission::Start => {
                starts.push(job.id);
                free -= job.nodes;
                ledger.note_start(ctx, i);
                if ctx.trace.is_some() {
                    // A conservative start is its reservation coming
                    // due; with higher-priority work still waiting it
                    // is also the backfill the paper blames for
                    // unfairness.
                    let cause = if waiting_ahead == 0 {
                        StartCause::Reservation
                    } else {
                        StartCause::Backfilled {
                            bypassed: waiting.clone(),
                        }
                    };
                    emit_start(ctx.trace, ctx, i, cause);
                }
            }
            Admission::Wait | Admission::Infeasible => {
                if ctx.trace.is_some() {
                    waiting.push(job.id);
                }
                waiting_ahead += 1;
            }
        }
    }
    counters::record_backfill(walk.len() as u64, starts.len() as u64);
    starts
}

/// Profile-greedy walk of the reservation-depth policies: every job is
/// examined; one that fits the profile *right now* starts, one that can
/// never fit (wider than the machine) is skipped entirely, and the rest
/// wait (holding profile slots only if the ledger reserves their rank).
pub(super) fn profile_greedy(
    ctx: &EngineCtx<'_>,
    order: &dyn QueueOrderStrategy,
    ledger: &mut impl ReservationLedger,
) -> Vec<JobId> {
    let walk = order.walk_order(ctx);
    ledger.begin_pass(ctx, None);
    let mut free = ctx.free_nodes;
    let mut starts = Vec::new();
    let mut waiting: Vec<JobId> = Vec::new();
    let mut waiting_ahead = 0u64;
    let mut examined = 0u64;
    let mut started = 0u64;
    for (rank, &i) in walk.iter().enumerate() {
        let job = &ctx.queue[i];
        examined += 1;
        match ledger.admit(ctx, rank, i, free) {
            Admission::Start => {
                starts.push(job.id);
                free -= job.nodes;
                started += 1;
                ledger.note_start(ctx, i);
                if ctx.trace.is_some() {
                    let cause = if waiting_ahead == 0 {
                        StartCause::Fcfs
                    } else {
                        StartCause::Backfilled {
                            bypassed: waiting.clone(),
                        }
                    };
                    emit_start(ctx.trace, ctx, i, cause);
                }
            }
            Admission::Wait => {
                if ctx.trace.is_some() {
                    waiting.push(job.id);
                }
                waiting_ahead += 1;
            }
            Admission::Infeasible => {}
        }
    }
    counters::record_backfill(examined, started);
    starts
}
