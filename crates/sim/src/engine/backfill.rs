//! The backfill walk: how a pass turns ledger admissions into starts.
//!
//! Every engine walks the queue the same way. The walk asks the
//! [`QueueOrderStrategy`](super::QueueOrderStrategy) for the walk order and
//! any promoted guard, opens the pass on the
//! [`ReservationLedger`](super::ReservationLedger), queries one admission
//! per walked job, and emits the decision trace (start causes, bypass
//! lists) and backfill counters. Policies differ only in the admission
//! rule their ledger applies.

use super::{EngineCtx, QueueOrderStrategy, ReservationLedger};
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

/// One scheduling pass: start the promoted job unconditionally if it fits,
/// otherwise hand it to the ledger as the pass's aggressive guard; then walk
/// the order, starting everything the ledger admits. Returns the ids to
/// start, in start order.
pub(super) fn greedy(
    ctx: &EngineCtx<'_>,
    order: &dyn QueueOrderStrategy,
    ledger: &mut dyn ReservationLedger,
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
        if ledger.admit(ctx, rank, i, free) {
            starts.push(job.id);
            free -= job.nodes;
            started += 1;
            ledger.note_start(ctx, i);
            if ctx.trace.is_some() {
                let cause = if waiting_ahead == 0 {
                    ledger.in_order_cause()
                } else {
                    StartCause::Backfilled {
                        bypassed: waiting.clone(),
                    }
                };
                emit_start(ctx.trace, ctx, i, cause);
            }
        } else {
            if ctx.trace.is_some() {
                waiting.push(job.id);
            }
            waiting_ahead += 1;
        }
    }
    counters::record_backfill(examined, started);
    starts
}
