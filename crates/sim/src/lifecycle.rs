//! Submission lifecycle: pending arrivals, runtime-limit chunk chains, and
//! crash recovery.
//!
//! The event loop in [`simulator`](crate::simulator) dispatches events;
//! this module owns how submissions come to exist: trace jobs registering
//! as pending arrivals, long jobs splitting into `≤ limit` chunk chains
//! (§5.1), and crashed submissions re-entering under the configured
//! [`ResiliencePolicy`]. All three mint ids and arrival events from the
//! same bookkeeping, so `(origin, chunk_index)` stays a unique key for
//! every submission attempt.

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::faults::ResiliencePolicy;
use crate::simulator::SimError;
use fairsched_workload::job::{GroupId, Job, JobId, UserId};
use fairsched_workload::time::Time;
use std::collections::{HashMap, HashSet};

/// Resubmission cap per original job. Legitimate chunk chains stay far
/// below this (an 82-year job at the 72 h limit would be the first to
/// reach it); only a fault configuration under which a job cannot finish
/// between interruptions can cross it, and such a simulation would
/// otherwise run — and allocate — forever.
const MAX_SUBMISSIONS_PER_ORIGIN: u32 = 10_000;

/// A submission known to the simulator but not yet arrived.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSubmission {
    pub origin: JobId,
    pub chunk_index: u32,
    pub user: UserId,
    pub group: GroupId,
    pub nodes: u32,
    pub runtime: Time,
    pub estimate: Time,
    pub origin_submit: Time,
}

/// Progress of a runtime-limited chain.
#[derive(Debug, Clone, Copy)]
struct ChainState {
    origin: JobId,
    user: UserId,
    group: GroupId,
    nodes: u32,
    origin_submit: Time,
    remaining_actual: Time,
    remaining_estimate: Time,
    next_chunk: u32,
}

/// Submission bookkeeping for one run: what is pending, which submissions
/// belong to chains, and the id counter resubmissions mint from.
#[derive(Clone)]
pub(crate) struct Lifecycle {
    pending: HashMap<JobId, PendingSubmission>,
    chains: HashMap<JobId, usize>, // chunk id → chain index
    chain_states: Vec<ChainState>,
    next_id: u32,
    // Every submission id this run has registered: admitted trace jobs and
    // minted chunk/resubmission ids alike.
    ids: HashSet<JobId>,
    // Trace jobs a lazily-admitting driver has announced but not admitted
    // yet. They count as pending, so the run looks the same as one with
    // every job admitted up front.
    expected: usize,
    // Set when a job crosses `MAX_SUBMISSIONS_PER_ORIGIN`; surfaced as a
    // typed error by the simulator's next invariant check instead of
    // looping forever.
    diverged: Option<SimError>,
}

impl Lifecycle {
    /// Empty bookkeeping; fresh ids start at 1 until
    /// [`Lifecycle::reserve_ids`] raises the floor.
    pub(crate) fn new() -> Self {
        Lifecycle {
            pending: HashMap::new(),
            chains: HashMap::new(),
            chain_states: Vec::new(),
            next_id: 1,
            ids: HashSet::new(),
            expected: 0,
            diverged: None,
        }
    }

    /// Whether `id` already names a submission of this run.
    pub(crate) fn knows(&self, id: JobId) -> bool {
        self.ids.contains(&id)
    }

    /// A fresh submission id for a chunk or a resubmission.
    fn mint_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.ids.insert(id);
        id
    }

    /// Registers an original trace job: either a standalone submission or
    /// the head of a runtime-limited chain.
    pub(crate) fn admit(&mut self, cfg: &SimConfig, job: &Job, events: &mut EventQueue) {
        self.ids.insert(job.id);
        self.expected = self.expected.saturating_sub(1);
        let chained = cfg
            .runtime_limit
            .map(|rl| job.estimate > rl.limit)
            .unwrap_or(false);
        if chained {
            let chain = ChainState {
                origin: job.id,
                user: job.user,
                group: job.group,
                nodes: job.nodes,
                origin_submit: job.submit,
                remaining_actual: job.runtime,
                remaining_estimate: job.estimate,
                next_chunk: 1,
            };
            self.chain_states.push(chain);
            let chain_idx = self.chain_states.len() - 1;
            self.submit_next_chunk(cfg, chain_idx, job.submit, Some(job.id), events);
        } else {
            self.pending.insert(
                job.id,
                PendingSubmission {
                    origin: job.id,
                    chunk_index: 0,
                    user: job.user,
                    group: job.group,
                    nodes: job.nodes,
                    runtime: job.runtime,
                    estimate: job.estimate,
                    origin_submit: job.submit,
                },
            );
            events.push(job.submit, EventKind::Arrival, job.id);
        }
    }

    /// Creates and schedules the next chunk of a chain. The first chunk may
    /// reuse the original job id; later chunks get fresh ids.
    ///
    /// Chains normally exist only under a runtime limit, but
    /// [`ResiliencePolicy::ChunkResume`] promotes crashed standalone jobs
    /// into chains too — without a limit the chunk simply asks for all the
    /// remaining work.
    fn submit_next_chunk(
        &mut self,
        cfg: &SimConfig,
        chain_idx: usize,
        at: Time,
        reuse_id: Option<JobId>,
        events: &mut EventQueue,
    ) -> Option<JobId> {
        let limit = cfg.runtime_limit.map_or(Time::MAX, |rl| rl.limit);
        let chain = &mut self.chain_states[chain_idx];
        debug_assert!(chain.remaining_actual > 0);
        // The user requests what they believe remains (capped at the limit);
        // once the original estimate is exhausted they request a full slice
        // — or, with no limit to fall back on, exactly what is left.
        let estimate = if chain.remaining_estimate > 0 {
            limit.min(chain.remaining_estimate)
        } else if limit < Time::MAX {
            limit
        } else {
            chain.remaining_actual
        };
        let runtime = chain.remaining_actual.min(estimate);
        let chunk_index = chain.next_chunk;
        if chunk_index >= MAX_SUBMISSIONS_PER_ORIGIN {
            self.diverged = Some(SimError::Diverged {
                job: chain.origin,
                attempts: chunk_index,
            });
            return None;
        }
        chain.next_chunk += 1;
        let id = reuse_id.unwrap_or_else(|| self.mint_id());
        let chain = self.chain_states[chain_idx];
        self.chains.insert(id, chain_idx);
        self.pending.insert(
            id,
            PendingSubmission {
                origin: chain.origin,
                chunk_index,
                user: chain.user,
                group: chain.group,
                nodes: chain.nodes,
                runtime,
                estimate,
                origin_submit: chain.origin_submit,
            },
        );
        events.push(at, EventKind::Arrival, id);
        Some(id)
    }

    /// A chained submission ran to completion (or its kill): bank the
    /// executed work against the chain and submit the next chunk if the
    /// chain is not done.
    pub(crate) fn bank_chunk(
        &mut self,
        cfg: &SimConfig,
        id: JobId,
        estimate_used: Time,
        executed: Time,
        now: Time,
        events: &mut EventQueue,
    ) {
        if let Some(&chain_idx) = self.chains.get(&id) {
            let chain = &mut self.chain_states[chain_idx];
            chain.remaining_actual = chain.remaining_actual.saturating_sub(executed);
            chain.remaining_estimate = chain.remaining_estimate.saturating_sub(estimate_used);
            if chain.remaining_actual > 0 {
                self.submit_next_chunk(cfg, chain_idx, now, None, events);
            }
        }
    }

    /// Applies the configured resilience policy to a crashed submission,
    /// returning the retry's id when one re-enters. The caller accounts
    /// any lost work (requeue-from-scratch discards `executed`; resume
    /// banks it as a checkpoint).
    pub(crate) fn recover_crashed(
        &mut self,
        cfg: &SimConfig,
        id: JobId,
        pending: &PendingSubmission,
        executed: Time,
        now: Time,
        events: &mut EventQueue,
    ) -> Option<JobId> {
        match cfg.faults.resilience {
            ResiliencePolicy::RequeueFromScratch => {
                // The submission re-enters intact, as a fresh attempt with
                // the next per-origin chunk index. Fairshare usage already
                // charged for the lost run stays charged — users pay for
                // their bad luck, as CPlant did.
                if let Some(&chain_idx) = self.chains.get(&id) {
                    // The chain is not advanced: the crashed chunk's work
                    // does not count, so the same remainder re-enters.
                    self.submit_next_chunk(cfg, chain_idx, now, None, events)
                } else {
                    let mut resubmission = *pending;
                    resubmission.chunk_index += 1;
                    if resubmission.chunk_index >= MAX_SUBMISSIONS_PER_ORIGIN {
                        self.diverged = Some(SimError::Diverged {
                            job: resubmission.origin,
                            attempts: resubmission.chunk_index,
                        });
                        return None;
                    }
                    let new_id = self.mint_id();
                    self.pending.insert(new_id, resubmission);
                    events.push(now, EventKind::Arrival, new_id);
                    Some(new_id)
                }
            }
            ResiliencePolicy::ChunkResume => {
                // The interrupted run is an implicit checkpoint: bank the
                // executed seconds and continue from there, reusing the
                // runtime-limit chain machinery. A standalone submission is
                // promoted into a chain on its first crash.
                let chain_idx = match self.chains.get(&id).copied() {
                    Some(ci) => ci,
                    None => {
                        let p = *pending;
                        self.chain_states.push(ChainState {
                            origin: p.origin,
                            user: p.user,
                            group: p.group,
                            nodes: p.nodes,
                            origin_submit: p.origin_submit,
                            remaining_actual: p.runtime,
                            remaining_estimate: p.estimate,
                            next_chunk: p.chunk_index + 1,
                        });
                        self.chain_states.len() - 1
                    }
                };
                let chain = &mut self.chain_states[chain_idx];
                chain.remaining_actual = chain.remaining_actual.saturating_sub(executed);
                // The estimate budget shrinks only by what actually ran:
                // the user re-requests the rest for the resumed chunk.
                chain.remaining_estimate = chain.remaining_estimate.saturating_sub(executed);
                if chain.remaining_actual > 0 {
                    self.submit_next_chunk(cfg, chain_idx, now, None, events)
                } else {
                    None
                }
            }
        }
    }

    /// Raises the floor fresh ids are minted from; never lowers it. The
    /// stepped core calls this per accepted submission, so minted ids stay
    /// above every submitted one.
    pub(crate) fn reserve_ids(&mut self, floor: u32) {
        self.next_id = self.next_id.max(floor);
    }

    /// Announces `jobs` trace jobs that will be admitted later, each as
    /// the clock reaches its submit time. Until admitted they count as
    /// pending, so the fault timeline keeps running through quiet gaps
    /// exactly as it does when every job is admitted up front.
    pub(crate) fn expect(&mut self, jobs: usize) {
        self.expected += jobs;
    }

    /// Whether any submission is still waiting to arrive (or to be
    /// admitted, see [`Lifecycle::expect`]).
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty() || self.expected > 0
    }

    /// The submitting user of a still-pending submission.
    pub(crate) fn pending_user(&self, id: JobId) -> UserId {
        self.pending[&id].user
    }

    /// Removes and returns a pending submission as it arrives.
    pub(crate) fn take_pending(&mut self, id: JobId) -> PendingSubmission {
        self.pending
            .remove(&id)
            .expect("arrival for unknown submission")
    }

    /// The divergence error, if the resubmission cap was crossed.
    pub(crate) fn diverged(&self) -> Option<&SimError> {
        self.diverged.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeLimit;

    fn chained_cfg(limit: Time) -> SimConfig {
        SimConfig {
            runtime_limit: Some(RuntimeLimit { limit }),
            ..Default::default()
        }
    }

    #[test]
    fn long_jobs_split_into_limit_sized_chunks() {
        let cfg = chained_cfg(100);
        let mut events = EventQueue::new();
        let mut lc = Lifecycle::new();
        // 250 s of work at a 100 s limit: chunks of 100, 100, 50.
        let job = Job::new(1, 1, 1, 0, 4, 250, 250);
        lc.admit(&cfg, &job, &mut events);
        assert_eq!(events.pop().map(|e| e.job), Some(JobId(1)));
        let first = lc.take_pending(JobId(1));
        assert_eq!(
            (first.chunk_index, first.runtime, first.estimate),
            (1, 100, 100)
        );
        lc.bank_chunk(&cfg, JobId(1), 100, 100, 100, &mut events);
        let second_id = events.pop().map(|e| e.job).unwrap();
        let second = lc.take_pending(second_id);
        assert_eq!((second.chunk_index, second.runtime), (2, 100));
        lc.bank_chunk(&cfg, second_id, 100, 100, 200, &mut events);
        // events: the first chunk's arrival was popped; next is chunk 3.
        let third_id = events.pop().map(|e| e.job).unwrap();
        let third = lc.take_pending(third_id);
        assert_eq!((third.chunk_index, third.runtime), (3, 50));
        lc.bank_chunk(&cfg, third_id, 50, 50, 250, &mut events);
        assert!(!lc.has_pending());
        assert!(lc.diverged().is_none());
    }

    #[test]
    fn short_jobs_stay_standalone() {
        let cfg = chained_cfg(100);
        let mut events = EventQueue::new();
        let mut lc = Lifecycle::new();
        let job = Job::new(7, 1, 1, 5, 2, 80, 90);
        lc.admit(&cfg, &job, &mut events);
        assert_eq!(lc.pending_user(JobId(7)), UserId(1));
        let p = lc.take_pending(JobId(7));
        assert_eq!((p.chunk_index, p.runtime, p.estimate), (0, 80, 90));
    }
}
