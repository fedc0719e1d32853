//! Structured decision traces.
//!
//! A [`TraceRecord`] is one scheduling decision (or one state sample),
//! emitted at the moment it is made: who started and *why*, whose
//! reservation moved, who got promoted out of starvation, which crashed
//! submission was requeued. A traced batch run collects them into the
//! caller's `Vec<TraceRecord>`; the online service streams them to
//! subscribers.
//!
//! Emission sites inside the simulator hold shared (`&`) context, so they
//! write into a [`TraceBuf`] — an owned, `Mutex`-guarded buffer the driver
//! drains after every step and hands to the caller. The simulator is
//! single-threaded per run, so the lock is uncontended by construction; it
//! exists so a simulator state (with its trace buffer) is `Send` and can be
//! handed to worker threads by the warm-start fan-out and the sweep
//! watchdog.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;

/// Why a job started when it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartCause {
    /// Started in queue-priority order: nothing runnable was ahead of it.
    Fcfs,
    /// Started out of order, jumping the listed higher-priority jobs that
    /// were left waiting (in queue-priority order).
    Backfilled { bypassed: Vec<JobId> },
    /// Started because a reservation (conservative/depth slot, or the
    /// guaranteed head under aggressive backfilling) came due.
    Reservation,
    /// Started as the starvation guard: the no-guarantee engine promoted
    /// it to a protected head after it starved past the threshold.
    StarvationGuard,
}

impl StartCause {
    fn tag(&self) -> &'static str {
        match self {
            StartCause::Fcfs => "fcfs",
            StartCause::Backfilled { .. } => "backfilled",
            StartCause::Reservation => "reservation",
            StartCause::StarvationGuard => "starvation_guard",
        }
    }
}

/// One scheduling decision or state sample, stamped with simulation time.
///
/// Field conventions: `at` is the simulation time of the decision, `job`
/// is the submission id it concerns (chunked/requeued submissions have
/// their own ids; `origin` names the original trace job where relevant).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A job was dispatched onto nodes.
    JobStarted {
        at: Time,
        job: JobId,
        nodes: u32,
        cause: StartCause,
    },
    /// A conservative-family reservation was created for `job`.
    ReservationMade { at: Time, job: JobId, start: Time },
    /// An existing reservation for `job` moved from `from` to `to` —
    /// backward under §5.3 improvement, either way under §5.4 dynamic
    /// rebuilds (forward moves are the "slippage" the paper blames for
    /// unfairness).
    ReservationShifted {
        at: Time,
        job: JobId,
        from: Time,
        to: Time,
    },
    /// The starvation threshold promoted `job` to guarded head after it
    /// waited `waited` seconds.
    StarvationPromoted { at: Time, job: JobId, waited: Time },
    /// Submission `job` (of trace job `origin`) died to a fault and was
    /// requeued as new submission `retry`, losing `lost` seconds of
    /// completed work.
    FaultRequeued {
        at: Time,
        origin: JobId,
        job: JobId,
        retry: JobId,
        lost: Time,
    },
    /// A node went down at `at`; it comes back at `until`.
    NodeFailed { at: Time, node: u64, until: Time },
    /// A size-based order strategy (FSP/LAS/HFSP) ranked `job` at the head
    /// of its virtual schedule ahead of `displaced`, the job that arrived
    /// first — a virtual-time inversion. `job_key`/`displaced_key` are the
    /// strategy's sort keys (virtual remaining size over fair-share weight,
    /// or per-user attained service). Emitted once per distinct
    /// (job, displaced) pair so `explain` can attribute a job's policy wait
    /// to the virtual schedule overtaking it.
    VirtualInversion {
        at: Time,
        job: JobId,
        displaced: JobId,
        job_key: f64,
        displaced_key: f64,
    },
    /// Queue/machine state after an event batch settled: queue `depth`
    /// (jobs) demanding `queued_nodes` nodes in total, `free_nodes` idle,
    /// `running` jobs placed, instantaneous utilization `util`.
    QueueSample {
        at: Time,
        depth: usize,
        queued_nodes: u64,
        free_nodes: u32,
        running: usize,
        util: f64,
    },
}

impl TraceRecord {
    /// Simulation time the record was emitted at.
    pub fn at(&self) -> Time {
        match *self {
            TraceRecord::JobStarted { at, .. }
            | TraceRecord::ReservationMade { at, .. }
            | TraceRecord::ReservationShifted { at, .. }
            | TraceRecord::StarvationPromoted { at, .. }
            | TraceRecord::FaultRequeued { at, .. }
            | TraceRecord::NodeFailed { at, .. }
            | TraceRecord::VirtualInversion { at, .. }
            | TraceRecord::QueueSample { at, .. } => at,
        }
    }

    /// Renders the record as one line of JSON (no trailing newline).
    ///
    /// Written directly rather than through a JSON value tree: the line is
    /// write-only and every field is numeric or a fixed tag, so it needs no
    /// escaping.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            TraceRecord::JobStarted {
                at,
                job,
                nodes,
                cause,
            } => {
                write!(
                    s,
                    r#"{{"type":"job_started","at":{at},"job":{},"nodes":{nodes},"cause":"{}""#,
                    job.0,
                    cause.tag()
                )
                .unwrap();
                if let StartCause::Backfilled { bypassed } = cause {
                    s.push_str(r#","bypassed":["#);
                    for (i, id) in bypassed.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        write!(s, "{}", id.0).unwrap();
                    }
                    s.push(']');
                }
                s.push('}');
            }
            TraceRecord::ReservationMade { at, job, start } => {
                write!(
                    s,
                    r#"{{"type":"reservation_made","at":{at},"job":{},"start":{start}}}"#,
                    job.0
                )
                .unwrap();
            }
            TraceRecord::ReservationShifted { at, job, from, to } => {
                write!(
                    s,
                    r#"{{"type":"reservation_shifted","at":{at},"job":{},"from":{from},"to":{to}}}"#,
                    job.0
                )
                .unwrap();
            }
            TraceRecord::StarvationPromoted { at, job, waited } => {
                write!(
                    s,
                    r#"{{"type":"starvation_promoted","at":{at},"job":{},"waited":{waited}}}"#,
                    job.0
                )
                .unwrap();
            }
            TraceRecord::FaultRequeued {
                at,
                origin,
                job,
                retry,
                lost,
            } => {
                write!(
                    s,
                    r#"{{"type":"fault_requeued","at":{at},"origin":{},"job":{},"retry":{},"lost":{lost}}}"#,
                    origin.0, job.0, retry.0
                )
                .unwrap();
            }
            TraceRecord::NodeFailed { at, node, until } => {
                write!(
                    s,
                    r#"{{"type":"node_failed","at":{at},"node":{node},"until":{until}}}"#
                )
                .unwrap();
            }
            TraceRecord::VirtualInversion {
                at,
                job,
                displaced,
                job_key,
                displaced_key,
            } => {
                write!(
                    s,
                    r#"{{"type":"virtual_inversion","at":{at},"job":{},"displaced":{},"job_key":{job_key:.3},"displaced_key":{displaced_key:.3}}}"#,
                    job.0, displaced.0
                )
                .unwrap();
            }
            TraceRecord::QueueSample {
                at,
                depth,
                queued_nodes,
                free_nodes,
                running,
                util,
            } => {
                write!(
                    s,
                    r#"{{"type":"queue_sample","at":{at},"depth":{depth},"queued_nodes":{queued_nodes},"free_nodes":{free_nodes},"running":{running},"util":{util:.4}}}"#
                )
                .unwrap();
            }
        }
        s
    }
}

/// The owned buffer the simulator emits [`TraceRecord`]s into.
///
/// Cheaply clonable (clones share storage), so engines emit through a
/// shared `&TraceBuf` while the simulator that owns it stays `'static` and
/// `Send` — it can live inside a long-running service or cross threads.
/// The driver [`drain`](TraceBuf::drain)s it after every step, preserving
/// emission order.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf(Arc<Mutex<Vec<TraceRecord>>>);

impl TraceBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn emit(&self, rec: TraceRecord) {
        self.0.lock().expect("trace buffer poisoned").push(rec);
    }

    /// Takes every record emitted since the previous drain, in order.
    pub fn drain(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.0.lock().expect("trace buffer poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(at: Time, job: u32) -> TraceRecord {
        TraceRecord::JobStarted {
            at,
            job: JobId(job),
            nodes: 4,
            cause: StartCause::Fcfs,
        }
    }

    #[test]
    fn jsonl_lines_are_valid_single_objects() {
        let recs = vec![
            TraceRecord::JobStarted {
                at: 10,
                job: JobId(7),
                nodes: 16,
                cause: StartCause::Backfilled {
                    bypassed: vec![JobId(3), JobId(5)],
                },
            },
            TraceRecord::ReservationShifted {
                at: 20,
                job: JobId(3),
                from: 100,
                to: 180,
            },
            TraceRecord::QueueSample {
                at: 30,
                depth: 4,
                queued_nodes: 96,
                free_nodes: 32,
                running: 2,
                util: 0.5,
            },
        ];
        for rec in &recs {
            let line = rec.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            assert!(line.contains(r#""type":""#));
        }
        assert!(recs[0].to_jsonl().contains(r#""bypassed":[3,5]"#));
        assert!(recs[1].to_jsonl().contains(r#""from":100,"to":180"#));
    }

    #[test]
    fn trace_buf_collects_through_shared_clones() {
        let buf = TraceBuf::new();
        let clone = buf.clone();
        let shared_ref = &clone;
        shared_ref.emit(started(1, 1));
        buf.emit(started(2, 2));
        let ats: Vec<Time> = buf.drain().iter().map(|r| r.at()).collect();
        assert_eq!(ats, vec![1, 2]);
        assert!(clone.drain().is_empty(), "a drain empties every clone");
    }
}
