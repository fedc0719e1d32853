//! The typed wire protocol `fairschedd` speaks.
//!
//! Every request and response is a plain struct with an explicit JSON
//! encoding through [`fairsched_core::json`], the workspace's one codec;
//! [`SubmitRequest`]'s encoding doubles as the submission journal's row.
//! Errors are typed at the API boundary: a submission dated before
//! simulated time already granted is [`ServeError::NonMonotonicSubmit`],
//! an unknown policy id is [`ServeError::UnknownPolicy`] wrapping the
//! workspace's own [`PolicyIdError`] — never a panic, never a silent
//! reorder.

use fairsched_core::json::{Json, JsonError};
use fairsched_core::policy::PolicyIdError;
use fairsched_metrics::fairness::peruser::UserFairness;
use fairsched_metrics::fairness::stream::FairnessSnapshot;
use fairsched_sim::{JobRecord, Schedule, SimError};
use fairsched_workload::job::{Job, JobId};
use fairsched_workload::time::Time;
use std::fmt;
use std::fmt::Write as _;

/// A job submission, as posted to `POST /v1/jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Trace-unique job id.
    pub id: u32,
    /// Submitting user.
    pub user: u32,
    /// Submitting group.
    pub group: u32,
    /// Submission timestamp (simulated seconds). Must be at or after the
    /// clock horizon already granted to the core.
    pub submit: Time,
    /// Width in nodes.
    pub nodes: u32,
    /// Actual runtime in seconds (the simulated "ground truth").
    pub runtime: Time,
    /// User wall-clock estimate in seconds.
    pub estimate: Time,
}

impl SubmitRequest {
    /// The equivalent workload job.
    pub fn to_job(&self) -> Job {
        Job::new(
            self.id,
            self.user,
            self.group,
            self.submit,
            self.nodes,
            self.runtime,
            self.estimate,
        )
    }

    /// A request replaying a recorded trace job.
    pub fn from_job(job: &Job) -> SubmitRequest {
        SubmitRequest {
            id: job.id.0,
            user: job.user.0,
            group: job.group.0,
            submit: job.submit,
            nodes: job.nodes,
            runtime: job.runtime,
            estimate: job.estimate,
        }
    }

    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::UInt(self.id.into())),
            ("user", Json::UInt(self.user.into())),
            ("group", Json::UInt(self.group.into())),
            ("submit", Json::UInt(self.submit)),
            ("nodes", Json::UInt(self.nodes.into())),
            ("runtime", Json::UInt(self.runtime)),
            ("estimate", Json::UInt(self.estimate)),
        ])
    }

    /// Wire decoding, rejecting missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<SubmitRequest, ServeError> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: format!("missing or non-integer field `{name}`"),
                })
        };
        let narrow = |name: &str, value: u64| {
            u32::try_from(value).map_err(|_| ServeError::BadRequest {
                detail: format!("field `{name}` exceeds u32"),
            })
        };
        Ok(SubmitRequest {
            id: narrow("id", field("id")?)?,
            user: narrow("user", field("user")?)?,
            group: narrow("group", field("group")?)?,
            submit: field("submit")?,
            nodes: narrow("nodes", field("nodes")?)?,
            runtime: field("runtime")?,
            estimate: field("estimate")?,
        })
    }
}

/// The acknowledgement for an accepted submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitResponse {
    /// The accepted submission's id.
    pub id: u32,
    /// When it will arrive in the simulated queue.
    pub arrival: Time,
}

impl SubmitResponse {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::UInt(self.id.into())),
            ("arrival", Json::UInt(self.arrival)),
        ])
    }

    /// Wire decoding.
    pub fn from_json(v: &Json) -> Result<SubmitResponse, ServeError> {
        let get = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: format!("missing field `{name}`"),
                })
        };
        Ok(SubmitResponse {
            id: get("id")? as u32,
            arrival: get("arrival")?,
        })
    }
}

/// A live view of the running session, from `GET /v1/status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusResponse {
    /// Policy id the daemon is scheduling under.
    pub policy: String,
    /// Machine size in nodes.
    pub nodes: u32,
    /// Simulated-time frontier.
    pub now: Time,
    /// Clock horizon granted so far (submissions must be dated >= this).
    pub granted: Time,
    /// Jobs waiting in the simulated queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Free nodes.
    pub free: u32,
    /// Nodes down due to injected faults.
    pub down: u32,
    /// Submissions accepted over the session's lifetime.
    pub accepted: u64,
    /// Submissions finished (completion, kill, or fault).
    pub completed: u64,
    /// When the next simulated event is due, if any.
    pub next_event: Option<Time>,
    /// Whether the session has been sealed (no further submissions).
    pub sealed: bool,
}

impl StatusResponse {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("policy", Json::Str(self.policy.clone())),
            ("nodes", Json::UInt(self.nodes.into())),
            ("now", Json::UInt(self.now)),
            ("granted", Json::UInt(self.granted)),
            ("queued", Json::UInt(self.queued as u64)),
            ("running", Json::UInt(self.running as u64)),
            ("free", Json::UInt(self.free.into())),
            ("down", Json::UInt(self.down.into())),
            ("accepted", Json::UInt(self.accepted)),
            ("completed", Json::UInt(self.completed)),
            ("next_event", self.next_event.map_or(Json::Null, Json::UInt)),
            ("sealed", Json::Bool(self.sealed)),
        ])
    }

    /// Wire decoding.
    pub fn from_json(v: &Json) -> Result<StatusResponse, ServeError> {
        let get = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: format!("missing field `{name}`"),
                })
        };
        Ok(StatusResponse {
            policy: v
                .get("policy")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            nodes: get("nodes")? as u32,
            now: get("now")?,
            granted: get("granted")?,
            queued: get("queued")? as usize,
            running: get("running")? as usize,
            free: get("free")? as u32,
            down: get("down")? as u32,
            accepted: get("accepted")?,
            completed: get("completed")?,
            next_event: v.get("next_event").and_then(Json::as_u64),
            sealed: v.get("sealed").and_then(Json::as_bool).unwrap_or_default(),
        })
    }
}

/// What one grant of simulated time caused, from `POST /v1/advance`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvanceResponse {
    /// The frontier after the grant.
    pub now: Time,
    /// Jobs started during the grant.
    pub started: u64,
    /// Jobs finished during the grant.
    pub completed: u64,
}

impl AdvanceResponse {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("now", Json::UInt(self.now)),
            ("started", Json::UInt(self.started)),
            ("completed", Json::UInt(self.completed)),
        ])
    }

    /// Wire decoding.
    pub fn from_json(v: &Json) -> Result<AdvanceResponse, ServeError> {
        let get = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: format!("missing field `{name}`"),
                })
        };
        Ok(AdvanceResponse {
            now: get("now")?,
            started: get("started")?,
            completed: get("completed")?,
        })
    }
}

/// The final summary returned by `POST /v1/seal`.
#[derive(Debug, Clone, PartialEq)]
pub struct SealResponse {
    /// Submissions recorded by the finished schedule.
    pub records: u64,
    /// Makespan of the finished schedule.
    pub makespan: Time,
    /// Utilization of the finished schedule.
    pub utilization: f64,
    /// [`schedule_fingerprint`] of the finished schedule: equal iff the
    /// per-record placements are byte-identical. The recovery tests
    /// compare this across process boundaries.
    pub schedule_fnv: u64,
}

impl SealResponse {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("records", Json::UInt(self.records)),
            ("makespan", Json::UInt(self.makespan)),
            ("utilization", Json::Float(self.utilization)),
            ("schedule_fnv", Json::UInt(self.schedule_fnv)),
        ])
    }

    /// Wire decoding.
    pub fn from_json(v: &Json) -> Result<SealResponse, ServeError> {
        Ok(SealResponse {
            records: v.get("records").and_then(Json::as_u64).ok_or_else(|| {
                ServeError::BadRequest {
                    detail: "missing field `records`".into(),
                }
            })?,
            makespan: v.get("makespan").and_then(Json::as_u64).unwrap_or(0),
            utilization: v.get("utilization").and_then(Json::as_f64).unwrap_or(0.0),
            schedule_fnv: v.get("schedule_fnv").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// A canonical fingerprint of a finished schedule: FNV-1a over every
/// record's placement-relevant fields in record order, plus the machine
/// size. Two schedules fingerprint equal exactly when their `records`
/// vectors are field-for-field identical — the byte-identity check the
/// kill-and-recover test asserts across the daemon restart without
/// shipping the whole schedule over the wire.
pub fn schedule_fingerprint(schedule: &Schedule) -> u64 {
    let mut canon = format!("nodes={};", schedule.nodes);
    for r in &schedule.records {
        let _ = write!(
            canon,
            "{},{},{},{},{},{},{},{},{},{},{},{},{};",
            r.id.0,
            r.origin.0,
            r.chunk_index,
            r.user.0,
            r.group.0,
            r.nodes,
            r.submit,
            r.origin_submit,
            r.start,
            r.end,
            r.estimate,
            u8::from(r.killed),
            u8::from(r.interrupted),
        );
    }
    fairsched_core::journal::fnv1a(canon.as_bytes())
}

/// A request to create a named session (`POST /v1/sessions`). Omitted
/// fields fall back to the daemon's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// The session name (path-safe: `[A-Za-z0-9_-]`, at most 64 chars).
    pub name: String,
    /// Policy id; defaults to the daemon's default-session policy.
    pub policy: Option<String>,
    /// Machine size in nodes; defaults like `policy`.
    pub nodes: Option<u32>,
    /// Fresh-id floor; defaults to 0.
    pub id_floor: Option<u32>,
}

impl SessionSpec {
    /// A spec carrying only a name, inheriting every default.
    pub fn named(name: &str) -> SessionSpec {
        SessionSpec {
            name: name.to_string(),
            policy: None,
            nodes: None,
            id_floor: None,
        }
    }

    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("name", Json::Str(self.name.clone()))];
        if let Some(policy) = &self.policy {
            pairs.push(("policy", Json::Str(policy.clone())));
        }
        if let Some(nodes) = self.nodes {
            pairs.push(("nodes", Json::UInt(nodes.into())));
        }
        if let Some(floor) = self.id_floor {
            pairs.push(("id_floor", Json::UInt(floor.into())));
        }
        Json::obj(pairs)
    }

    /// Wire decoding.
    pub fn from_json(v: &Json) -> Result<SessionSpec, ServeError> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadRequest {
                detail: "missing field `name`".into(),
            })?
            .to_string();
        let u32_field = |key: &str| -> Result<Option<u32>, ServeError> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| ServeError::BadRequest {
                        detail: format!("field `{key}` must be a u32"),
                    }),
            }
        };
        Ok(SessionSpec {
            name,
            policy: v
                .get("policy")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            nodes: u32_field("nodes")?,
            id_floor: u32_field("id_floor")?,
        })
    }
}

/// Encodes a finished submission record for `GET /v1/jobs/{id}` and the
/// seal summary.
pub fn record_to_json(r: &JobRecord) -> Json {
    Json::obj([
        ("id", Json::UInt(r.id.0.into())),
        ("origin", Json::UInt(r.origin.0.into())),
        ("user", Json::UInt(r.user.0.into())),
        ("nodes", Json::UInt(r.nodes.into())),
        ("submit", Json::UInt(r.submit)),
        ("start", Json::UInt(r.start)),
        ("end", Json::UInt(r.end)),
        ("killed", Json::Bool(r.killed)),
        ("interrupted", Json::Bool(r.interrupted)),
    ])
}

/// Encodes the live fairness view for `GET /v1/fairness`: every gauge of
/// the [`FairnessSnapshot`], plus the heaviest users' rows (capped at 20
/// — the full table belongs in a sealed report, not a live poll).
pub fn fairness_to_json(snap: &FairnessSnapshot, users: &[UserFairness]) -> Json {
    let rows = users
        .iter()
        .take(20)
        .map(|u| {
            Json::obj([
                ("user", Json::UInt(u.user.0.into())),
                ("jobs", Json::UInt(u.jobs as u64)),
                ("proc_seconds", Json::Float(u.proc_seconds)),
                ("total_miss", Json::Float(u.total_miss)),
                ("unfair_jobs", Json::UInt(u.unfair_jobs as u64)),
                ("mean_wait", Json::Float(u.mean_wait)),
            ])
        })
        .collect();
    Json::obj([
        ("now", Json::UInt(snap.now)),
        ("arrivals", Json::UInt(snap.arrivals)),
        ("started", Json::UInt(snap.started)),
        ("completed", Json::UInt(snap.completed)),
        ("killed", Json::UInt(snap.killed)),
        ("queue_depth", Json::UInt(snap.queue_depth)),
        ("running_jobs", Json::UInt(snap.running_jobs)),
        ("busy_nodes", Json::UInt(snap.busy_nodes)),
        ("utilization", Json::Float(snap.utilization)),
        ("scored", Json::UInt(snap.scored)),
        ("unfair_jobs", Json::UInt(snap.unfair_jobs)),
        ("percent_unfair", Json::Float(snap.percent_unfair)),
        ("total_miss", Json::UInt(snap.total_miss)),
        ("average_miss", Json::Float(snap.average_miss)),
        ("mean_wait", Json::Float(snap.mean_wait)),
        ("mean_slowdown", Json::Float(snap.mean_slowdown)),
        ("live_fst_misses", Json::UInt(snap.live_fst_misses)),
        ("worst_live_miss", Json::UInt(snap.worst_live_miss)),
        ("starvation_age", Json::UInt(snap.starvation_age)),
        ("users", Json::Arr(rows)),
    ])
}

/// Every way a service request can fail, typed. The HTTP layer maps each
/// variant to a status code and a `{"error": kind, "detail": ...}` body;
/// [`ServeError::decode`] maps it back on the client side.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The submission's timestamp is earlier than simulated time already
    /// granted to the core — accepting it would rewrite history.
    NonMonotonicSubmit {
        /// The offending submission.
        job: JobId,
        /// Its timestamp.
        submit: Time,
        /// The horizon it fell behind.
        granted: Time,
    },
    /// The requested policy id is not one the workspace defines.
    UnknownPolicy(PolicyIdError),
    /// A submission reused an id the session has already accepted.
    DuplicateId {
        /// The reused id.
        job: JobId,
    },
    /// The session was sealed; no further submissions or grants.
    Sealed,
    /// The job's wait began before the oldest decision-trace record the
    /// session still keeps, so its wait can no longer be explained live.
    ExplainWindowPassed {
        /// The job asked about.
        job: JobId,
        /// When its wait began.
        submit: Time,
        /// The newest record time already dropped from the window.
        evicted: Time,
    },
    /// The named session does not exist in the registry.
    UnknownSession {
        /// The name that failed to resolve.
        name: String,
    },
    /// A session with this name already exists.
    DuplicateSession {
        /// The contested name.
        name: String,
    },
    /// The session name is not path-safe (`[A-Za-z0-9_-]`, ≤ 64 chars).
    InvalidSessionName {
        /// The rejected name.
        name: String,
    },
    /// The request was malformed (bad JSON, missing fields, unknown
    /// route).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The simulation core rejected the request (invalid job, invariant
    /// violation, ...).
    Sim(String),
    /// The transport failed (client side).
    Io(String),
}

impl ServeError {
    /// The machine-readable error kind on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::NonMonotonicSubmit { .. } => "non_monotonic_submit",
            ServeError::UnknownPolicy(_) => "unknown_policy",
            ServeError::DuplicateId { .. } => "duplicate_id",
            ServeError::Sealed => "sealed",
            ServeError::ExplainWindowPassed { .. } => "explain_window_passed",
            ServeError::UnknownSession { .. } => "unknown_session",
            ServeError::DuplicateSession { .. } => "duplicate_session",
            ServeError::InvalidSessionName { .. } => "invalid_session_name",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Sim(_) => "sim_error",
            ServeError::Io(_) => "io_error",
        }
    }

    /// The HTTP status the kind maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::NonMonotonicSubmit { .. }
            | ServeError::UnknownPolicy(_)
            | ServeError::DuplicateId { .. }
            | ServeError::InvalidSessionName { .. }
            | ServeError::BadRequest { .. } => 400,
            ServeError::UnknownSession { .. } => 404,
            ServeError::Sealed | ServeError::DuplicateSession { .. } => 409,
            ServeError::ExplainWindowPassed { .. } => 410,
            ServeError::Sim(_) => 422,
            ServeError::Io(_) => 502,
        }
    }

    /// Wire encoding: `{"error": kind, "detail": human text, ...}`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("error", Json::Str(self.kind().into())),
            ("detail", Json::Str(self.to_string())),
        ];
        match self {
            ServeError::NonMonotonicSubmit {
                job,
                submit,
                granted,
            } => {
                pairs.push(("job", Json::UInt(job.0.into())));
                pairs.push(("submit", Json::UInt(*submit)));
                pairs.push(("granted", Json::UInt(*granted)));
            }
            ServeError::UnknownPolicy(e) => {
                pairs.push(("policy", Json::Str(e.id.clone())));
            }
            ServeError::DuplicateId { job } => {
                pairs.push(("job", Json::UInt(job.0.into())));
            }
            ServeError::ExplainWindowPassed {
                job,
                submit,
                evicted,
            } => {
                pairs.push(("job", Json::UInt(job.0.into())));
                pairs.push(("submit", Json::UInt(*submit)));
                pairs.push(("evicted", Json::UInt(*evicted)));
            }
            ServeError::UnknownSession { name }
            | ServeError::DuplicateSession { name }
            | ServeError::InvalidSessionName { name } => {
                pairs.push(("session", Json::Str(name.clone())));
            }
            _ => {}
        }
        Json::obj(pairs)
    }

    /// Reconstructs the typed error from a wire body (client side).
    pub fn decode(v: &Json) -> ServeError {
        fn session_field(v: &Json) -> String {
            v.get("session")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        }
        let detail = v
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or("unknown error")
            .to_string();
        match v.get("error").and_then(Json::as_str) {
            Some("non_monotonic_submit") => ServeError::NonMonotonicSubmit {
                job: JobId(v.get("job").and_then(Json::as_u64).unwrap_or(0) as u32),
                submit: v.get("submit").and_then(Json::as_u64).unwrap_or(0),
                granted: v.get("granted").and_then(Json::as_u64).unwrap_or(0),
            },
            Some("unknown_policy") => ServeError::UnknownPolicy(PolicyIdError {
                id: v
                    .get("policy")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            Some("duplicate_id") => ServeError::DuplicateId {
                job: JobId(v.get("job").and_then(Json::as_u64).unwrap_or(0) as u32),
            },
            Some("sealed") => ServeError::Sealed,
            Some("explain_window_passed") => ServeError::ExplainWindowPassed {
                job: JobId(v.get("job").and_then(Json::as_u64).unwrap_or(0) as u32),
                submit: v.get("submit").and_then(Json::as_u64).unwrap_or(0),
                evicted: v.get("evicted").and_then(Json::as_u64).unwrap_or(0),
            },
            Some("unknown_session") => ServeError::UnknownSession {
                name: session_field(v),
            },
            Some("duplicate_session") => ServeError::DuplicateSession {
                name: session_field(v),
            },
            Some("invalid_session_name") => ServeError::InvalidSessionName {
                name: session_field(v),
            },
            Some("sim_error") => ServeError::Sim(detail),
            Some("io_error") => ServeError::Io(detail),
            _ => ServeError::BadRequest { detail },
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NonMonotonicSubmit {
                job,
                submit,
                granted,
            } => write!(
                f,
                "{job} submitted at t={submit} but the clock has already \
                 granted t={granted}; online submissions must be monotonic"
            ),
            ServeError::UnknownPolicy(e) => write!(f, "{e}"),
            ServeError::DuplicateId { job } => {
                write!(f, "{job} was already accepted by this session")
            }
            ServeError::Sealed => write!(f, "the session is sealed"),
            ServeError::ExplainWindowPassed {
                job,
                submit,
                evicted,
            } => write!(
                f,
                "{job} began waiting at t={submit}, but the session's trace window \
                 has dropped records through t={evicted}; explain it from a batch run"
            ),
            ServeError::UnknownSession { name } => {
                write!(f, "no session named `{name}`")
            }
            ServeError::DuplicateSession { name } => {
                write!(f, "a session named `{name}` already exists")
            }
            ServeError::InvalidSessionName { name } => write!(
                f,
                "invalid session name `{name}`: use 1-64 characters from [A-Za-z0-9_-]"
            ),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Sim(detail) => write!(f, "simulation error: {detail}"),
            ServeError::Io(detail) => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e.to_string())
    }
}

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        ServeError::BadRequest {
            detail: e.to_string(),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_round_trips() {
        let req = SubmitRequest {
            id: 7,
            user: 3,
            group: 1,
            submit: 1234,
            nodes: 16,
            runtime: 600,
            estimate: 900,
        };
        let back = SubmitRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.to_job(), req.to_job());
    }

    #[test]
    fn submit_request_rejects_missing_fields() {
        let v = fairsched_core::json::parse(r#"{"id": 1, "user": 2}"#).unwrap();
        let err = SubmitRequest::from_json(&v).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }));
    }

    #[test]
    fn errors_round_trip_with_kind_and_payload() {
        let cases = [
            ServeError::NonMonotonicSubmit {
                job: JobId(9),
                submit: 10,
                granted: 50,
            },
            ServeError::UnknownPolicy(PolicyIdError {
                id: "no-such.policy".into(),
            }),
            ServeError::DuplicateId { job: JobId(4) },
            ServeError::Sealed,
            ServeError::ExplainWindowPassed {
                job: JobId(3),
                submit: 20,
                evicted: 70,
            },
            ServeError::UnknownSession {
                name: "ghost".into(),
            },
            ServeError::DuplicateSession {
                name: "taken".into(),
            },
            ServeError::InvalidSessionName {
                name: "../etc".into(),
            },
            ServeError::Sim("boom".into()),
        ];
        for e in cases {
            let decoded = ServeError::decode(&e.to_json());
            match (&e, &decoded) {
                (ServeError::Sim(_), ServeError::Sim(d)) => {
                    assert!(d.contains("boom"));
                }
                _ => assert_eq!(decoded, e),
            }
            assert!(e.status() >= 400);
        }
    }

    #[test]
    fn session_specs_round_trip_with_and_without_overrides() {
        let bare = SessionSpec::named("alpha");
        assert_eq!(SessionSpec::from_json(&bare.to_json()).unwrap(), bare);
        let full = SessionSpec {
            name: "beta".into(),
            policy: Some("cplant24.nomax.all".into()),
            nodes: Some(64),
            id_floor: Some(1000),
        };
        assert_eq!(SessionSpec::from_json(&full.to_json()).unwrap(), full);
    }

    #[test]
    fn schedule_fingerprints_differ_on_any_placement_change() {
        use fairsched_core::policy::PolicySpec;
        use fairsched_sim::{simulate, NullObserver, SimOptions};

        let jobs = [
            Job::new(1, 1, 1, 0, 16, 300, 300),
            Job::new(2, 2, 1, 5, 32, 100, 200),
        ];
        let cfg = PolicySpec::parse("easy.nomax").unwrap().sim_config(32);
        let a = simulate(&jobs, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
        let b = simulate(&jobs, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        let mut shifted = a.clone();
        shifted.records[0].start += 1;
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&shifted));
    }

    #[test]
    fn status_response_round_trips() {
        let status = StatusResponse {
            policy: "easy.nomax".into(),
            nodes: 1024,
            now: 77,
            granted: 100,
            queued: 3,
            running: 2,
            free: 1000,
            down: 0,
            accepted: 5,
            completed: 1,
            next_event: Some(120),
            sealed: false,
        };
        assert_eq!(
            StatusResponse::from_json(&status.to_json()).unwrap(),
            status
        );
    }
}
