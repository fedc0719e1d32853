//! The per-session submission journal: the durability layer behind
//! `fairschedd --recover`.
//!
//! Every accepted submission, every clock grant, and the seal are
//! appended — in the exact order the session mutex serialized them — to
//! `DIR/<name>.journal.jsonl`, using the shared checksummed framing in
//! [`fairsched_core::journal`] (the same machinery behind the sweep's
//! crash-safe results journal). Rows are flushed to the kernel before
//! the request is acknowledged, so *acked implies journaled*: a SIGKILL
//! can only lose submissions the client never saw accepted, and those
//! the client simply resubmits ([`ServeError::DuplicateId`] on a
//! resubmission means it survived after all). The fsync is batched — the
//! session commits one `sync` per coalesced submission batch — so a
//! power cut loses at most one batch, never a torn prefix.
//!
//! Rows are [`Json`] values with sorted keys. A submit row is the wire
//! encoding [`SubmitRequest::to_json`] plus `"v"` and `"kind"`, and replay
//! decodes it with [`SubmitRequest::from_json`], so the job field list
//! lives only in [`crate::api`].
//!
//! Because the journal is an ordered prefix of the session's accepted
//! history and the stepped core is deterministic, replaying the rows
//! through a fresh [`Session`](crate::session::Session) reconstructs a
//! state from which the sealed schedule comes out *byte-identical* to
//! the uninterrupted run — the crate's replay-equivalence property
//! extended across a process boundary.

use crate::api::{ServeError, SubmitRequest};
use crate::clock::ClockMode;
use crate::session::SessionConfig;
use fairsched_core::journal::{replay_lines, row, LineWriter};
use fairsched_core::json::Json;
use fairsched_workload::time::Time;
use std::path::{Path, PathBuf};

/// The journal schema version this build writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Whether `name` is safe as a session name (and thus a journal file
/// stem): non-empty, at most 64 chars, `[A-Za-z0-9_-]` only. This is the
/// registry's validation rule too — route parsing and path construction
/// share it.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// The journal file for session `name` under `dir`.
pub fn journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.journal.jsonl"))
}

/// Session journals found under `dir`, as `(name, path)` pairs sorted by
/// name. Files that do not follow the `<name>.journal.jsonl` naming (or
/// whose stem is not a valid session name) are ignored.
pub fn scan_dir(dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        let Some(name) = file.strip_suffix(".journal.jsonl") else {
            continue;
        };
        if valid_session_name(name) {
            found.push((name.to_string(), path));
        }
    }
    found.sort();
    Ok(found)
}

/// One replayed journal row, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// An accepted submission.
    Submit(SubmitRequest),
    /// A clock grant up to the given horizon.
    Grant(Time),
    /// The session sealed.
    Seal,
}

/// What a journal replay recovered: the session's configuration from the
/// header plus its accepted history in order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSession {
    /// The session name the header recorded.
    pub name: String,
    /// The configuration to rebuild the session with.
    pub config: SessionConfig,
    /// Accepted history in the order the live session serialized it.
    pub events: Vec<JournalEvent>,
    /// Lines skipped (torn writes, corruption, unknown versions/kinds).
    pub skipped: usize,
}

fn header_row(name: &str, cfg: &SessionConfig) -> Json {
    let (clock, speedup) = match cfg.clock {
        ClockMode::Manual => ("manual", 0.0),
        ClockMode::Realtime { speedup } => ("realtime", speedup),
    };
    row(
        SCHEMA_VERSION,
        "header",
        Json::obj([
            ("session", Json::Str(name.into())),
            ("policy", Json::Str(cfg.policy.clone())),
            ("nodes", Json::UInt(cfg.nodes.into())),
            ("id_floor", Json::UInt(cfg.id_floor.into())),
            ("traced", Json::UInt(cfg.traced.into())),
            ("clock", Json::Str(clock.into())),
            ("speedup", Json::Float(speedup)),
        ]),
    )
}

fn header_from_json(v: &Json) -> Option<RecoveredSession> {
    let u32_of = |key: &str| u32::try_from(v.get(key)?.as_u64()?).ok();
    let name = v.get("session")?.as_str()?;
    if !valid_session_name(name) {
        return None;
    }
    let clock = match v.get("clock")?.as_str()? {
        "manual" => ClockMode::Manual,
        "realtime" => ClockMode::Realtime {
            speedup: v.get("speedup")?.as_f64()?,
        },
        _ => return None,
    };
    Some(RecoveredSession {
        name: name.into(),
        config: SessionConfig {
            policy: v.get("policy")?.as_str()?.into(),
            nodes: u32_of("nodes")?,
            clock,
            traced: v.get("traced")?.as_u64()? != 0,
            id_floor: u32_of("id_floor")?,
            ..SessionConfig::default()
        },
        events: Vec::new(),
        skipped: 0,
    })
}

/// The write half: owned by one [`Session`](crate::session::Session),
/// called only under the session mutex, so row order in the file is
/// exactly the order the session applied events to the core.
pub struct SessionJournal {
    out: LineWriter,
    uncommitted: bool,
}

impl SessionJournal {
    /// Creates (truncating) the journal for session `name` under `dir`
    /// and durably writes the header.
    pub fn create(dir: &Path, name: &str, cfg: &SessionConfig) -> std::io::Result<SessionJournal> {
        std::fs::create_dir_all(dir)?;
        let mut out = LineWriter::create(&journal_path(dir, name))?;
        out.write_sealed(&header_row(name, cfg))?;
        out.sync()?;
        Ok(SessionJournal {
            out,
            uncommitted: false,
        })
    }

    /// Reopens an existing journal for appending (recovery: the replayed
    /// history stays, new rows extend it).
    pub fn append(path: &Path) -> std::io::Result<SessionJournal> {
        Ok(SessionJournal {
            out: LineWriter::append(path)?,
            uncommitted: false,
        })
    }

    /// Buffers one accepted submission. Returns bytes written.
    pub fn append_submit(&mut self, req: &SubmitRequest) -> std::io::Result<u64> {
        self.uncommitted = true;
        self.out
            .write_sealed(&row(SCHEMA_VERSION, "submit", req.to_json()))
    }

    /// Buffers one clock grant. Returns bytes written.
    pub fn append_grant(&mut self, to: Time) -> std::io::Result<u64> {
        self.uncommitted = true;
        let fields = Json::obj([("to", Json::UInt(to))]);
        self.out.write_sealed(&row(SCHEMA_VERSION, "grant", fields))
    }

    /// Buffers the seal marker. Returns bytes written.
    pub fn append_seal(&mut self) -> std::io::Result<u64> {
        self.uncommitted = true;
        self.out
            .write_sealed(&row(SCHEMA_VERSION, "seal", Json::obj([])))
    }

    /// Commits everything buffered since the last commit: one flush (the
    /// SIGKILL guarantee) plus one fsync (the power-cut guarantee) for
    /// the whole batch. Returns whether anything was pending — the
    /// caller's `served_journal_batches` counter only ticks for real
    /// batches.
    pub fn commit(&mut self) -> std::io::Result<bool> {
        if !self.uncommitted {
            return Ok(false);
        }
        self.out.sync()?;
        self.uncommitted = false;
        Ok(true)
    }
}

/// Replays one session journal: header into a [`SessionConfig`], rows
/// into ordered [`JournalEvent`]s. Torn, corrupt, and unknown lines are
/// skipped with a warning (counted in
/// [`RecoveredSession::skipped`]). `Ok(None)` when the file carries no
/// valid header — nothing to recover.
pub fn replay(path: &Path) -> Result<Option<RecoveredSession>, ServeError> {
    let mut recovered: Option<RecoveredSession> = None;
    let mut events = Vec::new();
    let skipped = replay_lines(
        path,
        SCHEMA_VERSION,
        "the row is lost to recovery",
        |v| match v.get("kind").and_then(Json::as_str) {
            Some("header") => match header_from_json(v) {
                Some(r) if recovered.is_none() => {
                    recovered = Some(r);
                    Ok(())
                }
                Some(_) => Err("duplicate header".into()),
                None => Err("malformed header".into()),
            },
            Some("submit") => match SubmitRequest::from_json(v) {
                Ok(req) => {
                    events.push(JournalEvent::Submit(req));
                    Ok(())
                }
                Err(e) => Err(format!("malformed submit row: {e}")),
            },
            Some("grant") => match v.get("to").and_then(Json::as_u64) {
                Some(to) => {
                    events.push(JournalEvent::Grant(to));
                    Ok(())
                }
                None => Err("malformed grant row".into()),
            },
            Some("seal") => {
                events.push(JournalEvent::Seal);
                Ok(())
            }
            _ => Err("unknown record kind".into()),
        },
    )?;
    Ok(recovered.map(|mut r| {
        r.events = events;
        r.skipped = skipped;
        r
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("fairsched-served-journal-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn req(id: u32, submit: Time) -> SubmitRequest {
        SubmitRequest {
            id,
            user: 1,
            group: 1,
            submit,
            nodes: 4,
            runtime: 100,
            estimate: 120,
        }
    }

    #[test]
    fn session_names_are_validated_for_path_safety() {
        assert!(valid_session_name("default"));
        assert!(valid_session_name("team-a_2"));
        assert!(!valid_session_name(""));
        assert!(!valid_session_name("../escape"));
        assert!(!valid_session_name("a/b"));
        assert!(!valid_session_name("dot.dot"));
        assert!(!valid_session_name(&"x".repeat(65)));
    }

    #[test]
    fn history_round_trips_in_order() {
        let dir = tmp_dir("roundtrip");
        let cfg = SessionConfig {
            policy: "cplant24.nomax.all".into(),
            nodes: 64,
            id_floor: 100,
            ..Default::default()
        };
        let mut j = SessionJournal::create(&dir, "alpha", &cfg).unwrap();
        j.append_submit(&req(1, 0)).unwrap();
        j.append_grant(50).unwrap();
        j.append_submit(&req(2, 50)).unwrap();
        j.append_seal().unwrap();
        assert!(j.commit().unwrap());
        assert!(!j.commit().unwrap(), "nothing pending after a commit");
        drop(j);

        let r = replay(&journal_path(&dir, "alpha")).unwrap().unwrap();
        assert_eq!(r.name, "alpha");
        assert_eq!(r.config.policy, "cplant24.nomax.all");
        assert_eq!(r.config.nodes, 64);
        assert_eq!(r.config.id_floor, 100);
        assert_eq!(r.skipped, 0);
        assert_eq!(
            r.events,
            vec![
                JournalEvent::Submit(req(1, 0)),
                JournalEvent::Grant(50),
                JournalEvent::Submit(req(2, 50)),
                JournalEvent::Seal,
            ]
        );
    }

    #[test]
    fn realtime_clock_mode_survives_the_header() {
        let dir = tmp_dir("clock");
        let cfg = SessionConfig {
            clock: ClockMode::Realtime { speedup: 250.5 },
            ..Default::default()
        };
        SessionJournal::create(&dir, "rt", &cfg).unwrap();
        let r = replay(&journal_path(&dir, "rt")).unwrap().unwrap();
        assert_eq!(r.config.clock, ClockMode::Realtime { speedup: 250.5 });
    }

    #[test]
    fn a_torn_tail_loses_only_the_unacked_row() {
        let dir = tmp_dir("torn");
        let mut j = SessionJournal::create(&dir, "t", &SessionConfig::default()).unwrap();
        j.append_submit(&req(1, 0)).unwrap();
        j.append_submit(&req(2, 10)).unwrap();
        j.commit().unwrap();
        drop(j);
        let path = journal_path(&dir, "t");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        let mut got = None;
        fairsched_obs::log::capture(|| got = Some(replay(&path).unwrap().unwrap()));
        let r = got.unwrap();
        assert_eq!(r.events, vec![JournalEvent::Submit(req(1, 0))]);
        assert_eq!(r.skipped, 1);
    }

    /// Rows with keys in field declaration order (`"v"` first) rather than
    /// sorted recover to the same session as the writer's own rows.
    #[test]
    fn parent_format_journals_recover_identically() {
        let dir = tmp_dir("parent-format");
        let sealed = |body: &str| {
            let crc = fairsched_core::journal::fnv1a(body.as_bytes());
            format!("{body},\"crc\":{crc}}}\n")
        };
        let text: String = [
            r#"{"v":1,"kind":"header","session":"legacy","policy":"easy.nomax","nodes":64,"id_floor":5,"traced":1,"clock":"realtime","speedup":2.5"#,
            r#"{"v":1,"kind":"submit","id":6,"user":1,"group":1,"submit":0,"nodes":4,"runtime":100,"estimate":120"#,
            r#"{"v":1,"kind":"grant","to":50"#,
            r#"{"v":1,"kind":"submit","id":7,"user":1,"group":1,"submit":50,"nodes":4,"runtime":100,"estimate":120"#,
            r#"{"v":1,"kind":"seal""#,
        ]
        .iter()
        .map(|body| sealed(body))
        .collect();
        let legacy = journal_path(&dir, "legacy");
        std::fs::write(&legacy, text).unwrap();
        let old = replay(&legacy).unwrap().unwrap();

        let cfg = SessionConfig {
            policy: "easy.nomax".into(),
            nodes: 64,
            id_floor: 5,
            traced: true,
            clock: ClockMode::Realtime { speedup: 2.5 },
            ..Default::default()
        };
        std::fs::remove_file(&legacy).unwrap();
        let mut j = SessionJournal::create(&dir, "legacy", &cfg).unwrap();
        j.append_submit(&req(6, 0)).unwrap();
        j.append_grant(50).unwrap();
        j.append_submit(&req(7, 50)).unwrap();
        j.append_seal().unwrap();
        j.commit().unwrap();
        drop(j);
        let new = replay(&legacy).unwrap().unwrap();

        assert_eq!(old, new);
        assert_eq!(old.config, cfg);
        assert_eq!(old.skipped, 0);
        assert_eq!(
            old.events,
            vec![
                JournalEvent::Submit(req(6, 0)),
                JournalEvent::Grant(50),
                JournalEvent::Submit(req(7, 50)),
                JournalEvent::Seal,
            ]
        );
    }

    #[test]
    fn headerless_files_recover_nothing() {
        let dir = tmp_dir("headerless");
        let path = dir.join("x.journal.jsonl");
        std::fs::write(&path, "not a journal\n").unwrap();
        let mut got = None;
        fairsched_obs::log::capture(|| got = Some(replay(&path)));
        assert!(got.unwrap().unwrap().is_none());
        assert!(replay(&dir.join("missing.journal.jsonl"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn scan_finds_only_well_named_journals() {
        let dir = tmp_dir("scan");
        SessionJournal::create(&dir, "beta", &SessionConfig::default()).unwrap();
        SessionJournal::create(&dir, "alpha", &SessionConfig::default()).unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join(".journal.jsonl"), "x").unwrap();
        let found = scan_dir(&dir).unwrap();
        let names: Vec<&str> = found.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }
}
